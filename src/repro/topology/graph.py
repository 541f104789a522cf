"""Arbitrary-graph topology (used by the scale-free future-work extension).

The paper's conclusions propose studying the SMP protocol on scale-free
networks; :class:`GraphTopology` adapts any :mod:`networkx` graph (or edge
list) to the dense neighbor-table interface consumed by the engine, padding
irregular rows with ``-1``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Tuple, Union

import numpy as np

from .base import Topology

__all__ = ["GraphTopology"]

EdgeLike = Union["networkx.Graph", Iterable[Tuple[int, int]]]  # noqa: F821


class GraphTopology(Topology):
    """Topology backed by an arbitrary undirected simple graph.

    Parameters
    ----------
    graph:
        Either a ``networkx.Graph`` whose nodes are hashable (they are
        relabeled to ``0..N-1`` in sorted order when not already integers
        ``0..N-1``), or an iterable of ``(u, v)`` edges over integer ids.
    num_vertices:
        Required when passing an edge list that may leave isolated trailing
        vertices unmentioned; ignored for ``networkx`` input.
    """

    def __init__(self, graph: EdgeLike, num_vertices: int | None = None):
        edges, n = self._normalize(graph, num_vertices)
        # adjacency sets, not lists: the duplicate-edge probe is O(1)
        # instead of O(deg), so dense graphs build in O(E) not O(E * deg)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"edge ({u}, {v}) references a vertex id outside "
                    f"[0, {n}); vertex ids must be 0-based integers"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not supported")
            if v in adj[u]:
                continue  # ignore duplicate edges
            adj[u].add(v)
            adj[v].add(u)
        degrees = np.array([len(a) for a in adj], dtype=np.int32)
        max_deg = int(degrees.max(initial=0))
        table = np.full((n, max(max_deg, 1)), -1, dtype=np.int32)
        for v, neigh in enumerate(adj):
            table[v, : len(neigh)] = sorted(neigh)
        self.neighbors = np.ascontiguousarray(table)
        self.degrees = degrees
        #: mapping original node label -> vertex id (identity for int input)
        self.labels = self._labels
        self._structure_token: "tuple | None" = None

    def structure_token(self) -> Optional[Hashable]:
        """Content hash of the degree/neighbor tables (computed once).

        Equal tokens imply bitwise-equal tables, so the stepper
        registry (:mod:`repro.engine.plans`) is shared between
        instances built from the same graph — e.g. pool workers that
        each rebuild one BA topology from the same seed.  Distinct
        graphs (different edges, vertex counts, or table widths) hash
        differently, so a cached stepper is never served across
        structures.
        """
        if self._structure_token is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(np.asarray(self.neighbors.shape, dtype=np.int64).tobytes())
            h.update(self.degrees.tobytes())
            h.update(self.neighbors.tobytes())
            self._structure_token = ("graph", h.hexdigest())
        return self._structure_token

    def _normalize(
        self, graph: EdgeLike, num_vertices: int | None
    ) -> Tuple[List[Tuple[int, int]], int]:
        try:
            import networkx as nx
        except ImportError:  # pragma: no cover - networkx is a hard dep
            nx = None
        if nx is not None and isinstance(graph, nx.Graph):
            nodes = list(graph.nodes())
            if all(isinstance(u, (int, np.integer)) for u in nodes) and set(
                map(int, nodes)
            ) == set(range(len(nodes))):
                self._labels = {int(u): int(u) for u in nodes}
            else:
                order = sorted(nodes, key=repr)
                self._labels = {u: i for i, u in enumerate(order)}
            edges = [
                (self._labels[u], self._labels[v]) for u, v in graph.edges()
            ]
            return edges, len(nodes)
        edges = [(int(u), int(v)) for u, v in graph]
        implied = 1 + max((max(e) for e in edges), default=-1)
        n = implied if num_vertices is None else int(num_vertices)
        if n < implied:
            raise ValueError(
                f"num_vertices={n} smaller than largest edge endpoint {implied - 1}"
            )
        self._labels = {i: i for i in range(n)}
        return edges, n
