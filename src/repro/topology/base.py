"""Topology base classes.

A :class:`Topology` is a finite undirected graph given by a dense neighbor
table.  The simulation engine (:mod:`repro.engine`) consumes only this table,
so every interaction structure in the library — the three torus variants of
the paper, the open grid, and arbitrary ``networkx`` graphs — presents the
same interface.

Design notes (hpc-parallel idioms)
----------------------------------
The neighbor table is a C-contiguous ``int32`` array of shape
``(num_vertices, max_degree)`` built exactly once.  For regular topologies
(the tori, degree 4) every row is fully populated; for irregular graphs rows
are padded with ``-1`` and a separate ``degrees`` vector records the true
degree.  The hot simulation loop then reduces to a single vectorized gather
``colors[neighbors]`` with no per-vertex Python work.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Hashable, Iterator, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # type-only: networkx stays a lazy runtime import
    import networkx

__all__ = ["Topology", "GridTopology"]


class Topology(abc.ABC):
    """Abstract finite interaction topology.

    Subclasses must populate:

    ``neighbors``
        ``(num_vertices, max_degree)`` ``int32`` array; entry ``[v, s]`` is
        the vertex id of the ``s``-th neighbor of ``v``, or ``-1`` for
        padding slots of vertices with degree below ``max_degree``.
    ``degrees``
        ``(num_vertices,)`` ``int32`` array of true degrees.
    """

    #: filled by subclasses
    neighbors: np.ndarray
    degrees: np.ndarray

    #: 2-wide tori legitimately list the same neighbor twice (the torus
    #: definitions wrap both ways onto the same vertex); such subclasses
    #: flip this so :meth:`validate` accepts multi-edges.
    allows_duplicate_neighbors: bool = False

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the topology."""
        return int(self.neighbors.shape[0])

    @property
    def max_degree(self) -> int:
        """Width of the neighbor table (maximum vertex degree)."""
        return int(self.neighbors.shape[1])

    @property
    def is_regular(self) -> bool:
        """True when every vertex has the same degree."""
        return bool(np.all(self.degrees == self.degrees[0]))

    def structure_token(self) -> Optional[Hashable]:
        """Hashable token identifying this topology's *structure*, or ``None``.

        Two topologies with equal tokens must have bitwise-identical
        neighbor tables (same shape, same entries, same padding), because
        the stepper registry (:mod:`repro.engine.plans`) serves
        compiled steppers across instances keyed on this token — exactly
        how pool workers rebuilding the same graph share compilations.
        The base implementation returns ``None`` (unknown structure,
        keyed by object identity instead); registry tori are tokenized
        by :func:`repro.engine.parallel.topology_spec` upstream, and
        :class:`~repro.topology.graph.GraphTopology` publishes a content
        hash of its degree/neighbor tables.  Subclasses that mutate their
        table after construction must not publish a token.
        """
        return None

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def neighbor_list(self, v: int) -> np.ndarray:
        """Return the (unpadded) neighbor ids of vertex ``v``."""
        row = self.neighbors[v]
        return row[: self.degrees[v]].copy()

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge exactly once as ``(u, v)`` with u < v."""
        seen = set()
        for u in range(self.num_vertices):
            for w in self.neighbor_list(u):
                w = int(w)
                key = (u, w) if u < w else (w, u)
                if key not in seen:
                    seen.add(key)
                    yield key

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.degrees.sum()) // 2

    def to_networkx(self) -> "networkx.Graph":
        """Export the topology as an undirected :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ValueError` on failure.

        Invariants checked:

        * table shape/dtype and padding layout,
        * no self-loops,
        * no duplicate neighbor within one row,
        * symmetry (``u`` listed by ``v`` iff ``v`` listed by ``u``).
        """
        nb, deg = self.neighbors, self.degrees
        if nb.dtype != np.int32 or deg.dtype != np.int32:
            raise ValueError("neighbor table and degrees must be int32")
        if nb.ndim != 2 or deg.shape != (nb.shape[0],):
            raise ValueError("inconsistent table shapes")
        n = self.num_vertices
        for v in range(n):
            row = nb[v]
            d = int(deg[v])
            live, pad = row[:d], row[d:]
            if np.any(pad != -1):
                raise ValueError(f"vertex {v}: padding slots must be -1")
            if np.any((live < 0) | (live >= n)):
                raise ValueError(f"vertex {v}: neighbor id out of range")
            if np.any(live == v):
                raise ValueError(f"vertex {v}: self-loop")
            if not self.allows_duplicate_neighbors and len(set(live.tolist())) != d:
                raise ValueError(f"vertex {v}: duplicate neighbor")
        # symmetry
        adj = {v: set(self.neighbor_list(v).tolist()) for v in range(n)}
        for v in range(n):
            for w in adj[v]:
                if v not in adj[w]:
                    raise ValueError(f"asymmetric edge {v}->{w}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(num_vertices={self.num_vertices}, "
            f"max_degree={self.max_degree})"
        )


class GridTopology(Topology):
    """Base class for the three m x n torus variants of the paper.

    Vertices are indexed in row-major order: vertex ``(i, j)`` (row ``i`` in
    ``0..m-1``, column ``j`` in ``0..n-1``) has id ``i * n + j``.  All grid
    topologies are 4-regular; the neighbor slot order is
    ``[up, down, left, right]`` (slots 0..3), where *up/down* move along the
    column and *left/right* along the row.  The rules never depend on slot
    order, but a fixed convention makes tests and renderings deterministic.
    """

    #: neighbor slot names, in table order
    SLOTS = ("up", "down", "left", "right")

    def __init__(self, m: int, n: int):
        if m < 2 or n < 2:
            raise ValueError(
                f"torus dimensions must be >= 2, got {m}x{n} "
                "(degree-4 neighborhoods degenerate below that)"
            )
        self.m = int(m)
        self.n = int(n)
        self.allows_duplicate_neighbors = m == 2 or n == 2
        self.degrees = np.full(m * n, 4, dtype=np.int32)
        self.neighbors = self._build_neighbors()
        if not self.neighbors.flags["C_CONTIGUOUS"]:
            self.neighbors = np.ascontiguousarray(self.neighbors)

    @abc.abstractmethod
    def _build_neighbors(self) -> np.ndarray:
        """Return the ``(m*n, 4)`` int32 neighbor table."""

    # ------------------------------------------------------------------
    # Coordinate helpers
    # ------------------------------------------------------------------
    def vertex_index(self, i: int, j: int) -> int:
        """Row-major id of vertex ``(i, j)`` (coordinates taken mod m, n)."""
        return (i % self.m) * self.n + (j % self.n)

    def vertex_coords(self, v: int) -> Tuple[int, int]:
        """Inverse of :meth:`vertex_index`."""
        if not 0 <= v < self.num_vertices:
            raise ValueError(f"vertex id {v} out of range")
        return divmod(int(v), self.n)

    def index_grid(self) -> np.ndarray:
        """``(m, n)`` array of vertex ids — a reshaped ``arange`` view."""
        return np.arange(self.m * self.n, dtype=np.int64).reshape(self.m, self.n)

    def to_grid(self, values: np.ndarray) -> np.ndarray:
        """Reshape a per-vertex vector into an ``(m, n)`` grid (a view)."""
        values = np.asarray(values)
        if values.shape != (self.num_vertices,):
            raise ValueError(
                f"expected shape ({self.num_vertices},), got {values.shape}"
            )
        return values.reshape(self.m, self.n)

    def from_grid(self, grid: np.ndarray) -> np.ndarray:
        """Flatten an ``(m, n)`` grid into the per-vertex vector layout."""
        grid = np.asarray(grid)
        if grid.shape != (self.m, self.n):
            raise ValueError(f"expected shape ({self.m}, {self.n}), got {grid.shape}")
        return grid.reshape(-1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(m={self.m}, n={self.n})"
