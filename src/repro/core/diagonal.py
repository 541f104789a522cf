"""Diagonal dynamos — the below-bound family this reproduction discovered.

The paper's lower bounds (Theorems 1, 3, 5) rest on Lemma 2, which fails
under the SMP tie-keep semantics: a k-vertex is protected not only by two
k-neighbors (a k-block) but also by any neighborhood with no unique
>= 2-color — in particular by a 2-2 tie of two other colors.  The main
diagonal of an n x n torus exploits this: each diagonal vertex can be
protected with just two complement colors split 2-2 around it, while the
staircase vertices beside the diagonal see two k-neighbors and convert,
cascading to the monochromatic configuration.

The result is a **monotone dynamo of size n with |C| = 3** on the n x n
toroidal mesh (verified by exhaustive-over-complement search for
n = 3..6), against the paper's bound of 2n - 2 and its claim that four
colors are necessary — and size n (|C| = 4) on the cordalis and
serpentinus against their n + 1 bounds.

Complements are found by :mod:`repro.core.complement`'s DFS (no closed
form is known to us; the search is deterministic, so results are
reproducible), with the n <= 6 mesh witnesses cached inline for O(1)
access.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..engine.context import CancelCheck
from ..topology.base import GridTopology
from ..topology.tori import make_torus
from .complement import minimum_palette_complement
from .constructions import Construction

__all__ = ["diagonal_seed", "diagonal_dynamo", "CACHED_MESH_DIAGONAL_WITNESSES"]

#: search-found mesh complements (target color 0, complement colors 1/2),
#: one per size, verified monotone dynamos; regenerate with
#: ``diagonal_dynamo(n, use_cache=False)``.
CACHED_MESH_DIAGONAL_WITNESSES = {
    3: [
        [0, 1, 1],
        [2, 0, 1],
        [2, 2, 0],
    ],
    4: [
        [0, 1, 1, 1],
        [2, 0, 1, 2],
        [1, 2, 0, 1],
        [2, 2, 2, 0],
    ],
    5: [
        [0, 1, 1, 1, 1],
        [2, 0, 1, 2, 1],
        [1, 2, 0, 1, 2],
        [1, 1, 2, 0, 1],
        [2, 2, 2, 2, 0],
    ],
    6: [
        [0, 1, 1, 2, 1, 1],
        [2, 0, 1, 2, 2, 1],
        [1, 2, 0, 1, 1, 2],
        [1, 1, 2, 0, 1, 2],
        [1, 2, 1, 2, 0, 1],
        [2, 2, 1, 2, 2, 0],
    ],
}


def diagonal_seed(topo: GridTopology) -> List[int]:
    """Vertex ids of the main diagonal ``(i, i mod n)`` for i in 0..m-1."""
    return [topo.vertex_index(i, i % topo.n) for i in range(topo.m)]


def diagonal_dynamo(
    n: int,
    kind: str = "mesh",
    *,
    use_cache: bool = True,
    max_palette: int = 4,
    max_nodes: int = 20_000_000,
    cancel: Optional[CancelCheck] = None,
) -> Optional[Construction]:
    """A size-n monotone dynamo on the n x n torus seeded on the diagonal.

    Returns None when the complement search exhausts its budget without a
    witness (expected for n beyond ~6 — the DFS is exponential; no claim
    is made either way there).  ``cancel`` is polled by the complement
    search, which raises :class:`~repro.engine.parallel.RunCancelled`
    once it trips.
    """
    if n < 3:
        raise ValueError("diagonal dynamos need n >= 3")
    topo = make_torus(kind, n, n)
    seed_ids = diagonal_seed(topo)
    colors: Optional[np.ndarray] = None
    palette_size: Optional[int] = None
    if use_cache and kind in ("mesh", "toroidal_mesh") and n in CACHED_MESH_DIAGONAL_WITNESSES:
        colors = np.asarray(
            CACHED_MESH_DIAGONAL_WITNESSES[n], dtype=np.int32
        ).reshape(-1)
        palette_size = 2
    else:
        found = minimum_palette_complement(
            topo, seed_ids, k=0, max_palette=max_palette, max_nodes=max_nodes,
            cancel=cancel,
        )
        if found is None:
            return None
        palette_size, colors = found
    seed = np.zeros(topo.num_vertices, dtype=bool)
    seed[np.asarray(seed_ids)] = True
    from .bounds import lower_bound

    return Construction(
        topo=topo,
        colors=colors,
        k=0,
        seed=seed,
        palette=[0] + list(range(1, palette_size + 1)),
        name=f"diagonal_dynamo[{kind}]",
        size_lower_bound=lower_bound(kind, n, n),
        notes=(
            "below-bound reproduction finding: size n beats the paper's "
            f"bound {lower_bound(kind, n, n)} via rainbow/tie protection"
        ),
    )


def verify_cached_witnesses() -> bool:
    """Re-verify every cached witness (used by tests)."""
    from .verify import is_monotone_dynamo

    for n, rows in CACHED_MESH_DIAGONAL_WITNESSES.items():
        topo = make_torus("mesh", n, n)
        colors = np.asarray(rows, dtype=np.int32).reshape(-1)
        if not is_monotone_dynamo(topo, colors, k=0):
            return False
        if int((colors == 0).sum()) != n:
            return False
    return True
