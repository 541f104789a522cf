"""Interaction topologies: the paper's three tori plus general graphs.

Public classes
--------------
* :class:`ToroidalMesh`, :class:`TorusCordalis`, :class:`TorusSerpentinus` —
  the degree-4 grid variants of Section II-A.
* :class:`GraphTopology` — any undirected graph (scale-free extension).
* :class:`OpenMesh` — the non-wrapping grid (boundary-effect comparisons).
"""

from .base import GridTopology, Topology
from .graph import GraphTopology
from .lattice import OpenMesh
from .tori import (
    TORUS_CLASSES,
    ToroidalMesh,
    TorusCordalis,
    TorusSerpentinus,
    make_torus,
)

__all__ = [
    "Topology",
    "GridTopology",
    "ToroidalMesh",
    "TorusCordalis",
    "TorusSerpentinus",
    "TORUS_CLASSES",
    "make_torus",
    "GraphTopology",
    "OpenMesh",
]
