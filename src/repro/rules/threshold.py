"""Linear-threshold activation rule — the Target Set Selection model the
paper extends to many colors.

Target Set Selection (Section I of the paper; Kempe-Kleinberg-Tardos 2003,
Chang-Lyuu 2009) works on two states, inactive (0) and active (1), with a
*monotone/irreversible* update: an inactive vertex activates once the number
of active neighbors reaches its threshold; active vertices stay active.

Thresholds are per-vertex.  The classical settings from the literature
(referenced in the paper's related-work discussion, ref [10]):

* ``"simple"``  — ``ceil(d(v)/2)`` active neighbors,
* ``"strong"``  — ``floor(d(v)/2) + 1``,
* ``"unanimous"`` — ``d(v)``,
* an explicit integer vector.

On the degree-4 tori ``"simple"`` is exactly 2-neighbor bootstrap
percolation, so the fixed point of a seed set is
:func:`repro.core.irreversible.bootstrap_closure` of it (pinned in
``tests/test_core_irreversible_floor.py``); the CLI reaches this rule as
``sweep --rule threshold``.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence, Union

import numpy as np

from ..topology.base import Topology
from .base import KernelSpec, Rule

__all__ = ["LinearThresholdRule", "INACTIVE", "ACTIVE"]

INACTIVE = 0
ACTIVE = 1


class LinearThresholdRule(Rule):
    """Irreversible linear-threshold activation (states 0/1)."""

    regular_degree = None

    def __init__(self, thresholds: Union[str, Sequence[int], np.ndarray] = "simple"):
        self._spec = thresholds
        self._cached: Optional[np.ndarray] = None
        self._cached_for = None  # weakref to the topology, not its id —
        # id() values get reused after garbage collection, which would
        # serve one topology's thresholds to another of the same size

    def thresholds_for(self, topo: Topology) -> np.ndarray:
        """Resolve the threshold spec against a topology's degree vector."""
        if (
            self._cached is not None
            and self._cached_for is not None
            and self._cached_for() is topo
        ):
            return self._cached
        deg = topo.degrees.astype(np.int64)
        if isinstance(self._spec, str):
            if self._spec == "simple":
                thr = (deg + 1) // 2
            elif self._spec == "strong":
                thr = deg // 2 + 1
            elif self._spec == "unanimous":
                thr = deg.copy()
            else:
                raise ValueError(f"unknown threshold spec {self._spec!r}")
        else:
            thr = np.asarray(self._spec, dtype=np.int64)
            if thr.shape != (topo.num_vertices,):
                raise ValueError(
                    f"threshold vector has shape {thr.shape}, expected "
                    f"({topo.num_vertices},)"
                )
            if np.any(thr < 0):
                raise ValueError("thresholds must be non-negative")
        self._cached, self._cached_for = thr, weakref.ref(topo)
        return thr

    def __getstate__(self) -> dict:
        # the lazy cache holds a weakref (unpicklable) and is
        # per-process state anyway: pool workers rebuild their topology,
        # so a shipped cache could never hit
        state = dict(self.__dict__)
        state["_cached"] = None
        state["_cached_for"] = None
        return state

    @staticmethod
    def _validate_states(colors: np.ndarray) -> None:
        if np.any((colors != INACTIVE) & (colors != ACTIVE)):
            raise ValueError("linear-threshold states must be 0 (inactive) or 1 (active)")

    def step_batch(
        self,
        colors: np.ndarray,
        topo: Topology,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._validate_states(colors)
        thr = self.thresholds_for(topo)
        nb, mask = topo.neighbors, topo.neighbors >= 0
        active_neighbors = (
            (colors[:, np.where(mask, nb, 0)] == ACTIVE) & mask
        ).sum(axis=2)
        result = np.where(
            (colors == ACTIVE) | (active_neighbors >= thr), ACTIVE, INACTIVE
        ).astype(np.int32, copy=False)
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def kernel_spec(self, topo: Topology) -> Optional[KernelSpec]:
        return KernelSpec(
            kind="threshold",
            thresholds=self.thresholds_for(topo),
            degrees=np.asarray(topo.degrees, dtype=np.int64),
            validate=self._validate_states,
        )

    def plan_token(self) -> Optional[object]:
        if isinstance(self._spec, str):
            return (self._spec,)
        # explicit vectors: token by value, so two rules built from equal
        # vectors share cached steppers and a replaced vector misses
        arr = np.asarray(self._spec, dtype=np.int64)
        return ("vector", arr.shape, arr.tobytes())

    def update_vertex(self, current: int, neighbor_colors: Sequence[int]) -> int:
        if current == ACTIVE:
            return ACTIVE
        d = len(neighbor_colors)
        if isinstance(self._spec, str):
            thr = {
                "simple": (d + 1) // 2,
                "strong": d // 2 + 1,
                "unanimous": d,
            }[self._spec]
        else:
            raise ValueError(
                "scalar oracle unavailable for explicit threshold vectors "
                "(degree alone does not identify the vertex)"
            )
        active = sum(1 for c in neighbor_colors if c == ACTIVE)
        return ACTIVE if active >= thr else INACTIVE

    def name(self) -> str:
        spec = self._spec if isinstance(self._spec, str) else "custom"
        return f"LinearThresholdRule[{spec}]"
