"""Ordered-palette increment dynamics (the companion model of refs [4][5]).

The paper's introduction points at a second multi-color model studied by
the same authors ("Multicolored dynamos on toroidal meshes", CoRR
abs/1012.4404, and their ICTCS 2010 companion, ref [5]): when the color
set is an *ordered* set of integers, "a node recoloring itself increases
its color by one".

Our formalization (documented here because the companion papers give the
rule informally): colors are ``0..num_colors-1``; a vertex holding color
``c`` increments to ``c + 1`` when at least ``ceil(d/2)`` of its neighbors
hold colors strictly greater than ``c``; the top color never changes.
Properties that make this the natural ordered analogue of the SMP rule:

* dynamics are **monotone** in every coordinate (colors only grow), so
  the sum of colors is a strict potential and any run converges within
  ``(num_colors - 1) * N`` rounds — no cycle detection needed;
* a vertex at the top color is immutable, so an initial set of top-color
  vertices plays the role of the dynamo seed: the question becomes which
  seeds pull the whole torus up to the top color.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..topology.base import Topology
from .base import KernelSpec, Rule

__all__ = ["OrderedIncrementRule"]


class OrderedIncrementRule(Rule):
    """Increment-by-one dynamics on an ordered palette.

    Parameters
    ----------
    num_colors:
        Palette size; colors are ``0..num_colors-1`` and ``num_colors-1``
        is absorbing.
    threshold:
        ``"simple"`` — ``ceil(d/2)`` strictly-greater neighbors trigger the
        increment (default); ``"strong"`` — ``floor(d/2) + 1``.
    """

    regular_degree = None

    def __init__(self, num_colors: int, threshold: str = "simple"):
        if num_colors < 2:
            raise ValueError("ordered dynamics need at least 2 colors")
        if threshold not in ("simple", "strong"):
            raise ValueError(f"unknown threshold {threshold!r}")
        self.num_colors = int(num_colors)
        self.threshold = threshold

    def _thresholds(self, degrees: np.ndarray) -> np.ndarray:
        d = degrees.astype(np.int64)
        thr = (d + 1) // 2 if self.threshold == "simple" else d // 2 + 1
        # an isolated vertex never increments: ceil(0/2) = 0 would be
        # vacuously reached, so clamp its threshold out of reach (the
        # scalar update_vertex guards d == 0 explicitly)
        return np.maximum(thr, 1)

    def _validate_palette(self, colors: np.ndarray) -> None:
        if np.any(colors >= self.num_colors) or np.any(colors < 0):
            raise ValueError(f"colors must lie in [0, {self.num_colors})")

    def step_batch(
        self,
        colors: np.ndarray,
        topo: Topology,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._validate_palette(colors)
        nb = topo.neighbors
        mask = nb >= 0
        neighbor_colors = colors[:, np.where(mask, nb, 0)]
        greater = ((neighbor_colors > colors[:, :, None]) & mask).sum(axis=2)
        thr = self._thresholds(topo.degrees)
        bump = (greater >= thr) & (colors < self.num_colors - 1)
        result = np.where(bump, colors + 1, colors).astype(np.int32, copy=False)
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def kernel_spec(self, topo: Topology) -> Optional[KernelSpec]:
        return KernelSpec(
            kind="ordered",
            num_colors=self.num_colors,
            thresholds=self._thresholds(topo.degrees),
            degrees=np.asarray(topo.degrees, dtype=np.int64),
            validate=self._validate_palette,
        )

    def plan_token(self) -> Optional[object]:
        # palette size and threshold policy fully determine the kernel;
        # mutating either on a live instance misses the cache and
        # recompiles, as the plan-token contract requires
        return (self.num_colors, self.threshold)

    def update_vertex(self, current: int, neighbor_colors: Sequence[int]) -> int:
        d = len(neighbor_colors)
        if d == 0 or current >= self.num_colors - 1:
            return current
        thr = (d + 1) // 2 if self.threshold == "simple" else d // 2 + 1
        greater = sum(1 for c in neighbor_colors if c > current)
        return current + 1 if greater >= thr else current

    def max_rounds(self, topo: Topology) -> int:
        """A sound convergence budget from the color-sum potential."""
        return (self.num_colors - 1) * topo.num_vertices + 1

    def name(self) -> str:
        return f"OrderedIncrementRule[{self.num_colors},{self.threshold}]"
