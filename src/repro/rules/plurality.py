"""Arbitrary-degree generalization of the SMP rule (scale-free extension).

On degree-4 tori the SMP-Protocol reads "adopt the unique color held by at
least 2 = ceil(4/2) neighbors".  The natural generalization to a vertex of
degree ``d`` — used for the paper's future-work experiments on scale-free
graphs — is:

    adopt color ``c`` iff ``c`` is the *only* color held by at least
    ``ceil(d/2)`` neighbors; otherwise keep the current color.

On 4-regular graphs this is bit-for-bit the SMP rule (property-tested in
``tests/test_rules_plurality.py``), so there the compiler serves it the SMP
plan, bit-sliced kernel included.  The threshold function is pluggable so
strong-majority-style variants (``ceil((d+1)/2)``) can be explored.

The kernel is the *counting* kernel: colors are assumed to be small integers
``0..num_colors-1``; a per-vertex histogram is accumulated with one fused
scatter per neighbor slot (max-degree iterations of vectorized work — fine
because real max degrees are tiny compared to N).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from ..topology.base import Topology
from .base import KernelSpec, Rule

__all__ = ["GeneralizedPluralityRule", "ceil_half", "strong_threshold"]


def ceil_half(degree: np.ndarray | int) -> np.ndarray | int:
    """Default threshold ``ceil(d/2)`` (simple majority, SMP-compatible)."""
    if isinstance(degree, np.ndarray):
        return (degree + 1) // 2
    return math.ceil(degree / 2)


def strong_threshold(degree: np.ndarray | int) -> np.ndarray | int:
    """Strong-majority threshold ``ceil((d+1)/2) = floor(d/2) + 1``."""
    if isinstance(degree, np.ndarray):
        return degree // 2 + 1
    return degree // 2 + 1


class GeneralizedPluralityRule(Rule):
    """Unique-plurality adoption with a degree-dependent threshold.

    Parameters
    ----------
    num_colors:
        Exclusive upper bound on color ids (histogram width).  Using the
        exact palette size keeps the histogram cache-friendly.
    threshold_fn:
        Maps (array of) degrees to (array of) adoption thresholds; defaults
        to :func:`ceil_half`.  Vertices of degree 0 never change.
    """

    regular_degree = None  # any

    def __init__(
        self,
        num_colors: int,
        threshold_fn: Callable[[np.ndarray], np.ndarray] = ceil_half,
    ):
        if num_colors < 1:
            raise ValueError("num_colors must be >= 1")
        self.num_colors = int(num_colors)
        self.threshold_fn = threshold_fn

    # ------------------------------------------------------------------
    def _validate_palette(self, colors: np.ndarray) -> None:
        if np.any(colors >= self.num_colors) or np.any(colors < 0):
            raise ValueError(
                f"colors must lie in [0, {self.num_colors}); "
                "construct the rule with the full palette size"
            )

    def step_batch(
        self,
        colors: np.ndarray,
        topo: Topology,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched counting kernel: one ``(B, N, num_colors)`` histogram,
        accumulated with one fused scatter per neighbor slot."""
        self._validate_palette(colors)
        nb = topo.neighbors
        mask = nb >= 0
        b, n = colors.shape
        counts = np.zeros((b, n, self.num_colors), dtype=np.int32)
        b_idx = np.arange(b)[:, None]
        safe_nb = np.where(mask, nb, 0)
        for s in range(nb.shape[1]):
            cols = np.flatnonzero(mask[:, s])
            np.add.at(
                counts, (b_idx, cols[None, :], colors[:, safe_nb[cols, s]]), 1
            )
        audible_degree = mask.sum(axis=1).astype(np.int64)
        thresholds = self.threshold_fn(audible_degree)
        reaching = counts >= thresholds[None, :, None]
        n_reaching = reaching.sum(axis=2)
        winner = np.argmax(counts, axis=2).astype(np.int32)
        adopt = (n_reaching == 1) & (audible_degree > 0)
        result = np.where(adopt, winner, colors).astype(np.int32, copy=False)
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def kernel_spec(self, topo: Topology) -> Optional[KernelSpec]:
        audible = (topo.neighbors >= 0).sum(axis=1).astype(np.int64)
        thresholds = np.asarray(self.threshold_fn(audible))
        if not np.issubdtype(thresholds.dtype, np.integer) and not np.all(
            thresholds == np.trunc(thresholds)
        ):
            # a fractional threshold_fn (counts >= 2.5) has no exact
            # integer form; no spec — the compiler falls back to
            # step_batch, which keeps it bitwise-identical
            return None
        return KernelSpec(
            kind="plurality",
            num_colors=self.num_colors,
            thresholds=thresholds.astype(np.int64),
            degrees=audible,
            validate=self._validate_palette,
        )

    def plan_token(self) -> Optional[object]:
        # the threshold callable itself joins the token (callables hash
        # by identity): swapping in a different function — or a fresh
        # lambda — invalidates cached steppers, while reusing the same
        # function object keeps serving them
        return (self.num_colors, self.threshold_fn)

    def update_vertex(self, current: int, neighbor_colors: Sequence[int]) -> int:
        d = len(neighbor_colors)
        if d == 0:
            return current
        thr = int(self.threshold_fn(np.asarray([d]))[0])
        from .smp import unique_plurality_color

        winner = unique_plurality_color(neighbor_colors, threshold=thr)
        return current if winner is None else winner
