"""The compiled kernel: precomputed gathers + preallocated scratch.

Every experiment in this reproduction bottoms out in one local step —
each vertex takes its neighbours' majority or plurality colour — and
:func:`compile_stepper` is the one place that step is compiled.  It
turns a rule's declarative :class:`~repro.rules.base.KernelSpec` into a
*plan* and falls back to the rule's own ``step_batch``
(:func:`fallback_stepper`) when :func:`rule_spec` withholds a spec.

The rule kernels are already vectorized, but they re-derive their index
arithmetic and allocate every intermediate array on *every round* — for
a census-sized workload (thousands of replicas on a small torus,
thousands of rounds across batches) the allocator and the generic
``np.sort``/``np.add.at`` paths dominate.  A compiled plan instead:

* gathers neighbor colors through per-slot index vectors with
  ``np.take(..., out=..., mode="clip")`` into preallocated buffers (one
  contiguous ``(B, N)`` plane per neighbor slot — no ``(B, N, d)``
  strided temporaries on the hot kernels);
* replaces ``np.sort`` over the degree-4 axis with a 5-comparator
  **sorting network** built from ``np.minimum``/``np.maximum`` — the same
  sorted values, an order of magnitude less per-element overhead;
* replaces the histogram's ``np.add.at`` scatter (notoriously slow: one
  non-fused scatter per neighbor slot) with per-color count planes over
  the slot planes on regular tables — and, on padded irregular tables
  where a hub makes ``O(N * max_degree)`` gathers pathological, with an
  ``O(edges)`` CSR gather + one ``np.bincount`` over precomputed flat
  offsets;
* writes results with masked ``np.copyto`` into persistent buffers —
  **zero allocations per round** once compiled (the CSR histogram's one
  ``bincount`` output is the sole exception).

Contract:

* **bitwise determinism** — every plan reproduces the rule's own
  :meth:`~repro.rules.base.Rule.step_batch` bit for bit: all operations
  are exact integer/boolean arithmetic, sorted values do not depend on
  the sorting algorithm, and adoption masks are the same boolean
  formulas.  The parity matrix in ``tests/test_engine_backends.py``
  holds the proof, so the compiled kernel is invisible to seeds,
  witness ids and cache keys;
* **error fidelity** — invalid inputs raise the same :class:`ValueError`
  the rule itself raises (specs carry the rule's validator; structurally
  unsupported topologies make :meth:`~repro.rules.base.Rule.kernel_spec`
  return ``None``, and the fallback surfaces the rule's own error);
* **graceful fallback** — a rule without a spec (custom rules) compiles
  to a stepper that simply calls its ``step_batch``, so every rule runs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..rules.base import KernelSpec, Rule
from ..rules.majority import BLACK, WHITE
from ..rules.threshold import ACTIVE
from ..topology.base import Topology

__all__ = [
    "Stepper",
    "compile_stepper",
    "fallback_stepper",
    "rule_spec",
]

#: a compiled one-round kernel: ``stepper(colors)`` takes a ``(b, N)`` int32
#: batch (``b`` may vary between calls, up to the compile-time ``max_batch``;
#: larger batches reallocate) and returns the next state.  The returned
#: array may be an internal scratch buffer reused by the *next* call — the
#: engine consumes it fully before stepping again and callers must do the
#: same (copy what you keep).
Stepper = Callable[[np.ndarray], np.ndarray]


def _definer(rule: Rule, attr: str) -> "type | None":
    """The MRO class providing ``attr`` for this rule instance."""
    for cls in type(rule).__mro__:
        if attr in cls.__dict__:
            return cls
    return None


def rule_spec(rule: Rule, topo: Topology) -> "KernelSpec | None":
    """``rule.kernel_spec(topo)``, but only when the spec speaks for the
    rule's actual kernel.

    A subclass (or mixin) that overrides ``step_batch`` without
    republishing ``kernel_spec`` inherits a spec describing *another
    class's* kernel; compiling that spec would silently run the stock
    dynamics instead of the override.  The spec is therefore withheld
    (``None``) whenever the class providing ``step_batch`` precedes the
    one providing ``kernel_spec`` in the MRO — the override wins and
    :func:`compile_stepper` falls back to it, unless the overriding
    class explicitly publishes its own spec.
    """
    mro = type(rule).__mro__
    spec_owner = _definer(rule, "kernel_spec")
    kernel_owner = _definer(rule, "step_batch")
    if (
        spec_owner is not None
        and kernel_owner is not None
        and mro.index(kernel_owner) < mro.index(spec_owner)
    ):
        return None
    return rule.kernel_spec(topo)


def fallback_stepper(rule: Rule, topo: Topology) -> Stepper:
    """The universal stepper: delegate to the rule's own ``step_batch``.

    What :func:`compile_stepper` returns when no authoritative spec
    exists — including a structurally unsupported topology, where the
    rule's kernel raises its own error.
    """

    def stepper(colors: np.ndarray) -> np.ndarray:
        return rule.step_batch(colors, topo)

    return stepper


def _cmpswap(a: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> None:
    """Elementwise compare-exchange: ``(a, b) <- (min(a,b), max(a,b))``."""
    np.minimum(a, b, out=tmp)
    np.maximum(a, b, out=b)
    np.copyto(a, tmp)


def _sort4(
    c0: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    c3: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """In-place 4-element sorting network (5 comparators) across planes."""
    _cmpswap(c0, c1, tmp)
    _cmpswap(c2, c3, tmp)
    _cmpswap(c0, c2, tmp)
    _cmpswap(c1, c3, tmp)
    _cmpswap(c1, c2, tmp)


class _Plan:
    """Shared scratch management: buffers grow to the largest batch seen."""

    def __init__(self, topo: Topology, validate: Optional[Callable]):
        self._n = topo.num_vertices
        self._validate = validate
        self._cap = -1

    def _alloc(self, b: int) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _ensure(self, b: int) -> None:
        if b > self._cap:
            self._alloc(b)
            self._cap = b

    def __call__(self, colors: np.ndarray) -> np.ndarray:
        if self._validate is not None:
            self._validate(colors)
        b = colors.shape[0]
        self._ensure(b)
        return self._step(colors, b)

    def _step(self, colors: np.ndarray, b: int) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


def _slot_indices(topo: Topology) -> List[np.ndarray]:
    """Per-slot neighbor index vectors (padding clamped to vertex 0)."""
    nb = topo.neighbors
    return [
        np.ascontiguousarray(np.where(nb[:, s] >= 0, nb[:, s], 0), dtype=np.intp)
        for s in range(nb.shape[1])
    ]


class _Sort4Plan(_Plan):
    """Degree-4 sorted-gather kernels: SMP and reverse strong majority."""

    def __init__(self, spec: KernelSpec, topo: Topology):
        super().__init__(topo, spec.validate)
        self._kind = spec.kind
        self._idx = _slot_indices(topo)

    def _alloc(self, b: int) -> None:
        n = self._n
        self._cols = [np.empty((b, n), np.int32) for _ in range(4)]
        self._tmp = np.empty((b, n), np.int32)
        self._eq = [np.empty((b, n), bool) for _ in range(3)]
        self._tb = [np.empty((b, n), bool) for _ in range(2)]
        self._out = np.empty((b, n), np.int32)

    def _step(self, colors: np.ndarray, b: int) -> np.ndarray:
        c0, c1, c2, c3 = (c[:b] for c in self._cols)
        for idx, dst in zip(self._idx, (c0, c1, c2, c3)):
            np.take(colors, idx, axis=1, out=dst, mode="clip")
        _sort4(c0, c1, c2, c3, self._tmp[:b])
        e1, e2, e3 = (e[:b] for e in self._eq)
        t0, t1 = (t[:b] for t in self._tb)
        out = self._out[:b]
        np.equal(c0, c1, out=e1)
        np.equal(c1, c2, out=e2)
        np.equal(c2, c3, out=e3)
        np.copyto(out, colors)
        if self._kind == "strong-majority":
            # adopt s1 on a low (s0==s1==s2) or high (s1==s2==s3) triple
            np.logical_or(e1, e3, out=t0)
            np.logical_and(t0, e2, out=t0)
            np.copyto(out, c1, where=t0)
            return out
        # SMP adoption over the sorted row s0 <= s1 <= s2 <= s3:
        #   adopt2 = e3 & ~e2 & ~e1 -> s2;  adopt1 = e2 & ~e1 -> s1;
        #   adopt0 = e1 & (e2 | ~e3) -> s0  (masks mutually exclusive)
        np.logical_not(e1, out=t0)
        np.logical_not(e2, out=t1)
        np.logical_and(t1, e3, out=t1)
        np.logical_and(t1, t0, out=t1)
        np.copyto(out, c2, where=t1)
        np.logical_and(e2, t0, out=t0)
        np.copyto(out, c1, where=t0)
        np.logical_not(e3, out=t1)
        np.logical_or(e2, t1, out=t1)
        np.logical_and(e1, t1, out=t1)
        np.copyto(out, c0, where=t1)
        return out


class _MajorityPlan(_Plan):
    """Degree-4 BLACK-count kernel (reverse simple majority, both ties)."""

    def __init__(self, spec: KernelSpec, topo: Topology):
        super().__init__(topo, spec.validate)
        self._tie = spec.tie
        self._idx = _slot_indices(topo)

    def _alloc(self, b: int) -> None:
        n = self._n
        self._g = np.empty((b, n), np.int32)
        self._b = np.empty((b, n), bool)
        self._cnt = np.empty((b, n), np.int32)
        self._out = np.empty((b, n), np.int32)

    def _step(self, colors: np.ndarray, b: int) -> np.ndarray:
        g, eq, cnt, out = self._g[:b], self._b[:b], self._cnt[:b], self._out[:b]
        cnt[...] = 0
        for idx in self._idx:
            np.take(colors, idx, axis=1, out=g, mode="clip")
            np.equal(g, BLACK, out=eq)
            cnt += eq
        if self._tie == "prefer-black":
            np.copyto(out, WHITE)
            np.greater_equal(cnt, 2, out=eq)
            np.copyto(out, BLACK, where=eq)
        else:  # prefer-current: strict majority flips, tie keeps
            np.copyto(out, colors)
            np.greater_equal(cnt, 3, out=eq)
            np.copyto(out, BLACK, where=eq)
            np.less_equal(cnt, 1, out=eq)
            np.copyto(out, WHITE, where=eq)
        return out


class _PluralityPlan(_Plan):
    """Unique-plurality kernel: both shapes fill an ``nreach`` plane (how
    many colors reach the threshold) and a ``win`` plane, and a vertex
    adopts ``win`` where ``nreach == 1``.

    * **dense** (regular tables, no padding) — per color, the equalities
      of the per-slot ``(B, N)`` planes sum into a count plane and
      ``win`` keeps the last color with ``count >= thr``.  A unique
      reaching color is the strict argmax for any integer threshold, so
      no ``(B, N, colors)`` tensor and no ``argmax`` are needed;
    * **CSR** (padded irregular tables) — a dense gather is
      ``O(N * max_degree)`` and a scale-free hub inflates ``max_degree``
      far past the mean, so instead gather only the real edges (row-major
      ``nb[mask]`` keeps them grouped by vertex) and histogram them with
      one ``np.bincount`` over precomputed ``(replica, vertex, color)``
      flat offsets: ``O(E)`` work per round; ``win`` is its argmax.

    Thresholds are clipped once to ``[0, deg + 1]``: counts lie in
    ``0..deg``, so ``count >= thr`` is unchanged whatever
    ``threshold_fn`` returns, and the dense planes fit a narrow dtype.
    The reference's ``deg > 0`` guard needs no plane: at degree 0 no
    color or every color reaches, and every color is unique only on a
    one-color palette, where adopting color 0 changes nothing.
    """

    def __init__(self, spec: KernelSpec, topo: Topology):
        super().__init__(topo, spec.validate)
        nb = topo.neighbors
        self._colors = int(spec.num_colors)
        mask = nb >= 0
        self._dense = bool(mask.all())
        audible = (
            np.asarray(spec.degrees, dtype=np.int64)
            if spec.degrees is not None
            else mask.sum(axis=1)
        )
        thr = np.clip(np.asarray(spec.thresholds), 0, audible + 1)
        if self._dense:
            self._idx = _slot_indices(topo)
            # clipped thresholds fit d + 1, nreach fits the palette size
            self._cnt_t = np.min_scalar_type(len(self._idx) + 1)
            self._nreach_t = np.min_scalar_type(self._colors)
            self._thr = thr.astype(self._cnt_t)
        else:
            self._thr = thr[:, None]  # (N, 1) over colors
            # CSR arrays: audible neighbor ids grouped by vertex, plus the
            # owning vertex's color-plane offset for the flat histogram
            self._csr_idx = np.ascontiguousarray(nb[mask], dtype=np.intp)
            owner = np.repeat(np.arange(self._n, dtype=np.int64), audible)
            self._owner_off = owner * self._colors  # (E,)

    def _alloc(self, b: int) -> None:
        n, c = self._n, self._colors
        if self._dense:
            self._planes = [np.empty((b, n), np.int32) for _ in self._idx]
            self._cnt = np.empty((b, n), self._cnt_t)
            self._nreach = np.empty((b, n), self._nreach_t)
            self._win = np.empty((b, n), np.int32)
        else:
            e = self._csr_idx.size
            self._g = np.empty((b, e), np.int32)
            # per-(replica, vertex) bin offsets, hoisted out of the loop
            self._bins = np.empty((b, e), np.int64)
            self._addend = (
                np.arange(b, dtype=np.int64)[:, None] * (n * c)
                + self._owner_off[None, :]
            )
            self._reach = np.empty((b, n, c), bool)
            self._nreach = np.empty((b, n), np.int32)
            self._win = np.empty((b, n), np.intp)
        self._eq = np.empty((b, n), bool)
        self._out = np.empty((b, n), np.int32)

    def _tally_dense(self, colors: np.ndarray, b: int) -> None:
        planes = [p[:b] for p in self._planes]
        for idx, dst in zip(self._idx, planes):
            np.take(colors, idx, axis=1, out=dst, mode="clip")
        eq, cnt = self._eq[:b], self._cnt[:b]
        nreach, win = self._nreach[:b], self._win[:b]
        nreach[...] = 0
        for color in range(self._colors):
            cnt[...] = 0
            for plane in planes:
                np.equal(plane, color, out=eq)
                cnt += eq
            np.greater_equal(cnt, self._thr, out=eq)
            nreach += eq
            np.copyto(win, color, where=eq)

    def _tally_csr(self, colors: np.ndarray, b: int) -> None:
        n, c = self._n, self._colors
        g, bins = self._g[:b], self._bins[:b]
        np.take(colors, self._csr_idx, axis=1, out=g)
        np.add(g, self._addend[:b], out=bins)
        counts = np.bincount(bins.reshape(-1), minlength=b * n * c).reshape(
            b, n, c
        )
        reach = self._reach[:b]
        np.greater_equal(counts, self._thr, out=reach)
        reach.sum(axis=2, dtype=np.int32, out=self._nreach[:b])
        np.argmax(counts, axis=2, out=self._win[:b])

    def _step(self, colors: np.ndarray, b: int) -> np.ndarray:
        if self._dense:
            self._tally_dense(colors, b)
        else:
            self._tally_csr(colors, b)
        adopt, out = self._eq[:b], self._out[:b]
        np.equal(self._nreach[:b], 1, out=adopt)
        np.copyto(out, colors)
        np.copyto(out, self._win[:b], where=adopt)
        return out


class _CountPlan(_Plan):
    """Per-slot counting kernels: ordered increment and linear threshold."""

    def __init__(self, spec: KernelSpec, topo: Topology):
        super().__init__(topo, spec.validate)
        self._kind = spec.kind
        self._idx = _slot_indices(topo)
        self._mcols = [
            np.ascontiguousarray(topo.neighbors[:, s] >= 0)
            for s in range(topo.neighbors.shape[1])
        ]
        self._thr = np.asarray(spec.thresholds)
        self._top = None if spec.num_colors is None else int(spec.num_colors) - 1

    def _alloc(self, b: int) -> None:
        n = self._n
        self._g = np.empty((b, n), np.int32)
        self._eq = np.empty((b, n), bool)
        self._cnt = np.empty((b, n), np.int32)
        self._m1 = np.empty((b, n), bool)
        self._out = np.empty((b, n), np.int32)

    def _step(self, colors: np.ndarray, b: int) -> np.ndarray:
        g, eq, cnt = self._g[:b], self._eq[:b], self._cnt[:b]
        m1, out = self._m1[:b], self._out[:b]
        cnt[...] = 0
        for idx, mcol in zip(self._idx, self._mcols):
            np.take(colors, idx, axis=1, out=g, mode="clip")
            if self._kind == "ordered":
                np.greater(g, colors, out=eq)
            else:  # threshold: count ACTIVE neighbors
                np.equal(g, ACTIVE, out=eq)
            np.logical_and(eq, mcol, out=eq)
            cnt += eq
        np.greater_equal(cnt, self._thr, out=m1)
        if self._kind == "ordered":
            np.less(colors, self._top, out=eq)
            np.logical_and(m1, eq, out=m1)
            np.add(colors, m1, out=out)  # bump = +1 where the mask holds
        else:
            np.equal(colors, ACTIVE, out=eq)
            np.logical_or(m1, eq, out=m1)
            np.copyto(out, m1)  # bool -> {INACTIVE=0, ACTIVE=1}
        return out


_PLANS = {
    "smp": _Sort4Plan,
    "strong-majority": _Sort4Plan,
    "majority": _MajorityPlan,
    "plurality": _PluralityPlan,
    "ordered": _CountPlan,
    "threshold": _CountPlan,
}


def compile_stepper(rule: Rule, topo: Topology, max_batch: int) -> Stepper:
    """Build a one-round stepper for ``(rule, topo)``.

    ``max_batch`` sizes the preallocated scratch; steppers accept
    smaller batches (sliced views) and transparently grow for larger
    ones.  Compilation is cheap (index copies, buffer allocation), and
    :func:`~repro.engine.plans.stepper_for` caches it, so
    per-round work allocates nothing.
    """
    spec = rule_spec(rule, topo)
    plan_cls = None if spec is None else _PLANS.get(spec.kind)
    if plan_cls is None:
        # no (authoritative) spec — custom rule, subclassed kernel,
        # unsupported topology, or a spec kind from a newer rule:
        # the rule's own kernel decides
        return fallback_stepper(rule, topo)
    plan = plan_cls(spec, topo)
    plan._ensure(max(int(max_batch), 1))
    return plan
