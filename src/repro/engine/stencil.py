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
  non-fused scatter per neighbor slot) with an ``O(edges)`` CSR gather
  + one ``np.bincount`` over precomputed flat offsets, on regular and
  padded tables alike (a scale-free hub would make a per-slot gather
  ``O(N * max_degree)``);
* writes results with masked ``np.copyto`` into persistent buffers —
  **zero allocations per round** once compiled (the CSR histogram's one
  ``bincount`` output is the sole exception).

The SMP plan also carries a **bit-sliced** twin, :class:`PackedSMP`,
built with it: colours as ``P`` bit planes of ``(P, N, W)`` ``uint64``
words, 64 replicas per word, and one round as six pair equalities
(XOR, OR-reduced across planes), a 2-2 tie mask and three masked
selects.  A plurality spec that is SMP (every threshold 2 on a
degree-4 table without padding: the ceil(d/2) rule on the tori) compiles
to the same plan, with the plurality rule's palette check.
:func:`~repro.engine.batch.run_batch` steps the twin on every such batch
(:func:`packed_smp` hands it over); on ``(8192, 36)`` blocks a round
costs ~0.2 ms against ~8 ms for the int32 sorting network, which stays
the kernel of :func:`~repro.engine.runner.run_synchronous` (its one-row
runs and the irreversible variant).

Contract:

* **bitwise determinism** — every plan reproduces the rule's own
  :meth:`~repro.rules.base.Rule.step_batch` bit for bit: all operations
  are exact integer/boolean arithmetic, sorted values do not depend on
  the sorting algorithm, and adoption masks are the same boolean
  formulas (the packed kernel evaluates SMP's on bits: an equal pair
  names the unique colour held twice exactly when the four do not
  split 2-2).  The parity matrix in ``tests/test_engine_backends.py``
  and the packed edge cases in ``tests/test_engine_packed.py`` hold the
  proof, so the compiled kernel is invisible to seeds, witness ids and
  cache keys;
* **error fidelity** — invalid inputs raise the same :class:`ValueError`
  the rule itself raises (specs carry the rule's validator; structurally
  unsupported topologies make :meth:`~repro.rules.base.Rule.kernel_spec`
  return ``None``, and the fallback surfaces the rule's own error);
* **graceful fallback** — a rule without a spec (custom rules) compiles
  to a stepper that simply calls its ``step_batch``, so every rule runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional

import numpy as np

from ..rules.base import KernelSpec, Rule
from ..rules.majority import BLACK, WHITE
from ..rules.threshold import ACTIVE
from ..topology.base import Topology

__all__ = [
    "PackedSMP",
    "Stepper",
    "WORD_BITS",
    "compile_stepper",
    "fallback_stepper",
    "packed_smp",
    "packed_words",
    "rows_to_words",
    "rule_spec",
    "words_to_rows",
]

#: a compiled one-round kernel: ``stepper(colors)`` takes a ``(b, N)`` int32
#: batch (``b`` may vary between calls; one wider than any before grows
#: the scratch) and returns the next state.  The returned
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
    """Degree-4 sorted-gather kernels: SMP and reverse strong majority.

    An SMP plan also carries its bit-sliced twin, :attr:`packed`, sized
    with the plan, so whoever compiles the plan pays for both.
    """

    def __init__(self, spec: KernelSpec, topo: Topology):
        super().__init__(topo, spec.validate)
        self._kind = spec.kind
        self._idx = _slot_indices(topo)
        self.packed = PackedSMP(topo, spec.validate) if spec.kind == "smp" else None

    def _alloc(self, b: int) -> None:
        n = self._n
        if self.packed is not None:
            self.packed.reserve(_PRESIZED_PLANES, packed_words(b))
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


#: replicas per packed word: bit ``r`` of word ``w`` is replica ``64 w + r``
WORD_BITS = 64

#: planes a packed SMP plan preallocates for: colours 0..7 cover the
#: census and search palettes; wider colours grow the scratch once
_PRESIZED_PLANES = 3


def packed_words(rows: int) -> int:
    """Words that hold ``rows`` replicas, one bit each."""
    return -(-int(rows) // WORD_BITS)


def words_to_rows(words: np.ndarray) -> np.ndarray:
    """``(W,)`` uint64 words -> ``(64 W,)`` bools, bit ``r`` of word
    ``w`` at position ``64 w + r``."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, bitorder="little").view(bool)


def rows_to_words(rows: np.ndarray) -> np.ndarray:
    """Inverse of :func:`words_to_rows` for a ``(64 W,)`` bool array."""
    packed = np.packbits(rows, bitorder="little").view("<u8")
    return packed.astype(np.uint64, copy=False)


class PackedSMP:
    """Bit-sliced SMP kernel: 64 replicas per ``uint64`` word.

    A state is ``P`` bit planes of shape ``(P, N, W)``: bit ``r`` of
    ``planes[p, v, w]`` is bit ``p`` of vertex ``v``'s colour in replica
    ``64 w + r``.  SMP only ever adopts a neighbour's colour, so ``P``
    (the bit length of the largest colour) never grows during a run.

    One round gathers the four neighbour planes (one ``np.take`` per
    slot), forms the six pair inequalities ``n_xy`` (XOR, OR-reduced
    across planes), and adopts the colour of the first equal pair —
    ``a`` for ab/ac/ad, ``b`` for bc/bd, ``c`` for cd — unless the four
    split 2-2.  Over a 4-multiset an equal pair names the unique colour
    held at least twice exactly when there is no 2-2 split, so this is
    the rule's sorted-row formula, evaluated 64 replicas per word
    operation.

    Calls return one of two ping-pong buffers: a result stays valid
    through the *next* call and is overwritten by the one after.

    Calls never validate: the caller runs :attr:`validate` (the rule's
    input check, or ``None``) once on the batch it packs.
    """

    def __init__(self, topo: Topology, validate: Optional[Callable]):
        self._n = topo.num_vertices
        self.validate = validate
        self._idx = _slot_indices(topo)
        self._cap = self._mcap = -1
        self._flip = 0

    def reserve(self, planes: int, words: int) -> None:
        """Grow the scratch to hold ``(planes, N, words)`` states."""
        # one allocation each for the state-sized and the mask-sized
        # scratch: a block this large is mapped on its own and handed
        # back whole when the plan is dropped
        size = planes * self._n * words
        if size > self._cap:
            g0, g1, g2, g3, self._xor, o0, o1 = np.empty((7, size), np.uint64)
            self._g, self._out = [g0, g1, g2, g3], [o0, o1]
            self._cap = size
        size = self._n * words
        if size > self._mcap:
            self._masks = list(np.empty((13, size), np.uint64))
            self._mcap = size

    def pack(self, colors: np.ndarray) -> np.ndarray:
        """A ``(b, N)`` non-negative batch as ``(P, N, W)`` planes;
        the padding rows of the last word hold colour 0."""
        b, n = colors.shape
        width = packed_words(b) * WORD_BITS
        planes = max(1, int(colors.max()).bit_length()) if b else 1
        dtype = np.uint8 if planes <= 8 else np.int32
        cols = np.zeros((n, width), dtype)
        cols[:, :b] = colors.T
        shifts = np.arange(planes, dtype=dtype)[:, None, None]
        bits = (cols[None] >> shifts) & dtype(1)
        packed = np.packbits(bits, axis=2, bitorder="little").view("<u8")
        return packed.astype(np.uint64, copy=False)

    @staticmethod
    def unpack(planes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The replicas of ``(P, N, W)`` planes that the ``(64 W,)``
        bool mask ``rows`` selects, as int32 rows."""
        raw = np.ascontiguousarray(planes, dtype="<u8").view(np.uint8)
        bits = np.unpackbits(raw, axis=2, bitorder="little")
        if planes.shape[0] > 8:
            bits = bits.astype(np.int32)
        out = bits[0]
        for p in range(1, planes.shape[0]):
            bits[p] <<= p
            out |= bits[p]
        return out[:, rows].T.astype(np.int32)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        p, n, w = x.shape
        self.reserve(p, w)
        shape, size = (p, n, w), p * n * w
        a, b, c, d = (g[:size].reshape(shape) for g in self._g)
        for idx, dst in zip(self._idx, (a, b, c, d)):
            np.take(x, idx, axis=1, out=dst, mode="clip")
        xor = self._xor[:size].reshape(shape)
        masks = [m[: n * w].reshape(n, w) for m in self._masks]
        nab, nac, nad, nbc, nbd, ncd, t0, t1, t2, keep, ma, mb, mc = masks
        for (u, v), ne in zip(
            ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)),
            (nab, nac, nad, nbc, nbd, ncd),
        ):
            np.bitwise_xor(u, v, out=xor)
            np.bitwise_or.reduce(xor, axis=0, out=ne)
        # 2-2 tie: ab&cd&~ac | ac&bd&~ab | ad&bc&~ab, in inequalities
        np.bitwise_or(nab, ncd, out=t0)
        np.bitwise_not(t0, out=t0)
        np.bitwise_and(t0, nac, out=t0)
        np.bitwise_or(nac, nbd, out=t1)
        np.bitwise_not(t1, out=t1)
        np.bitwise_or(nad, nbc, out=t2)
        np.bitwise_not(t2, out=t2)
        np.bitwise_or(t1, t2, out=t1)
        np.bitwise_and(t1, nab, out=t1)
        np.bitwise_or(t0, t1, out=keep)
        np.bitwise_not(keep, out=keep)  # keep = no 2-2 tie
        # adopt a where it equals some neighbour, else b, else c
        np.bitwise_and(nab, nac, out=t0)
        np.bitwise_and(t0, nad, out=t0)  # a differs from b, c and d
        np.bitwise_not(t0, out=ma)
        np.bitwise_and(ma, keep, out=ma)
        np.bitwise_and(t0, keep, out=t0)
        np.bitwise_and(nbc, nbd, out=t1)  # b differs from c and d
        np.bitwise_not(t1, out=mb)
        np.bitwise_and(mb, t0, out=mb)
        np.bitwise_not(ncd, out=mc)
        np.bitwise_and(mc, t1, out=mc)
        np.bitwise_and(mc, t0, out=mc)
        # masked selects: ma, mb, mc are disjoint
        out = self._out[self._flip][:size].reshape(shape)
        self._flip ^= 1
        np.bitwise_xor(a, x, out=xor)
        np.bitwise_and(xor, ma, out=xor)
        np.bitwise_xor(x, xor, out=out)
        for src, m in ((b, mb), (c, mc)):
            np.bitwise_xor(src, out, out=xor)
            np.bitwise_and(xor, m, out=xor)
            np.bitwise_xor(out, xor, out=out)
        return out


def packed_smp(stepper: Stepper) -> "PackedSMP | None":
    """The bit-sliced kernel a raw compiled SMP stepper carries, else
    ``None`` (any other plan, the rules' own kernels, timing shims)."""
    return stepper.packed if isinstance(stepper, _Sort4Plan) else None


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
    """Unique-plurality kernel: gather only the real edges (row-major
    ``nb[mask]`` keeps them grouped by vertex) and histogram them with
    one ``np.bincount`` over precomputed ``(replica, vertex, color)``
    flat offsets — ``O(E)`` work per round, where a per-slot gather would
    be ``O(N * max_degree)`` and a scale-free hub inflates ``max_degree``
    far past the mean.  ``nreach`` counts the colors that reach the
    threshold, ``win`` is the histogram's argmax (the reaching color
    when only one does), and a vertex adopts ``win`` where
    ``nreach == 1``.

    Thresholds are clipped once to ``[0, deg + 1]``: counts lie in
    ``0..deg``, so ``count >= thr`` is unchanged whatever
    ``threshold_fn`` returns.  The reference's ``deg > 0`` guard needs no
    plane: at degree 0 no color or every color reaches, and every color
    is unique only on a one-color palette, where adopting color 0 changes
    nothing.
    """

    def __init__(self, spec: KernelSpec, topo: Topology):
        super().__init__(topo, spec.validate)
        nb = topo.neighbors
        self._colors = int(spec.num_colors)
        mask = nb >= 0
        audible = (
            np.asarray(spec.degrees, dtype=np.int64)
            if spec.degrees is not None
            else mask.sum(axis=1)
        )
        thr = np.clip(np.asarray(spec.thresholds), 0, audible + 1)
        self._thr = thr[:, None]  # (N, 1) over colors
        # audible neighbor ids grouped by vertex, plus the owning
        # vertex's color-plane offset for the flat histogram
        self._csr_idx = np.ascontiguousarray(nb[mask], dtype=np.intp)
        owner = np.repeat(np.arange(self._n, dtype=np.int64), audible)
        self._owner_off = owner * self._colors  # (E,)

    def _alloc(self, b: int) -> None:
        n, c = self._n, self._colors
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

    def _step(self, colors: np.ndarray, b: int) -> np.ndarray:
        n, c = self._n, self._colors
        g, bins = self._g[:b], self._bins[:b]
        np.take(colors, self._csr_idx, axis=1, out=g)
        np.add(g, self._addend[:b], out=bins)
        counts = np.bincount(bins.reshape(-1), minlength=b * n * c).reshape(
            b, n, c
        )
        reach, nreach, win = self._reach[:b], self._nreach[:b], self._win[:b]
        np.greater_equal(counts, self._thr, out=reach)
        reach.sum(axis=2, dtype=np.int32, out=nreach)
        np.argmax(counts, axis=2, out=win)
        adopt, out = self._eq[:b], self._out[:b]
        np.equal(nreach, 1, out=adopt)
        np.copyto(out, colors)
        np.copyto(out, win, where=adopt)
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


def _plurality_is_smp(spec: KernelSpec, topo: Topology) -> bool:
    """Whether ``spec`` is a plurality spec that is SMP: every threshold
    2 (clipping to ``[0, 5]`` keeps a 2 and makes no other value one) on
    a degree-4 table without padding slots."""
    nb = topo.neighbors
    return (
        spec.kind == "plurality"
        and nb.shape[1] == 4
        and bool((nb >= 0).all())
        and bool(np.all(np.asarray(spec.thresholds) == 2))
    )


def compile_stepper(rule: Rule, topo: Topology, max_batch: int) -> Stepper:
    """Build a one-round stepper for ``(rule, topo)``.

    ``max_batch`` sizes the preallocated scratch; steppers accept
    smaller batches (sliced views) and transparently grow for larger
    ones.  Compilation is cheap (index copies, buffer allocation), and
    :func:`~repro.engine.plans.stepper_for` caches it, so
    per-round work allocates nothing.
    """
    spec = rule_spec(rule, topo)
    if spec is not None and _plurality_is_smp(spec, topo):
        # on an unpadded degree-4 table "the only colour at least two
        # neighbours hold" is SMP: serve the packed-capable SMP plan,
        # keeping the plurality rule's palette check
        spec = replace(spec, kind="smp")
    plan_cls = None if spec is None else _PLANS.get(spec.kind)
    if plan_cls is None:
        # no (authoritative) spec — custom rule, subclassed kernel,
        # unsupported topology, or a spec kind from a newer rule:
        # the rule's own kernel decides
        return fallback_stepper(rule, topo)
    plan = plan_cls(spec, topo)
    plan._ensure(max(int(max_batch), 1))
    return plan
