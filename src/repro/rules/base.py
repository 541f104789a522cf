"""Recoloring-rule interface.

A :class:`Rule` encapsulates one synchronous local update: given the current
color vector and a topology, produce the next color vector.  There is exactly
**one** kernel per rule:

* :meth:`Rule.step_batch` — the vectorized kernel of the batched engine
  (:mod:`repro.engine.batch`), advancing a ``(B, N)`` block of independent
  replicas in one fused pass;
* :meth:`Rule.step` — the scalar entry point used by the synchronous runner;
  it is **not** a second implementation: the base class runs it as a
  ``(1, N)`` view through :meth:`step_batch`, so the scalar and batched
  dynamics cannot drift;
* :meth:`Rule.update_vertex` — a scalar reference used as the correctness
  oracle in tests and by the asynchronous scheduler.

A rule may override either :meth:`step_batch` (the five shipped rules do)
or, for quick prototypes, just :meth:`step` — the base :meth:`step_batch`
falls back to looping :meth:`step` over rows.  Overriding neither raises
:class:`TypeError` at call time.

Rules additionally publish a :class:`KernelSpec` via :meth:`Rule.kernel_spec`
— a declarative description of their neighbor reduction (sorted gather,
histogram, threshold count, ...) that
:func:`repro.engine.stencil.compile_stepper` compiles into an optimized
stepper.  A rule without a spec (``None``) still works everywhere: the
compiler falls back to its :meth:`step_batch`.

Colors are small non-negative integers stored in ``int32`` vectors (the
paper's ``C = {1..k}``; 0 is also a legal color id — nothing in the engine
reserves it).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..topology.base import Topology

__all__ = ["KernelSpec", "Rule", "as_color_array"]


def as_color_array(colors: Sequence[int] | np.ndarray, num_vertices: int) -> np.ndarray:
    """Validate and convert a color assignment to the canonical int32 vector."""
    arr = np.asarray(colors, dtype=np.int32)
    if arr.shape != (num_vertices,):
        raise ValueError(f"expected {num_vertices} colors, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("colors must be non-negative integers")
    return np.ascontiguousarray(arr)


@dataclass(eq=False)  # ndarray fields make generated __eq__ raise; identity
# comparison is the meaningful one for per-(rule, topo) compile products
class KernelSpec:
    """Declarative description of a rule's neighbor reduction on one topology.

    :func:`repro.engine.stencil.compile_stepper` dispatches on
    :attr:`kind` and compiles the spec into an optimized stepper; every
    field a kernel needs beyond the topology's neighbor table is
    materialized here *once* (e.g. the per-vertex threshold vector), so
    compiled plans never call back into rule instance state.

    The spec is built per ``(rule, topology)`` pair by
    :meth:`Rule.kernel_spec` and is purely an in-process protocol — specs
    are never pickled (pool workers rebuild them locally from the rule and
    topology they already reconstruct).
    """

    #: dispatch tag: ``"smp"`` / ``"majority"`` / ``"strong-majority"`` /
    #: ``"plurality"`` / ``"ordered"`` / ``"threshold"``
    kind: str
    #: exclusive palette bound (histogram width / top color), when the
    #: kernel needs one
    num_colors: Optional[int] = None
    #: per-vertex adoption thresholds, already resolved against the
    #: topology's (audible) degrees
    thresholds: Optional[np.ndarray] = None
    #: per-vertex audible degrees (``(neighbors >= 0).sum(axis=1)``) for
    #: kernels whose adoption depends on degree on irregular graphs;
    #: ``None`` for kernels that never consult it (the regular-torus
    #: fast paths).  Compiled plans use this instead of re-deriving the
    #: padding mask's column sums, and the batched async scheduler
    #: consults it for per-vertex updates.
    degrees: Optional[np.ndarray] = None
    #: tie policy of the simple-majority kind
    tie: Optional[str] = None
    #: input validator invoked on every batch before the kernel runs; must
    #: raise exactly the :class:`ValueError` the rule's own kernel would,
    #: so the compiled kernel matches the rule's down to its errors
    validate: Optional[Callable[[np.ndarray], None]] = None


class Rule(abc.ABC):
    """Abstract synchronous recoloring rule."""

    #: largest neighbor-table width the vectorized kernel supports; ``None``
    #: means any.  The degree-4 sort kernel of :class:`~repro.rules.smp.SMPRule`
    #: sets this to 4 and the engine falls back to the counting kernel for
    #: other degrees.
    regular_degree: Optional[int] = None

    def step(
        self,
        colors: np.ndarray,
        topo: Topology,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply one synchronous round; return the next color vector.

        This base implementation runs the coloring as a ``(1, N)`` view
        through :meth:`step_batch` — the rule's one true kernel — so the
        scalar and batched dynamics are the same code path by
        construction.  ``out`` may alias a preallocated buffer (never
        ``colors`` itself) to avoid per-round allocation in long runs.
        """
        if type(self).step_batch is Rule.step_batch:
            raise TypeError(
                f"{type(self).__name__} overrides neither step_batch nor "
                "step; implement one of them"
            )
        if out is None:
            return self.step_batch(colors[None, :], topo)[0]
        self.step_batch(colors[None, :], topo, out=out[None, :])
        return out

    @abc.abstractmethod
    def update_vertex(self, current: int, neighbor_colors: Sequence[int]) -> int:
        """Scalar reference update for one vertex (the test oracle)."""

    # ------------------------------------------------------------------
    def step_batch(
        self,
        colors: np.ndarray,
        topo: Topology,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One synchronous round for a ``(B, N)`` block of replicas.

        The batched engine (:mod:`repro.engine.batch`) drives simulations
        through this entry point.  This base implementation is the
        fallback for prototype rules that only implement :meth:`step`: it
        loops the scalar kernel over rows, so every rule works with the
        batched engine unchanged.  The five shipped rules override it with
        a kernel vectorized over the batch axis (and :meth:`step` then
        delegates here on a one-row view).  Calling this base
        implementation *explicitly* on such a rule is still meaningful —
        tests use it as a row-loop oracle (each row then runs through the
        rule's own kernel on a one-row view).
        """
        if type(self).step is Rule.step and type(self).step_batch is Rule.step_batch:
            raise TypeError(
                f"{type(self).__name__} overrides neither step_batch nor "
                "step; implement one of them"
            )
        if colors.ndim != 2:
            raise ValueError(f"expected a (B, N) batch, got shape {colors.shape}")
        if out is None:
            out = np.empty_like(colors)
        for row in range(colors.shape[0]):
            self.step(colors[row], topo, out=out[row])
        return out

    def kernel_spec(self, topo: Topology) -> Optional[KernelSpec]:
        """Describe this rule's kernel on ``topo`` for the kernel compiler.

        Returns ``None`` when no declarative description exists — for
        custom rules, or when ``topo`` does not satisfy the rule's
        structural requirements (the compiler then falls back to
        :meth:`step_batch`, which raises the rule's own error).  The five
        shipped rules override this.
        """
        return None

    def plan_token(self) -> Optional[object]:
        """Hashable token identifying this rule's compiled-kernel state.

        The stepper registry (:mod:`repro.engine.plans`) caches
        compiled steppers across engine calls keyed on
        ``(rule type + this token, topology)``.
        Publishing a token is a *contract*: two instances of the same
        class with equal tokens must produce bitwise-identical dynamics,
        and the token must change whenever any state the kernel depends
        on changes (tie policy, palette size, threshold spec, ...) — a
        mutation then simply misses the cache and recompiles.

        The base implementation returns ``None`` — unknown state, never
        cached — so custom rules are always compiled fresh unless they
        opt in.  The five shipped rules override this with their
        spec-relevant fields.
        """
        return None

    def step_reference(self, colors: np.ndarray, topo: Topology) -> np.ndarray:
        """Pure-Python synchronous round via :meth:`update_vertex`.

        Quadratically slower than :meth:`step`; only for tests/oracles.
        """
        out = np.empty_like(colors)
        for v in range(topo.num_vertices):
            nb = topo.neighbors[v, : topo.degrees[v]]
            out[v] = self.update_vertex(int(colors[v]), [int(colors[w]) for w in nb])
        return out

    def name(self) -> str:
        return type(self).__name__
