"""Execution plans: compiled-stepper caching + early cycle retirement.

Two engine-wide costs named in ROADMAP.md live here:

**Stepper recompilation.**  Every :func:`~repro.engine.batch.run_batch`
call used to compile its stepper (:func:`~repro.engine.stencil.
compile_stepper`) from scratch — harmless for one census-sized block,
real money for many-small-batch search loops that issue thousands of
calls against the same ``(rule, topology)``.  :class:`ExecutionPlan`
routes compilation through a bounded, process-local LRU registry keyed
by ``(rule identity, topology identity, max_batch)``.  Rule identity is
``(type, plan_token())`` — rules publish a
:meth:`~repro.rules.base.Rule.plan_token` that changes whenever any state
their compiled kernel depends on changes (tie policy, palette size,
threshold spec), so mutating a rule invalidates its cache entries on the
next call.  Rules that publish no token (custom rules, subclasses whose
kernel overrides are not covered by their inherited token) are simply
compiled fresh every call — caching is an opt-in contract, never a guess.
The registry holds raw steppers only: the ``debug``-level per-step
timing shim (below) wraps a stepper each time it is served, so a
telemetry session never changes what the cache holds and always times
the steps it runs.

**The Theorem-8 worst-case round bound.**  ``run_batch`` caps runs at
:func:`~repro.engine.runner.default_round_cap` (``4N + 64``).  Rows that
reach a fixed point retire early, but search workloads run with
``detect_cycles=False`` and their *cycling* rows (two thirds of random
configurations in the census regime) would pay the full bound.  With
``escalate`` enabled, such runs use lockstep Brent detection from round
1: every live row keeps one snapshot, retaken at rounds 1, 2, 4, 8, ...,
and a row equal to its snapshot at round ``t`` has period exactly
``L = t - snap_t``.  It is simulated on to the round ``t + (cap - t) mod
L``, where its state is the cap's state, and retires there with
``rounds`` = the cap.  The verdict compares whole states, never a hash,
and a cycling row changes every round, so the retired row's ``final``,
``rounds``, ``converged``, ``cycle_length`` and ``monotone`` fields are
*bitwise* what full simulation to the cap would produce — escalation is
a pure optimization, proven by the parity matrix in
``tests/test_engine_plans.py``.  ``detect_cycles=True`` runs stop at
their first repeated state under every plan (see :func:`~repro.engine.
batch.run_batch`), so the switch does not apply to them.

Determinism contract: plans never change results.  Witness ids, census
rows, and per-row round counts are identical under any cache/escalation
setting, so plan settings are excluded from witness-database cache
definitions.

Process model: the stepper registry is **process-local** (module state).
:class:`ExecutionPlan` itself is a small frozen dataclass of settings —
safe to pickle into pool shards — and workers resolve compilations
against their own local registry, so nothing compiled ever crosses a
process boundary.
Steppers own preallocated scratch, so a cached stepper must not be
driven from two threads at once; use ``ExecutionPlan(cache=False)`` for
thread-per-engine setups.
"""

from __future__ import annotations

import itertools
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Union

import numpy as np

from .. import obs
from ..rules.base import Rule
from ..topology.base import Topology
from .parallel import topology_spec
from .runner import validate_round_cap  # noqa: F401  (re-exported: the
# shared budget validator lives next to default_round_cap and is part of
# this module's public face)
from .stencil import Stepper, _definer, compile_stepper

__all__ = [
    "ExecutionPlan",
    "PlanCacheStats",
    "DEFAULT_PLAN",
    "NO_PLAN",
    "clear_plan_cache",
    "plan_cache_stats",
    "resolve_plan",
    "rule_plan_token",
    "stepper_cache_key",
    "topology_token",
    "validate_round_cap",
]


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def rule_plan_token(rule: Rule) -> Optional[Hashable]:
    """Cache-key component identifying ``rule``'s compiled kernel, or
    ``None`` when the rule is not safely cacheable.

    Wraps :meth:`~repro.rules.base.Rule.plan_token` with the same
    MRO-authority check :func:`~repro.engine.stencil.rule_spec`
    applies to kernel specs: a subclass (or mixin) that overrides
    ``step_batch`` or ``kernel_spec`` without republishing
    ``plan_token`` inherits a token that describes *another class's*
    kernel — serving a cached stepper under that token could silently
    run the wrong dynamics, so the token is withheld and every call
    compiles fresh.  The rule's concrete type is folded into the
    returned token, so equal tokens from unrelated classes never
    collide.
    """
    token = rule.plan_token()
    if token is None:
        return None
    mro = type(rule).__mro__
    owner = _definer(rule, "plan_token")
    for attr in ("step_batch", "kernel_spec"):
        other = _definer(rule, attr)
        if (
            owner is not None
            and other is not None
            and mro.index(other) < mro.index(owner)
        ):
            return None
    cls = type(rule)
    full = (cls.__module__, cls.__qualname__, token)
    try:
        hash(full)
    except TypeError:
        return None  # unhashable token (e.g. an unhashable callable field)
    return full


#: identity tokens for non-registry topologies: weak-keyed so entries die
#: with their topology, counter-valued so a token is never reused after
#: garbage collection (unlike raw ``id()``)
_TOPO_TOKENS: "weakref.WeakKeyDictionary[Topology, int]" = (
    weakref.WeakKeyDictionary()
)
_TOPO_COUNTER = itertools.count()


def topology_token(topo: Topology) -> Optional[Hashable]:
    """Cache-key component identifying ``topo``'s neighbor table.

    Registry tori are keyed *structurally* (``(kind, m, n)`` — two
    equal-shaped instances share compiled steppers, exactly as pool
    workers rebuilding a torus locally expect).  Topologies publishing a
    :meth:`~repro.topology.base.Topology.structure_token` (e.g.
    :class:`~repro.topology.graph.GraphTopology`'s degree/neighbor-table
    hash) are keyed by that content token — equal structures share
    compiled steppers across instances and across plan-cache lifetimes.
    Any other topology is keyed by *object identity* via a weak,
    never-reused serial, so a cached stepper is only ever served back to
    the very instance it was compiled against.  Returns ``None``
    (uncacheable) for objects that cannot be weak-referenced.
    """
    spec = topology_spec(topo)
    if spec is not None:
        return ("torus",) + spec
    structural = topo.structure_token()
    if structural is not None:
        try:
            hash(structural)
        except TypeError:
            return None  # malformed token: refuse to cache rather than crash
        return ("structure", structural)
    try:
        serial = _TOPO_TOKENS.get(topo)
        if serial is None:
            serial = next(_TOPO_COUNTER)
            _TOPO_TOKENS[topo] = serial
    except TypeError:
        return None
    return ("obj", serial)


def stepper_cache_key(
    rule: Rule, topo: Topology, max_batch: int
) -> Optional[tuple]:
    """The registry key for one compiled stepper, or ``None`` when any
    component is uncacheable (the caller then compiles fresh)."""
    rtok = rule_plan_token(rule)
    if rtok is None:
        return None
    ttok = topology_token(topo)
    if ttok is None:
        return None
    return (rtok, ttok, int(max_batch))


# ----------------------------------------------------------------------
# the bounded stepper registry (process-local)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanCacheStats:
    """Snapshot of the stepper registry's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int


class _StepperCache:
    """A plain LRU over compiled steppers.  Not thread-safe by design —
    steppers own scratch buffers, so sharing them across threads is
    already unsound; see the module docstring."""

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[tuple, Stepper]" = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def get(self, key: tuple) -> Optional[Stepper]:
        stepper = self._data.get(key)
        if stepper is None:
            self.misses += 1
            obs.count("plan-cache.miss")
            return None
        self._data.move_to_end(key)
        self.hits += 1
        obs.count("plan-cache.hit")
        return stepper

    def put(self, key: tuple, stepper: Stepper) -> None:
        self._data[key] = stepper
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            obs.count("plan-cache.eviction")

    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )


#: compiled steppers cached per process.  32 entries comfortably covers
#: a census (3 kinds x 4 sizes x a couple of batch geometries) while
#: bounding pinned scratch: each stencil stepper preallocates
#: O(max_batch x N) buffers (tens of MB at census size), so the bound is
#: deliberately small — resize with ``clear_plan_cache(maxsize=...)``
#: for workloads juggling more (rule, topology, geometry) combinations
_DEFAULT_CACHE_SIZE = 32
_STEPPER_CACHE = _StepperCache(_DEFAULT_CACHE_SIZE)


def plan_cache_stats() -> PlanCacheStats:
    """Counters of this process's stepper registry (hits/misses/...)."""
    return _STEPPER_CACHE.stats()


def clear_plan_cache(maxsize: Optional[int] = None) -> None:
    """Drop every cached stepper and reset counters.

    ``maxsize`` resizes the registry (tests use tiny sizes to exercise
    eviction); ``None`` keeps the current bound.
    """
    global _STEPPER_CACHE
    _STEPPER_CACHE = _StepperCache(
        _STEPPER_CACHE.maxsize if maxsize is None else maxsize
    )


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPlan:
    """How the batched engine executes a run: stepper caching + early
    retirement of cycling rows.  Results are bitwise-identical under
    every setting; a plan only chooses how fast they arrive.

    Parameters
    ----------
    cache:
        Serve compiled steppers from the process-local registry when the
        rule/topology pair is cacheable (see :func:`stepper_cache_key`).
    escalate:
        Retire the cycling rows of ``detect_cycles=False`` runs as soon
        as Brent detection has found their period, with their state
        fast-forwarded to the cap (see the module docstring).

    Plans are small frozen settings objects: pickle them into pool
    shards freely — compiled steppers live in each process's own
    registry and never travel.
    """

    cache: bool = True
    escalate: bool = True

    # ------------------------------------------------------------------
    def stepper_for(self, rule: Rule, topo: Topology, max_batch: int) -> Stepper:
        """A compiled stepper for ``(rule, topo)``, served from the
        registry when allowed and possible.

        Never cached: ``cache=False`` plans, rules without an
        authoritative :func:`rule_plan_token`, and topologies without a
        :func:`topology_token`.  The registry stores the raw stepper; the
        ``debug`` timing shim is applied on every serve.
        """
        key = stepper_cache_key(rule, topo, max_batch) if self.cache else None
        if key is None:
            return instrumented_stepper(timed_compile(rule, topo, max_batch))
        stepper = _STEPPER_CACHE.get(key)
        if stepper is None:
            stepper = timed_compile(rule, topo, max_batch)
            _STEPPER_CACHE.put(key, stepper)
        return instrumented_stepper(stepper)


# ----------------------------------------------------------------------
# telemetry hooks (repro.obs side channel; bitwise-invisible)
# ----------------------------------------------------------------------
def timed_compile(rule: Rule, topo: Topology, max_batch: int) -> Stepper:
    """:func:`~repro.engine.stencil.compile_stepper` under a ``compile``
    telemetry span: one span per build, plus a ``backend.compile``
    counter.  With telemetry off it is exactly ``compile_stepper(...)``.
    """
    if not obs.enabled("detailed"):
        return compile_stepper(rule, topo, max_batch)
    obs.count("backend.compile")
    with obs.span(
        "compile",
        level="detailed",
        rule=type(rule).__name__,
        vertices=topo.num_vertices,
        max_batch=int(max_batch),
    ):
        return compile_stepper(rule, topo, max_batch)


class _TimedStepper:
    """Per-step timing shim (``debug`` level only).

    Wraps a compiled stepper to accumulate ``backend.steps`` /
    ``backend.step-us`` counters — aggregate totals, not per-round
    events, so a thousand-round run adds two counter deltas, not a
    thousand lines.  :meth:`ExecutionPlan.stepper_for` applies it to
    each stepper it serves and never caches it, so turning telemetry on
    or off cannot change what the cache serves.
    """

    __slots__ = ("stepper",)

    def __init__(self, stepper: Stepper):
        self.stepper = stepper

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = self.stepper(batch)
        obs.count("backend.steps")
        obs.count("backend.step-us", int(1e6 * (time.perf_counter() - t0)))
        return out


def instrumented_stepper(stepper: Stepper) -> Stepper:
    """Wrap ``stepper`` with per-step timing when debug telemetry is on."""
    if not obs.enabled("debug"):
        return stepper
    return _TimedStepper(stepper)


#: the plan every engine entry point resolves when none is given:
#: caching and escalation on — both are bitwise-invisible
DEFAULT_PLAN = ExecutionPlan()

#: the legacy behaviour: compile fresh every call, run every row under
#: the full cap (useful as the parity baseline and for thread-per-engine
#: setups that must not share scratch)
NO_PLAN = ExecutionPlan(cache=False, escalate=False)


def resolve_plan(plan: Union[ExecutionPlan, None]) -> ExecutionPlan:
    """Normalize a ``plan=`` argument (``None`` means :data:`DEFAULT_PLAN`)."""
    if plan is None:
        return DEFAULT_PLAN
    if isinstance(plan, ExecutionPlan):
        return plan
    raise TypeError(
        f"plan must be an ExecutionPlan or None, got {type(plan).__name__}"
    )
