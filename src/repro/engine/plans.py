"""The stepper registry: compiled steppers cached per process.

Every :func:`~repro.engine.batch.run_batch` and
:func:`~repro.engine.runner.run_synchronous` call needs a compiled
stepper (:func:`~repro.engine.stencil.compile_stepper`).  Compiling one
per call is harmless for one census-sized block and real money for
many-small-batch search loops that issue thousands of calls against the
same ``(rule, topology)``, so the engine serves steppers from a bounded,
process-local LRU registry keyed by ``(rule identity, topology
identity)``.  Batch width is not part of the key: a plan's scratch grows
to the widest batch it is handed and every call works on a ``[:b]``
slice of it, so the ``(1, N)`` rows of
:func:`~repro.engine.runner.run_synchronous`, a search's full blocks and
a DFS's short last leaf block are all served one plan; ``max_batch``
only sizes the scratch of a fresh compile.  Rule identity is
``(type, plan_token())`` —
rules publish a :meth:`~repro.rules.base.Rule.plan_token` that changes
whenever any state their compiled kernel depends on changes (tie
policy, palette size, threshold spec), so mutating a rule invalidates
its cache entries on the next call.  Rules that publish no token
(custom rules, subclasses whose kernel overrides are not covered by
their inherited token) are simply compiled fresh every call — caching
is an opt-in contract, never a guess.  The registry holds raw steppers
only: the ``debug``-level per-step timing shim (below) wraps a stepper
each time it is served, so a telemetry session never changes what the
cache holds and always times the steps it runs.

The engine's other speed-up, retiring cycling rows by lockstep Brent
detection, lives in :func:`~repro.engine.batch.run_batch` itself.  Neither changes a
result: witness ids, census rows and per-row round counts are what
compiling fresh and simulating every row to the cap would give, which
the oracle matrix in ``tests/test_engine_plans.py`` pins against
per-row :func:`~repro.engine.runner.run_synchronous`.

Process model: the registry is **process-local** (module state).  Pool
workers fill their own, so nothing compiled ever crosses a process
boundary.  Steppers own preallocated scratch, so one cached stepper
must not be driven from two threads at once.  That holds in every
shipped entry point: the CLI and the drivers run inline or in worker
processes, and the HTTP service runs every job on its one worker
thread.
"""

from __future__ import annotations

import itertools
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from .. import obs
from ..rules.base import Rule
from ..topology.base import Topology
from .parallel import topology_spec
from .stencil import Stepper, _definer, compile_stepper

__all__ = [
    "PlanCacheStats",
    "DEFAULT_PLAN",
    "clear_plan_cache",
    "plan_cache_stats",
    "raw_stepper_for",
    "rule_plan_token",
    "stepper_cache_key",
    "stepper_for",
    "topology_token",
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


def stepper_cache_key(rule: Rule, topo: Topology) -> Optional[tuple]:
    """The registry key for one compiled stepper, ``(rule token,
    topology token)``, or ``None`` when either component is uncacheable
    (the caller then compiles fresh)."""
    rtok = rule_plan_token(rule)
    if rtok is None:
        return None
    ttok = topology_token(topo)
    if ttok is None:
        return None
    return (rtok, ttok)


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
        self.reset(maxsize)

    def reset(self, maxsize: int) -> None:
        """Drop every entry and zero the counters, keeping the object
        (callers hold references to the registry, never copies)."""
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

    def raw_stepper_for(
        self, rule: Rule, topo: Topology, max_batch: int
    ) -> Stepper:
        """The compiled stepper for ``(rule, topo)`` as the registry
        holds it, with no timing shim; served from the registry when
        the pair is cacheable.  ``max_batch`` sizes the scratch of a
        fresh compile only; a served plan grows on demand.

        Never cached: rules without an authoritative
        :func:`rule_plan_token` and topologies without a
        :func:`topology_token`.
        """
        key = stepper_cache_key(rule, topo)
        if key is None:
            return timed_compile(rule, topo, max_batch)
        stepper = self.get(key)
        if stepper is None:
            stepper = timed_compile(rule, topo, max_batch)
            self.put(key, stepper)
        return stepper

    def stepper_for(self, rule: Rule, topo: Topology, max_batch: int) -> Stepper:
        """:meth:`raw_stepper_for` under the ``debug`` timing shim,
        which is applied on every serve and never cached."""
        return instrumented_stepper(self.raw_stepper_for(rule, topo, max_batch))


#: compiled steppers cached per process.  A census holds one entry per
#: torus (3 kinds x 4 sizes), so 32 entries leave room for a sweep's
#: rules besides it while bounding pinned scratch: each plan keeps
#: buffers sized to the widest batch it has run (tens of MB at census
#: size), so the bound is deliberately small — resize with
#: ``clear_plan_cache(maxsize=...)`` for workloads juggling more
#: (rule, topology) pairs
_DEFAULT_CACHE_SIZE = 32
_STEPPER_CACHE = _StepperCache(_DEFAULT_CACHE_SIZE)

#: the registry under the name callers use to warm it directly
#: (``DEFAULT_PLAN.stepper_for(rule, topo, max_batch)``)
DEFAULT_PLAN = _STEPPER_CACHE

#: the stepper every engine call runs (:meth:`_StepperCache.stepper_for`);
#: valid for the life of the process, as the registry is reset in place
stepper_for = _STEPPER_CACHE.stepper_for

#: the same, unshimmed (:meth:`_StepperCache.raw_stepper_for`): what
#: :func:`~repro.engine.batch.run_batch` inspects to pick its path
raw_stepper_for = _STEPPER_CACHE.raw_stepper_for


def plan_cache_stats() -> PlanCacheStats:
    """Counters of this process's stepper registry (hits/misses/...)."""
    return _STEPPER_CACHE.stats()


def clear_plan_cache(maxsize: Optional[int] = None) -> None:
    """Drop every cached stepper and reset counters, in place.

    ``maxsize`` resizes the registry (tests use tiny sizes to exercise
    eviction); ``None`` keeps the current bound.
    """
    _STEPPER_CACHE.reset(_STEPPER_CACHE.maxsize if maxsize is None else maxsize)


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
    thousand lines.  :func:`stepper_for` applies it to
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
