"""Pluggable kernel backends for the batched engine.

Every experiment in this reproduction bottoms out in per-rule
``step_batch`` kernels; this registry decouples *what* a rule computes
(its declarative :class:`~repro.rules.base.KernelSpec`) from *how* the
neighbor reduction executes.  Two backends ship:

``reference``
    Each rule's own ``step_batch`` kernel, unmodified — the semantic
    baseline.

``stencil``
    Optimized pure NumPy: per-topology gather indices precomputed once,
    sorting networks instead of ``np.sort``, fused per-color counting
    instead of ``np.add.at``, and preallocated scratch — zero allocations
    per round.  ``"auto"`` selects it.

The determinism contract (PR 2/3) makes this layer safe: any backend that
passes the parity matrix is bitwise-interchangeable, so backend choice is
recorded in witness provenance but **excluded from cache-definition
keys** — cached censuses and searches are served identically under any
``--backend``.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple, Union

import numpy as np

from ... import obs
from ...rules.base import Rule
from ...topology.base import Topology
from .base import KernelBackend, Stepper, fallback_stepper
from .reference import ReferenceBackend
from .stencil import StencilBackend

__all__ = [
    "KernelBackend",
    "Stepper",
    "backend_names",
    "fallback_stepper",
    "instrumented_stepper",
    "register_backend",
    "resolve_backend_ref",
    "select_backend",
    "timed_compile",
]

#: name the engine resolves when no backend is requested; ``"auto"``
#: currently means ``"stencil"`` (the fastest shipped backend)
DEFAULT_BACKEND = "auto"

#: registered backend singletons, in registration (= preference) order
_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry (name collisions replace).

    Third-party backends register themselves here and immediately become
    selectable by name through :func:`select_backend`, ``run_batch``, and
    the CLI ``--backend`` flag.
    """
    _REGISTRY[backend.name] = backend
    return backend


register_backend(ReferenceBackend())
register_backend(StencilBackend())


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_REGISTRY)


def select_backend(
    spec: Union[str, KernelBackend, None] = None
) -> KernelBackend:
    """Resolve a backend request to a registered instance.

    Parameters
    ----------
    spec:
        ``None`` or ``"auto"`` picks the default (currently ``stencil``);
        a name picks that backend; a :class:`KernelBackend` instance
        passes through unchanged (custom backends need no registration
        for direct use).

    Raises
    ------
    ValueError
        Unknown backend name (the message lists the choices).
    """
    if isinstance(spec, KernelBackend):
        return spec
    name = DEFAULT_BACKEND if spec is None else str(spec)
    if name == "auto":
        name = "stencil"
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose from "
            f"{('auto',) + backend_names()}"
        )
    return backend


def resolve_backend_ref(
    spec: Union[str, KernelBackend, None], *, sharded: bool = False
) -> Tuple[str, Union[str, KernelBackend]]:
    """Resolve a backend request once, up front, for a driver.

    Returns ``(name, ref)``: the canonical backend name for provenance,
    and the reference to hand to ``run_batch`` — always the *name* on
    sharded paths (pool workers resolve it locally; backend objects
    never cross process boundaries), the instance itself otherwise.

    Raises early on unknown backends, and — with
    ``sharded=True`` — on a :class:`KernelBackend` instance that a pool
    would have to pickle, before any work fans out.
    """
    name = select_backend(spec).name
    if isinstance(spec, KernelBackend):
        if sharded:
            raise ValueError(
                "a KernelBackend instance cannot cross process "
                "boundaries; register it (repro.engine.backends."
                "register_backend) and pass its name to shard the search"
            )
        return name, spec
    return name, name


# ----------------------------------------------------------------------
# telemetry hooks (repro.obs side channel; bitwise-invisible)
# ----------------------------------------------------------------------
def timed_compile(
    backend: KernelBackend, rule: Rule, topo: Topology, max_batch: int
) -> Stepper:
    """Compile a stepper under a ``compile`` telemetry span.

    The single compile hook the engine routes every stepper build
    through (:meth:`repro.engine.plans.ExecutionPlan.stepper_for`): one
    ``compile`` span per build, plus a ``backend.compile`` counter.
    With telemetry off it is exactly ``backend.compile(...)``.
    """
    if not obs.enabled("detailed"):
        return backend.compile(rule, topo, max_batch)
    obs.count("backend.compile")
    with obs.span(
        "compile",
        key=backend.name,
        level="detailed",
        rule=type(rule).__name__,
        vertices=topo.num_vertices,
        max_batch=int(max_batch),
    ):
        return instrumented_stepper(backend.name, backend.compile(rule, topo, max_batch))


class _TimedStepper:
    """Per-step timing shim (``debug`` level only).

    Wraps a compiled stepper to accumulate ``backend.steps`` /
    ``backend.step-us`` counters — aggregate totals, not per-round
    events, so a thousand-round run adds two counter deltas, not a
    thousand lines.  The shim is applied *after* compilation and is
    never cached (the plan cache stores the raw stepper), so turning
    telemetry on or off cannot change what a cache serves.
    """

    __slots__ = ("name", "stepper")

    def __init__(self, name: str, stepper: Stepper):
        self.name = name
        self.stepper = stepper

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = self.stepper(batch)
        obs.count("backend.steps")
        obs.count("backend.step-us", int(1e6 * (time.perf_counter() - t0)))
        return out


def instrumented_stepper(name: str, stepper: Stepper) -> Stepper:
    """Wrap ``stepper`` with per-step timing when debug telemetry is on."""
    if not obs.enabled("debug"):
        return stepper
    return _TimedStepper(name, stepper)
