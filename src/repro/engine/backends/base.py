"""Kernel-backend interface.

A :class:`KernelBackend` decouples *what* a rule computes (declared by its
:class:`~repro.rules.base.KernelSpec`) from *how* the neighbor reduction is
executed.  The contract every backend must satisfy:

* **bitwise determinism** — for any rule/topology/batch, the stepper must
  produce exactly the arrays the rule's own :meth:`~repro.rules.base.Rule.
  step_batch` produces (the parity matrix in ``tests/test_engine_backends.py``
  pins this for every registered backend x every shipped rule); backends are
  therefore interchangeable mid-experiment, excluded from witness-database
  cache keys, and invisible to seeds;
* **error fidelity** — invalid inputs raise the same :class:`ValueError`
  the rule itself raises (specs carry the rule's validator; structurally
  unsupported topologies make :meth:`~repro.rules.base.Rule.kernel_spec`
  return ``None``, and the fallback path surfaces the rule's own error);
* **graceful fallback** — a rule without a spec (custom rules) compiles to
  a stepper that simply calls its ``step_batch``, so every backend runs
  every rule.

Backends are stateless and process-local: the sharded pool passes backend
*names* across process boundaries and each worker resolves the name
locally (:func:`repro.engine.backends.select_backend`).
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from ...rules.base import KernelSpec, Rule
from ...topology.base import Topology

__all__ = [
    "KernelBackend",
    "Stepper",
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
    backends fall back to it, unless the overriding class explicitly
    publishes its own spec.
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

    Used by every backend when :meth:`~repro.rules.base.Rule.kernel_spec`
    returns ``None`` — including the case of a structurally unsupported
    topology, where the rule's kernel raises its own error.
    """

    def stepper(colors: np.ndarray) -> np.ndarray:
        return rule.step_batch(colors, topo)

    return stepper


class KernelBackend(abc.ABC):
    """One way of executing rule kernels."""

    #: registry name; also what the CLI ``--backend`` flag and witness
    #: provenance record
    name: str = "?"

    @abc.abstractmethod
    def compile(self, rule: Rule, topo: Topology, max_batch: int) -> Stepper:
        """Build a one-round stepper for ``(rule, topo)``.

        ``max_batch`` sizes any preallocated scratch; steppers accept
        smaller batches (sliced views) and transparently grow for larger
        ones.  Compilation is cheap (index copies, buffer allocation) and
        happens once per :func:`~repro.engine.batch.run_batch` call, so
        per-round work allocates nothing.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
