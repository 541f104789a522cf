"""Recoloring rules: the SMP-Protocol and its baselines/generalizations."""

from typing import Callable, Tuple

from .base import KernelSpec, Rule, as_color_array
from .ordered import OrderedIncrementRule
from .majority import BLACK, WHITE, ReverseSimpleMajority, ReverseStrongMajority
from .plurality import GeneralizedPluralityRule, ceil_half, strong_threshold
from .smp import SMPRule, smp_literal_update, smp_step_batch, unique_plurality_color
from .threshold import ACTIVE, INACTIVE, LinearThresholdRule

#: the single rule registry: name -> (constructor, replica palette).
#: The constructor receives the make_rule keyword options; the palette
#: function maps a palette size to the ``(low, size, target)`` domain of
#: random replicas for that rule — bi-colored majority baselines live on
#: ``{WHITE=1, BLACK=2}`` targeting the faulty color, the linear-threshold
#: rule on ``{0, 1}`` targeting the active state, the ordered rule
#: targets its absorbing top color, everything else targets color 0 of
#: ``0..num_colors-1``.  Adding a rule here is the only edit needed for
#: it to appear in the CLI choices, make_rule, and the sweep/bench
#: drivers at once.
_RULE_REGISTRY = {
    "smp": (
        lambda num_colors, tie, thresholds: SMPRule(),
        lambda num_colors: (0, num_colors, 0),
    ),
    "majority": (
        lambda num_colors, tie, thresholds: ReverseSimpleMajority(tie),
        lambda num_colors: (WHITE, 2, BLACK),
    ),
    "strong-majority": (
        lambda num_colors, tie, thresholds: ReverseStrongMajority(),
        lambda num_colors: (WHITE, 2, BLACK),
    ),
    "plurality": (
        lambda num_colors, tie, thresholds: GeneralizedPluralityRule(num_colors),
        lambda num_colors: (0, num_colors, 0),
    ),
    "ordered": (
        lambda num_colors, tie, thresholds: OrderedIncrementRule(num_colors),
        lambda num_colors: (0, num_colors, num_colors - 1),
    ),
    "threshold": (
        lambda num_colors, tie, thresholds: LinearThresholdRule(thresholds),
        lambda num_colors: (INACTIVE, 2, ACTIVE),
    ),
}

#: registry names accepted by :func:`make_rule` (CLI / sweep front-ends)
RULE_NAMES = tuple(_RULE_REGISTRY)


#: registry value: ``(constructor, replica palette)`` — see _RULE_REGISTRY.
_RegistryEntry = Tuple[
    Callable[[int, str, str], Rule], Callable[[int], Tuple[int, int, int]]
]


def _registry_entry(name: str) -> _RegistryEntry:
    try:
        return _RULE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown rule {name!r}; choose from {RULE_NAMES}"
        ) from None


def replica_palette(name: str, num_colors: int = 4) -> Tuple[int, int, int]:
    """``(low, size, target)`` of the random-replica palette for a rule."""
    return _registry_entry(name)[1](num_colors)


def make_rule(name: str, *, num_colors: int = 4, tie: str = "prefer-black",
              thresholds: str = "simple") -> Rule:
    """Construct a rule by registry name (the CLI / sweep front-end).

    ``num_colors`` parameterizes the palette-aware rules (``plurality``,
    ``ordered``); ``tie`` picks the simple-majority tie policy; and
    ``thresholds`` the linear-threshold spec.
    """
    return _registry_entry(name)[0](num_colors, tie, thresholds)


__all__ = [
    "KernelSpec",
    "Rule",
    "as_color_array",
    "make_rule",
    "replica_palette",
    "RULE_NAMES",
    "smp_step_batch",
    "SMPRule",
    "smp_literal_update",
    "unique_plurality_color",
    "ReverseSimpleMajority",
    "ReverseStrongMajority",
    "WHITE",
    "BLACK",
    "GeneralizedPluralityRule",
    "ceil_half",
    "strong_threshold",
    "LinearThresholdRule",
    "OrderedIncrementRule",
    "ACTIVE",
    "INACTIVE",
]
