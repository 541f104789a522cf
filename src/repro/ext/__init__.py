"""Future-work extensions: scale-free SMP and asynchronous-schedule robustness."""

from .asynchrony import (
    AsyncRobustness,
    async_robustness,
    derive_schedule_root,
    order_sensitivity,
)
from .scale_free import (
    SCALE_FREE_STRATEGIES,
    ScaleFreeCell,
    ScaleFreeCensus,
    ScaleFreeOutcome,
    barabasi_albert_topology,
    run_scale_free_experiment,
    scale_free_takeover_census,
    seed_vertices,
)

__all__ = [
    "SCALE_FREE_STRATEGIES",
    "ScaleFreeCell",
    "ScaleFreeCensus",
    "ScaleFreeOutcome",
    "AsyncRobustness",
    "async_robustness",
    "derive_schedule_root",
    "order_sensitivity",
    "barabasi_albert_topology",
    "seed_vertices",
    "run_scale_free_experiment",
    "scale_free_takeover_census",
]
