"""Simulation engine: synchronous, batched and asynchronous drivers."""

from .batch import BatchRunResult, as_color_batch, run_batch
from .context import ExecutionSettings, RunStats
from .plans import PlanCacheStats, clear_plan_cache, plan_cache_stats
from .parallel import (
    RunCancelled,
    kind_tag,
    resolve_processes,
    run_sharded,
    shard_counts,
    shard_seed,
    validate_positive,
    validate_processes,
)
from .result import RunResult
from .runner import default_round_cap, run_synchronous, validate_round_cap
from .schedulers import AsyncSchedule, run_asynchronous, run_asynchronous_batch
from .stencil import compile_stepper

__all__ = [
    "RunResult",
    "BatchRunResult",
    "run_batch",
    "as_color_batch",
    "run_synchronous",
    "AsyncSchedule",
    "run_asynchronous",
    "run_asynchronous_batch",
    "ExecutionSettings",
    "RunStats",
    "RunCancelled",
    "run_sharded",
    "shard_counts",
    "shard_seed",
    "kind_tag",
    "resolve_processes",
    "validate_positive",
    "validate_processes",
    "compile_stepper",
    "PlanCacheStats",
    "plan_cache_stats",
    "clear_plan_cache",
    "default_round_cap",
    "validate_round_cap",
]
