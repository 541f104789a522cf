"""One settings object for every sharded driver.

Five drivers fan work out through :func:`~repro.engine.parallel.
run_sharded` — ``below_bound_census``, ``random_dynamo_search``,
``exhaustive_dynamo_search``, ``convergence_sweep``,
``scale_free_takeover_census`` — and every one of them takes its
execution configuration from a single frozen :class:`ExecutionSettings`
passed as ``settings=`` (default: ``ExecutionSettings()``, "run inline,
no ledger, no telemetry").  There is no other spelling: build the object
once and hand it to any driver.

Two kinds of field live here, and the distinction is the repo's
determinism contract:

* **definitional** knobs (``shard_size``, ``batch_size``) shape RNG draw
  order and thus the results — they are part of an experiment's
  definition and cache key;
* **bitwise-invisible** knobs (``processes``, ``ledger``, ``resume``,
  ``telemetry``, ``cancel``) may change how fast or how
  safely a run executes, never what it computes.

A driver that has no use for an invisible knob ignores it; a driver
that has no use for a *definitional* knob refuses it (silently dropping
a knob that could change results would corrupt the caller's mental
model of what ran).

:class:`RunStats` is the companion on the way out: the typed
cache/record accounting census-style drivers return on their result
objects.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
    Optional,
    Union,
)

from .. import obs

if TYPE_CHECKING:  # type-only: avoid runtime engine -> io import cycles
    from ..io.ledger import RunLedger

__all__ = [
    "ExecutionSettings",
    "RunStats",
]

#: how drivers accept a run ledger: an open ledger, a path to one, or
#: ``None`` for no checkpointing
LedgerSetting = Union["RunLedger", str, Path, None]

#: a cancellation probe: cheap, thread-safe, ``True`` once the run
#: should stop (e.g. ``threading.Event.is_set``)
CancelCheck = Callable[[], bool]


@dataclass(frozen=True)
class ExecutionSettings:
    """How a sharded driver should execute — never *what* it computes,
    except for the two definitional geometry knobs noted below.

    Pass as ``settings=`` to any sharded driver.  All fields default to
    the drivers' own defaults, so ``ExecutionSettings()`` is always a
    valid "run inline, no ledger, no telemetry" request.

    How the engine steps a block is not a setting: every driver serves
    compiled steppers from the process-local registry of
    :mod:`repro.engine.plans` and retires cycling rows by Brent
    detection inside :func:`~repro.engine.batch.run_batch`, neither of
    which changes a result.  A cached stepper owns scratch and must not
    be driven from two threads at once; the service honours that by
    running every job on its one worker thread.

    Parameters
    ----------
    processes:
        Pool size per :func:`~repro.engine.parallel.validate_processes`
        (``0`` inline, ``None`` per-core).  Bitwise-invisible.
    shard_size:
        Work items per shard (``None`` = the driver's default, usually
        its batch size).  **Definitional**: part of the experiment
        definition and cache key.
    batch_size:
        Replica rows advanced per engine step (``None`` = the driver's
        default).  **Definitional.**
    ledger:
        Run ledger (object or path) for crash-safe checkpointing.
        Bitwise-invisible — replayed shards return recorded payloads.
    resume:
        Adopt an unfinished ledger run with the same definition instead
        of refusing to start.
    telemetry:
        Path for a telemetry stream; the driver opens a session around
        its work when no session is already active (a CLI- or
        service-opened session wins).  Zero-perturbation by the
        :mod:`repro.obs` contract.
    telemetry_level:
        Capture level for the driver-opened session.
    cancel:
        Cancellation probe checked between shards (and, on a pool,
        after every committed shard) and, inside the census's complement
        search, before every leaf block; a ``True`` return makes the
        driver raise :class:`~repro.engine.parallel.
        RunCancelled`.  Work already committed (db records, ledger
        shards) stays committed — a cancelled run resumes like a
        crashed one.  Excluded from equality/repr: two settings that
        differ only in ``cancel`` describe the same execution.
    """

    processes: Optional[int] = 0
    shard_size: Optional[int] = None
    batch_size: Optional[int] = None
    ledger: LedgerSetting = None
    resume: bool = False
    telemetry: Union[str, Path, None] = None
    telemetry_level: str = obs.DEFAULT_LEVEL
    cancel: Optional[CancelCheck] = field(default=None, compare=False, repr=False)

    def resolved_batch_size(self, default: int) -> int:
        """``batch_size`` with ``None`` mapped to the driver's default."""
        return default if self.batch_size is None else int(self.batch_size)

    def resolved_shard_size(self, default: int) -> int:
        """``shard_size`` with ``None`` mapped to the driver's default."""
        return default if self.shard_size is None else int(self.shard_size)

    def cancelled(self) -> bool:
        """True once the cancellation probe (if any) trips."""
        return self.cancel is not None and bool(self.cancel())

    def telemetry_scope(self, command: str) -> ContextManager[None]:
        """The telemetry session a driver opens around its work.

        A no-op when no ``telemetry`` path is set *or* a session is
        already active in this process — an outer session (CLI flag,
        service request span) always wins, so settings-carried telemetry
        composes with every existing entry point instead of raising.
        """
        if self.telemetry is None or obs.active_session() is not None:
            return nullcontext()
        return obs.telemetry_session(
            self.telemetry, level=self.telemetry_level, command=command
        )

    def reject(self, driver: str, *names: str) -> None:
        """Refuse definitional knobs a driver cannot honour.

        Raises :class:`ValueError` naming the first of ``names`` that is
        set — silently ignoring a knob that shapes results elsewhere
        would let two differently-spelled requests alias to one run.
        """
        for name in names:
            if getattr(self, name) is not None:
                raise ValueError(
                    f"{driver} does not take {name!r}; "
                    "leave it unset in ExecutionSettings"
                )


@dataclass(frozen=True)
class RunStats:
    """Cache/record accounting for one census-style driver run.

    Returned on result objects (``CensusResult.run_stats``,
    ``ScaleFreeCensus.run_stats``, ``AsyncRobustness.run_stats``).
    """

    #: work units considered (census cells; 1 for a single summary)
    cells: int = 0
    #: units served from the witness database instead of recomputed
    cache_hits: int = 0
    #: new records appended to the witness database by this run
    records_appended: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (keys match the field names)."""
        return {
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "records_appended": self.records_appended,
        }

