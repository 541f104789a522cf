"""Update-order robustness: do the constructions survive asynchrony?

The paper assumes a synchronous system (Section III-D).  A natural
robustness question — adjacent to its future-work items — is whether the
minimum dynamos still take over when vertices update one at a time in
arbitrary order.  For *monotone* configurations the answer should be yes
(any enabled adoption stays enabled until executed); these experiments
measure it:

* :func:`async_robustness` — run a construction under many random
  sequential schedules, report takeover rate and sweep statistics;
* :func:`order_sensitivity` — spread of sweep counts across schedules
  (how much the adversary controls the clock, if not the outcome).

Both experiments fan their trials out as one
:class:`~repro.engine.schedulers.AsyncSchedule` batch — every trial is an
independent row of a ``(trials, N)`` block advanced by
:func:`~repro.engine.schedulers.run_asynchronous_batch`.  Trial ``i``'s
permutation stream is seeded ``(root, i)``, so trials are independent of
each other's sweep counts and individually reproducible.  The scalar
:func:`~repro.engine.schedulers.run_asynchronous` loop is the reference
engine: replaying the same trials through it gives bitwise-identical
summaries (pinned in ``tests/test_ext_asynchrony.py``).

Finding: the paper's constructions are schedule-robust (their seeds are
protected by k-blocks or by *rainbow* neighborhoods, both of which survive
any interleaving), but the below-bound diagonal/floor witnesses are
**synchronous-only** — their 2-2 *tie* protection breaks when one neighbor
updates early (the tie becomes a 3-1 against the seed vertex), and random
sequential schedules destroy them essentially always.  So the refutation
of Theorems 1/3/5 stands in the paper's own synchronous model, while the
bounds may survive in an asynchronous-adversary model — a sharper open
question than the paper posed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import obs
from ..core.constructions import Construction
from ..engine.batch import DYNAMICS_VERSION
from ..engine.context import RunStats
from ..engine.schedulers import AsyncSchedule, run_asynchronous_batch
from ..rules.smp import SMPRule

__all__ = [
    "AsyncRobustness",
    "async_robustness",
    "derive_schedule_root",
    "order_sensitivity",
]


@dataclass
class AsyncRobustness:
    """Summary over random sequential schedules.

    ``run_stats`` summarizes how :func:`async_robustness` produced this
    summary (cache hit vs fresh sweeps, record appended or not); it is
    execution provenance, not part of the summary's value, so it is
    excluded from equality and from ``as_row``/``from_row``.
    """

    trials: int
    takeover_rate: float
    monotone_rate: float
    min_sweeps: int
    max_sweeps: int
    mean_sweeps: float
    run_stats: RunStats = field(
        default_factory=RunStats, compare=False, repr=False
    )

    def as_row(self) -> dict:
        return {
            "trials": self.trials,
            "takeover_rate": self.takeover_rate,
            "monotone_rate": self.monotone_rate,
            "min_sweeps": self.min_sweeps,
            "max_sweeps": self.max_sweeps,
            "mean_sweeps": self.mean_sweeps,
        }

    @classmethod
    def from_row(cls, row: dict) -> "AsyncRobustness":
        return cls(
            trials=int(row["trials"]),
            takeover_rate=float(row["takeover_rate"]),
            monotone_rate=float(row["monotone_rate"]),
            min_sweeps=int(row["min_sweeps"]),
            max_sweeps=int(row["max_sweeps"]),
            mean_sweeps=float(row["mean_sweeps"]),
        )


def derive_schedule_root(
    seed: Optional[int], rng: Optional[np.random.Generator], default_seed: int
) -> int:
    """The root seed of a schedule batch.

    An explicit ``seed`` wins; otherwise one 63-bit draw from ``rng``
    (defaulting to ``default_rng(default_seed)``) becomes the root, so
    legacy callers that passed only ``rng`` still get a reproducible —
    and schedule-independent — trial set.
    """
    if seed is not None:
        return int(seed)
    rng = rng if rng is not None else np.random.default_rng(default_seed)
    return int(rng.integers(0, 2**63 - 1))


def _configuration_digest(con: Construction) -> str:
    """Content hash pinning exactly what a cached summary was computed on."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(con.topo.neighbors).tobytes())
    h.update(np.ascontiguousarray(con.colors).tobytes())
    h.update(int(con.k).to_bytes(4, "little"))
    return h.hexdigest()


def _summarize(res, trials: int) -> AsyncRobustness:
    sweeps = res.rounds.astype(np.int64)
    return AsyncRobustness(
        trials=trials,
        takeover_rate=float(res.k_monochromatic.sum()) / trials,
        monotone_rate=float(res.monotone.sum()) / trials,
        min_sweeps=int(sweeps.min()),
        max_sweeps=int(sweeps.max()),
        mean_sweeps=float(sweeps.mean()),
    )


def _run_trials(
    con: Construction,
    schedule: AsyncSchedule,
    *,
    max_sweeps: Optional[int],
):
    """One BatchRunResult for the whole trial set."""
    block = np.tile(np.asarray(con.colors, dtype=np.int32), (schedule.batch_size, 1))
    return run_asynchronous_batch(
        con.topo,
        block,
        SMPRule(),
        schedule,
        max_sweeps=max_sweeps,
        target_color=con.k,
    )


def async_robustness(
    con: Construction,
    trials: int = 20,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: Optional[int] = None,
    *,
    seed: Optional[int] = None,
    db=None,
    label: Optional[str] = None,
) -> AsyncRobustness:
    """Random-order sequential runs of a construction.

    Trial ``i`` runs under the schedule seeded ``(root, i)`` where the
    root comes from ``seed`` (or one draw from ``rng``).  With ``db``,
    the summary is cached as an ``async-summary`` record keyed by the
    full experiment definition (including a content hash of the
    configuration) and later identical invocations skip the sweeps
    entirely.  The cache outcome is reported on the returned summary's
    ``run_stats`` field (:class:`~repro.engine.context.RunStats`).
    """
    root = derive_schedule_root(seed, rng, 0xA5C)
    record_label = label if label is not None else getattr(con, "name", "construction")
    definition = None
    if db is not None:
        definition = {
            "experiment": "async-robustness",
            "dynamics": DYNAMICS_VERSION,
            "configuration": _configuration_digest(con),
            "root": root,
            "trials": int(trials),
            "max_sweeps": None if max_sweeps is None else int(max_sweeps),
        }
        cached = db.find_cell("async-summary", definition, label=record_label)
        if cached is not None:
            summary = AsyncRobustness.from_row(cached.row)
            summary.run_stats = RunStats(cells=1, cache_hits=1)
            return summary
    schedule = AsyncSchedule.derive(root, trials)
    with obs.span(
        "phase", key="async-robustness", level="basic", trials=int(trials)
    ):
        res = _run_trials(con, schedule, max_sweeps=max_sweeps)
    summary = _summarize(res, trials)
    if db is not None:
        from ..io.witnessdb import CellRecord

        db.add_cell(
            CellRecord(
                type="async-summary",
                key={"label": record_label},
                definition=definition,
                row=summary.as_row(),
            )
        )
    summary.run_stats = RunStats(
        cells=1, records_appended=1 if db is not None else 0
    )
    return summary


def order_sensitivity(
    con: Construction,
    trials: int = 50,
    rng: Optional[np.random.Generator] = None,
    *,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Sweep counts per schedule (the clock-control distribution)."""
    root = derive_schedule_root(seed, rng, 0x5EED)
    schedule = AsyncSchedule.derive(root, trials)
    with obs.span(
        "phase", key="order-sensitivity", level="basic", trials=int(trials)
    ):
        res = _run_trials(con, schedule, max_sweeps=None)
    return res.rounds.astype(np.int64)
