"""Cross-process sharding for sweep / census / search workloads.

The batched engine (:mod:`repro.engine.batch`) saturates *one* process:
a ``(B, N)`` replica block is advanced by fused numpy kernels, but numpy
holds the GIL-free work inside a single interpreter.  Production-scale
audits — a convergence sweep over a grid of tori, a below-bound census
over thousands of random trials per cell — want every core.  This module
promotes the ``sweep_rounds`` pool idiom to a reusable layer:

1. a workload is split into **shards** — small picklable descriptions of
   ``(grid point x replica block)`` work units;
2. shards fan out over a process pool via :func:`run_sharded`
   (workers rebuild topology/rule state locally, so nothing large is
   pickled in either direction);
3. each shard derives its RNG from coordinates, not execution order —
   :func:`shard_seed` builds ``SeedSequence([seed, kind_tag, m, n,
   shard])`` — and :func:`run_sharded` returns partials in shard order,
   so the reduced result is **bitwise-identical at any process count**;
4. per-shard partials reduce into the caller's existing record dtypes
   (``CONVERGENCE_DTYPE`` rows, :class:`~repro.experiments.census.CensusRow`,
   :class:`~repro.core.search.SearchOutcome`).

Determinism contract: results never depend on ``processes``; they *do*
depend on the shard geometry (``shard_size``) and the seed, which are
part of the experiment definition.  ``processes=0`` runs inline in the
calling process, ``None`` uses one worker per core.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

import numpy as np

from .. import obs
from ..topology.base import Topology
from ..topology.tori import TORUS_CLASSES, make_torus
from .context import CancelCheck

if TYPE_CHECKING:  # type-only: avoid a runtime engine -> io import cycle
    from ..io.ledger import ShardCheckpoint

__all__ = [
    "DEFAULT_SHARD_RETRIES",
    "RunCancelled",
    "ShardError",
    "build_topology",
    "kind_tag",
    "resolve_processes",
    "run_sharded",
    "shard_counts",
    "shard_seed",
    "topology_spec",
    "validate_positive",
    "validate_processes",
]

S = TypeVar("S")
R = TypeVar("R")

#: picklable torus description carried by shards: ``(kind, m, n)``
TopologySpec = Tuple[str, int, int]

#: retry budget ledger-checkpointed drivers use for worker death: each
#: shard may be recomputed this many times beyond its first attempt
#: before :class:`ShardError` surfaces.  Retries are bitwise-safe — a
#: shard's RNG derives from its coordinates (:func:`shard_seed`), never
#: from the attempt count or the process that runs it.
DEFAULT_SHARD_RETRIES = 2


class RunCancelled(RuntimeError):
    """A cancellation probe tripped between shards.

    Raised by :func:`run_sharded` (and by drivers that run their own
    shard loops) when the ``cancel`` probe — usually
    ``threading.Event.is_set`` wired in by a service job — returns
    ``True``.  Cancellation is cooperative and shard-granular: work
    already committed (witness-db records, ledger shards) stays
    committed, so a cancelled ledgered run resumes exactly like a
    crashed one.
    """


def _check_cancel(cancel: Optional[CancelCheck]) -> None:
    """Raise :class:`RunCancelled` once the probe (if any) trips."""
    if cancel is not None and cancel():
        obs.count("parallel.cancelled")
        raise RunCancelled("run cancelled between shards")


class ShardError(RuntimeError):
    """A shard kept failing after its bounded retries were exhausted.

    Structured so drivers/tests can name the work unit: :attr:`key` is
    the shard's ledger key (or its index when no checkpoint is in play)
    and :attr:`attempts` counts every execution tried.  The last worker
    exception is chained as ``__cause__``.
    """

    def __init__(self, key: object, attempts: int, cause: BaseException):
        super().__init__(
            f"shard {key!r} failed after {attempts} attempt(s): {cause!r}"
        )
        self.key = key
        self.attempts = attempts


def validate_processes(
    processes: Optional[int], *, flag: str = "processes"
) -> Optional[int]:
    """Validate a process count in the one place every driver shares.

    ``None`` means one worker per core; ``0`` means run inline in the
    calling process; positive integers give the pool size.  Anything
    else (including ``True``/``False``) raises :class:`ValueError` with a
    clear message instead of reaching the process pool, whose own
    complaint is opaque.

    Parameters
    ----------
    processes:
        The raw value from a caller or CLI flag.
    flag:
        Name used in the error message (e.g. ``"--processes"``), so the
        complaint points at what the user actually typed.

    Returns
    -------
    ``None`` unchanged, or the count as a plain ``int``; never a numpy
    scalar, so downstream pickling and equality checks are exact.
    """
    if processes is None:
        return None
    try:
        if isinstance(processes, bool):  # True would count as one worker
            raise TypeError(processes)
        p = int(processes)
    except (TypeError, ValueError):
        raise ValueError(
            f"{flag} must be an integer >= 0 or None, got {processes!r}"
        ) from None
    if p != processes or p < 0:
        raise ValueError(
            f"{flag} must be >= 0 (0 runs inline, None uses every core), "
            f"got {processes!r}"
        )
    return p


def validate_positive(value: object, *, flag: str = "value") -> int:
    """Validate a strictly positive integer tuning knob (shared by CLI
    flags and driver keywords).

    Batch and shard sizes are part of an experiment's *definition* (they
    shape RNG draw order), so a nonsensical value must fail loudly here
    rather than flow into ``shard_counts``/``run_batch`` and surface as
    an opaque complaint — the companion of :func:`validate_processes`.

    Parameters
    ----------
    value:
        The raw value from a caller or CLI flag.
    flag:
        Name used in the error message (e.g. ``"--batch-size"``), so the
        complaint points at what the user actually typed.

    Returns
    -------
    The value as a plain ``int`` (never a numpy scalar).
    """
    try:
        v = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{flag} must be a positive integer, got {value!r}"
        ) from None
    if isinstance(value, bool) or v != value:
        # a non-integral value >= 1 would otherwise get the misleading
        # ">= 1" complaint (and bool True silently counts as 1)
        raise ValueError(f"{flag} must be a positive integer, got {value!r}")
    if v < 1:
        raise ValueError(f"{flag} must be >= 1, got {value!r}")
    return v


def resolve_processes(
    processes: Optional[int], num_units: int, *, flag: str = "processes"
) -> int:
    """Effective pool size for ``num_units`` shards.

    Parameters
    ----------
    processes:
        As accepted by :func:`validate_processes` (``None`` = per-core).
    num_units:
        Number of shards available; the pool is never larger than this.

    Returns
    -------
    The worker count :func:`run_sharded` would actually use; a value
    ``<= 1`` means the workload runs inline without a pool.
    """
    p = validate_processes(processes, flag=flag)
    if p is None:
        p = mp.cpu_count()
    return min(p, num_units)


def run_sharded(
    worker: Callable[[S], R],
    shards: Iterable[S],
    *,
    processes: Optional[int] = None,
    flag: str = "processes",
    checkpoint: Optional["ShardCheckpoint"] = None,
    max_retries: int = 0,
    cancel: Optional[CancelCheck] = None,
) -> List[R]:
    """Map ``worker`` over ``shards``, optionally across a process pool.

    Partials come back **in shard order** regardless of which process ran
    which shard, so a worker whose output depends only on its shard
    description produces bitwise-identical reductions at any process
    count — this ordering guarantee plus coordinate-derived shard RNGs
    (:func:`shard_seed`) is the whole determinism contract.

    ``processes=0`` (or an effective pool of one, or a single shard left
    to run) short-circuits to an inline loop — same code path as the
    pool workers, no pickling.  Otherwise every shard is submitted to a
    :class:`concurrent.futures.ProcessPoolExecutor` and results are
    consumed, committed, and returned in shard order regardless of
    completion order.  The executor (rather than ``multiprocessing.
    Pool``) is what makes worker death recoverable: a hard-killed worker
    hangs ``Pool.map`` forever, while the executor surfaces
    :class:`~concurrent.futures.BrokenExecutor`, which this loop turns
    into an inline retry of the interrupted shard plus a fresh executor
    for whatever remains.

    Parameters
    ----------
    worker:
        A **module-level** callable (pool workers import it by qualified
        name; closures and lambdas cannot cross the process boundary).
    shards:
        Small picklable values fully describing each work unit; workers
        rebuild anything large (topologies, rule state) locally.
    processes:
        Pool size per :func:`validate_processes`.
    flag:
        Flag name used in validation errors.
    checkpoint:
        A :class:`repro.io.ledger.ShardCheckpoint` (keys parallel to the
        shard list).  Shards already committed in the run ledger are
        *replayed* — their recorded payloads returned without running
        ``worker`` — and every freshly computed shard is durably
        committed, in shard order, as its result is consumed.
    max_retries:
        Extra executions allowed per shard after a failure (a raising
        worker or a worker killed hard enough to break the pool).
        Retries run the same shard description, hence the same derived
        ``SeedSequence`` and bitwise-identical output; once the budget
        is exhausted a :class:`ShardError` naming the shard's key is
        raised.  The default ``0`` without a ``checkpoint`` is
        fail-fast: the first failing worker's own exception propagates
        unwrapped.
    cancel:
        Cancellation probe checked before each inline shard, before a
        pool starts, and after every shard a pool commits; a ``True``
        return cancels the shards not yet started and raises
        :class:`RunCancelled`.  Committed work stays committed.

    Returns
    -------
    ``[worker(shard) for shard in shards]`` — exactly, whatever the
    process count, whether shards were replayed, and however many
    retries were spent.
    """
    units = list(shards)
    if checkpoint is not None and len(checkpoint) != len(units):
        raise ValueError(
            f"checkpoint carries {len(checkpoint)} keys for "
            f"{len(units)} shards"
        )
    fail_fast = checkpoint is None and max_retries == 0
    results: List[Optional[R]] = [None] * len(units)

    def commit(i: int, value: R) -> None:
        results[i] = value
        if checkpoint is not None:
            checkpoint.store(i, value)

    def run(i: int, first_exc: Optional[BaseException]) -> None:
        """Finish shard ``i`` inline, honouring the retry budget."""
        commit(
            i,
            _attempt_shard(
                worker,
                units[i],
                _shard_key(checkpoint, i),
                max_retries,
                first_exc,
                fail_fast,
            ),
        )

    with obs.span("pool", level="basic", shards=len(units)):
        pending: List[int] = []
        for i in range(len(units)):
            if checkpoint is not None:
                found, value = checkpoint.lookup(i)
                if found:
                    results[i] = value
                    obs.emit(
                        "shard-replay",
                        key=checkpoint.key_of(i),
                        level="detailed",
                    )
                    continue
            pending.append(i)
        nproc = resolve_processes(processes, len(pending), flag=flag)
        if nproc <= 1 or len(pending) <= 1:
            for i in pending:
                _check_cancel(cancel)
                run(i, None)
            return results  # type: ignore[return-value]
        queue = pending
        while queue:
            _check_cancel(cancel)
            consumed: List[int] = []
            try:
                init, initargs = obs.pool_initializer()
                with ProcessPoolExecutor(
                    max_workers=min(nproc, len(queue)),
                    initializer=init,
                    initargs=initargs,
                ) as pool:
                    futures: List[Tuple[int, "Future[R]"]] = []
                    for i in queue:
                        key = _shard_key(checkpoint, i)
                        obs.emit("shard-dispatch", key=key, level="debug")
                        futures.append(
                            (i, pool.submit(obs.shard_call, worker, key, units[i]))
                        )
                    try:
                        for n, (i, future) in enumerate(futures):
                            if n:
                                _check_cancel(cancel)
                            try:
                                value = future.result()
                            except BrokenExecutor:
                                raise  # handled below: retry inline + fresh pool
                            except Exception as exc:
                                run(i, exc)
                            else:
                                commit(i, value)
                            consumed.append(i)
                    except BaseException:
                        # drop the shards no worker has started; the
                        # ones already committed stay committed
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise
                return results  # type: ignore[return-value]
            except BrokenExecutor as exc:
                # A worker died hard (e.g. SIGKILL/os._exit) and took the
                # executor with it.  Charge the attempt to the first
                # unconsumed shard and finish it inline, then rebuild a
                # fresh pool for the remainder — recomputation is
                # bitwise-safe and completed shards are already committed.
                remaining = [i for i in queue if i not in set(consumed)]
                obs.emit(
                    "pool-rebuild",
                    key=_shard_key(checkpoint, remaining[0]),
                    remaining=len(remaining),
                )
                run(remaining[0], exc)
                queue = remaining[1:]
    return results  # type: ignore[return-value]


def _shard_key(checkpoint: Optional["ShardCheckpoint"], index: int) -> object:
    return index if checkpoint is None else checkpoint.key_of(index)


def _attempt_shard(
    worker: Callable[[S], R],
    unit: S,
    key: object,
    max_retries: int,
    first_exc: Optional[BaseException],
    fail_fast: bool,
) -> R:
    """Run ``unit`` inline honouring the retry budget.

    ``first_exc`` is a failure already spent by a pool execution (so it
    counts against the budget); ``None`` means no attempt has run yet.
    Under ``fail_fast`` nothing is retried or wrapped: the first failure
    propagates exactly as the worker raised it.
    """
    if fail_fast:
        if first_exc is not None:
            raise first_exc
        return obs.shard_call(worker, key, unit)
    attempts = 0 if first_exc is None else 1
    last_exc = first_exc
    while attempts <= max_retries:
        if last_exc is not None:
            obs.emit(
                "shard-retry", key=key, attempt=attempts, error=repr(last_exc)
            )
        try:
            return obs.shard_call(worker, key, unit)
        except Exception as exc:
            last_exc = exc
            attempts += 1
    assert last_exc is not None
    raise ShardError(key, attempts, last_exc) from last_exc


def shard_counts(total: int, shard_size: int) -> List[int]:
    """Split ``total`` work items into contiguous shards of ``shard_size``.

    The trailing shard carries the remainder; ``sum == total`` always.
    Raises :class:`ValueError` for negative totals or a non-positive
    shard size.

    Returns
    -------
    A list of per-shard item counts, e.g. ``shard_counts(10, 4) ==
    [4, 4, 2]``.  Shard *geometry* is part of an experiment's
    definition: results are identical at any process count but differ
    across ``shard_size`` values (each shard draws its own RNG stream).
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    full, rem = divmod(total, shard_size)
    return [shard_size] * full + ([rem] if rem else [])


def kind_tag(kind: str) -> int:
    """Stable 32-bit tag of a topology-kind name, used as RNG seed material.

    The first four bytes of the name, little-endian — a pure function of
    the string, stable across processes, platforms, and releases, which
    is what lets seeds derived from it reproduce forever.
    """
    return int.from_bytes(kind.encode()[:4].ljust(4, b"\0"), "little")


def shard_seed(
    seed: int, kind: str, m: int, n: int, shard: int
) -> np.random.SeedSequence:
    """RNG root of one ``(grid point x replica block)`` shard.

    Derived from the shard's *coordinates*, never from execution order,
    so any process count — and any assignment of shards to workers —
    draws exactly the same streams.

    Parameters
    ----------
    seed:
        The experiment's root seed.
    kind, m, n:
        The grid point's topology coordinates (kind via
        :func:`kind_tag`).
    shard:
        The shard index within the grid point.

    Returns
    -------
    ``SeedSequence([seed, kind_tag(kind), m, n, shard])`` — feed it to
    ``numpy.random.default_rng``.
    """
    return np.random.SeedSequence(
        [int(seed), kind_tag(kind), int(m), int(n), int(shard)]
    )


def topology_spec(topo: Topology) -> Optional[TopologySpec]:
    """Small picklable description of a registry torus, else ``None``.

    Shards carry this instead of the topology object so pool workers
    rebuild the neighbor table locally.  Non-torus topologies return
    ``None`` and are pickled as-is by callers that support them; the
    witness database uses the same ``None`` signal to skip topologies it
    cannot re-identify.

    Returns
    -------
    ``(kind, m, n)`` for an exact registry-torus instance (subclasses
    deliberately excluded — their dynamics may differ), else ``None``.
    """
    for name, cls in TORUS_CLASSES.items():
        if type(topo) is cls:
            return (name, topo.m, topo.n)
    return None


def build_topology(
    spec: Optional[TopologySpec], fallback: Optional[Topology] = None
) -> Topology:
    """Rebuild a topology from :func:`topology_spec` output (worker side).

    Parameters
    ----------
    spec:
        A ``(kind, m, n)`` tuple, or ``None`` for non-registry
        topologies.
    fallback:
        The topology object to use when ``spec`` is ``None`` (callers
        that pickled it into the shard); a ``None`` spec without a
        fallback raises :class:`ValueError`.

    Returns
    -------
    A freshly constructed torus (neighbor tables built locally in the
    worker), or ``fallback`` unchanged.
    """
    if spec is None:
        if fallback is None:
            raise ValueError("no topology spec and no fallback topology")
        return fallback
    kind, m, n = spec
    return make_torus(kind, m, n)
