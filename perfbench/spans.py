"""In-memory span tracer for the benchmark's traced run.

The tracer lives in the benchmark, not in the program: it replaces the
names each calling module resolves for a layer's public functions (for
example ``run_synchronous`` and ``prune_to_core`` as seen by
``repro.core.complement``) with wrappers that record one span per call.
A span is ``[name, parent, start, end]``; spans stay in a list until the
run ends, and a layer's self time is its spans' durations minus the part
covered by their child spans.  Counts are tallied at the same wrappers,
so they repeat exactly for a fixed schedule.

End-to-end runs never install it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: layers in stack order, keyed by the span-name prefix
LAYERS = (
    "complement",
    "runner",
    "blocks",
    "batch",
    "parallel",
    "search",
    "census",
    "sweeps",
    "witnessdb",
    "ledger",
    "query",
    "service",
)
#: layers whose self time is overhead around another layer's work: the
#: drivers, sharding, the run ledger and the service handlers.  A smaller
#: share of these is better; the shares of the working layers have no
#: better direction (a faster layer shifts the share to the others), so
#: they are printed but are not per-layer metrics
OVERHEAD_LAYERS = ("parallel", "search", "census", "sweeps", "ledger", "service")

#: census cells, in the order the per-layer table lists them
CENSUS_CELLS = tuple(
    f"{kind}-{n}"
    for kind in ("mesh", "cordalis", "serpentinus")
    for n in (3, 4, 5)
)

#: module of a sharded worker -> the layer its shard spans belong to
_SHARD_LAYER = {"repro.core.search": "search", "repro.experiments.sweeps": "sweeps"}


def _file_size(path: Any) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


class Tracer:
    """Records spans around patched calls; restores every patch on exit."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.tally: Dict[str, float] = defaultdict(float)
        self.paused = False
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        #: passes of the non-k-block prune inside the current DFS call
        self._dfs_passes: Optional[int] = None
        #: the current DFS call's node budget
        self._dfs_budget = 0

    # -- recording -----------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``before(args, kwargs)`` runs just before the call and its return
        value is handed to ``after(ctx, args, kwargs, result)``; neither
        runs inside the span's timed interval.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.paused:
                return fn(*args, **kwargs)
            ctx = before(args, kwargs) if before is not None else None
            span = [name, tracer._stack[-1] if tracer._stack else -1, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(ctx, args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Run the benchmark's own checks and upkeep without spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- analysis ------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``busy`` and ``self`` time."""
        covered = [0.0] * len(self.spans)
        for _name, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, _parent, t0, t1) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
            row["calls"] += 1
            row["busy"] += t1 - t0
            row["self"] += (t1 - t0) - covered[i]
        return out


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the three workloads cross."""
    complement = importlib.import_module("repro.core.complement")
    search = importlib.import_module("repro.core.search")
    census = importlib.import_module("repro.experiments.census")
    sweeps = importlib.import_module("repro.experiments.sweeps")
    batch = importlib.import_module("repro.engine.batch")
    witnessdb = importlib.import_module("repro.io.witnessdb")
    ledger = importlib.import_module("repro.io.ledger")
    query = importlib.import_module("repro.io.query")
    state = importlib.import_module("repro.service.state")
    tally = tracer.tally

    # -- core.complement -> engine.runner / structures.blocks ----------
    dfs_signature = inspect.signature(complement.find_dynamo_complement)

    def dfs_before(args: tuple, kwargs: dict) -> int:
        bound = dfs_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer._dfs_passes = 0
        tracer._dfs_budget = int(bound.arguments["max_nodes"])
        return tracer._dfs_budget

    def dfs_after(max_nodes: int, args: tuple, kwargs: dict, result: Any) -> None:
        # every DFS node is the root or a child whose prune passed; calls
        # past the node budget return at once without visiting a node
        tally["complement.nodes"] += min(1 + (tracer._dfs_passes or 0), max_nodes)
        tracer._dfs_passes = None

    def leaf_after(_ctx: Any, args: tuple, kwargs: dict, result: Any) -> None:
        k = kwargs.get("target_color")
        tally["complement.leaves"] += 1
        if k is not None and result.is_dynamo_run(k) and bool(result.monotone):
            tally["complement.leaf_passes"] += 1

    def prune_after(_ctx: Any, args: tuple, kwargs: dict, result: Any) -> None:
        passes = tracer._dfs_passes
        if passes is None:
            return
        if not bool(result.any()):
            tracer._dfs_passes = passes + 1
        elif 1 + passes < tracer._dfs_budget:
            # a cut while the budget lasts; once it is spent the DFS
            # unwinds and still prunes the remaining colours of each frame
            tally["complement.prunes"] += 1

    tracer.patch(
        complement, "find_dynamo_complement", "complement.find_dynamo_complement",
        before=dfs_before, after=dfs_after,
    )
    tracer.patch(complement, "run_synchronous", "runner.run_synchronous",
                 after=leaf_after)
    tracer.patch(complement, "prune_to_core", "blocks.prune_to_core",
                 after=prune_after)

    # -- drivers -> engine.batch / engine.parallel ---------------------
    def rows_after(_ctx: Any, args: tuple, kwargs: dict, result: Any) -> None:
        tally["batch.rows"] += len(result.rounds)

    def sharded(fn: Callable) -> Callable:
        def traced(worker: Callable, shards: Any, *args: Any, **kwargs: Any) -> Any:
            if tracer.paused:
                return fn(worker, shards, *args, **kwargs)
            units = list(shards)
            tally["parallel.shards"] += len(units)
            layer = _SHARD_LAYER.get(getattr(worker, "__module__", ""), "parallel")
            return tracer.wrap("parallel.run_sharded", fn)(
                tracer.wrap(f"{layer}.shard", worker), units, *args, **kwargs
            )

        return functools.wraps(fn)(traced)

    def outcome_after(_ctx: Any, args: tuple, kwargs: dict, result: Any) -> None:
        outcomes = result[1] if isinstance(result, tuple) else [result]
        for outcome in outcomes:
            tally["search.examined"] += outcome.examined
            tally["search.witnesses"] += len(outcome.witnesses)

    tracer.patch(search, "run_batch", "batch.run_batch", after=rows_after)
    # the sweep shard imports run_batch from its module at call time
    tracer.patch(batch, "run_batch", "batch.run_batch", after=rows_after)
    for module in (search, sweeps):
        tracer.replace(module, "run_sharded", sharded(module.run_sharded))
    tracer.patch(search, "random_dynamo_search", "search.random_dynamo_search",
                 after=outcome_after)
    tracer.patch(census, "random_dynamo_search", "search.random_dynamo_search",
                 after=outcome_after)
    tracer.patch(census, "exhaustive_min_dynamo_size",
                 "search.exhaustive_min_dynamo_size", after=outcome_after)
    tracer.patch(census, "below_bound_census", "census.below_bound_census")
    tracer.patch(sweeps, "convergence_sweep", "sweeps.convergence_sweep")

    # -- io.witnessdb / io.ledger --------------------------------------
    def size_before(args: tuple, kwargs: dict) -> int:
        return _file_size(args[0].path)

    def appended(prefix: str) -> Callable[..., None]:
        def after(size: int, args: tuple, kwargs: dict, result: Any) -> None:
            grown = _file_size(args[0].path) - size
            if grown > 0:
                tally[f"{prefix}.appends"] += 1
                tally[f"{prefix}.bytes"] += grown

        return after

    for method in ("add", "add_cell", "add_search"):
        tracer.patch(witnessdb.WitnessDB, method, f"witnessdb.{method}",
                     before=size_before, after=appended("witnessdb"))
    for method in ("begin", "record_shard", "finish"):
        tracer.patch(ledger.RunLedger, method, f"ledger.{method}",
                     before=size_before, after=appended("ledger"))

    base = witnessdb.WitnessDB

    class TracedWitnessDB(base):  # type: ignore[misc, valid-type]
        """The store as the query layer and the census open it."""

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            load = tracer.wrap("witnessdb.load", base.__init__)
            load(self, *args, **kwargs)
            if not tracer.paused:
                tally["witnessdb.records_loaded"] += (
                    len(self) + len(self.cells) + len(self.scale_free_cells)
                    + len(self.async_summaries) + len(self.searches)
                )

    tracer.replace(query, "WitnessDB", TracedWitnessDB)
    tracer.replace(census, "WitnessDB", TracedWitnessDB)

    # -- io.query / service.state --------------------------------------
    def items_after(_ctx: Any, args: tuple, kwargs: dict, result: Any) -> None:
        if result is None:
            return
        # a page from witnesses(), or one payload dict from witness()
        tally["query.items_returned"] += (
            1 if isinstance(result, dict) else len(result.items)
        )

    for method in ("witnesses", "witness"):
        tracer.patch(query.WitnessQueryIndex, method, f"query.{method}",
                     after=items_after)
    tracer.patch(query.WitnessQueryIndex, "census_cells", "query.census_cells")
    to_dict = query.witness_to_dict

    def counted_to_dict(record: Any) -> dict:
        if not tracer.paused:
            tally["query.records_converted"] += 1
        return to_dict(record)

    tracer.replace(query, "witness_to_dict", counted_to_dict)
    for method in ("health", "list_witnesses", "list_census_cells", "get_witness"):
        tracer.patch(state.ServiceState, method, f"service.{method}")


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, int],
    cell_seconds: Dict[str, float],
    censuses: int,
) -> Dict[str, tuple]:
    """Per-layer metrics as ``name -> (value, unit)``.

    ``counters`` are the program's own telemetry counters (kernel and
    plan cache, read through ``repro.obs.report``); ``cell_seconds`` sums
    its census ``cell`` spans over ``censuses`` cold censuses, and is
    averaged here over them.
    """
    totals = tracer.totals()
    tally = tracer.tally

    def busy(*names: str) -> float:
        return sum(totals.get(n, {}).get("busy", 0.0) for n in names)

    def own(*names: str) -> float:
        return sum(totals.get(n, {}).get("self", 0.0) for n in names)

    def calls(*names: str) -> int:
        return int(sum(totals.get(n, {}).get("calls", 0) for n in names))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    batch_busy = busy("batch.run_batch")
    runner_busy = busy("runner.run_synchronous")
    kernel_s = counters.get("backend.step-us", 0) / 1e6
    # the kernel counter also covers the scalar leaf check's steps, so
    # its share is taken over all engine time that steps a kernel
    kernel_share = ratio(kernel_s, batch_busy + runner_busy)
    hits = counters.get("plan-cache.hit", 0)
    misses = counters.get("plan-cache.miss", 0)
    load_s = busy("witnessdb.load")
    append_names = ("witnessdb.add", "witnessdb.add_cell", "witnessdb.add_search")
    query_names = ("query.witnesses", "query.witness", "query.census_cells")
    out: Dict[str, tuple] = {
        "complement.nodes": (int(tally["complement.nodes"]), "count"),
        "complement.leaves": (int(tally["complement.leaves"]), "count"),
        "complement.prunes": (int(tally["complement.prunes"]), "count"),
        "complement.self_s": (own("complement.find_dynamo_complement"), "s"),
        "complement.leaf_pass_ratio": (
            ratio(tally["complement.leaf_passes"], tally["complement.leaves"]),
            "ratio",
        ),
        "runner.calls": (calls("runner.run_synchronous"), "count"),
        "runner.busy_s": (runner_busy, "s"),
        "blocks.prune_calls": (calls("blocks.prune_to_core"), "count"),
        "blocks.prune_busy_s": (busy("blocks.prune_to_core"), "s"),
        "batch.calls": (calls("batch.run_batch"), "count"),
        "batch.rows": (int(tally["batch.rows"]), "count"),
        "batch.busy_s": (batch_busy, "s"),
        "batch.self_s": (batch_busy * (1.0 - kernel_share), "s"),
        "batch.rows_per_s": (ratio(tally["batch.rows"], batch_busy), "1/s"),
        "kernel.steps": (int(counters.get("backend.steps", 0)), "count"),
        "kernel.busy_s": (kernel_s, "s"),
        "kernel.share": (kernel_share, "ratio"),
        "plans.hits": (hits, "count"),
        "plans.misses": (misses, "count"),
        "plans.hit_rate": (ratio(hits, hits + misses), "ratio"),
        "plans.evictions": (counters.get("plan-cache.eviction", 0), "count"),
        "plans.escalations": (counters.get("plan.escalation", 0), "count"),
        "plans.shadow_retires": (
            counters.get("plan.shadow-cycle-retire", 0), "count"
        ),
        "parallel.shards": (int(tally["parallel.shards"]), "count"),
        "parallel.self_s": (own("parallel.run_sharded"), "s"),
        "search.self_s": (
            own("search.random_dynamo_search", "search.exhaustive_min_dynamo_size",
                "search.shard"),
            "s",
        ),
        "search.witness_yield": (
            ratio(tally["search.witnesses"], tally["search.examined"]), "ratio"
        ),
    }
    for cell in CENSUS_CELLS:
        out[f"census.cell_s.{cell}"] = (
            ratio(cell_seconds.get(cell, 0.0), censuses), "s"
        )
    out.update({
        "census.self_s": (own("census.below_bound_census"), "s"),
        "sweeps.self_s": (own("sweeps.convergence_sweep", "sweeps.shard"), "s"),
        "witnessdb.appends": (int(tally["witnessdb.appends"]), "count"),
        "witnessdb.append_busy_s": (busy(*append_names), "s"),
        "witnessdb.bytes_appended": (int(tally["witnessdb.bytes"]), "bytes"),
        "witnessdb.loads": (calls("witnessdb.load"), "count"),
        "witnessdb.load_s": (load_s, "s"),
        "witnessdb.records_loaded_per_s": (
            ratio(tally["witnessdb.records_loaded"], load_s), "1/s"
        ),
        "ledger.commits": (calls("ledger.record_shard"), "count"),
        "ledger.busy_s": (
            busy("ledger.begin", "ledger.record_shard", "ledger.finish"), "s"
        ),
        "ledger.bytes": (int(tally["ledger.bytes"]), "bytes"),
        "query.busy_s": (busy(*query_names), "s"),
        "query.records_converted": (int(tally["query.records_converted"]), "count"),
        "query.items_returned": (int(tally["query.items_returned"]), "count"),
        "query.convert_ratio": (
            ratio(tally["query.items_returned"], tally["query.records_converted"]),
            "ratio",
        ),
        "service.self_s": (
            own("service.health", "service.list_witnesses",
                "service.list_census_cells", "service.get_witness"),
            "s",
        ),
    })
    shares = layer_shares(tracer)
    for layer in OVERHEAD_LAYERS:
        out[f"share.{layer}"] = (shares[layer], "ratio")
    return out


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Each layer's self time over the traced time, in ``LAYERS`` order."""
    layer_self: Dict[str, float] = defaultdict(float)
    for name, row in tracer.totals().items():
        layer_self[name.split(".", 1)[0]] += row["self"]
    traced_total = sum(layer_self.values())
    return {
        layer: layer_self[layer] / traced_total if traced_total else 0.0
        for layer in LAYERS
    }
