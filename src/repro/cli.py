"""Command-line front-end: ``repro-dynamo`` / ``python -m repro.cli``.

Subcommands
-----------
``construct``  build a minimum dynamo for a torus and print/save it
``simulate``   load (or build) a configuration and run the SMP dynamics
``verify``     full dynamo verification with certificates
``matrix``     print the recoloring-round matrix (Figures 5/6 style)
``sweep``      round-count sweep over sizes, printed as a table; with
               ``--convergence``, batched random-replica statistics for
               any rule (``--rule``, ``--batch-size``), sharded across
               ``--processes`` worker processes
``census``     below-bound dynamo census (the Theorem 1/3/5 audit),
               random searches sharded across ``--processes``; with
               ``--db``, witnesses persist and cached cells skip the pool
``search``     one dynamo search (random or ``--exhaustive``) on a torus,
               recording witnesses into ``--db``
``scale-free`` takeover census on Barabási–Albert graphs: a grid of
               (strategy, seed-fraction) cells, one BA graph per process
               shard, replicas advanced as batched blocks; with ``--db``,
               cells cache as ``scale-free-cell`` records
``async``      update-order robustness of a packaged construction: many
               random sequential schedules as one batch; with ``--db``,
               summaries cache as ``async-summary`` records
``witness``    query the witness database: ``list`` / ``show`` /
               ``verify`` / ``export``
``telemetry``  aggregate a telemetry stream recorded with ``--telemetry``
               into a run report: slowest shards, plan-cache hit rate,
               retry counts, time per phase (``--json`` for machines)
``serve``      the witness database and background search/census jobs
               over HTTP (standard-library server; ``--port 0`` binds a
               free port, named on stderr)

Examples
--------
::

    repro-dynamo construct mesh 9 9
    repro-dynamo simulate cordalis 5 5 --render
    repro-dynamo matrix cordalis 5 5
    repro-dynamo sweep mesh 5 7 9 11
    repro-dynamo sweep mesh 6 8 --convergence --rule majority --batch-size 128
    repro-dynamo sweep mesh 8 10 --convergence --processes 4 --shard-size 64
    repro-dynamo census --sizes 3 4 --batch-size 4096 --processes 4
    repro-dynamo census --db results/witnesses.jsonl
    repro-dynamo census --sizes 3 4 --run-ledger results/census.ledger
    repro-dynamo census --sizes 3 4 --run-ledger results/census.ledger --resume
    repro-dynamo search mesh 4 4 --seed-size 3 --colors 5 --trials 20000
    repro-dynamo scale-free --n 300 --graphs 4 --replicas 32 --processes 4
    repro-dynamo scale-free --db results/witnesses.jsonl
    repro-dynamo async mesh 9 9 --trials 50 --seed 42
    repro-dynamo async serpentinus 7 7 --db results/witnesses.jsonl
    repro-dynamo witness list
    repro-dynamo witness verify --all
    repro-dynamo census --sizes 3 --processes 4 --telemetry runs/census.tel
    repro-dynamo telemetry report runs/census.tel
    repro-dynamo telemetry report runs/census.tel --json
    repro-dynamo serve --db results/witnesses.jsonl --port 0
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .core.constructions import build_minimum_dynamo
from .core.verify import verify_dynamo
from .engine.runner import run_synchronous
from .experiments.sweeps import convergence_sweep, square_points, sweep_rounds
from .io.ledger import LedgerError
from .io.serialize import load_configuration, save_configuration
from .rules import RULE_NAMES
from .rules.smp import SMPRule
from .topology.tori import TORUS_CLASSES
from .viz.render import render_grid, render_time_matrix

__all__ = ["main", "build_parser"]


def _processes_arg(value: str) -> int:
    """argparse type for ``--processes``: shared validation, clear message."""
    from .engine.parallel import validate_processes

    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--processes must be an integer >= 0, got {value!r}"
        ) from None
    try:
        return validate_processes(count, flag="--processes")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_arg(flag: str):
    """argparse type factory for strictly positive tuning knobs
    (``--batch-size``, ``--shard-size``): shared validation, clear
    message, mirroring :func:`_processes_arg`."""
    from .engine.parallel import validate_positive

    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} must be a positive integer, got {value!r}"
            ) from None
        try:
            return validate_positive(count, flag=flag)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = "positive_int"  # argparse error prefix
    return parse


def _port_arg(value: str) -> int:
    """argparse type for ``serve --port``: 0 (any free port) to 65535."""
    port = int(value) if value.isdigit() else -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be an integer in 0..65535, got {value!r}"
        )
    return port


def _settings_from_args(args):
    """The one ExecutionSettings a subcommand's execution flags describe.

    Flags a subcommand does not define, and flags left unset, stay
    ``None`` so the driver applies its own default.
    """
    from .engine.context import ExecutionSettings

    return ExecutionSettings(
        processes=args.processes,
        shard_size=getattr(args, "shard_size", None),
        batch_size=getattr(args, "batch_size", None),
        ledger=args.run_ledger,
        resume=args.resume,
    )


def _add_ledger_args(sp, what: str) -> None:
    """``--run-ledger/--resume``: the crash-safe run ledger
    (:mod:`repro.io.ledger`).  Every completed shard commits durably as
    it finishes; rerunning the same invocation with ``--resume`` replays
    committed shards and computes only the rest, bitwise-identically at
    any ``--processes`` count."""
    sp.add_argument(
        "--run-ledger",
        metavar="FILE",
        default=None,
        help=f"run ledger (JSON lines) committing each completed shard "
        f"of {what} durably; a killed run restarted with --resume "
        "replays committed shards instead of recomputing them",
    )
    sp.add_argument(
        "--resume",
        action="store_true",
        help="resume the run recorded in --run-ledger (results are "
        "bitwise-identical to an uninterrupted run at any --processes "
        "count)",
    )


def _check_ledger_args(parser, args) -> None:
    """``--resume`` is meaningless without a ledger to resume from."""
    if getattr(args, "resume", False) and getattr(args, "run_ledger", None) is None:
        parser.error("--resume requires --run-ledger")


def _add_telemetry_args(sp, what: str) -> None:
    """``--telemetry/--telemetry-level``: the observability side channel
    (:mod:`repro.obs`).  Telemetry is bitwise-invisible — stdout, the
    witness db, and the run ledger are byte-identical with it on or off,
    at any ``--processes`` count; events go only to the stream file."""
    from .obs import DEFAULT_LEVEL, LEVELS

    sp.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help=f"record a structured telemetry stream (JSON lines) for "
        f"{what}: run/phase/shard spans, cache and retry counters; "
        "inspect it with 'repro-dynamo telemetry report FILE'",
    )
    sp.add_argument(
        "--telemetry-level",
        choices=list(LEVELS),
        default=DEFAULT_LEVEL,
        help="event verbosity: basic (run/phase spans + counters), "
        "detailed (+ per-shard/compile spans; default), debug "
        "(+ dispatch events and per-step kernel timing)",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-dynamo",
        description="Dynamic monopolies in colored tori — simulation toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_torus_args(sp):
        sp.add_argument("kind", choices=["mesh", "cordalis", "serpentinus"])
        sp.add_argument("m", type=int)
        sp.add_argument("n", type=int)
        sp.add_argument("--target-color", type=int, default=1, metavar="K")

    sp = sub.add_parser("construct", help="build a minimum monotone dynamo")
    add_torus_args(sp)
    sp.add_argument("--save", metavar="FILE", help="write configuration JSON")

    sp = sub.add_parser("simulate", help="run the SMP dynamics")
    add_torus_args(sp)
    sp.add_argument("--load", metavar="FILE", help="use a saved configuration")
    sp.add_argument("--max-rounds", type=int, default=None)
    sp.add_argument("--render", action="store_true", help="print initial/final grids")

    sp = sub.add_parser("verify", help="verify a dynamo with certificates")
    add_torus_args(sp)
    sp.add_argument("--load", metavar="FILE")

    sp = sub.add_parser("matrix", help="print the recoloring-round matrix")
    add_torus_args(sp)

    sp = sub.add_parser("sweep", help="round-count sweep over square sizes")
    sp.add_argument("kind", choices=["mesh", "cordalis", "serpentinus"])
    sp.add_argument("sizes", type=int, nargs="+")
    sp.add_argument(
        "--processes",
        type=_processes_arg,
        default=0,
        metavar="P",
        help="worker processes (0 runs inline; construction sweeps and "
        "--convergence shards both use them)",
    )
    sp.add_argument(
        "--convergence",
        action="store_true",
        help="batched random-replica convergence statistics instead of "
        "the construction sweep",
    )
    sp.add_argument(
        "--rule",
        choices=list(RULE_NAMES),
        default=None,
        help="recoloring rule for --convergence (default: smp)",
    )
    sp.add_argument("--replicas", type=int, default=None, metavar="R",
                    help="random replicas per point for --convergence "
                    "(default: 256)")
    sp.add_argument("--colors", type=int, default=None, metavar="C",
                    help="palette size for --convergence (default: 4)")
    sp.add_argument(
        "--batch-size",
        type=_positive_arg("--batch-size"),
        default=None,
        metavar="B",
        help="replica rows advanced per batched-engine call for "
        "--convergence (default: 256)",
    )
    sp.add_argument(
        "--shard-size",
        type=_positive_arg("--shard-size"),
        default=None,
        metavar="S",
        help="replicas per process shard for --convergence (default: "
        "the batch size); results are identical at any --processes "
        "count but depend on this value",
    )
    _add_ledger_args(sp, "--convergence sweeps")
    _add_telemetry_args(sp, "the sweep")

    sp = sub.add_parser(
        "census",
        help="below-bound dynamo census (the Theorem 1/3/5 audit table)",
    )
    sp.add_argument(
        "--kinds",
        nargs="+",
        choices=["mesh", "cordalis", "serpentinus"],
        default=["mesh", "cordalis", "serpentinus"],
    )
    sp.add_argument("--sizes", type=int, nargs="+", default=[3, 4, 5, 6])
    sp.add_argument("--trials", type=int, default=20_000,
                    help="random-search trials per (kind, size, seed size)")
    sp.add_argument(
        "--batch-size",
        type=_positive_arg("--batch-size"),
        default=None,
        metavar="B",
        help="replica rows advanced per batched-engine call",
    )
    sp.add_argument(
        "--processes",
        type=_processes_arg,
        default=0,
        metavar="P",
        help="worker processes sharding the random searches (0 runs "
        "inline); results are identical at any count",
    )
    sp.add_argument(
        "--shard-size",
        type=_positive_arg("--shard-size"),
        default=None,
        metavar="S",
        help="random trials per process shard (default: the batch size)",
    )
    sp.add_argument(
        "--seed",
        type=int,
        default=0xBEEF,
        help="RNG root for the per-cell random searches",
    )
    sp.add_argument(
        "--db",
        metavar="FILE",
        help="witness database (JSON lines): record every witness found "
        "and serve cells whose experiment definition is already stored "
        "without re-running the pool",
    )
    _add_ledger_args(sp, "the census")
    _add_telemetry_args(sp, "the census")

    sp = sub.add_parser(
        "search",
        help="one dynamo search on a torus (random, or --exhaustive)",
    )
    sp.add_argument("kind", choices=["mesh", "cordalis", "serpentinus"])
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--seed-size", type=int, required=True, metavar="S",
                    help="number of target-color seed vertices")
    sp.add_argument("--colors", type=int, default=4, metavar="C",
                    help="palette size (default: 4)")
    sp.add_argument("--target-color", type=int, default=0, metavar="K")
    sp.add_argument("--rule", choices=list(RULE_NAMES), default="smp")
    sp.add_argument("--exhaustive", action="store_true",
                    help="enumerate every configuration instead of "
                    "random trials (refuses oversized enumerations)")
    sp.add_argument("--trials", type=int, default=20_000,
                    help="random trials (ignored with --exhaustive)")
    sp.add_argument("--seed", type=int, default=0xBEEF,
                    help="RNG root of the random search")
    sp.add_argument("--monotone-only", action="store_true",
                    help="keep only monotone witnesses")
    sp.add_argument("--batch-size", type=_positive_arg("--batch-size"),
                    default=None, metavar="B")
    sp.add_argument(
        "--processes",
        type=_processes_arg,
        default=0,
        metavar="P",
        help="worker processes sharding the random trials (0 runs inline)",
    )
    sp.add_argument("--shard-size", type=_positive_arg("--shard-size"),
                    default=None, metavar="S")
    sp.add_argument("--max-configs", type=int, default=20_000_000)
    sp.add_argument("--db", metavar="FILE",
                    help="witness database to consult and record into")
    _add_ledger_args(sp, "the search")
    _add_telemetry_args(sp, "the search")
    sp.add_argument("--render", action="store_true",
                    help="render the first witness found")

    sp = sub.add_parser(
        "scale-free",
        help="takeover census on Barabási–Albert scale-free graphs",
    )
    from .ext.scale_free import SCALE_FREE_STRATEGIES

    sp.add_argument("--n", type=_positive_arg("--n"), default=300,
                    help="vertices per BA graph (default: 300)")
    sp.add_argument("--m-attach", type=_positive_arg("--m-attach"),
                    default=2, metavar="M",
                    help="BA attachment parameter (default: 2)")
    sp.add_argument("--colors", type=_positive_arg("--colors"), default=4,
                    metavar="C", help="palette size (default: 4)")
    sp.add_argument(
        "--strategies",
        nargs="+",
        choices=list(SCALE_FREE_STRATEGIES),
        default=list(SCALE_FREE_STRATEGIES),
        help="seeding strategies to sweep (default: all)",
    )
    sp.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=[0.02, 0.05, 0.10],
        metavar="F",
        help="seed fractions to sweep (default: 0.02 0.05 0.10)",
    )
    sp.add_argument("--graphs", type=_positive_arg("--graphs"), default=4,
                    help="independent BA graphs per cell (default: 4)")
    sp.add_argument("--replicas", type=_positive_arg("--replicas"),
                    default=32, metavar="R",
                    help="random replicas per graph, advanced as one "
                    "batched block (default: 32)")
    sp.add_argument("--max-rounds", type=_positive_arg("--max-rounds"),
                    default=None, help="round cap (default: 4n + 64)")
    sp.add_argument("--seed", type=int, default=0x5CA1E,
                    help="RNG root; shard streams derive from cell/graph "
                    "coordinates, so results are identical at any "
                    "--processes count")
    sp.add_argument(
        "--processes",
        type=_processes_arg,
        default=0,
        metavar="P",
        help="worker processes, one BA graph per shard (0 runs inline)",
    )
    sp.add_argument(
        "--db",
        metavar="FILE",
        help="witness database: record each cell as a scale-free-cell "
        "row and serve already-stored definitions without re-running",
    )
    _add_ledger_args(sp, "the census")
    _add_telemetry_args(sp, "the census")

    sp = sub.add_parser(
        "async",
        help="update-order robustness of a construction (random "
        "sequential schedules)",
    )
    sp.add_argument("kind", choices=["mesh", "cordalis", "serpentinus"])
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--target-color", type=int, default=1, metavar="K")
    sp.add_argument("--trials", type=_positive_arg("--trials"), default=20,
                    help="random schedules, trial i seeded (root, i) "
                    "(default: 20)")
    sp.add_argument("--max-sweeps", type=_positive_arg("--max-sweeps"),
                    default=None, help="sweep cap (default: 4N + 64)")
    sp.add_argument("--seed", type=int, default=None,
                    help="schedule root (default: derived from a fixed "
                    "RNG, so runs are reproducible)")
    sp.add_argument(
        "--db",
        metavar="FILE",
        help="witness database: cache the summary as an async-summary "
        "record keyed by the full experiment definition",
    )
    _add_telemetry_args(sp, "the trials")

    sp = sub.add_parser(
        "telemetry",
        help="inspect recorded telemetry streams (report)",
    )
    tsub = sp.add_subparsers(dest="telemetry_command", required=True)
    tp = tsub.add_parser(
        "report",
        help="aggregate a stream into a human summary (or --json)",
    )
    tp.add_argument("path", metavar="STREAM",
                    help="telemetry stream written by --telemetry")
    tp.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable summary instead of the table")
    tp.add_argument("--top", type=_positive_arg("--top"), default=5,
                    metavar="N",
                    help="slowest shards/phases to list (default: 5)")

    sp = sub.add_parser(
        "witness",
        help="query/verify the witness database (list/show/verify/export)",
    )
    wsub = sp.add_subparsers(dest="witness_command", required=True)
    _DEFAULT_DB = "results/witnesses.jsonl"

    def add_db_arg(wp):
        wp.add_argument("--db", metavar="FILE", default=_DEFAULT_DB,
                        help=f"witness database (default: {_DEFAULT_DB})")

    wp = wsub.add_parser("list", help="tabulate stored witnesses")
    add_db_arg(wp)
    wp.add_argument("--kind", choices=["mesh", "cordalis", "serpentinus"])
    wp.add_argument("--rule")
    wp.add_argument("--method")
    wp.add_argument("--unverified", action="store_true",
                    help="only records not yet re-verified")

    wp = wsub.add_parser("show", help="print one witness in full")
    add_db_arg(wp)
    wp.add_argument("id", help="witness id (any unique prefix)")

    wp = wsub.add_parser(
        "verify",
        help="replay stored witnesses through the engine and stamp them",
    )
    add_db_arg(wp)
    wp.add_argument("ids", nargs="*", help="witness ids (unique prefixes)")
    wp.add_argument("--all", action="store_true", dest="verify_all",
                    help="verify every stored witness")

    wp = wsub.add_parser(
        "export", help="write one witness as a configuration JSON"
    )
    add_db_arg(wp)
    wp.add_argument("id", help="witness id (any unique prefix)")
    wp.add_argument("--out", required=True, metavar="FILE",
                    help="destination (loadable by simulate/verify --load)")

    sp = sub.add_parser(
        "serve",
        help="serve the witness corpus and background jobs over HTTP",
    )
    sp.add_argument("--db", metavar="FILE", default=_DEFAULT_DB,
                    help=f"witness database to serve (default: {_DEFAULT_DB})")
    sp.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    sp.add_argument("--port", type=_port_arg, default=8711,
                    help="bind port; 0 picks a free one (default: 8711)")
    sp.add_argument("--jobs-dir", metavar="DIR", default=None,
                    help="directory for per-job run ledgers (default: "
                    "<db>.jobs/ next to the database)")

    sp = sub.add_parser(
        "diagonal",
        help="build the below-bound diagonal dynamo (reproduction finding)",
    )
    sp.add_argument("kind", choices=["mesh", "cordalis", "serpentinus"])
    sp.add_argument("n", type=int)

    sp = sub.add_parser(
        "figures", help="reproduce the paper's Figures 1-6 and report matches"
    )

    sp = sub.add_parser(
        "theorems",
        help="audit every lemma/theorem/proposition and print the verdicts",
    )
    sp.add_argument("--markdown", action="store_true")
    return p


def _open_db(path):
    """Build a WitnessDB for a CLI flag, surfacing corrupted lines."""
    from .io.witnessdb import WitnessDB

    db = WitnessDB(path)
    for lineno, msg in db.corrupt:
        print(f"warning: {path}:{lineno}: skipped corrupted record "
              f"({msg})", file=sys.stderr)
    return db


def _witness_topology(rec):
    """Rebuild a record's torus, or report cleanly (exit-code-2 path)."""
    from .topology.tori import make_torus

    try:
        return make_torus(rec.kind, rec.m, rec.n)
    except (KeyError, ValueError) as exc:
        print(f"error: cannot rebuild topology for {rec.id}: {exc}",
              file=sys.stderr)
        return None


def _witness_main(args) -> int:
    """The ``witness`` subcommand group: list / show / verify / export."""
    db = _open_db(args.db)

    if args.witness_command == "list":
        records = db.witnesses(
            kind=args.kind,
            rule=args.rule,
            method=args.method,
            verified=False if args.unverified else None,
        )
        print(f"{'id':>12} {'rule':>8} {'kind':>12} {'size':>7} {'|C|':>4} "
              f"{'|S|':>4} {'mono':>5} {'method':>11} {'verified':>9}")
        for r in records:
            size = f"{r.m}x{r.n}"
            print(f"{r.id:>12} {r.rule:>8} {r.kind:>12} {size:>7} "
                  f"{r.colors:>4} {r.seed_size:>4} "
                  f"{'yes' if r.monotone else 'no':>5} {r.method:>11} "
                  f"{'yes' if r.verified else 'no':>9}")
        print(f"{len(records)} witness record(s), "
              f"{len(db.cells)} cached census cell(s) in {args.db}")
        return 0

    if args.witness_command == "verify":
        if args.verify_all:
            targets = list(db)
        elif args.ids:
            try:
                targets = [db.resolve(i) for i in args.ids]
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
        else:
            print("error: give witness ids or --all", file=sys.stderr)
            return 2
        failures = 0
        for rec in targets:
            outcome = db.verify(rec)
            size = f"{rec.m}x{rec.n}"
            if outcome.ok:
                print(f"{rec.id} {rec.rule} {rec.kind} {size} "
                      f"|S|={rec.seed_size}: OK ({outcome.rounds} rounds)")
            else:
                failures += 1
                print(f"{rec.id} {rec.rule} {rec.kind} {size} "
                      f"|S|={rec.seed_size}: FAIL — {outcome.reason}")
        print(f"{len(targets) - failures}/{len(targets)} witnesses verified")
        return 1 if failures else 0

    try:
        rec = db.resolve(args.id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.witness_command == "show":
        topo = _witness_topology(rec)
        if topo is None:
            return 2
        print(f"id:        {rec.id}")
        print(f"key:       rule={rec.rule} kind={rec.kind} "
              f"size={rec.m}x{rec.n} colors={rec.colors}")
        print(f"dynamo:    target {rec.k}, seed size {rec.seed_size}, "
              f"monotone={rec.monotone}, verified={rec.verified}")
        print(f"method:    {rec.method}")
        print(f"provenance: {json.dumps(rec.provenance, sort_keys=True)}")
        print(render_grid(topo, rec.colors_array(), rec.k))
        return 0

    if args.witness_command == "export":
        topo = _witness_topology(rec)
        if topo is None:
            return 2
        save_configuration(
            args.out,
            topo,
            rec.colors_array(),
            rec.k,
            witness_id=rec.id,
            rule=rec.rule,
            method=rec.method,
        )
        print(f"exported {rec.id} to {args.out}")
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except LedgerError as exc:
        # wrong --resume usage, stale dynamics, conflicting records:
        # operator errors, reported cleanly instead of as tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream pager/head closed the pipe mid-table; exit quietly
        # (dup stderr over stdout so interpreter shutdown doesn't re-raise)
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_ledger_args(parser, args)

    path = getattr(args, "telemetry", None)
    if path is None:
        return _dispatch(parser, args)
    # the whole command runs under one telemetry session; the stream is
    # finalized (merged + sorted) on the way out, success or failure
    from . import obs

    with obs.telemetry_session(
        path,
        level=args.telemetry_level,
        command=str(args.command),
        context={"processes": getattr(args, "processes", None)},
    ):
        return _dispatch(parser, args)


def _dispatch(parser, args) -> int:
    if args.command == "sweep":
        # surface flag combinations that would otherwise be silently ignored
        convergence_flags = {
            "--rule": args.rule,
            "--replicas": args.replicas,
            "--colors": args.colors,
            "--batch-size": args.batch_size,
            "--shard-size": args.shard_size,
            "--run-ledger": args.run_ledger,
            "--resume": True if args.resume else None,
        }
        if args.convergence:
            if args.colors is not None:
                from .rules import replica_palette

                rule_name = args.rule if args.rule is not None else "smp"
                palette = replica_palette(rule_name, args.colors)[1]
                if palette != args.colors:
                    parser.error(
                        f"--colors is ignored by rule {rule_name!r}, which "
                        f"has a fixed {palette}-color domain"
                    )
        else:
            given = [f for f, v in convergence_flags.items() if v is not None]
            if given:
                parser.error(
                    f"{', '.join(given)} only appl{'ies' if len(given) == 1 else 'y'} "
                    "to --convergence sweeps; add --convergence or drop them"
                )

    if args.command == "construct":
        con = build_minimum_dynamo(args.kind, args.m, args.n, k=args.target_color)
        print(f"{con.name}: |S_k| = {con.seed_size} (lower bound "
              f"{con.size_lower_bound}), palette {con.palette}")
        if con.predicted_rounds is not None:
            print(f"paper round prediction: {con.predicted_rounds}")
        if con.empirical_rounds is not None:
            print(f"empirical round prediction: {con.empirical_rounds}")
        print(render_grid(con.topo, con.colors, con.k, seed=con.seed))
        if args.save:
            save_configuration(args.save, con.topo, con.colors, con.k, name=con.name)
            print(f"saved to {args.save}")
        return 0

    if args.command in ("simulate", "verify"):
        if args.load:
            try:
                topo, colors, k = load_configuration(args.load)
            except (OSError, ValueError) as exc:
                print(f"error: {args.load}: {exc}", file=sys.stderr)
                return 2
            if type(topo) is not TORUS_CLASSES[args.kind] or (topo.m, topo.n) != (
                args.m, args.n
            ):
                loaded = next(
                    name for name, cls in TORUS_CLASSES.items() if cls is type(topo)
                )
                print(
                    f"error: {args.load}: holds a {loaded} {topo.m}x{topo.n} "
                    f"configuration, not the {args.kind} {args.m}x{args.n} asked for",
                    file=sys.stderr,
                )
                return 2
            if k is None:
                k = args.target_color
        else:
            con = build_minimum_dynamo(args.kind, args.m, args.n, k=args.target_color)
            topo, colors, k = con.topo, con.colors, con.k

    if args.command == "simulate":
        if args.render:
            print("initial:")
            print(render_grid(topo, colors, k))
        res = run_synchronous(
            topo, colors, SMPRule(), max_rounds=args.max_rounds, target_color=k
        )
        print(res.summary())
        if args.render:
            print("final:")
            print(render_grid(topo, res.final, k))
        return 0 if res.converged else 1

    if args.command == "verify":
        rep = verify_dynamo(topo, colors, k)
        print(f"is_dynamo={rep.is_dynamo} monotone={rep.monotone} "
              f"rounds={rep.rounds}")
        print(f"seed size {rep.seed_size}, bounding extents {rep.bounding_extents}")
        print(f"seed is union of k-blocks: {rep.seed_is_union_of_blocks}")
        print(f"complement has non-k-block: {rep.complement_has_non_k_block}")
        if rep.conditions is not None:
            print(f"theorem conditions satisfied: {rep.conditions.satisfied}")
        return 0 if rep.is_dynamo else 1

    if args.command == "matrix":
        con = build_minimum_dynamo(args.kind, args.m, args.n, k=args.target_color)
        res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
        print(render_time_matrix(res.recoloring_matrix(con.topo)))
        return 0

    if args.command == "sweep":
        if args.convergence:
            records = convergence_sweep(
                square_points(args.kind, args.sizes),
                args.rule if args.rule is not None else "smp",
                replicas=args.replicas if args.replicas is not None else 256,
                num_colors=args.colors if args.colors is not None else 4,
                settings=_settings_from_args(args),
            )
            print(f"{'size':>8} {'rule':>15} {'conv':>6} {'mono':>6} "
                  f"{'monot':>6} {'rounds':>7}")
            for r in records:
                mean = "-" if np.isnan(r["mean_rounds"]) else f"{r['mean_rounds']:.1f}"
                size = f"{r['m']}x{r['n']}"
                print(f"{size:>8} {r['rule']:>15} "
                      f"{r['converged_frac']:>6.2f} {r['monochromatic_frac']:>6.2f} "
                      f"{r['monotone_frac']:>6.2f} {mean:>7}")
            return 0
        records = sweep_rounds(
            square_points(args.kind, args.sizes), processes=args.processes
        )
        print(f"{'size':>6} {'|S_k|':>6} {'bound':>6} {'rounds':>7} "
              f"{'paper':>6} {'empir':>6} {'dynamo':>7}")
        for r in records:
            paper = "-" if r["paper_rounds"] < 0 else str(r["paper_rounds"])
            emp = "-" if r["empirical_rounds"] < 0 else str(r["empirical_rounds"])
            print(f"{r['m']:>4}x{r['n']:<3} {r['seed_size']:>4} {r['lower_bound']:>6} "
                  f"{r['rounds']:>7} {paper:>6} {emp:>6} {str(bool(r['is_dynamo'])):>7}")
        return 0

    if args.command == "census":
        from .experiments.census import below_bound_census

        rows = below_bound_census(
            kinds=args.kinds,
            sizes=args.sizes,
            random_trials=args.trials,
            seed=args.seed,
            db=_open_db(args.db) if args.db else None,
            settings=_settings_from_args(args),
        )
        print(f"{'kind':>12} {'size':>6} {'bound':>6} {'found':>6} "
              f"{'below':>6} {'ruled<':>7} {'method':>11}")
        for r in rows:
            found = "-" if r.certified_size is None else str(r.certified_size)
            below = "-" if r.below_bound is None else str(r.below_bound)
            ruled = "-" if r.ruled_out_below is None else str(r.ruled_out_below)
            size = f"{r.n}x{r.n}"
            print(f"{r.kind:>12} {size:>6} {r.paper_bound:>6} "
                  f"{found:>6} {below:>6} {ruled:>7} {r.method:>11}")
        if args.db:
            # stderr keeps census stdout bitwise-identical across runs
            rs = rows.run_stats
            print(
                f"witness db {args.db}: {rs.cache_hits}/{rs.cells} "
                f"cells from cache, {rs.records_appended} new "
                f"witness records",
                file=sys.stderr,
            )
        return 0

    if args.command == "search":
        from .core.search import exhaustive_dynamo_search, random_dynamo_search
        from .rules import make_rule
        from .topology.tori import make_torus as _make_torus

        topo = _make_torus(args.kind, args.m, args.n)
        rule = make_rule(args.rule, num_colors=args.colors)
        db = _open_db(args.db) if args.db else None
        settings = _settings_from_args(args)
        if args.exhaustive:
            out = exhaustive_dynamo_search(
                topo,
                args.seed_size,
                args.colors,
                k=args.target_color,
                rule=rule,
                monotone_only=args.monotone_only,
                max_configs=args.max_configs,
                db=db,
                # one enumeration, never sharded: --shard-size is ignored
                settings=replace(settings, shard_size=None),
            )
        else:
            out = random_dynamo_search(
                topo,
                args.seed_size,
                args.colors,
                args.trials,
                args.seed,
                k=args.target_color,
                rule=rule,
                monotone_only=args.monotone_only,
                db=db,
                settings=settings,
            )
        mode = "exhaustive" if args.exhaustive else "random"
        mono = sum(1 for _, m in out.witnesses if m)
        head = (f"{mode} search on {args.kind} {args.m}x{args.n}, seed size "
                f"{args.seed_size}, {args.colors} colors: ")
        if out.cached:
            total = (out.found_total if out.found_total is not None
                     else len(out.witnesses))
            print(f"{head}{total} witness(es) in {out.examined:,} "
                  f"configurations (served from witness db; "
                  f"{len(out.witnesses)} recorded, {mono} monotone)")
        else:
            print(f"{head}{len(out.witnesses)} witness(es) ({mono} monotone) "
                  f"in {out.examined:,} configurations")
        if out.witnesses and args.render:
            cfg, _ = out.witnesses[0]
            print(render_grid(topo, cfg, args.target_color))
        return 0 if out.found_dynamo else 1

    if args.command == "scale-free":
        from .ext.scale_free import scale_free_takeover_census

        census = scale_free_takeover_census(
            n=args.n,
            m_attach=args.m_attach,
            num_colors=args.colors,
            strategies=tuple(args.strategies),
            seed_fractions=tuple(args.fractions),
            graphs=args.graphs,
            replicas=args.replicas,
            max_rounds=args.max_rounds,
            seed=args.seed,
            db=_open_db(args.db) if args.db else None,
            settings=_settings_from_args(args),
        )
        print(f"{'strategy':>16} {'frac':>6} {'takeover':>9} {'conv':>6} "
              f"{'k-frac':>7} {'rounds':>7}")
        for c in census.cells:
            print(f"{c.strategy:>16} {c.seed_fraction:>6.2f} "
                  f"{c.takeover_rate:>9.3f} {c.converged_rate:>6.2f} "
                  f"{c.mean_final_k_fraction:>7.3f} {c.mean_rounds:>7.1f}")
        if args.db:
            # stderr keeps census stdout bitwise-identical across runs
            rs = census.run_stats
            print(
                f"witness db {args.db}: {rs.cache_hits}/{rs.cells} "
                f"cells from cache, {rs.records_appended} recorded",
                file=sys.stderr,
            )
        return 0

    if args.command == "async":
        from .ext.asynchrony import async_robustness

        con = build_minimum_dynamo(args.kind, args.m, args.n, k=args.target_color)
        summary = async_robustness(
            con,
            trials=args.trials,
            max_sweeps=args.max_sweeps,
            seed=args.seed,
            db=_open_db(args.db) if args.db else None,
            label=con.name,
        )
        print(f"{con.name}: {summary.trials} random sequential schedules")
        print(f"takeover rate: {summary.takeover_rate:.3f}")
        print(f"monotone rate: {summary.monotone_rate:.3f}")
        print(f"sweeps: min {summary.min_sweeps}, max {summary.max_sweeps}, "
              f"mean {summary.mean_sweeps:.2f}")
        if args.db:
            rs = summary.run_stats
            outcome = ("served from cache" if rs.cache_hits
                       else "recorded" if rs.records_appended else "unchanged")
            print(f"witness db {args.db}: summary {outcome}", file=sys.stderr)
        return 0 if summary.takeover_rate == 1.0 else 1

    if args.command == "telemetry":
        from .obs.report import render_summary, summarize_stream

        try:
            summary = summarize_stream(args.path, top=args.top)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.as_json:
            print(json.dumps(summary, sort_keys=True))
        else:
            print(render_summary(summary))
        return 0

    if args.command == "serve":
        from .service.app import make_server, run_server

        try:
            server = make_server(
                args.db,
                host=args.host,
                port=args.port,
                jobs_dir=args.jobs_dir,
            )
        except OSError as exc:  # port in use, unknown host, ...
            print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        host, port = server.server_address[:2]
        print(f"serving {args.db} on http://{host}:{port}", file=sys.stderr)
        run_server(server)
        return 0

    if args.command == "witness":
        return _witness_main(args)

    if args.command == "diagonal":
        from .core.diagonal import diagonal_dynamo

        con = diagonal_dynamo(args.n, args.kind)
        if con is None:
            print("no witness found within the search budget")
            return 1
        rep = verify_dynamo(con.topo, con.colors, con.k, check_conditions=False)
        print(f"{con.name}: size {con.seed_size} vs paper bound "
              f"{con.size_lower_bound}, |C| = {con.num_colors}")
        print(f"monotone dynamo: {rep.is_monotone_dynamo}, rounds {rep.rounds}")
        print(render_grid(con.topo, con.colors, con.k, seed=con.seed))
        return 0

    if args.command == "figures":
        from .experiments import (
            figure1_minimum_dynamo,
            figure2_theorem2_coloring,
            figure3_bad_complement,
            figure4_frozen_configuration,
            figure5_mesh_time_matrix,
            figure6_cordalis_time_matrix,
        )

        ok = True
        for name, fn in [
            ("Figure 1", figure1_minimum_dynamo),
            ("Figure 2", figure2_theorem2_coloring),
            ("Figure 3", figure3_bad_complement),
            ("Figure 4", figure4_frozen_configuration),
            ("Figure 5", figure5_mesh_time_matrix),
            ("Figure 6", figure6_cordalis_time_matrix),
        ]:
            res = fn()
            status = "MATCH" if res.matches_paper else "MISMATCH"
            ok = ok and bool(res.matches_paper)
            print(f"{name}: {status}  ({res.notes})")
            if res.artifact is not None and name in ("Figure 5", "Figure 6"):
                print(render_time_matrix(res.artifact))
        return 0 if ok else 1

    if args.command == "theorems":
        from .theory import full_report, render_markdown, render_report

        reports = full_report()
        print(render_markdown(reports) if args.markdown else render_report(reports))
        return 0 if all(r.verdict.value != "REFUTED" or r.details for r in reports) else 1

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
