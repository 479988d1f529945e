"""Command-line interface: run scenarios and sweeps through the runtime.

Every subcommand builds a declarative
:class:`~repro.runtime.spec.ScenarioSpec` (or
:class:`~repro.runtime.spec.SweepSpec`) and executes it through the unified
scenario runtime — the same facade the experiment drivers, benchmarks and
examples use.

Examples
--------
Run a single rendezvous on an 8-node ring under the avoiding adversary
(``run`` starts from any problem kind and sets ScenarioSpec fields with
``--set FIELD=VALUE``; VALUE is JSON, or else a plain string)::

    repro run rendezvous --set size=8 --set 'labels=[6,11]' --set scheduler=avoider

Run a scenario stored as JSON (``--set`` overrides its fields), or write one
out without running it::

    repro run --spec scenario.json
    repro run --spec scenario.json --set size=4
    repro run rendezvous --set size=8 --dump-spec scenario.json

Sweep a grid of scenarios over two worker processes (``sweep`` starts from
the default :class:`~repro.runtime.spec.SweepSpec`, one rendezvous cell, or
from ``--spec FILE``, and sets its fields with ``--set FIELD=VALUE``)::

    repro sweep --set 'sizes=[4,8,12]' \
        --set 'schedulers=["round_robin","avoider"]' --set 'seeds=[0,1,2]' --jobs 2

Sweep against the content-addressed result store (the second invocation
serves every cell from the store and executes nothing; an interrupted sweep
resumes where it stopped)::

    repro sweep --set 'sizes=[4,8,12]' --set 'seeds=[0,1,2]' --store .repro-store
    repro sweep --set 'sizes=[4,8,12]' --set 'seeds=[0,1,2]' --store .repro-store

Profile a run (span table attributing the engine's wall time), or dump
every metric a command produced (``--format prom`` for Prometheus text)::

    repro run --spec scenario.json --profile
    repro metrics dump --format prom sweep --set 'sizes=[4,8]' --set 'seeds=[0,1]'

Inspect and maintain a store::

    repro store ls
    repro store show 3fa9c1
    repro store gc --max-records 10000

Run a sweep over the distributed work-queue fabric — one shot (spawns 2
local worker processes), or as the full dispatch/worker/merge lifecycle
whose pieces may run on different machines::

    repro sweep --set 'sizes=[4,8,12]' --set 'seeds=[0,1,2]' --jobs 2 --executor queue

    repro queue dispatch --set 'sizes=[4,8,12]' --set 'seeds=[0,1,2]' --queue /shared/q
    repro worker --queue /shared/q          # on any machine, any number
    repro queue status --queue /shared/q    # add --json for machines
    repro store merge /shared/q/results/* --into .repro-store

Watch the fleet while it runs (workers heartbeat into the queue's durable
event journal), or replay the journal afterwards::

    repro top --queue /shared/q             # live view; --once for scripts
    repro tail --queue /shared/q            # the event stream; -f to follow

Aggregate the traces a ``--trace``'d sweep persisted, or attribute the
wall-time difference between two stored runs to named spans::

    repro trace top --store .repro-store
    repro trace diff KEY1 KEY2 --store .repro-store

Serve the store, the experiment registry and the queue fabric over HTTP
(GET /experiments/<name> renders with an ETag so warm clients get 304s;
POST /sweeps dispatches onto the queue for workers to drain)::

    repro serve --store .repro-store --queue /shared/q --port 8642

Run Procedure ESST on a random graph::

    repro run esst --set family=erdos_renyi --set size=7

Run Algorithm SGL (and hence the four team problems) for 3 agents::

    repro run teams --set size=6 --set team_size=3

Run a tick-asynchronous scenario (leader election, gossip, gathering) under
an interleaving model with crash/message faults, or sweep one over a grid
of fault configurations::

    repro run tick_leader --set size=8 --set 'problem_params={"interleaving": "random"}'
    repro run tick_gathering \
        --set 'problem_params={"fault_rate": 0.25, "crash_window": 20}'
    repro sweep --set 'problems=["tick_leader"]' --set 'sizes=[4,6]' \
        --set 'seeds=[0,1,2,3,4]' \
        --set 'problem_param_sets=[{"interleaving": "random", "fault_rate": 0.25}]'

Regenerate experiment tables (spec-driven: every table is a registered
:class:`~repro.analysis.experiment_spec.ExperimentSpec`; with ``--store``
a warm invocation re-renders without executing a single scenario)::

    repro experiment --list
    repro experiment e3 f1
    repro experiment E4 --store .repro-store --format csv
    repro experiment E1 E4 --store .repro-store --format json
    repro experiment --spec my_experiment.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence, Tuple

from .analysis.experiment_spec import (
    EXPERIMENTS,
    ExperimentSpec,
    experiment_spec,
    run_experiment,
)
from .analysis.render import FORMATS
from .analysis.tables import format_table
from .exceptions import ReproError
from .obs.analytics import (
    format_trace_diff,
    format_trace_top,
    load_traces,
    trace_diff,
    trace_of,
    trace_top,
)
from .obs.events import format_event, format_fleet
from .obs.metrics import MetricsRegistry, enable_metrics, set_registry
from .obs.profile import format_profile
from .runtime import (
    PROBLEMS,
    RunRecord,
    ScenarioSpec,
    SweepSpec,
)
from .distrib import DEFAULT_LEASE_TTL, Dispatcher, Worker, WorkQueue
from .runtime.executors import make_executor, run_sweep
from .runtime.runner import run
from .serve import DEFAULT_PORT as SERVE_DEFAULT_PORT
from .serve import ResultService, make_server
from .store import DEFAULT_STORE_DIR, FileStore, merge_stores
from .store.merge import ON_CONFLICT_CHOICES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'How to Meet Asynchronously at Polynomial Cost' "
            "(Dieudonné, Pelc, Villain, PODC 2013)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_cmd = subparsers.add_parser(
        "run",
        help="run one scenario: a problem kind or a ScenarioSpec JSON file, "
        "with --set overrides",
    )
    run_cmd.add_argument(
        "problem",
        nargs="?",
        default=None,
        metavar="PROBLEM",
        help=f"problem kind to start from ({', '.join(sorted(PROBLEMS))})",
    )
    def add_spec_flags(sub: argparse.ArgumentParser, spec_name: str, example: str) -> None:
        """``--spec FILE`` and repeatable ``--set FIELD=VALUE`` over a spec class."""
        sub.add_argument(
            "--spec", default=None, metavar="FILE", help=f"path to a {spec_name} JSON to start from"
        )
        sub.add_argument(
            "--set",
            action="append",
            default=[],
            dest="assignments",
            metavar="FIELD=VALUE",
            help=f"set one {spec_name} field (repeatable); VALUE is parsed as JSON "
            f"and otherwise taken as a string, e.g. {example}",
        )

    add_spec_flags(run_cmd, "ScenarioSpec", "labels=[6,11] scheduler=avoider")
    run_cmd.add_argument(
        "--dump-spec",
        metavar="FILE",
        default=None,
        help="write the scenario spec as JSON to FILE instead of running it",
    )
    run_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the full RunRecord as JSON instead of a summary",
    )
    run_cmd.add_argument(
        "--trace",
        action="store_true",
        help="record a RunTrace and attach it to the record's extra bag",
    )
    run_cmd.add_argument(
        "--profile",
        action="store_true",
        help="trace the run and print a wall-time profile table (implies --trace)",
    )

    sweep_example = "sizes=[4,8] seeds=[0,1,2]"
    sweep = subparsers.add_parser(
        "sweep",
        help="run a grid of scenarios: SweepSpec() or a SweepSpec JSON file, "
        "with --set overrides",
    )
    add_spec_flags(sweep, "SweepSpec", sweep_example)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial; default: 1)",
    )
    sweep.add_argument(
        "--executor",
        choices=("serial", "pool", "queue"),
        default=None,
        help="execution backend (default: serial for --jobs 1, pool otherwise; "
        "queue = distributed work-queue with --jobs local worker processes)",
    )
    sweep.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help="queue directory for --executor queue (default: a temporary one)",
    )
    sweep.add_argument(
        "--unit-size",
        type=int,
        default=4,
        help="cells per leased work unit for --executor queue (default: 4)",
    )
    sweep.add_argument(
        "--json", metavar="FILE", default=None, help="also write the SweepResult JSON to FILE"
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    sweep.add_argument(
        "--trace",
        action="store_true",
        help="attach a RunTrace to every executed cell (serial/pool executors only)",
    )
    sweep.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist results in (and serve cached cells from) the result store at DIR",
    )
    sweep.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve cells already in the store without executing them (default: on)",
    )

    worker = subparsers.add_parser(
        "worker", help="drain a distributed work queue (one worker process)"
    )
    worker.add_argument(
        "--queue", required=True, metavar="DIR", help="the work-queue directory"
    )
    worker.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="worker shards root: this worker writes its own shard store at "
        "DIR/<worker-id> (default: QUEUE/results)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="this worker's identity (default: <host>-<pid>); must name at "
        "most one live process, and a restart under the same id reclaims "
        "its leases immediately",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=300.0,
        help="lease seconds per claimed unit; an expired lease is stolen and "
        "its partial shard salvaged (default: 300)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between queue scans while other workers hold the "
        "remaining units (default: 0.5)",
    )
    worker.add_argument(
        "--max-units", type=int, default=None, help="stop after N units (default: drain)"
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-unit progress lines"
    )
    worker.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between heartbeats (journal event + mid-unit lease "
        "renewal; default: lease-ttl/3 capped at 15)",
    )

    queue_cmd = subparsers.add_parser(
        "queue", help="dispatch and inspect a distributed work queue"
    )
    queue_sub = queue_cmd.add_subparsers(dest="queue_command", required=True)

    dispatch = queue_sub.add_parser(
        "dispatch", help="partition a sweep into leaseable work units"
    )
    add_spec_flags(dispatch, "SweepSpec", sweep_example)
    dispatch.add_argument(
        "--queue", required=True, metavar="DIR", help="the work-queue directory (created if missing)"
    )
    dispatch.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result store: cells it already holds are not dispatched",
    )
    dispatch.add_argument(
        "--unit-size", type=int, default=4, help="cells per work unit (default: 4)"
    )

    queue_status = queue_sub.add_parser("status", help="summarise a queue's progress")
    queue_status.add_argument(
        "--queue", required=True, metavar="DIR", help="the work-queue directory"
    )
    queue_status.add_argument(
        "--json",
        action="store_true",
        help="emit the status counters as one JSON object (machine-readable)",
    )
    queue_status.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        help="staleness threshold: a worker whose heartbeat is older than "
        f"this is flagged stale (default: {DEFAULT_LEASE_TTL:g})",
    )

    top = subparsers.add_parser(
        "top", help="live fleet view of a work queue (workers, leases, ETA)"
    )
    top.add_argument(
        "--queue", required=True, metavar="DIR", help="the work-queue directory"
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (for scripts and CI)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    top.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        help="staleness threshold for worker heartbeats "
        f"(default: {DEFAULT_LEASE_TTL:g})",
    )

    tail = subparsers.add_parser(
        "tail", help="print (and follow) a work queue's event journal"
    )
    tail.add_argument(
        "--queue", required=True, metavar="DIR", help="the work-queue directory"
    )
    tail.add_argument(
        "-f",
        "--follow",
        action="store_true",
        help="keep streaming new events until interrupted",
    )
    tail.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="print only the last N matching events (default: all)",
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="poll interval while following (default: 0.5)",
    )
    tail.add_argument("--type", default=None, help="only events of this type")
    tail.add_argument("--worker", default=None, help="only events of this worker")
    tail.add_argument("--unit", default=None, help="only events of this unit id")

    trace_cmd = subparsers.add_parser(
        "trace", help="cross-run trace analytics over a result store"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)

    trace_diff_cmd = trace_sub.add_parser(
        "diff",
        help="attribute the wall-time delta between two traced runs to spans",
    )
    trace_diff_cmd.add_argument("key_a", metavar="KEY1", help="spec key (or unique prefix)")
    trace_diff_cmd.add_argument("key_b", metavar="KEY2", help="spec key (or unique prefix)")
    trace_diff_cmd.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE_DIR,
        help=f"result store holding the traced records (default: {DEFAULT_STORE_DIR})",
    )
    trace_diff_cmd.add_argument(
        "--limit", type=int, default=None, help="show only the top N components"
    )

    trace_top_cmd = trace_sub.add_parser(
        "top", help="which spans dominate wall time across a store's traced runs"
    )
    trace_top_cmd.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE_DIR,
        help=f"result store to aggregate (default: {DEFAULT_STORE_DIR})",
    )
    trace_top_cmd.add_argument(
        "--limit", type=int, default=15, help="rows to show (default: 15)"
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve the result store, experiments and work queue over HTTP",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE_DIR,
        help=f"result store to serve (default: {DEFAULT_STORE_DIR}; created if missing)",
    )
    serve.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help="work-queue directory enabling POST /sweeps (default: no queue — "
        "the sweep endpoints answer 503)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=SERVE_DEFAULT_PORT,
        help=f"TCP port; 0 picks a free one (default: {SERVE_DEFAULT_PORT})",
    )
    serve.add_argument(
        "--unit-size",
        type=int,
        default=4,
        help="cells per dispatched work unit for POST /sweeps (default: 4)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )

    experiment = subparsers.add_parser(
        "experiment",
        help="regenerate experiment tables from registered specs (--list names them)",
    )
    experiment.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="registered experiment names (case-insensitive: E1-E6, F1, bounds)",
    )
    experiment.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="path to an ExperimentSpec JSON to run instead of a registered name",
    )
    experiment.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list the registered experiments and exit",
    )
    experiment.add_argument(
        "--format",
        choices=list(FORMATS),
        default="markdown",
        help="table output format (default: markdown)",
    )
    experiment.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result store: cells already stored are served without execution",
    )
    experiment.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve cells already in the store without executing them (default: on)",
    )
    experiment.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the underlying sweep (default: 1)",
    )
    experiment.add_argument(
        "--executor",
        choices=("serial", "pool", "queue"),
        default=None,
        help="execution backend for the underlying sweep (default: serial "
        "for --jobs 1, pool otherwise)",
    )

    metrics_cmd = subparsers.add_parser(
        "metrics", help="run a repro command instrumented and dump its metrics"
    )
    metrics_sub = metrics_cmd.add_subparsers(dest="metrics_command", required=True)
    metrics_dump = metrics_sub.add_parser(
        "dump",
        help="enable the process-global metrics registry, run the given repro "
        "command, then dump every collected metric",
    )
    metrics_dump.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        dest="metrics_format",
        help="registry rendering: json (default) or Prometheus text format",
    )
    metrics_dump.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        metavar="COMMAND",
        help="repro command line to run instrumented, e.g. "
        "'repro metrics dump sweep --set sizes=[4,8]'; omit to dump an empty registry",
    )

    store_cmd = subparsers.add_parser(
        "store", help="inspect and maintain a content-addressed result store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)

    def add_store_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            metavar="DIR",
            default=DEFAULT_STORE_DIR,
            help=f"store directory (default: {DEFAULT_STORE_DIR})",
        )

    store_ls = store_sub.add_parser("ls", help="list the stored run records")
    add_store_dir(store_ls)
    store_ls.add_argument(
        "--problem",
        default=None,
        help="filter by problem kind (prefix match, e.g. 'tick' selects all tick_* kinds)",
    )
    store_ls.add_argument("--family", default=None, help="filter by graph family")
    store_ls.add_argument("--scheduler", default=None, help="filter by adversary name")
    store_ls.add_argument(
        "--n-min", type=int, default=None, help="smallest graph size to list (inclusive)"
    )
    store_ls.add_argument(
        "--n-max", type=int, default=None, help="largest graph size to list (inclusive)"
    )
    store_ls.add_argument(
        "--stat",
        action="store_true",
        help="print only the summary line (records, shards, writers, bytes)",
    )
    store_ls.add_argument(
        "--keys",
        action="store_true",
        help="print only the matching full spec keys, sorted, one per line",
    )

    store_show = store_sub.add_parser("show", help="print one stored record as JSON")
    add_store_dir(store_show)
    store_show.add_argument("key", help="spec key (any unambiguous prefix)")

    store_gc = store_sub.add_parser(
        "gc", help="compact the store: drop corrupt/duplicate lines, rewrite the index"
    )
    add_store_dir(store_gc)
    store_gc.add_argument(
        "--max-records",
        type=int,
        default=None,
        help="evict the oldest-written records beyond this count (N >= 0)",
    )
    store_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="evict the oldest-written records until the shards fit in N bytes (N >= 0)",
    )

    store_merge = store_sub.add_parser(
        "merge",
        help="fold shipped worker stores into one (dedup by spec key, loud on divergence)",
    )
    store_merge.add_argument(
        "sources", nargs="+", metavar="SRC", help="source store directories"
    )
    store_merge.add_argument(
        "--into", required=True, metavar="DST", help="destination store (created if missing)"
    )
    store_merge.add_argument(
        "--on-conflict",
        choices=list(ON_CONFLICT_CHOICES),
        default="error",
        help="divergent-payload policy: error (default), ours (keep DST's), "
        "theirs (take SRC's)",
    )
    store_merge.add_argument(
        "--salvage",
        action="store_true",
        help="tolerate corrupt source shard lines (skip them) instead of aborting",
    )
    return parser


# ----------------------------------------------------------------------
# record printers (one per problem kind)
# ----------------------------------------------------------------------
def _print_graph_line(record: RunRecord) -> None:
    print(
        f"graph: {record.graph_name} "
        f"({record.graph_size} nodes, {record.graph_edges} edges)"
    )


def _print_rendezvous(record: RunRecord) -> None:
    algorithm = (
        "naive exponential baseline"
        if record.problem == "baseline"
        else "RV-asynch-poly"
    )
    _print_graph_line(record)
    print(f"algorithm: {algorithm}; adversary: {record.scheduler}")
    print(f"result: {record.summary()}")


def _print_esst(record: RunRecord) -> None:
    extra = record.extra_dict
    _print_graph_line(record)
    if extra["token_node"] is not None:
        token = f"at node {extra['token_node']}"
    else:
        token = (
            f"inside edge {tuple(extra['token_edge'])} "
            f"at fraction {extra['token_fraction']}"
        )
    print(f"token {token}, agent starts at node {extra['start']}")
    print(
        f"ESST finished in phase {extra['final_phase']} "
        f"(bound 9n+3 = {extra['phase_bound']}) after {record.cost} edge traversals"
    )
    print(f"all edges traversed: {record.ok}")


def _print_teams(record: RunRecord) -> None:
    extra = record.extra_dict
    labels = list(extra["team_labels"])
    print(f"graph: {record.graph_name}; team labels: {labels}")
    print(f"all agents output: {extra['all_output']}; outputs correct: {record.ok}")
    print(f"total cost (edge traversals until every agent output): {record.cost}")
    if record.ok:
        print(f"team size: {len(labels)}; leader: {extra['leader']}")
        renaming = {label: rank + 1 for rank, label in enumerate(labels)}
        print(f"perfect renaming: {renaming}")


def _print_tick(record: RunRecord) -> None:
    extra = record.extra_dict
    _print_graph_line(record)
    print(
        f"interleaving: {extra['interleaving']}; "
        f"fault_rate={extra['fault_rate']} drop_rate={extra['drop_rate']}"
    )
    print(
        f"stopped: {record.reason} after {record.cost} ticks "
        f"({record.decisions} activations)"
    )
    crashed = list(extra.get("crashed", ()))
    if crashed:
        print(f"crashed agents: {crashed}")
    print(
        f"messages: {extra['messages_sent']} sent, "
        f"{extra['messages_dropped']} dropped; moves: {extra['moves']}"
    )
    if record.problem == "tick_leader":
        leader = extra["leader"] if extra["leader"] is not None else "(none)"
        print(
            f"consensus: {extra['consensus']} "
            f"(leaders: {extra['leaders']}, agreed: {extra['agreed']}, "
            f"leader label: {leader})"
        )
    elif record.problem == "tick_gossip":
        print(
            f"covered: {extra['covered']} "
            f"({extra['informed']}/{extra['alive']} alive agents informed)"
        )
    elif record.problem == "tick_gathering":
        node = extra["meeting_node"] if extra["meeting_node"] is not None else "(none)"
        print(
            f"gathered: {extra['gathered']} "
            f"({extra['alive']}/{extra['team_size']} agents alive, at node {node})"
        )
    ticks = extra.get("ticks")
    if ticks is not None:
        dropped = ticks.get("ticks_dropped", 0)
        suffix = f" (+{dropped} past the cap)" if dropped else ""
        print(f"tick snapshots: {len(ticks['ticks'])} recorded{suffix}")


def _print_generic(record: RunRecord) -> None:
    print(f"problem: {record.problem}")
    print(f"result: {record.summary()}")


_PRINTERS = {
    "rendezvous": _print_rendezvous,
    "baseline": _print_rendezvous,
    "esst": _print_esst,
    "teams": _print_teams,
    "tick_leader": _print_tick,
    "tick_gossip": _print_tick,
    "tick_gathering": _print_tick,
}


def _print_record(record: RunRecord) -> None:
    _PRINTERS.get(record.problem, _print_generic)(record)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _parse_assignment(token: str) -> Tuple[str, Any]:
    """Split one ``--set FIELD=VALUE`` token; VALUE is JSON, else a string."""
    field, sep, text = token.partition("=")
    if not sep or not field:
        raise ReproError(f"--set expects FIELD=VALUE, got {token!r}")
    try:
        return field, json.loads(text)
    except json.JSONDecodeError:
        return field, text


def _spec_from_args(args: argparse.Namespace, default: Any, noun: str) -> Any:
    """Load ``--spec FILE`` (else take ``default``), apply ``--set``, validate.

    Generic over the spec class: ``run`` builds a ScenarioSpec, ``sweep``
    and ``queue dispatch`` a SweepSpec, each from the class of ``default``.
    """
    spec_class = type(default)
    changes = dict(_parse_assignment(token) for token in args.assignments)
    try:
        if args.spec is not None:
            default = spec_class.from_json(Path(args.spec).read_text(encoding="utf-8"))
        return spec_class.from_dict({**default.to_dict(), **changes}).validate()
    except (TypeError, ValueError) as error:
        raise ReproError(f"invalid {noun} spec: {error}") from None


def _scenario_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """Build the validated ScenarioSpec that ``repro run`` describes."""
    if (args.problem is None) == (args.spec is None):
        raise ReproError("run needs exactly one of PROBLEM or --spec FILE")
    return _spec_from_args(args, ScenarioSpec(problem=args.problem), "scenario")


def _run_scenario(args: argparse.Namespace) -> int:
    spec = _scenario_from_args(args)
    if args.dump_spec is not None:
        Path(args.dump_spec).write_text(spec.to_json() + "\n", encoding="utf-8")
        print(f"wrote scenario spec to {args.dump_spec}")
        return 0
    record = run(spec, trace=args.trace or args.profile)
    if args.json:
        print(record.to_json())
    else:
        _print_record(record)
        print(f"ok: {record.ok}")
    if args.profile:
        # With --json, stdout carries exactly one JSON document.
        stream = sys.stderr if args.json else sys.stdout
        print(file=stream)
        print(format_profile(record.extra_dict["trace"]), file=stream)
    return 0 if record.ok else 1


def _run_sweep(args: argparse.Namespace) -> int:
    sweep = _spec_from_args(args, SweepSpec(), "sweep")
    total = len(sweep)

    def progress(done: int, _total: int, record: RunRecord, cached: bool) -> None:
        if not args.quiet:
            status = ("hit " if cached else "ok  ") if record.ok else "FAIL"
            print(
                f"[{done}/{total}] {status} {record.problem} {record.family} "
                f"n={record.graph_size} seed={record.seed} "
                f"scheduler={record.scheduler} cost={record.cost}"
            )

    if args.executor == "queue":
        executor = make_executor(
            args.jobs, kind="queue", queue_dir=args.queue, unit_size=args.unit_size
        )
    else:
        executor = make_executor(args.jobs, kind=args.executor)
    store = None if args.store is None else FileStore(args.store)
    try:
        result = run_sweep(
            sweep,
            executor=executor,
            progress=progress,
            store=store,
            resume=args.resume,
            trace=args.trace,
        )
    finally:
        if store is not None:
            store.close()
    print()
    print(result.table(title=f"sweep: {total} cells, jobs={args.jobs}"))
    print()
    print(
        f"ok: {sum(1 for record in result if record.ok)}/{len(result)}  "
        f"max cost: {result.max_cost()}  mean cost: {result.mean_cost():.1f}"
    )
    if store is not None:
        print(
            f"store {args.store}: cached {result.cache_hits}/{total}, "
            f"executed {result.executed}"
        )
    if args.json is not None:
        Path(args.json).write_text(result.to_json() + "\n", encoding="utf-8")
        print(f"wrote SweepResult JSON to {args.json}")
    return 0 if result.all_ok else 1


def _run_worker(args: argparse.Namespace) -> int:
    def unit_progress(uid: str, counts: dict) -> None:
        if not args.quiet:
            print(
                f"unit {uid}: {counts['executed']} executed, "
                f"{counts['salvaged']} salvaged, {counts['cached']} cached "
                f"of {counts['total']} cells",
                flush=True,
            )

    worker = Worker(
        args.queue,
        worker_id=args.worker_id,
        results_root=args.store,
        lease_ttl=args.lease_ttl,
        poll=args.poll,
        max_units=args.max_units,
        progress=unit_progress,
        heartbeat_interval=args.heartbeat,
    )
    totals = worker.run()
    print(
        f"worker {worker.worker_id}: {totals['units']} units — "
        f"{totals['executed']} executed, {totals['salvaged']} salvaged, "
        f"{totals['cached']} cached (shard: {worker.store_dir})"
    )
    return 0


def _run_queue(args: argparse.Namespace) -> int:
    if args.queue_command == "dispatch":
        sweep = _spec_from_args(args, SweepSpec(), "sweep")
        store = None if args.store is None else FileStore(args.store, create=False)
        try:
            # The dispatcher checks the unit size before it creates the queue.
            report = Dispatcher(args.queue, unit_size=args.unit_size).dispatch(
                sweep, store=store
            )
        finally:
            if store is not None:
                store.close()
        print(
            f"dispatched {report['cells']} cells into {args.queue}: "
            f"{report['new_units']} new units, {report['existing_units']} already "
            f"queued, {report['skipped_cached']} cells already stored"
        )
        return 0
    if args.queue_command == "status":
        fleet = WorkQueue(args.queue).fleet(args.lease_ttl)
        status = fleet["queue"]
        drained = status["units"] == status["done"] + status["cancelled"]
        if args.json:
            print(
                json.dumps(
                    {**status, "drained": drained, "heartbeats": fleet["workers"]},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0 if drained else 1
        cancelled = (
            f", {status['cancelled']} cancelled" if status["cancelled"] else ""
        )
        print(
            f"queue {args.queue}: {status['done']}/{status['units']} units done"
            f"{cancelled}, {status['claimed']} claimed, {status['pending']} pending "
            f"({status['workers']} worker shards)"
        )
        print(
            f"cells: executed {status['executed']}/{status['cells']}, "
            f"salvaged {status['salvaged']}, cached {status['cached']}"
        )
        print(
            f"leases: {status['steals']} stolen, {status['expired']} expired"
        )
        for entry in fleet["workers"]:
            stale = "  STALE (heartbeat older than the lease TTL)" if entry["stale"] else ""
            last_event = (
                f", last event {entry['last_event_age']:.0f}s ago"
                if entry["last_event_age"] is not None
                else ""
            )
            print(
                f"worker {entry['worker']}: heartbeat "
                f"{entry['age']:.0f}s ago{last_event}{stale}"
            )
        return 0 if drained else 1
    return 2  # pragma: no cover (argparse enforces the sub-command)


def _run_top(args: argparse.Namespace) -> int:
    queue = WorkQueue(args.queue)

    def snapshot() -> str:
        return format_fleet(queue.fleet(args.lease_ttl))

    if args.once:
        print(snapshot())
        return 0
    try:
        while True:  # pragma: no cover - interactive loop (CI uses --once)
            print("\x1b[2J\x1b[H", end="")
            print(f"repro top — {args.queue}  ({time.strftime('%H:%M:%S')})\n")
            print(snapshot(), flush=True)
            time.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0


def _run_tail(args: argparse.Namespace) -> int:
    queue = WorkQueue(args.queue)
    journal = queue.journal()
    filters = {"type": args.type, "worker": args.worker, "unit": args.unit}
    events = journal.events(**filters)
    for event in events if args.limit is None else events[-args.limit :]:
        print(format_event(event))
    if not args.follow:
        return 0
    seen = {(event.get("writer"), event.get("seq")) for event in events}
    try:
        while True:  # pragma: no cover - interactive loop
            time.sleep(max(args.interval, 0.05))
            for event in journal.events(**filters):
                stamp = (event.get("writer"), event.get("seq"))
                if stamp not in seen:
                    seen.add(stamp)
                    print(format_event(event), flush=True)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0


def _resolve_store_key(store: FileStore, key: str) -> str:
    """Resolve a full spec key or a unique prefix against ``store``."""
    if len(key) == 64 and store.get(key) is not None:
        return key
    hits = sorted(stored for stored in store.keys() if stored.startswith(key))
    if not hits:
        raise ReproError(f"no stored record matches key {key!r}")
    if len(hits) > 1:
        raise ReproError(f"key prefix {key!r} is ambiguous ({len(hits)} matches)")
    return hits[0]


def _run_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "diff":
        with FileStore(args.store, create=False) as store:
            traces = []
            for raw in (args.key_a, args.key_b):
                key = _resolve_store_key(store, raw)
                trace = trace_of(store.get(key))
                if trace is None:
                    raise ReproError(
                        f"record {key[:12]}… holds no trace; re-run the cell "
                        "with --trace (or a traced sweep) first"
                    )
                traces.append(trace)
        print(format_trace_diff(trace_diff(*traces), limit=args.limit))
        return 0
    if args.trace_command == "top":
        with FileStore(args.store, create=False) as store:
            traced = load_traces(store)
        if not traced:
            print(f"no traced records in {args.store} (sweep with --trace first)")
            return 1
        print(format_trace_top(trace_top(traced, limit=args.limit)))
        return 0
    return 2  # pragma: no cover (argparse enforces the sub-command)


def _run_serve(args: argparse.Namespace) -> int:
    store = FileStore(args.store, create=True)
    try:
        service = ResultService(store, queue=args.queue, unit_size=args.unit_size)
        server = make_server(
            service, args.host, args.port, quiet=not args.verbose
        )
        host, port = server.server_address[:2]
        mode = f"queue: {args.queue}" if args.queue else "read-only (no queue)"
        print(
            f"repro serve: http://{host}:{port}/ — store: {args.store}, {mode}",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            server.server_close()
    finally:
        store.close()
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    if args.list_experiments:
        rows = []
        for name in EXPERIMENTS.names():
            spec = experiment_spec(name)
            rows.append([name, len(spec.cell_specs()), spec.title])
        print(format_table(["name", "cells", "title"], rows, title="registered experiments"))
        return 0
    specs = [experiment_spec(name) for name in args.names]
    if args.spec is not None:
        specs.append(ExperimentSpec.from_json(Path(args.spec).read_text(encoding="utf-8")))
    if not specs:
        print("error: name an experiment, or pass --spec / --list", file=sys.stderr)
        return 2
    executor = make_executor(args.jobs, kind=args.executor)
    store = None if args.store is None else FileStore(args.store)
    try:
        # Each table prints as soon as it is ready, so a failure in a later
        # experiment never discards the finished work of earlier ones.
        for index, spec in enumerate(specs):
            result = run_experiment(
                spec, store=store, resume=args.resume, executor=executor
            )
            if index:
                print()
            print(result.render(args.format))
            if store is not None:
                print(
                    f"experiment {spec.name}: {len(result.records)} cells, "
                    f"cached {result.cache_hits}, executed {result.executed}",
                    file=sys.stderr,
                )
    finally:
        if store is not None:
            store.close()
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    """``repro metrics dump``: instrument a nested repro invocation.

    The process-global registry is enabled *before* the nested command runs,
    so every instrumentation site (engine, runner, store, queue, worker)
    records into it; the registry is then rendered after the command's own
    output.  With no nested command this dumps an (empty) registry — useful
    to see the exposition format.
    """
    rest = list(args.rest)
    if rest and rest[0] == "--":  # argparse.REMAINDER keeps the separator
        rest = rest[1:]
    # A fresh registry per dump (not the idempotent enable_metrics): the dump
    # reports what *this* command produced, even inside a long-lived process.
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        code = main(rest) if rest else 0
    finally:
        set_registry(previous)
    rendered = (
        registry.render_prom()
        if args.metrics_format == "prom"
        else registry.render_json()
    )
    if rest:
        print()
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    return code


# ----------------------------------------------------------------------
# store maintenance
# ----------------------------------------------------------------------
def _run_store(args: argparse.Namespace) -> int:
    if args.store_command == "merge":
        with FileStore(args.into, create=True) as dest:
            report = merge_stores(
                args.sources, dest, on_conflict=args.on_conflict, salvage=args.salvage
            )
        conflicts = report["conflicts"]
        print(
            f"merged {report['merged']} of {report['scanned']} records from "
            f"{report['sources']} store(s) into {args.into}: "
            f"{report['duplicates']} duplicates, {len(conflicts)} conflicts"
            + (f" (resolved: {args.on_conflict})" if conflicts else "")
        )
        return 0
    # gc opens tolerantly: its whole point is repairing a damaged store.
    salvage = args.store_command == "gc"
    with FileStore(args.store, create=False, salvage=salvage) as store:
        if args.store_command == "ls":
            if args.stat:
                stats = store.stats()
                print(
                    f"store {args.store}: {stats['records']} records, "
                    f"{stats['shards']} shards, {stats['writers']} writer "
                    f"namespace(s), {stats['bytes']:,} bytes"
                )
                return 0
            matches = {}
            if args.problem is not None:
                matches["problem"] = args.problem
            if args.family is not None:
                matches["family"] = args.family
            if args.scheduler is not None:
                matches["scheduler"] = args.scheduler
            if args.n_min is not None or args.n_max is not None:
                matches["n_range"] = (
                    args.n_min if args.n_min is not None else 0,
                    args.n_max if args.n_max is not None else sys.maxsize,
                )
            result = store.query(**matches)
            if args.keys:
                for key in sorted(record.spec.key() for record in result):
                    print(key)
                return 0
            rows = [
                [
                    record.spec.key()[:12],
                    record.problem,
                    record.family,
                    record.graph_size,
                    record.seed,
                    record.scheduler,
                    "yes" if record.ok else "no",
                    record.cost,
                ]
                for record in result
            ]
            stats = store.stats()
            print(
                format_table(
                    ["key", "problem", "family", "n", "seed", "scheduler", "ok", "cost"],
                    rows,
                    title=f"result store {args.store}",
                )
            )
            print()
            print(
                f"{stats['records']} records in {stats['shards']} shards "
                f"({stats['bytes']:,} bytes)"
            )
            return 0
        if args.store_command == "show":
            hits = [key for key in store.keys() if key.startswith(args.key)]
            if len(hits) > 1:
                print(
                    f"error: key prefix {args.key!r} is ambiguous "
                    f"({len(hits)} matches):",
                    file=sys.stderr,
                )
                for key in sorted(hits):
                    print(f"  {key}", file=sys.stderr)
                return 1
            # An indexed key may still miss if its shard record was lost
            # (the index is a recoverable cache; shards are the truth).
            record = store.get(hits[0]) if hits else None
            if record is None:
                print(f"error: no stored record matches key prefix {args.key!r}", file=sys.stderr)
                return 1
            print(record.to_json())
            return 0
        if args.store_command == "gc":
            report = store.gc(max_records=args.max_records, max_bytes=args.max_bytes)
            print(
                f"gc {args.store}: kept {report['kept']} records, "
                f"dropped {report['dropped_corrupt']} corrupt and "
                f"{report['dropped_duplicate']} duplicate lines, "
                f"evicted {report['evicted']} oldest-written records, "
                f"reclaimed {report['reclaimed_bytes']:,} bytes"
            )
            return 0
    return 2  # pragma: no cover (argparse enforces the sub-command)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro`` command.

    ``REPRO_METRICS=1`` in the environment enables the process-global
    metrics registry for any subcommand (workers spawned by the queue
    executor inherit it), exactly as ``repro metrics dump`` does explicitly.
    """
    if os.environ.get("REPRO_METRICS", "").strip() not in ("", "0"):
        enable_metrics()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _run_scenario,
        "sweep": _run_sweep,
        "worker": _run_worker,
        "queue": _run_queue,
        "top": _run_top,
        "tail": _run_tail,
        "trace": _run_trace,
        "serve": _run_serve,
        "experiment": _run_experiment,
        "metrics": _run_metrics,
        "store": _run_store,
    }
    handler = handlers.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return handler(args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
