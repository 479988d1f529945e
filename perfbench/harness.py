"""Measurement protocol shared by the four workloads.

One run = set-up (repeated, median reported) → timed passes until the run's
time budget is spent → output checks → one JSON result.  With tracing on,
the run instead times a fixed number of passes untraced, then the *same*
passes again under the layer shims, and reports per-layer metrics plus the
tracing overhead between the two.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: Set-up repetitions per run.  One set-up is a cold import of the package
#: in a fresh interpreter plus the workload's own set-up; ``setup_s`` is the
#: median import plus the median workload set-up.
SETUP_REPS = 7


@dataclass
class PassResult:
    """What one timed pass of a workload produced.

    ``wall`` is the pass's headline time (the ``pass_s`` sample); ``units``
    ran in ``unit_seconds`` (``rate_per_s``); ``latencies`` are per-unit
    seconds (``p50_ms`` / ``tail_ms``); ``timed`` is every second spent
    inside timed regions (what the traced wall adds up).
    """

    wall: float
    units: int
    unit_seconds: float
    latencies: List[float]
    timed: float
    attempted: int = 0
    #: ``wall`` as wall-clock seconds when the workload is timed on a
    #: :class:`SpeedClock` (logged for comparison).
    raw_wall: float = 0.0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class Workload:
    """Interface of a workload (see the four ``*_workload`` modules)."""

    name = ""
    #: Percentile reported as ``tail_ms``: a high one with at least ten
    #: samples beyond it in a run, placed inside one cluster of this
    #: workload's latencies so that it does not jump between clusters.
    tail_percentile = 90
    #: Time this workload's timed regions on a :class:`SpeedClock` (in
    #: reference-machine seconds); on only where it measurably lowers the
    #: spread, and only for single-threaded work in the main thread.
    normalise = False

    def __init__(self, seed: int, scratch: Path, tracer: tracing.Tracer) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        #: Set by the harness on untraced runs of a ``normalise`` workload.
        self.clock: Optional[SpeedClock] = None

    def inputs_digest(self) -> str:
        """Digest of the generated inputs (cells, requests) for this seed."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (idempotent)."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed input generation that needs the program (records to serve)."""

    def finish(self) -> List[str]:
        """Checks that need the whole run; returns problems found."""
        return []

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer values read from the program's own registries/journal."""
        return {}

    def timed(self) -> "_Timed":
        """Context for a timed region: spans are recorded only inside it."""
        return _Timed(self.tracer, self.clock)


class _Timed:
    """Measures a timed region; spans record only inside one, and only
    while the harness has armed the tracer for the traced passes.

    ``seconds`` is wall time, or reference-machine seconds when the
    workload runs on a :class:`SpeedClock`; ``raw`` is always wall time
    (minus the clock's own samples).
    """

    def __init__(self, tracer: tracing.Tracer, clock: Optional["SpeedClock"] = None) -> None:
        self.tracer = tracer
        self.clock = clock
        self.seconds = 0.0
        self.raw = 0.0
        self._mark = (0.0, 0.0, 0.0)

    def _reading(self) -> Tuple[float, float, float]:
        """(wall, kernel seconds so far, reference seconds so far)."""
        clock = self.clock
        if clock is None:
            return time.perf_counter(), 0.0, 0.0
        clock.sample()
        return time.perf_counter(), clock.excluded, clock.reference

    def split(self) -> float:
        """Seconds since the region started or the last split."""
        wall, excluded, reference = now = self._reading()
        mark = self._mark
        self._mark = now
        raw = wall - mark[0] - (excluded - mark[1])
        return raw if self.clock is None else reference - mark[2]

    def __enter__(self) -> "_Timed":
        if self.clock is not None:
            self.clock.start()
        self.tracer.enabled = self.tracer.armed
        self._mark = self._start = self._reading()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            wall, excluded, reference = self._reading()
            self.tracer.enabled = False
        finally:
            if self.clock is not None:
                self.clock.stop()
        start = self._start
        self.raw = wall - start[0] - (excluded - start[1])
        self.seconds = self.raw if self.clock is None else reference - start[2]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_pins() -> Dict[str, Any]:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> Dict[str, Any]:
    """Python, platform, CPU count, and the checkout's git revision if any."""
    info: Dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_head": None,
        "git_dirty": None,
    }
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0:
            info["git_head"] = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
            )
            info["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    return info


#: Run in a fresh interpreter: ``import repro.cli`` between two timings of
#: a reference, compiling fixed standard-library sources.  Prints the
#: import's seconds and the reference's mean seconds.
IMPORT_PROBE = """
import os, time
stdlib = os.path.dirname(os.__file__)
sources = []
for name in ("argparse.py", "inspect.py", "typing.py", "pathlib.py"):
    with open(os.path.join(stdlib, name), encoding="utf-8") as handle:
        sources.append(handle.read())
def reference():
    started = time.perf_counter()
    for text in sources:
        compile(text, "<reference>", "exec")
    return time.perf_counter() - started
before = reference()
started = time.perf_counter()
import repro.cli
seconds = time.perf_counter() - started
print(seconds, (before + reference()) / 2)
"""

#: Seconds the import probe's reference takes on the reference machine.
IMPORT_REFERENCE_S = 0.07


def import_package() -> float:
    """Seconds to import the CLI in a fresh interpreter (the start-up every
    use pays), scaled to the reference machine.

    A fresh process runs slower or faster with the machine's load, and the
    in-process kernel of :class:`SpeedClock` does not follow it; a reference
    compiled in the same process just before and after the import does, so
    the import is reported as a multiple of it.  Over five-sample windows
    this cut the import's spread from 0.16 to 0.06.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, check=True, timeout=120,
        capture_output=True, text=True,
    ).stdout.split()
    return float(out[0]) / float(out[1]) * IMPORT_REFERENCE_S


def make_scratch() -> Path:
    """A private temp dir inside the checkout; every temp file goes there."""
    base = ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    return scratch


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
#: Seconds the calibration kernel takes on the reference machine (a 2-core
#: x86-64 VM running CPython 3.11, when this benchmark was written).
CALIBRATION_REFERENCE_S = 0.005

#: Seconds between two samples of the kernel inside a timed region.
SAMPLE_INTERVAL_S = 0.1


def _calibration_kernel() -> int:
    """A fixed slice of interpreter work: dict updates, a sort, a sum."""
    table: Dict[int, int] = {}
    for i in range(12_000):
        key = (i * 7919) % 10_007
        table[key] = table.get(key, 0) + i
    return sum(k * v for k, v in sorted(table.items())[::3])


class SpeedClock:
    """Counts work in reference-machine seconds while the machine drifts.

    The machine is shared, and its speed drifts by tens of percent within
    seconds and by up to 2-3x over minutes.  Inside a timed region the
    clock runs the calibration kernel every ``SAMPLE_INTERVAL_S`` (from a
    ``SIGALRM`` handler, so between any two bytecodes of the program) and
    at the region's ends.  Each stretch of work between two samples is
    divided by the mean slowness of the two (kernel seconds / reference
    seconds) and added to ``reference``; the kernel's own seconds go to
    ``excluded`` and never count as the program's time.  The kernel is
    benchmark code, so a change to the package cannot move it.  Only for
    single-threaded work in the main thread: the handler would otherwise
    compete with the program's other threads.
    """

    def __init__(self) -> None:
        self.reference = 0.0
        self.excluded = 0.0
        self.samples: List[float] = []
        self._last: Optional[Tuple[float, float]] = None  # (kernel end, slowness)
        self._previous_handler: Any = None
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a sample taken in line
            return
        self._sampling = True
        # With the collector on, the kernel's allocations would trigger full
        # collections whose cost grows with the workload's own heap.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _calibration_kernel()
            ended = time.perf_counter()
            slow = (ended - started) / CALIBRATION_REFERENCE_S
            if self._last is not None:
                last_end, last_slow = self._last
                self.reference += (started - last_end) / ((last_slow + slow) / 2.0)
            self.excluded += ended - started
            self._last = (ended, slow)
            self.samples.append(slow)
        finally:
            if collecting:
                gc.enable()
            self._sampling = False

    def start(self) -> None:
        self._last = None  # time between regions is not counted
        self._previous_handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
def _timed_passes(workload: Workload, first: int, *, seconds: Optional[float], count: Optional[int]):
    passes: List[PassResult] = []
    deadline = time.perf_counter() + (seconds or 0.0)
    index = first
    while True:
        gc.collect()  # garbage of the last pass is not this pass's cost
        passes.append(workload.run_pass(index))
        index += 1
        if count is not None:
            if len(passes) >= count:
                break
        elif time.perf_counter() >= deadline:
            break
    return passes


def end_to_end(
    workload: Workload, passes: List[PassResult], setup: Tuple[float, float], attempted: int, failed: int
) -> Dict[str, float]:
    latencies = [value for p in passes for value in p.latencies]
    unit_seconds = sum(p.unit_seconds for p in passes)
    log(
        f"[{workload.name}] passes={len(passes)} latency samples={len(latencies)}, "
        f"tail_ms is p{workload.tail_percentile} "
        f"({len(latencies) * (100 - workload.tail_percentile) // 100} samples beyond it); "
        f"set-up: import {setup[0]:.4f}s + workload {setup[1]:.4f}s"
    )
    metrics = {
        "setup_s": setup[0] + setup[1],
        "pass_s": statistics.median(p.wall for p in passes),
        "rate_per_s": sum(p.units for p in passes) / unit_seconds,
        "p50_ms": percentile(latencies, 50) * 1000.0,
        "tail_ms": percentile(latencies, workload.tail_percentile) * 1000.0,
    }
    if workload.clock is not None:
        samples = workload.clock.samples
        log(f"[{workload.name}] reference-machine seconds: median slowness "
            f"{statistics.median(samples):.4f} over {len(samples)} samples; wall pass_s "
            f"{statistics.median(p.raw_wall for p in passes):.4f}")
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["success_frac"] = 1.0 - failed / attempted
    return metrics


def run_workload(
    factory: Callable[..., Workload], seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """One run of one workload; returns the result object to print."""
    scratch = make_scratch()
    tracer = tracing.Tracer()
    checks: List[Optional[str]] = []  # run-level checks: None = passed
    try:
        workload = factory(seed, scratch, tracer)
        first = workload.inputs_digest()
        checks.append(None if workload.inputs_digest() == first else "inputs are not deterministic")
        if seed == DEFAULT_SEED:
            pinned = load_pins()["inputs"].get(workload.name)
            checks.append(None if first == pinned else f"inputs digest {first} != pinned {pinned}")
        log(f"[{workload.name}] seed={seed} inputs digest {first}")
        workload.prepare()
        if workload.normalise and not trace:
            workload.clock = SpeedClock()
        imports: List[float] = []
        setups: List[float] = []
        try:
            for rep in range(SETUP_REPS):
                if rep:
                    workload.teardown()
                imports.append(import_package())
                started = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - started)
            setup = (statistics.median(imports), statistics.median(setups))
            if trace:
                layers, passes = _traced(workload, seconds)
            else:
                passes = _timed_passes(workload, 0, seconds=seconds, count=None)
            found = workload.finish()
            checks.append("; ".join(found) if found else None)
        finally:
            workload.teardown()
    finally:
        remove_scratch(scratch)
    problems = [problem for p in passes for problem in p.problems]
    problems += [check for check in checks if check is not None]
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + sum(check is not None for check in checks)
    for problem in problems[:20]:
        log(f"[check failed] {problem}")
    if trace:
        metrics = dict(layers, failed_frac=failed / attempted)
    else:
        metrics = end_to_end(workload, passes, setup, attempted, failed)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def _traced(workload: Workload, seconds: float):
    """Untraced passes for half the budget, then the same passes traced."""
    from repro.obs.metrics import MetricsRegistry, set_registry

    passes = [workload.run_pass(0)]  # warm-up: process caches fill first
    plain = _timed_passes(workload, 1, seconds=seconds / 2.0, count=None)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    shims = tracing.install(workload.tracer)
    workload.tracer.armed = True
    try:
        traced = _timed_passes(workload, 1, seconds=None, count=len(plain))
    finally:
        workload.tracer.armed = workload.tracer.enabled = False
        shims.remove()
        set_registry(previous)
    wall_plain = sum(p.timed for p in plain)
    wall_traced = sum(p.timed for p in traced)
    extras = workload.layer_extras()
    extras["store.bytes_written"] = registry.counter(
        "repro_store_bytes_written_total", "Shard and index bytes appended"
    ).value()
    metrics = layer_metrics(workload.tracer, wall_traced, extras)
    metrics["trace_overhead_frac"] = wall_traced / wall_plain - 1.0
    log(f"[{workload.name}] traced {len(traced)} passes: {wall_traced:.2f}s vs {wall_plain:.2f}s untraced")
    return metrics, passes + plain + traced


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Layers, named after the package's modules; each reports ``<layer>.self_s``.
LAYERS = (
    "cli", "analysis", "runtime", "graphs", "core", "sim", "teams",
    "exploration", "ticksim", "store", "serve", "distrib",
)

#: Routes of the serve workload (``serve.<route>.{calls,p50_ms,s}``).
ROUTES = ("experiment", "not_modified", "run", "runs", "write")


def layer_metrics(tracer: tracing.Tracer, wall: float, extras: Dict[str, float]) -> Dict[str, float]:
    spans = tracer.spans()
    counters = tracer.counters()

    def calls(name: str) -> float:
        return float(spans.get(name, (0, 0.0, 0.0))[0])

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    out: Dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        value = sum(entry[2] for name, entry in spans.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = value
        attributed += value
    out["traced_wall_s"] = wall
    out["unattributed_s"] = wall - attributed
    for op in ("run", "spec_key", "record_decode", "record_encode"):
        out[f"runtime.{op}.calls"] = calls(f"runtime.{op}")
        out[f"runtime.{op}.s"] = total(f"runtime.{op}")
    out["runtime.run.self_s"] = own("runtime.run")
    out["graphs.build.calls"] = calls("graphs.build")
    out["graphs.build.s"] = total("graphs.build")
    engine_s = 0.0
    decisions = 0.0
    for loop in ("fused", "generic"):
        seconds = total(f"sim.engine.{loop}")
        made = counters.get(f"sim.engine.{loop}.decisions", 0)
        out[f"sim.engine.{loop}.decisions_per_s"] = rate(made, seconds)
        engine_s += seconds
        decisions += made
    out["sim.engine.s"] = engine_s
    out["sim.engine.decisions"] = decisions
    out["core.rendezvous.self_s"] = own("core.rendezvous")
    out["exploration.esst.s"] = total("exploration.esst")
    out["exploration.esst.traversals_per_s"] = rate(
        counters.get("exploration.esst.traversals", 0), total("exploration.esst")
    )
    out["exploration.cost_model.calls"] = calls("exploration.cost_model")
    out["exploration.cost_model.s"] = total("exploration.cost_model")
    out["ticksim.engine.s"] = total("ticksim.engine")
    out["ticksim.ticks"] = counters.get("ticksim.ticks", 0)
    out["store.open.s"] = total("store.open")
    for op in ("refresh", "generation", "get", "put"):
        out[f"store.{op}.calls"] = calls(f"store.{op}")
        out[f"store.{op}.s"] = total(f"store.{op}")
    for op in ("get_many", "flush", "query"):
        out[f"store.{op}.s"] = total(f"store.{op}")
    hits = counters.get("store.get.hit", 0)
    lookups = hits + counters.get("store.get.miss", 0)
    out["store.hit_ratio"] = hits / lookups if lookups else 0.0
    for op in ("aggregate", "render", "experiment_spec"):
        out[f"analysis.{op}.s"] = total(f"analysis.{op}")
    for route in ROUTES:
        name = f"serve.{route}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.p50_ms"] = percentile(tracer.samples(name), 50) * 1000.0
        out[f"{name}.s"] = total(name)
    out["serve.http_overhead_s"] = own("serve.http")
    out["distrib.dispatch.s"] = total("distrib.dispatch")
    out["distrib.collect_s"] = total("distrib.collect")
    for name in EXTRAS:
        out[name] = float(extras.get(name, 0.0))
    return out


#: Per-layer values a workload reads from the program's own state (the
#: serve registry, the queue journal); 0 on workloads that have none.
EXTRAS = (
    "store.bytes_written",
    "serve.render_cache.hit_ratio",
    "distrib.units",
    "distrib.claims",
    "distrib.steals",
    "distrib.worker_start_s",
    "distrib.claim_wait_s",
    "distrib.unit_exec_s",
    "distrib.useful_claim_ratio",
    "obs.journal.events",
    "obs.journal.bytes",
)
