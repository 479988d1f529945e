"""``suite``: every registered experiment through ``repro experiment``, cold then warm.

A cycle runs each experiment once into a fresh FileStore (the cold pass,
timed as ``pass_s``) and then re-runs the whole suite ``WARM_PASSES`` times
against it; every warm invocation opens its own store handle and must
execute 0 cells.  Warm invocations are the latency samples, and
``rate_per_s`` is the cells read back per second of warm time.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import re
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

from harness import DEFAULT_SEED, ROOT, PassResult, Workload, digest, load_pins

#: Warm passes after each cold pass.
WARM_PASSES = 10

#: Experiments that keep their default seed, because the seed would change
#: what is measured, not just the inputs.  On about one workload seed in
#: ten, E1's Erdős–Rényi instance makes one cell run for ~18 s instead of
#: ~0.04 s and the cold pass five times longer.  T2's and T3's records grow
#: and shrink with their seeds (the store held 315-365 kB over four seeds),
#: and every warm invocation re-reads the whole store, so their seeds moved
#: the median warm invocation by up to 25%.
FIXED_SEED = ("E1", "T2", "T3")

#: Goldens the cold markdown must equal at the default seed.
GOLDENS = {"E3": "tests/golden/e3_full.txt", "F1": "tests/golden/f1.txt"}

_EXECUTED = re.compile(r"cached (\d+), executed (\d+)")


class SuiteWorkload(Workload):
    name = "suite"
    # E2 is a tenth of the warm invocations and five times slower than the
    # rest, so p90 would sit on that boundary; p75 lies inside a cluster.
    tail_percentile = 75
    # Interpreter work in the main thread (bound arithmetic, the engine,
    # file reads and writes), slowed with the machine as the calibration
    # kernel is (see SpeedClock).
    normalise = True

    def __init__(self, seed, scratch, tracer) -> None:
        super().__init__(seed, scratch, tracer)
        from repro.analysis.experiment_spec import EXPERIMENTS, experiment_spec

        self.specs = {}
        #: Experiments whose spec takes the seed go through ``--spec FILE``.
        self.seeded = set()
        for name in EXPERIMENTS.names():
            if name == "bounds":  # an alias of E3
                continue
            params = inspect.signature(EXPERIMENTS.resolve(name)).parameters
            if name in FIXED_SEED:
                self.specs[name] = experiment_spec(name)
            elif "seed" in params:
                self.specs[name] = experiment_spec(name, seed=seed)
                self.seeded.add(name)
            elif "seeds" in params:
                default = params["seeds"].default
                self.specs[name] = experiment_spec(name, seeds=tuple(s + seed for s in default))
                self.seeded.add(name)
            else:
                self.specs[name] = experiment_spec(name)
        self.cells = {name: len(spec.cell_specs()) for name, spec in self.specs.items()}
        self.spec_files: Dict[str, Path] = {}
        self.pins = load_pins()["suite_markdown"]

    def inputs_digest(self) -> str:
        return digest({name: spec.to_dict() for name, spec in self.specs.items()})

    def setup(self) -> None:
        from repro.store.filestore import FileStore

        spec_dir = self.scratch / "specs"
        spec_dir.mkdir(exist_ok=True)
        for name in self.seeded:
            path = spec_dir / f"{name}.json"
            path.write_text(self.specs[name].to_json(), encoding="utf-8")
            self.spec_files[name] = path
        FileStore(self.scratch / "store-probe").close()

    def teardown(self) -> None:
        shutil.rmtree(self.scratch / "specs", ignore_errors=True)
        shutil.rmtree(self.scratch / "store-probe", ignore_errors=True)

    def _invoke(self, name: str, store: Path) -> Tuple[int, str, str]:
        """Run one ``repro experiment``; returns code, stdout, stderr."""
        import repro.cli as cli

        if name in self.spec_files:
            argv = ["experiment", "--spec", str(self.spec_files[name]), "--store", str(store)]
        else:
            argv = ["experiment", name, "--store", str(store)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, index: int) -> PassResult:
        store = self.scratch / f"store-{index}"
        shutil.rmtree(store, ignore_errors=True)
        # Outputs are checked after their timed region.
        with self.timed() as cold_clock:
            cold = {name: self._invoke(name, store) for name in self.specs}
        warm: List[Tuple[str, Tuple[int, str, str]]] = []
        latencies: List[float] = []
        with self.timed() as warm_clock:
            for _ in range(WARM_PASSES):
                for name in self.specs:
                    warm.append((name, self._invoke(name, store)))
                    latencies.append(warm_clock.split())
        shutil.rmtree(store, ignore_errors=True)
        problems: List[str] = []
        for name, (code, out, err) in cold.items():
            problem = self._check(name, code, err, executed=self.cells[name])
            if problem is None and self.seed == DEFAULT_SEED:
                problem = self._check_pinned(name, out)
            if problem:
                problems.append(f"cold {problem}")
        for name, (code, out, err) in warm:
            problem = self._check(name, code, err, executed=0)
            if problem is None and out != cold[name][1]:
                problem = f"{name}: warm output differs from the cold output"
            if problem:
                problems.append(f"warm {problem}")
        return PassResult(
            wall=cold_clock.seconds,
            units=sum(self.cells[name] for name, _ in warm),
            unit_seconds=warm_clock.seconds,
            latencies=latencies,
            timed=cold_clock.seconds + warm_clock.seconds,
            raw_wall=cold_clock.raw,
            attempted=len(cold) + len(warm),
            failed=len(problems),
            problems=problems,
        )

    def _check(self, name: str, code: int, err: str, *, executed: int):
        if code != 0:
            return f"{name}: exit code {code}: {err.strip()[-200:]}"
        match = _EXECUTED.search(err)
        if match is None or int(match.group(2)) != executed:
            return f"{name}: expected 'executed {executed}', stderr {err.strip()[-200:]!r}"
        return None

    def _check_pinned(self, name: str, out: str):
        golden = GOLDENS.get(name)
        if golden is not None:
            expected = (ROOT / golden).read_text(encoding="utf-8").rstrip("\n") + "\n"
            if out != expected:
                return f"{name}: markdown differs from {golden}"
        got = digest(out)
        if got != self.pins.get(name):
            return f"{name}: markdown digest {got} != pinned {self.pins.get(name)}"
        return None
