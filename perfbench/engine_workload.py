"""``engine``: a seeded mix of simulation cells, serially through ``run_sweep``.

Each pass is a fresh seeded mix of four classes: SGL teams under
``round_robin`` (the fused loop) and under ``random`` (the generic loop),
rendezvous under the ``avoider`` adversary with a small traversal budget
and ``on_cost_limit="return"`` (partial advances, some cells stop at the
budget), and Procedure ESST over several families.  None takes more than
about a third of the pass, and the four team cells are its slowest 7%, so
``tail_ms`` (the p95) falls among the round-robin team cells.  No store is
involved.  Every record is checked against the paper's guarantees.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from harness import DEFAULT_SEED, PassResult, Workload, digest, load_pins

#: Team cells under the round-robin adversary: (family, size, team size),
#: fixed and of similar cost so the fused-loop share and the latency tail do
#: not depend on the seed.
ROUND_ROBIN_TEAMS = (("ring", 3, 2), ("path", 3, 2), ("ring", 3, 3))
RENDEZVOUS_CELLS = 30
ESST_CELLS = 20
ESST_FAMILIES = ("ring", "path", "star", "erdos_renyi", "random_tree")
#: Seeded ESST cells have 5-7 nodes; every pass also explores a 9-node
#: path, the largest exploration of the mix, so the peak memory (an
#: exploration allocates its whole walk) does not depend on the seed.
ESST_SIZES = (5, 8)
ESST_ANCHOR = ("path", 9)


class EngineWorkload(Workload):
    name = "engine"
    tail_percentile = 95
    # Pure interpreter work in the main thread, slowed with the machine as
    # the calibration kernel is (see SpeedClock).
    normalise = True

    def __init__(self, seed, scratch, tracer) -> None:
        super().__init__(seed, scratch, tracer)
        self.pins = load_pins()
        self._bounds: Dict[Tuple[str, int, int], int] = {}
        self._models: Dict[str, object] = {}

    def cells(self, index: int) -> list:
        from repro.runtime.spec import ScenarioSpec

        rng = random.Random(f"perfbench-engine:{self.seed}:{index}")
        cells = []
        for family, size, team in ROUND_ROBIN_TEAMS:
            cells.append(ScenarioSpec(
                problem="teams", family=family, size=size, team_size=team,
                scheduler="round_robin", seed=rng.randrange(1000),
                max_traversals=6_000_000,
            ))
        cells.append(ScenarioSpec(
            problem="teams", family=rng.choice(("ring", "path")), size=3, team_size=2,
            scheduler="random", seed=rng.randrange(1000), max_traversals=6_000_000,
        ))
        for _ in range(RENDEZVOUS_CELLS):
            small = rng.randrange(4, 32)
            cells.append(ScenarioSpec(
                problem="rendezvous",
                family=rng.choice(("ring", "path", "erdos_renyi", "random_tree")),
                size=rng.randrange(10, 17),
                seed=rng.randrange(1000),
                labels=(small, rng.randrange(small + 1, 64)),
                scheduler="avoider",
                scheduler_params={"patience": rng.choice((32, 64, 128))},
                max_traversals=rng.choice((200, 500, 1000)),
                on_cost_limit="return",
            ))
        cells.append(ScenarioSpec(problem="esst", family=ESST_ANCHOR[0], size=ESST_ANCHOR[1]))
        for _ in range(ESST_CELLS):
            cells.append(ScenarioSpec(
                problem="esst",
                family=rng.choice(ESST_FAMILIES),
                size=rng.randrange(*ESST_SIZES),
                seed=rng.randrange(1000),
            ))
        rng.shuffle(cells)
        return cells

    def inputs_digest(self) -> str:
        return digest([[cell.to_dict() for cell in self.cells(index)] for index in range(3)])

    def setup(self) -> None:
        from repro.runtime.runner import build_graph

        for cell in self.cells(0):
            cell.validate()
            build_graph(cell)

    def run_pass(self, index: int) -> PassResult:
        from repro.runtime.executors import run_sweep

        cells = self.cells(index)
        latencies: List[float] = []
        with self.timed() as clock:
            records = run_sweep(cells, progress=lambda *_: latencies.append(clock.split())).records
        problems = [problem for record in records for problem in self._oracle(record)]
        if len(records) != len(cells):
            problems.append(f"{len(records)} records for {len(cells)} cells")
        if index == 0 and self.seed == DEFAULT_SEED:
            got = digest([record.to_dict() for record in records])
            if got != self.pins["engine_records"]:
                problems.append(f"records digest {got} != pinned {self.pins['engine_records']}")
        return PassResult(
            wall=clock.seconds,
            units=len(records),
            unit_seconds=clock.seconds,
            latencies=latencies,
            timed=clock.seconds,
            raw_wall=clock.raw,
            attempted=len(cells),
            failed=len(problems),
            problems=problems,
        )

    def _pi(self, model: str, n: int, label_length: int) -> int:
        key = (model, n, label_length)
        if key not in self._bounds:
            if model not in self._models:
                from repro.runtime.registry import COST_MODELS

                self._models[model] = COST_MODELS.create(model)
            self._bounds[key] = self._models[model].pi_bound(n, label_length)
        return self._bounds[key]

    def _oracle(self, record) -> List[str]:
        """The paper's guarantee for the record's problem kind."""
        spec = record.spec
        extra = record.extra_dict
        where = f"{spec.problem} {spec.family} n={record.graph_size} seed={spec.seed}"
        if spec.problem == "teams":
            labels = extra.get("team_labels") or ()
            if not record.ok or extra.get("leader") != min(labels, default=None):
                return [f"{where}: team not solved (ok={record.ok}, leader={extra.get('leader')})"]
        elif spec.problem == "esst":
            if not record.ok or extra.get("final_phase", 0) > 9 * record.graph_size + 3:
                return [f"{where}: ESST final phase {extra.get('final_phase')} / ok={record.ok}"]
        elif spec.problem == "rendezvous" and record.reason == "meeting":
            bound = self._pi(spec.cost_model, record.graph_size, min(spec.labels).bit_length())
            if record.cost > bound:
                return [f"{where}: cost {record.cost} exceeds Pi = {bound}"]
        return []
