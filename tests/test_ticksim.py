"""Tests of the tick-asynchronous subsystem: interleavers, faults, engine,
problem kinds, the sweep grid dimension, and cross-executor determinism."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ReproError
from repro.runtime import INTERLEAVERS, ScenarioSpec, SweepSpec
from repro.runtime.executors import (
    ProcessPoolExecutor,
    SerialExecutor,
    run_sweep,
)
from repro.runtime.runner import build_graph, run
from repro.store import MemoryStore
from repro.ticksim import (
    DataCollector,
    FaultPlan,
    TickAgent,
    TickEngine,
    TICKS_SCHEMA_VERSION,
)


def _spec(problem="tick_leader", **overrides):
    overrides.setdefault("family", "ring")
    overrides.setdefault("size", 6)
    return ScenarioSpec(problem=problem, **overrides)


# ----------------------------------------------------------------------
# interleavers
# ----------------------------------------------------------------------
class TestInterleavers:
    def test_synchronous_activates_everyone_in_id_order(self):
        model = INTERLEAVERS.create("synchronous")
        assert model.order(1, [0, 1, 2]) == [0, 1, 2]
        assert model.order(2, [0, 2]) == [0, 2]

    def test_round_robin_activates_one_per_tick(self):
        model = INTERLEAVERS.create("round_robin")
        assert [model.order(t, [0, 1, 2]) for t in (1, 2, 3, 4)] == (
            [[0], [1], [2], [0]]
        )

    def test_random_is_deterministic_in_the_seed(self):
        orders = [
            [INTERLEAVERS.create("random", seed=7).order(t, list(range(5))) for t in (1, 2)]
            for _ in range(2)
        ]
        assert orders[0] == orders[1]
        assert INTERLEAVERS.create("random", seed=8).order(1, list(range(5))) != orders[
            0
        ][0] or INTERLEAVERS.create("random", seed=8).order(2, list(range(5))) != orders[
            0
        ][1]

    def test_lag_starves_the_victim_for_patience_ticks(self):
        model = INTERLEAVERS.create("lag", patience=2)
        assert model.order(1, [0, 1, 2]) == [1, 2]
        assert model.order(2, [0, 1, 2]) == [1, 2]
        # Released last after the starvation window; then the victim rotates.
        assert model.order(3, [0, 1, 2]) == [1, 2, 0]
        assert model.order(4, [0, 1, 2]) == [0, 2]


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_fault_rate_draws_are_deterministic(self):
        plans = [
            FaultPlan.from_params(
                {"fault_rate": 0.5}, n_agents=8, seed=3, max_ticks=100
            )
            for _ in range(2)
        ]
        assert plans[0].crash_tick_of == plans[1].crash_tick_of
        assert plans[0].crash_tick_of  # 8 agents at 0.5: astronomically unlikely empty

    def test_crash_window_bounds_the_drawn_ticks(self):
        plan = FaultPlan.from_params(
            {"fault_rate": 1.0, "crash_window": 5}, n_agents=20, seed=0, max_ticks=1000
        )
        assert set(plan.crash_tick_of) == set(range(20))
        assert all(1 <= tick <= 5 for tick in plan.crash_tick_of.values())

    def test_crash_at_requires_string_keys(self):
        with pytest.raises(ReproError, match="string"):
            FaultPlan.from_params(
                {"crash_at": {2: 5}}, n_agents=4, seed=0, max_ticks=10
            )

    def test_crash_at_overrides_fault_rate_draws(self):
        plan = FaultPlan.from_params(
            {"fault_rate": 1.0, "crash_at": {"0": 99}},
            n_agents=2,
            seed=0,
            max_ticks=100,
        )
        assert plan.crash_tick_of[0] == 99
        assert plan.crashes_at_tick(0, 99) and not plan.crashes_at_tick(0, 98)

    def test_activation_limit_and_rate_validation(self):
        plan = FaultPlan.from_params(
            {"crash_after_activations": {"1": 3}}, n_agents=2, seed=0, max_ticks=10
        )
        assert not plan.crashes_on_activation(1, 2)
        assert plan.crashes_on_activation(1, 3)
        with pytest.raises(ReproError, match="fault_rate"):
            FaultPlan.from_params({"fault_rate": 1.5}, n_agents=2, seed=0, max_ticks=10)
        with pytest.raises(ReproError, match="crash_window"):
            FaultPlan.from_params(
                {"crash_window": 0}, n_agents=2, seed=0, max_ticks=10
            )

    def test_unknown_agent_in_crash_at_is_rejected(self):
        with pytest.raises(ReproError, match="names agent 9"):
            FaultPlan.from_params(
                {"crash_at": {"9": 1}}, n_agents=4, seed=0, max_ticks=10
            )


# ----------------------------------------------------------------------
# data collector
# ----------------------------------------------------------------------
class TestDataCollector:
    def test_payload_shape_and_cadence(self):
        collector = DataCollector(max_records=10, every=2)
        for tick in (1, 2, 3, 4):
            collector.collect(tick, [0], {0: {"node": tick}})
        payload = collector.payload()
        assert payload["schema"] == TICKS_SCHEMA_VERSION
        assert payload["every"] == 2
        assert [entry["tick"] for entry in payload["ticks"]] == [2, 4]
        assert payload["ticks"][0]["agents"] == {"0": {"node": 2}}
        assert payload["ticks_dropped"] == 0

    def test_cap_counts_dropped_snapshots(self):
        collector = DataCollector(max_records=2)
        for tick in (1, 2, 3, 4, 5):
            collector.collect(tick, [], {})
        payload = collector.payload()
        assert len(payload["ticks"]) == 2 and payload["ticks_dropped"] == 3


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class _Echo(TickAgent):
    """Broadcast once, then collect everything it hears."""

    def __init__(self, agent_id, node):
        super().__init__(agent_id, node)
        self.heard = []
        self.sent = False

    def on_activate(self, ctx):
        self.heard.extend(ctx.receive())
        if not self.sent:
            ctx.broadcast(("hello", self.id))
            self.sent = True


class TestTickEngine:
    def _engine(self, agents, interleaving="synchronous", max_ticks=50, **params):
        spec = _spec()
        graph = build_graph(spec)
        return TickEngine(
            graph,
            agents,
            interleaver=INTERLEAVERS.create(interleaving, seed=0, **params),
            faults=FaultPlan.from_params({}, n_agents=len(agents), seed=0, max_ticks=max_ticks),
            max_ticks=max_ticks,
        )

    def test_mail_accumulates_for_starved_agents(self):
        # Under "lag" agent 0 is starved for 10 ticks while its neighbours
        # broadcast; once released it must see *all* the mail at once.
        agents = [_Echo(index, index) for index in range(3)]
        engine = self._engine(agents, interleaving="lag", patience=10)
        engine.run()
        # Agents 1 and 2 each broadcast once; agent 0 sits between nodes
        # 1 and 5 on a 6-ring, so only agent 1's greeting reaches node 0.
        assert ("hello", 1) in agents[0].heard

    def test_halted_agents_quiesce_the_run(self):
        class Halter(TickAgent):
            def on_activate(self, ctx):
                ctx.halt()

        result = self._engine([Halter(0, 0), Halter(1, 1)]).run()
        assert result.reason == "quiescent"
        assert result.activations == 2

    def test_tick_limit_is_the_fallback_reason(self):
        class Spinner(TickAgent):
            def on_activate(self, ctx):
                pass

        class Walker(TickAgent):
            def on_activate(self, ctx):
                ctx.move(ctx.tick % ctx.degree)

        result = self._engine([Spinner(0, 0)], max_ticks=7).run()
        assert result.reason == "tick_limit" and result.ticks == 7
        # Walkers with no goal also spend the whole budget.
        walkers = [Walker(index, index) for index in range(3)]
        result = self._engine(walkers, interleaving="random", max_ticks=7).run()
        assert result.reason == "tick_limit" and result.ticks == 7
        assert result.activations > 0

    def test_crash_clears_the_inbox_and_stops_activation(self):
        agents = [_Echo(index, index) for index in range(2)]
        spec = _spec()
        graph = build_graph(spec)
        engine = TickEngine(
            graph,
            agents,
            interleaver=INTERLEAVERS.create("synchronous"),
            faults=FaultPlan.from_params(
                {"crash_at": {"1": 2}}, n_agents=2, seed=0, max_ticks=10
            ),
            max_ticks=10,
        )
        result = engine.run()
        assert result.crashed == (1,)
        assert not agents[1].alive and agents[1].inbox == []
        assert agents[1].heard == []  # crashed before it could drain tick-2 mail

    def test_duplicate_ids_and_empty_teams_are_rejected(self):
        spec = _spec()
        graph = build_graph(spec)
        with pytest.raises(ReproError, match="duplicate"):
            TickEngine(
                graph,
                [_Echo(0, 0), _Echo(0, 1)],
                interleaver=INTERLEAVERS.create("synchronous"),
                faults=FaultPlan.from_params({}, n_agents=2, seed=0, max_ticks=10),
            )
        with pytest.raises(ReproError, match="at least one"):
            TickEngine(
                graph,
                [],
                interleaver=INTERLEAVERS.create("synchronous"),
                faults=FaultPlan.from_params({}, n_agents=0, seed=0, max_ticks=10),
            )


# ----------------------------------------------------------------------
# problem kinds
# ----------------------------------------------------------------------
class TestTickProblems:
    def test_leader_election_reaches_consensus(self):
        record = run(_spec("tick_leader"))
        extra = record.extra_dict
        assert record.ok and extra["consensus"]
        # Highest default label on a 6-ring: 3 + 2*5.
        assert extra["leader"] == 13 and extra["leaders"] == 1
        assert extra["ticks"]["schema"] == TICKS_SCHEMA_VERSION
        assert len(extra["ticks"]["ticks"]) == record.cost

    def test_leader_crash_of_the_top_label_breaks_consensus(self):
        # Agent 5 holds the maximum label.  Crashed at tick 2 — after its
        # label started flooding — the survivors all agree on 13, but the
        # agent claiming it is dead: zero leaders, no consensus.
        record = run(
            _spec("tick_leader", problem_params={"crash_at": {"5": 2}})
        )
        extra = record.extra_dict
        assert not record.ok and not extra["consensus"]
        assert extra["leaders"] == 0 and extra["crashed"] == (5,)
        assert extra["agreed"]  # everyone alive agrees on the ghost's label

    def test_leader_crash_before_speaking_elects_the_runner_up(self):
        # Crashed at tick 1 the top label never enters the network; the
        # survivors elect the next-highest label instead.
        record = run(
            _spec("tick_leader", problem_params={"crash_at": {"5": 1}})
        )
        extra = record.extra_dict
        assert record.ok and extra["consensus"]
        assert extra["leader"] == 11 and extra["crashed"] == (5,)

    def test_gossip_covers_a_clean_ring(self):
        record = run(_spec("tick_gossip"))
        extra = record.extra_dict
        assert record.ok and extra["covered"]
        assert extra["informed"] == extra["alive"] == 6

    def test_gathering_tolerates_a_crash(self):
        record = run(
            _spec(
                "tick_gathering",
                seed=1,
                team_size=3,
                problem_params={"fault_rate": 0.25, "crash_window": 20, "max_ticks": 2000},
            )
        )
        extra = record.extra_dict
        assert extra["team_size"] == 3
        assert extra["alive"] + len(extra["crashed"]) == 3
        assert record.ok and extra["gathered"]

    def test_record_ticks_false_omits_the_payload(self):
        record = run(_spec("tick_leader", problem_params={"record_ticks": False}))
        assert record.extra_dict["ticks"] is None

    def test_fault_params_change_the_spec_key(self):
        # Fault injection is declarative, so faulty runs are separately
        # content-addressable: same scenario, different fault spec, new key.
        clean = _spec("tick_leader")
        faulty = _spec("tick_leader", problem_params={"fault_rate": 0.25})
        assert clean.key() != faulty.key()
        assert faulty.key() == _spec(
            "tick_leader", problem_params={"fault_rate": 0.25}
        ).key()

    def test_leader_label_validation(self):
        with pytest.raises(ReproError, match="one label per node"):
            run(_spec("tick_leader", labels=(1, 2)))
        with pytest.raises(ReproError, match="distinct"):
            run(_spec("tick_leader", labels=(1, 1, 2, 3, 4, 5)))


# ----------------------------------------------------------------------
# the sweep grid dimension
# ----------------------------------------------------------------------
class TestProblemParamSets:
    def test_grid_multiplies_and_round_trips(self):
        sweep = SweepSpec(
            problems=("tick_leader",),
            sizes=(4, 6),
            seeds=(0,),
            problem_param_sets=({}, {"fault_rate": 0.25}),
        )
        assert len(sweep) == 4
        cells = list(sweep.cells())
        assert len(cells) == 4
        assert {cell.problem_kwargs.get("fault_rate", 0.0) for cell in cells} == {
            0.0,
            0.25,
        }
        rebuilt = SweepSpec.from_json(sweep.to_json())
        assert [cell.key() for cell in rebuilt.cells()] == [
            cell.key() for cell in cells
        ]

    def test_default_param_set_changes_nothing(self):
        plain = SweepSpec(sizes=(4,), seeds=(0, 1))
        explicit = SweepSpec(sizes=(4,), seeds=(0, 1), problem_param_sets=((),))
        assert [cell.key() for cell in plain.cells()] == [
            cell.key() for cell in explicit.cells()
        ]

    def test_store_query_problem_is_a_prefix_match(self):
        store = MemoryStore()
        store.put(run(_spec("tick_leader", size=4)))
        store.put(run(_spec("tick_gossip", size=4)))
        store.put(run(ScenarioSpec(problem="esst", family="ring", size=4)))
        assert len(store.query(problem="tick")) == 2
        assert len(store.query(problem="tick_gossip")) == 1
        assert len(store.query(problem="esst")) == 1
        assert len(store.query(problem="es")) == 1


# ----------------------------------------------------------------------
# the T-series experiments
# ----------------------------------------------------------------------
class TestTickExperiments:
    def test_t_series_is_registered_and_valid(self):
        from repro.analysis.experiment_spec import experiment_spec

        for name, cells in (("T1", 20), ("T2", 30), ("T3", 20)):
            spec = experiment_spec(name)
            spec.validate()
            assert len(spec.cell_specs()) == cells

    def test_t1_renders_warm_from_the_store_without_executing(self):
        from repro.analysis.experiment_spec import (
            aggregate_from_store,
            run_experiment,
        )

        store = MemoryStore()
        cold = run_experiment("T1", store=store)
        warm = aggregate_from_store("T1", store)
        assert warm.render("json") == cold.render("json")
        fault_free = [row for row in warm.rows if row["fault_rate"] == 0.0]
        assert fault_free and all(row["consensus"] for row in fault_free)


# ----------------------------------------------------------------------
# satellite: cross-executor determinism
# ----------------------------------------------------------------------
class TestDeterminismAcrossExecutors:
    #: A grid that exercises interleaving, crashes and message drops at once.
    SWEEP = SweepSpec(
        problems=("tick_leader",),
        sizes=(4, 6),
        seeds=(0, 1),
        problem_param_sets=(
            {"interleaving": "random", "fault_rate": 0.25, "crash_window": 8, "max_ticks": 200},
        ),
        name="ticksim-determinism",
    )

    def _run(self, executor):
        return [record.to_json() for record in run_sweep(self.SWEEP, executor=executor)]

    def test_serial_pool_and_queue_records_are_byte_identical(self):
        serial = self._run(SerialExecutor())
        assert self._run(ProcessPoolExecutor(max_workers=2)) == serial
        from repro.distrib import QueueExecutor

        assert self._run(QueueExecutor(workers=2)) == serial
        # The payload includes the per-tick snapshots, not just the summary,
        # and the records come back in cell order under every executor.
        payloads = [json.loads(text) for text in serial]
        assert all(body["extra"]["ticks"]["ticks"] for body in payloads)
        assert [body["spec"] for body in payloads] == [
            cell.to_dict() for cell in self.SWEEP.cells()
        ]


# ----------------------------------------------------------------------
# satellite: trace degradation on the queue executor
# ----------------------------------------------------------------------
class TestTraceDegradation:
    def test_run_sweep_warns_and_runs_untraced(self):
        from repro.distrib import QueueExecutor

        with pytest.warns(RuntimeWarning, match="cannot trace"):
            result = run_sweep(
                SweepSpec(sizes=(4,), name="trace-degrade"),
                executor=QueueExecutor(workers=1),
                trace=True,
            )
        assert len(result) == 1
        assert all("trace" not in record.extra_dict for record in result)

    def test_direct_map_specs_trace_still_raises(self):
        from repro.distrib import QueueExecutor

        with pytest.raises(ReproError, match="cannot trace"):
            QueueExecutor(workers=1).map_specs(
                [ScenarioSpec(family="ring", size=4)], trace=True
            )
