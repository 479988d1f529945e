"""Tests of the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.runtime import ScenarioSpec, SweepSpec


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rendezvous_defaults(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        assert main(["run", "rendezvous", "--set", "labels=[6,11]", "--dump-spec", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote scenario spec to {path}\n"
        spec = ScenarioSpec.from_json(path.read_text(encoding="utf-8"))
        assert spec.family == "ring"
        assert spec.size == 6
        assert spec.labels == (6, 11)
        assert spec.scheduler == "round_robin"
        assert spec.problem == "rendezvous"

    def test_experiment_flags(self):
        args = build_parser().parse_args(["experiment", "e3", "F1", "--format", "csv"])
        assert args.names == ["e3", "F1"]
        assert args.format == "csv"
        assert args.resume is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "e3", "--format", "xml"])

    def test_experiment_unknown_name_fails_at_runtime_with_the_registry_error(self, capsys):
        assert main(["experiment", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCommands:
    def test_rendezvous_command_meets(self, capsys):
        code = main(
            ["run", "rendezvous", "--set", "family=ring", "--set", "size=6",
             "--set", "labels=[5,12]"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "RV-asynch-poly" in captured.out
        assert "meeting" in captured.out

    def test_rendezvous_baseline_flag(self, capsys):
        code = main(
            ["run", "baseline", "--set", "family=ring", "--set", "size=5",
             "--set", "labels=[1,2]"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "baseline" in captured.out

    @pytest.mark.parametrize("seeds", [pytest.param("[]", id="0"), "-2"])
    @pytest.mark.parametrize("command", ["sweep", "queue-dispatch"])
    def test_grid_without_seeds_exits_2(self, tmp_path, capsys, command, seeds):
        queue = tmp_path / "q"
        argv = {
            "sweep": ["sweep", "--quiet"],
            "queue-dispatch": ["queue", "dispatch", "--queue", str(queue)],
        }[command]
        assert main(argv + ["--set", f"seeds={seeds}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == {
            "[]": "error: SweepSpec field 'seeds' is empty: the sweep has no cells\n",
            "-2": "error: SweepSpec field 'seeds' takes a list, got -2\n",
        }[seeds]
        assert not queue.exists()

    def test_esst_command(self, capsys):
        code = main(["run", "esst", "--set", "family=ring", "--set", "size=4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "all edges traversed: True" in captured.out

    def test_experiment_f1(self, capsys):
        code = main(["experiment", "f1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Figure 1" in captured.out

    def test_experiment_e3(self, capsys):
        code = main(["experiment", "e3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "baseline_bound" in captured.out

    def test_experiment_several_names_at_once(self, capsys):
        code = main(["experiment", "f1", "e3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Figure 1" in captured.out and "baseline_bound" in captured.out

    def test_experiment_list(self, capsys):
        code = main(["experiment", "--list"])
        captured = capsys.readouterr()
        assert code == 0
        for name in ("E1", "E6", "F1", "bounds"):
            assert name in captured.out

    def test_experiment_without_names_errors(self, capsys):
        assert main(["experiment"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_experiment_csv_and_json_formats(self, capsys):
        assert main(["experiment", "e3", "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.splitlines()[0] == "n,label,label_length,rv_bound,baseline_bound"
        assert main(["experiment", "e3", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["columns"][0] == "n"

    def test_experiment_spec_file_with_store_warm_pass_executes_nothing(
        self, tmp_path, capsys
    ):
        from repro.analysis.experiment_spec import experiment_spec

        spec = experiment_spec("E3", sizes=(2, 4), labels=(1, 2))
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(spec.to_json(), encoding="utf-8")
        store = str(tmp_path / "store")
        args = ["experiment", "--spec", str(spec_file), "--store", store, "--format", "json"]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "executed 4" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert "cached 4, executed 0" in warm.err
        assert cold.out == warm.out

    @pytest.mark.sgl
    def test_teams_command(self, capsys):
        code = main(
            ["run", "teams", "--set", "family=ring", "--set", "size=4",
             "--set", "team_size=2", "--set", "max_traversals=4000000"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "outputs correct: True" in captured.out
        assert "leader" in captured.out

    def test_tick_leader_prints_the_consensus_lines(self, capsys):
        code = main(
            ["run", "tick_leader", "--set", "size=8",
             "--set", 'problem_params={"interleaving": "random", "fault_rate": 0.25, '
             '"crash_window": 8}']
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "graph: ring(8) (8 nodes, 8 edges)",
            "interleaving: random; fault_rate=0.25 drop_rate=0.0",
            "stopped: done after 6 ticks (48 activations)",
            "messages: 48 sent, 0 dropped; moves: 0",
            "consensus: True (leaders: 1, agreed: True, leader label: 17)",
            "tick snapshots: 6 recorded",
            "ok: True",
        ]

    @pytest.mark.parametrize("problem", ["bounds", "figures"])
    def test_kinds_without_a_printer_get_the_generic_one(self, tmp_path, capsys, problem):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"problem": problem, "labels": [5]}), encoding="utf-8")
        assert main(["run", "--spec", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"problem: {problem}"
        assert lines[1].startswith(f"result: reason={problem}, cost=")
        assert lines[2] == "ok: True"
        assert not any(line.startswith(("graph:", "algorithm:")) for line in lines)


class TestRunSet:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "rendezvous", "--set", "bogus=1"], "unknown ScenarioSpec fields"),
            (["run", "rendezvous", "--set", "size"], "--set expects FIELD=VALUE"),
            (["run", "rendezvous", "--spec", "x.json"], "exactly one of PROBLEM or --spec"),
            (["run"], "exactly one of PROBLEM or --spec"),
            (["run", "rendezvous", "--set", "size=abc"], "invalid scenario spec"),
            (
                ["run", "tick_leader", "--set",
                 'problem_params={"interleaving": "random", '
                 '"interleaving_params": {"patience": 5}}'],
                "bad parameters for interleaver 'random'",
            ),
        ],
    )
    def test_bad_runs_exit_2_with_one_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    def test_values_parse_as_json_else_as_strings(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        argv = ["run", "esst", "--set", "family=path", "--set", "token_edge=[2,1]",
                "--set", "token_fraction=1/3", "--set", 'problem_params={"k": 2}',
                "--dump-spec", str(path)]
        assert main(argv) == 0
        spec = ScenarioSpec.from_json(path.read_text(encoding="utf-8"))
        assert spec == ScenarioSpec(
            problem="esst", family="path", token_edge=(1, 2), token_fraction="1/3",
            problem_params={"k": 2},
        )

    def test_set_overrides_a_field_of_the_loaded_spec(self, tmp_path, capsys):
        source = tmp_path / "in.json"
        source.write_text(
            ScenarioSpec(problem="rendezvous", size=8, labels=(6, 11)).to_json(),
            encoding="utf-8",
        )
        out = tmp_path / "out.json"
        argv = ["run", "--spec", str(source), "--set", "size=4", "--dump-spec", str(out)]
        assert main(argv) == 0
        spec = ScenarioSpec.from_json(out.read_text(encoding="utf-8"))
        assert spec == ScenarioSpec(problem="rendezvous", size=4, labels=(6, 11))
        assert main(["run", "--spec", str(source), "--set", "size=4"]) == 0
        assert "graph: ring(4)" in capsys.readouterr().out

    def test_dump_spec_refuses_an_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        argv = ["run", "rendezvous", "--set", "size=0", "--dump-spec", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: graph size must be positive, got 0\n"
        assert not path.exists()


class TestSweepSet:
    """``sweep`` and ``queue dispatch`` describe their grid as a SweepSpec."""

    ARGV = {
        "sweep": ["sweep", "--quiet"],
        "queue-dispatch": ["queue", "dispatch"],
    }

    def _argv(self, command, tmp_path):
        # Each command gets a directory it would create if it ran a cell.
        where = ["--store", str(tmp_path / "store")] if command == "sweep" else []
        return self.ARGV[command] + ["--queue", str(tmp_path / "q")] + where

    @pytest.mark.parametrize("command", ["sweep", "queue-dispatch"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--set", "families=ring"], "SweepSpec field 'families' takes a list, got 'ring'"),
            (["--set", "bogus=1"], "unknown SweepSpec fields: ['bogus']"),
            (["--set", "sizes"], "--set expects FIELD=VALUE, got 'sizes'"),
            (["--set", 'problems=["nope"]'], "unknown problem 'nope'"),
            (["--set", "sizes=[4,0]"], "graph size must be positive, got 0"),
            (["--set", "label_sets=[6,11]"], "SweepSpec field 'label_sets' entry 6: "),
            (["--unit-size", "0"], "unit_size must be positive, got 0"),
        ],
        ids=[
            "bare-string", "unknown-field", "no-equals", "bad-cell", "bad-size",
            "bad-entry", "unit-size-0",
        ],
    )
    def test_refusals_exit_2_and_create_nothing(
        self, tmp_path, capsys, command, extra, message
    ):
        if command == "sweep" and extra[0] == "--unit-size":
            extra = extra + ["--executor", "queue"]
        assert main(self._argv(command, tmp_path) + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_pool_with_zero_jobs_exits_2(self, tmp_path, capsys):
        argv = self._argv("sweep", tmp_path) + ["--jobs", "0", "--executor", "pool"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a process pool needs at least 1 job, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--set", "sizes=[4]", "--quiet", "--jobs", "-3"],
            ["experiment", "E1", "--jobs", "-3"],
            ["experiment", "E1", "--jobs", "0", "--executor", "pool"],
        ],
        ids=["sweep", "experiment", "experiment-pool"],
    )
    def test_jobs_below_one_exits_2_and_creates_nothing(self, tmp_path, capsys, argv):
        # Intended: `sweep --jobs -3` ran serially and titled its table
        # `jobs=-3`; `experiment` opened its store before the refusal.
        store = tmp_path / "store"
        assert main(argv + ["--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a process pool needs at least 1 job")
        assert captured.err.count("\n") == 1
        assert not store.exists()

    def test_queue_with_zero_jobs_exits_2(self, tmp_path, capsys):
        argv = self._argv("sweep", tmp_path) + ["--jobs", "0", "--executor", "queue"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: queue executor needs at least one worker, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "queue-dispatch"])
    def test_spec_file_with_an_empty_dimension_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"sizes": [4], "seeds": []}), encoding="utf-8")
        argv = self.ARGV[command] + ["--queue", str(tmp_path / "q"), "--spec", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SweepSpec field 'seeds' is empty: the sweep has no cells\n"
        assert not (tmp_path / "q").exists()

    def test_set_overrides_a_field_of_the_loaded_spec(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(SweepSpec(sizes=(4, 6, 8), seeds=(0, 1)).to_json(), encoding="utf-8")
        out = tmp_path / "result.json"
        argv = ["sweep", "--quiet", "--spec", str(path), "--set", "sizes=[4]", "--json", str(out)]
        assert main(argv) == 0
        assert "sweep: 2 cells" in capsys.readouterr().out
        records = json.loads(out.read_text(encoding="utf-8"))["records"]
        assert [(r["spec"]["size"], r["spec"]["seed"]) for r in records] == [(4, 0), (4, 1)]
        queue = str(tmp_path / "q")
        assert main(["queue", "dispatch", "--queue", queue, "--spec", str(path),
                     "--set", "sizes=[4]"]) == 0
        assert capsys.readouterr().out.startswith("dispatched 2 cells")

    def test_bare_sweep_runs_the_default_scenario(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["sweep", "--quiet", "--json", str(out)]) == 0
        records = json.loads(out.read_text(encoding="utf-8"))["records"]
        assert [ScenarioSpec.from_dict(r["spec"]) for r in records] == [ScenarioSpec()]

    @pytest.mark.parametrize("command", ["sweep", "queue-dispatch"])
    def test_help_lists_spec_and_set_but_no_grid_flag(self, capsys, command):
        with pytest.raises(SystemExit):
            main(self.ARGV[command] + ["--help"])
        options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert {"--spec", "--set"} <= options
        grid_flags = {"--problem", "--family", "--sizes", "--schedulers", "--seeds",
                      "--labels", "--team-size", "--max-traversals", "--problem-params"}
        assert not options & grid_flags


class TestObservabilityCli:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {"problem": "rendezvous", "family": "ring", "size": 4, "seed": 0}
            ),
            encoding="utf-8",
        )
        return str(path)

    def test_run_profile_prints_the_span_table(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "% of run" in out and "engine.run" in out
        assert "engine coverage:" in out and "counters:" in out

    @pytest.mark.parametrize("scheduler", ["random", "avoider"])
    def test_run_profile_names_the_loop_it_measured(self, tmp_path, capsys, scheduler):
        # Every adversary runs the one loop, timed as ``engine.fused_loop``:
        # the random adversary, and the meeting-avoiding one that parks
        # agents inside edges.
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {"problem": "rendezvous", "family": "ring", "size": 4, "seed": 0,
                 "scheduler": scheduler}
            ),
            encoding="utf-8",
        )
        assert main(["run", "--spec", str(path), "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(at for at, line in enumerate(lines) if line.startswith("span "))
        end = lines.index("", header)
        spans = {line.split()[0] for line in lines[header + 2:end]}
        assert {"engine.run", "engine.bootstrap", "engine.fused_loop"} <= spans
        assert "scheduler.decide" not in spans
        assert lines[end + 1].startswith("engine coverage:")

    def test_run_trace_attaches_the_payload_to_the_json(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file, "--trace", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        trace = record["extra"]["trace"]
        assert trace["schema"] == 1 and "engine.run" in trace["spans"]

    def test_run_json_profile_keeps_stdout_one_json_document(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file, "--json", "--profile"]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert "engine.run" in record["extra"]["trace"]["spans"]
        assert "% of run" in captured.err and "engine coverage:" in captured.err
        assert "% of run" not in captured.out

    def test_run_without_trace_has_no_trace_key(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert "trace" not in record["extra"]

    def test_metrics_dump_wraps_a_sweep(self, capsys):
        assert main(["metrics", "dump", "sweep", "--set", "sizes=[4]", "--quiet"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("\n{") :])
        assert payload["repro_runs_total"] == {"problem=rendezvous": 1}
        assert payload["repro_sweep_cells_total"]["status=executed"] == 1

    def test_metrics_dump_prom_format(self, capsys):
        assert main(["metrics", "dump", "--format", "prom", "run", "rendezvous", "--set", "size=4"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_runs_total counter" in out
        assert 'repro_runs_total{problem="rendezvous"} 1' in out

    def test_metrics_dump_without_a_command_dumps_an_empty_registry(self, capsys):
        assert main(["metrics", "dump"]) == 0
        assert json.loads(capsys.readouterr().out) == {}

    def test_sweep_trace_attaches_traces_to_stored_records(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert (
            main(["sweep", "--set", "sizes=[4]", "--quiet", "--trace", "--store", store_dir])
            == 0
        )
        from repro.store import FileStore

        with FileStore(store_dir, create=False) as store:
            records = [store.get(key) for key in store.keys()]
        assert records and all("trace" in r.extra_dict for r in records)

    def test_queue_executor_degrades_trace_to_untraced(self, tmp_path, capsys):
        # --trace with the queue executor must not fail the sweep: it warns
        # and runs untraced (tracing is a per-process concern).
        store_dir = str(tmp_path / "store")
        with pytest.warns(RuntimeWarning, match="cannot trace"):
            code = main(
                [
                    "sweep",
                    "--set",
                    "sizes=[4]",
                    "--quiet",
                    "--trace",
                    "--executor",
                    "queue",
                    "--store",
                    store_dir,
                ]
            )
        assert code == 0
        from repro.store import FileStore

        with FileStore(store_dir, create=False) as store:
            records = [store.get(key) for key in store.keys()]
        assert records and all("trace" not in r.extra_dict for r in records)


class TestServeCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8642
        assert args.queue is None and args.unit_size == 4

    def test_serve_end_to_end_over_a_socket(self, tmp_path):
        """repro serve in a thread: banner, /healthz, clean shutdown."""
        import threading
        import urllib.request

        from repro.serve import ResultService, make_server
        from repro.store import FileStore

        with FileStore(tmp_path / "store") as store:
            server = make_server(ResultService(store), port=0)
            thread = threading.Thread(
                target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
            )
            thread.start()
            host, port = server.server_address[:2]
            try:
                with urllib.request.urlopen(f"http://{host}:{port}/healthz") as response:
                    assert json.load(response) == {"ok": True}
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
