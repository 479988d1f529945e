"""Tests of the CLI's result-store surface (sweep --store/--resume, store ls/show/gc)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

SWEEP_ARGS = ["sweep", "--set", "sizes=[4,6]", "--set", "seeds=[0,1]", "--quiet"]


def _sweep(tmp_path, *extra):
    return main(SWEEP_ARGS + ["--store", str(tmp_path / "store")] + list(extra))


class TestParser:
    def test_sweep_store_flags(self):
        args = build_parser().parse_args(["sweep", "--store", "d", "--no-resume"])
        assert args.store == "d" and args.resume is False
        args = build_parser().parse_args(["sweep", "--store", "d"])
        assert args.resume is True

    def test_store_subcommands(self):
        assert build_parser().parse_args(["store", "ls"]).store_command == "ls"
        args = build_parser().parse_args(["store", "show", "abc", "--store", "d"])
        assert args.store_command == "show" and args.key == "abc" and args.store == "d"
        assert build_parser().parse_args(["store", "gc"]).store_command == "gc"


class TestSweepWithStore:
    def test_second_run_executes_zero_cells_and_tables_match(self, tmp_path, capsys):
        assert _sweep(tmp_path) == 0
        first = capsys.readouterr().out
        assert "cached 0/4, executed 4" in first

        assert _sweep(tmp_path) == 0
        second = capsys.readouterr().out
        assert "cached 4/4, executed 0" in second

        def table_of(output):
            lines = output.splitlines()
            start = next(i for i, line in enumerate(lines) if line.startswith("sweep:"))
            return "\n".join(lines[start:-1])

        assert table_of(first) == table_of(second)

    def test_json_outputs_are_byte_identical(self, tmp_path, capsys):
        _sweep(tmp_path, "--json", str(tmp_path / "first.json"))
        _sweep(tmp_path, "--json", str(tmp_path / "second.json"))
        capsys.readouterr()
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_no_resume_reexecutes(self, tmp_path, capsys):
        _sweep(tmp_path)
        capsys.readouterr()
        _sweep(tmp_path, "--no-resume")
        assert "cached 0/4, executed 4" in capsys.readouterr().out

    def test_progress_marks_hits(self, tmp_path, capsys):
        main(SWEEP_ARGS[:-1] + ["--store", str(tmp_path / "store")])  # without --quiet
        capsys.readouterr()
        main(SWEEP_ARGS[:-1] + ["--store", str(tmp_path / "store")])
        out = capsys.readouterr().out
        assert out.count("hit ") == 4


class TestStoreMaintenance:
    @pytest.fixture()
    def store_dir(self, tmp_path, capsys):
        _sweep(tmp_path)
        capsys.readouterr()
        return str(tmp_path / "store")

    def test_ls_lists_records(self, store_dir, capsys):
        assert main(["store", "ls", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "rendezvous" in out and "4 records" in out

    def test_ls_size_range_filters(self, store_dir, capsys):
        assert main(["store", "ls", "--store", store_dir, "--n-max", "4"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "rendezvous" in line]
        assert len(rows) == 2  # two seeds at n=4; the n=6 records are filtered

        assert main(["store", "ls", "--store", store_dir, "--n-min", "5", "--n-max", "6"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "rendezvous" in line]
        assert len(rows) == 2

        assert main(["store", "ls", "--store", store_dir, "--n-min", "7"]) == 0
        out = capsys.readouterr().out
        assert "rendezvous" not in out

    def test_ls_problem_family_scheduler_filters(self, store_dir, capsys):
        assert main(["store", "ls", "--store", store_dir, "--problem", "esst"]) == 0
        assert "rendezvous" not in capsys.readouterr().out
        assert main(["store", "ls", "--store", store_dir, "--family", "ring",
                     "--scheduler", "round_robin"]) == 0
        assert "rendezvous" in capsys.readouterr().out

    def test_ls_filter_flags_parse(self):
        args = build_parser().parse_args(
            ["store", "ls", "--problem", "esst", "--n-min", "4", "--n-max", "8"]
        )
        assert args.problem == "esst" and args.n_min == 4 and args.n_max == 8

    def test_ls_filters(self, store_dir, capsys):
        assert main(["store", "ls", "--store", store_dir, "--problem", "esst"]) == 0
        out = capsys.readouterr().out
        table = out.split("\n\n")[0]
        assert "rendezvous" not in table  # every stored record is filtered out
        assert "4 records" in out  # the stats line still counts the whole store

    def test_show_prints_record_json(self, store_dir, capsys):
        main(["store", "ls", "--store", store_dir])
        prefix = capsys.readouterr().out.splitlines()[4].split()[0]
        assert main(["store", "show", prefix, "--store", store_dir]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["problem"] == "rendezvous"

    def test_show_rejects_unknown_and_ambiguous(self, store_dir, capsys):
        assert main(["store", "show", "zzzz", "--store", store_dir]) == 1
        assert "no stored record" in capsys.readouterr().err
        assert main(["store", "show", "", "--store", store_dir]) == 1
        assert "ambiguous" in capsys.readouterr().err

    def test_gc_reports(self, store_dir, capsys):
        assert main(["store", "gc", "--store", store_dir]) == 0
        assert "kept 4 records" in capsys.readouterr().out

    def test_missing_store_errors(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err


class TestExperimentWithStore:
    def test_experiment_e4_uses_the_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["experiment", "e4", "--store", store]) == 0
        first = capsys.readouterr().out
        assert main(["experiment", "e4", "--store", store]) == 0
        assert capsys.readouterr().out == first
        assert main(["store", "ls", "--store", store]) == 0
        assert "esst" in capsys.readouterr().out
