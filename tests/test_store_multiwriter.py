"""Tests of the multi-writer FileStore, store merging and budgeted gc."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import StoreConflictError, StoreError
from repro.runtime import ScenarioSpec, SweepSpec
from repro.runtime.executors import run_sweep
from repro.runtime.records import RunRecord
from repro.runtime.runner import run
from repro.store import FileStore, MemoryStore, merge_stores


def _record(size: int, seed: int = 0) -> RunRecord:
    return run(ScenarioSpec(size=size, seed=seed))


def _snapshot(root: Path) -> dict:
    """``{relative path: (sha256, mtime_ns)}`` of every file under ``root``."""
    return {
        path.relative_to(root).as_posix(): (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            path.stat().st_mtime_ns,
        )
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _tampered_copy(record: RunRecord) -> RunRecord:
    """Same spec (same key), different payload — a divergent computation."""
    return RunRecord(
        spec=record.spec,
        ok=record.ok,
        cost=record.cost + 1,
        reason=record.reason,
        decisions=record.decisions,
        graph_name=record.graph_name,
        graph_size=record.graph_size,
        graph_edges=record.graph_edges,
        extra=record.extra,
    )


class TestWriterNamespaces:
    def test_writers_append_to_their_own_shards(self, tmp_path):
        record = _record(4)
        with FileStore(tmp_path / "s", writer="w1") as store:
            store.put(record)
        shard = tmp_path / "s" / "shards" / f"{record.spec.key()[:2]}--w1.jsonl"
        assert shard.exists()
        # Any reader (no writer namespace) sees the record.
        with FileStore(tmp_path / "s") as reader:
            assert reader.get(record.spec) == record

    def test_unindexed_key_in_two_namespaces_is_filed_by_shard_file_name(self, tmp_path):
        # Shard files are listed by file name with the suffix, so
        # "<p>--w1.jsonl" sorts before "<p>.jsonl" (by stem it would sort
        # after) and an index rebuilt on open files the key under "<p>--w1".
        root = tmp_path / "s"
        record = _record(4)
        key = record.spec.key()
        for writer in (None, "w1"):
            with FileStore(root, writer=writer) as store:
                store.put_replace(record)
        (root / "index.jsonl").unlink()
        with FileStore(root) as reopened:
            assert reopened.get(record.spec) == record
            stats = reopened.stats()
        lines = [json.loads(line) for line in (root / "index.jsonl").read_text().splitlines()]
        assert lines == [{"key": key, "shard": f"{key[:2]}--w1"}]
        assert stats["shards"] == 2 and stats["writers"] == 2

    def test_invalid_writer_names_rejected(self, tmp_path):
        for bad in ("a--b", "", "-lead", "sp ace", "sl/ash"):
            with pytest.raises(StoreError):
                FileStore(tmp_path / "s", writer=bad)

    def test_two_handles_write_concurrently_without_corruption(self, tmp_path):
        root = tmp_path / "s"
        a = FileStore(root, writer="a")
        b = FileStore(root, writer="b")
        records = [_record(size, seed) for size in (4, 5, 6) for seed in (0, 1)]
        for index, record in enumerate(records):
            (a if index % 2 else b).put(record)
        a.close()
        b.close()
        with FileStore(root) as merged:
            assert len(merged) == len(records)
            merged.verify()
            for record in records:
                assert merged.get(record.spec) == record

    def test_multiprocess_writers_one_store(self, tmp_path):
        """Satellite: concurrent multi-process writers against one FileStore."""
        import repro

        root = tmp_path / "s"
        FileStore(root).close()  # create the layout up front
        code = (
            "import sys\n"
            "from repro.runtime import ScenarioSpec\n"
            "from repro.runtime.runner import run\n"
            "from repro.store import FileStore\n"
            "root, writer = sys.argv[1], sys.argv[2]\n"
            "with FileStore(root, writer=writer) as store:\n"
            "    for size in (int(n) for n in sys.argv[3:]):\n"
            "        store.put(run(ScenarioSpec(size=size, seed=7)))\n"
        )
        env = dict(os.environ)
        package_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (package_root, env.get("PYTHONPATH")) if part
        )
        sizes = {"w0": ["4", "7", "10"], "w1": ["5", "8", "11"], "w2": ["6", "9", "12"]}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(root), writer, *args],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for writer, args in sizes.items()
        ]
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        with FileStore(root) as store:
            store.verify()  # no interleaved/corrupt shard lines
            assert len(store) == 9
            index_rebuilt = store.rebuild_index()
            assert index_rebuilt == 9
            # The rebuilt index agrees with the shard contents record by record.
            for size_args in sizes.values():
                for size in size_args:
                    spec = ScenarioSpec(size=int(size), seed=7)
                    assert store.get(spec) == run(spec)

    def test_gc_collapses_writer_namespaces(self, tmp_path):
        root = tmp_path / "s"
        with FileStore(root, writer="w1") as store:
            store.put(_record(4))
        store = FileStore(root)
        store.gc()
        stems = [path.stem for path in (root / "shards").glob("*.jsonl")]
        assert stems and all("--" not in stem for stem in stems)
        with FileStore(root) as reopened:
            assert len(reopened) == 1

    def test_own_put_does_not_hide_another_writers_appends(self, tmp_path):
        """Regression: a handle's own put used to mark the whole index as
        read, so lines another writer appended just before were never seen."""
        root = tmp_path / "s"
        a = FileStore(root, writer="a")
        b = FileStore(root, writer="b")
        first, second = _record(4), _record(5)
        b.put(first)
        b.flush()
        a.put(second)
        assert a.refresh() is True
        assert set(a.keys()) == {first.spec.key(), second.spec.key()}
        assert a.get(first.spec) == first and a.get(second.spec) == second
        assert a.refresh() is False
        a.close()
        b.close()

    def test_append_after_another_handle_rewrote_the_index_is_kept(self, tmp_path):
        """An index append handle opened before a rewrite must not write
        into the replaced file, where the line would be lost."""
        root = tmp_path / "s"
        a = FileStore(root, writer="a")
        a.put(_record(4))
        a.flush()
        with FileStore(root) as other:
            other.rebuild_index()
        late = _record(5)
        a.put(late)
        a.close()
        indexed = [
            json.loads(line)["key"]
            for line in (root / "index.jsonl").read_text().splitlines()
        ]
        assert late.spec.key() in indexed
        with FileStore(root) as reopened:
            assert reopened.get(late.spec) == late
            assert len(reopened) == 2


class TestPutReplace:
    def test_put_replace_shadows_and_gc_keeps_last(self, tmp_path):
        original = _record(5)
        divergent = _tampered_copy(original)
        with FileStore(tmp_path / "s") as store:
            store.put(original)
            assert store.put(divergent) == original.spec.key()
            assert store.get(original.spec) == original  # put is idempotent
            store.put_replace(divergent)
            assert store.get(original.spec) == divergent
        store = FileStore(tmp_path / "s")
        assert store.get(original.spec) == divergent
        store.gc()
        with FileStore(tmp_path / "s") as reopened:
            assert reopened.get(original.spec) == divergent
            assert len(reopened) == 1


class TestMergeStores:
    def test_merge_dedups_by_key(self, tmp_path):
        shared = _record(4)
        with FileStore(tmp_path / "a") as a:
            a.put(shared)
            a.put(_record(5))
        with FileStore(tmp_path / "b") as b:
            b.put(shared)
            b.put(_record(6))
        with FileStore(tmp_path / "dst") as dst:
            report = merge_stores([tmp_path / "a", tmp_path / "b"], dst)
            assert report["merged"] == 3
            assert report["duplicates"] == 1
            assert report["conflicts"] == []
            assert len(dst) == 3

    def test_merge_detects_divergent_payloads(self, tmp_path):
        record = _record(4)
        with FileStore(tmp_path / "a") as a:
            a.put(record)
        with FileStore(tmp_path / "b") as b:
            b.put(_tampered_copy(record))
        with FileStore(tmp_path / "dst") as dst:
            with pytest.raises(StoreConflictError) as excinfo:
                merge_stores([tmp_path / "a", tmp_path / "b"], dst)
            assert excinfo.value.conflicts == (record.spec.key(),)

    def test_merge_conflict_policies(self, tmp_path):
        record = _record(4)
        divergent = _tampered_copy(record)
        with FileStore(tmp_path / "src") as src:
            src.put(divergent)
        ours = MemoryStore()
        ours.put(record)
        report = merge_stores([tmp_path / "src"], ours, on_conflict="ours")
        assert report["conflicts"] == [record.spec.key()]
        assert ours.get(record.spec) == record
        theirs = MemoryStore()
        theirs.put(record)
        merge_stores([tmp_path / "src"], theirs, on_conflict="theirs")
        assert theirs.get(record.spec) == divergent

    def test_merge_rebuilds_the_index(self, tmp_path):
        with FileStore(tmp_path / "src") as src:
            run_sweep(SweepSpec(sizes=(4, 6), seeds=(0, 1)), store=src)
            keys = set(src.keys())
        with FileStore(tmp_path / "dst") as dst:
            merge_stores([tmp_path / "src"], dst)
        index_keys = {
            json.loads(line)["key"]
            for line in (tmp_path / "dst" / "index.jsonl").read_text().splitlines()
        }
        assert index_keys == keys
        with FileStore(tmp_path / "dst") as dst:
            assert set(dst.keys()) == keys
            dst.verify()

    def test_merge_tolerates_truncated_source_tail(self, tmp_path):
        with FileStore(tmp_path / "src") as src:
            run_sweep(SweepSpec(sizes=(4, 6), seeds=(0, 1)), store=src)
            total = len(src)
        shard = sorted((tmp_path / "src" / "shards").glob("*.jsonl"))[0]
        shard.write_bytes(shard.read_bytes()[:-9])  # the in-flight record of a kill
        (tmp_path / "src" / "index.jsonl").unlink()
        with FileStore(tmp_path / "dst") as dst:
            report = merge_stores([tmp_path / "src"], dst)
            assert report["merged"] == total - 1

    def test_merge_unknown_policy(self, tmp_path):
        with pytest.raises(StoreError):
            merge_stores([], MemoryStore(), on_conflict="panic")


class TestLruEviction:
    def _fill(self, root, sizes=(4, 5, 6, 7)) -> list:
        records = [_record(size) for size in sizes]
        with FileStore(root) as store:
            for record in records:
                store.put(record)
        return records

    def test_gc_max_records_evicts_oldest_written(self, tmp_path):
        root = tmp_path / "s"
        by_key = sorted(
            (_record(size) for size in range(4, 10)), key=lambda record: record.spec.key()
        )
        # A write order that is neither key order nor shard order.
        written = [by_key[i] for i in (2, 5, 0, 4, 1, 3)]
        keys = [record.spec.key() for record in written]
        assert keys != sorted(keys)
        assert keys != sorted(keys, key=lambda key: key[:2])
        with FileStore(root) as store:
            for record in written:
                store.put(record)

        def index_keys():
            lines = (root / "index.jsonl").read_text().splitlines()
            return [json.loads(line)["key"] for line in lines]

        def gc_after_reading_the_oldest(budget, oldest):
            # Reading the oldest records first does not save them.
            store = FileStore(root)
            assert [store.get(record.spec) for record in oldest] == oldest
            return store.gc(max_records=budget)

        report = gc_after_reading_the_oldest(4, written[:2])
        assert report["evicted"] == 2 and report["kept"] == 4
        assert index_keys() == keys[2:]
        # The second pass evicts the oldest survivors, which needs the
        # first pass's index in write order rather than grouped by shard.
        report = gc_after_reading_the_oldest(2, written[2:4])
        assert report["evicted"] == 2 and report["kept"] == 2
        assert index_keys() == keys[4:]
        with FileStore(root) as reopened:
            assert sorted(reopened.keys()) == sorted(keys[4:])
            for record in written[4:]:
                assert reopened.get(record.spec) == record

    def _written_out_of_key_order(self, root) -> list:
        """Six records put in the order (2,5,0,4,1,3) of their sorted keys."""
        by_key = sorted(
            (_record(size) for size in range(4, 10)), key=lambda record: record.spec.key()
        )
        written = [by_key[i] for i in (2, 5, 0, 4, 1, 3)]
        with FileStore(root) as store:
            for record in written:
                store.put(record)
        return written

    def test_rebuild_index_keeps_write_order_for_gc(self, tmp_path):
        root = tmp_path / "s"
        written = self._written_out_of_key_order(root)
        keys = [record.spec.key() for record in written]
        store = FileStore(root)
        assert store.rebuild_index() == 6
        assert list(store.keys()) == keys
        report = store.gc(max_records=4)
        assert report["evicted"] == 2
        with FileStore(root) as reopened:
            assert list(reopened.keys()) == keys[2:]

    def test_rebuild_index_files_shard_only_keys_after_indexed_ones(self, tmp_path):
        root = tmp_path / "s"
        written = self._written_out_of_key_order(root)
        keys = [record.spec.key() for record in written]
        # Put in reverse key order, so write order is not shard-file order.
        late = sorted(
            (_record(size, seed=1) for size in (4, 5, 6)),
            key=lambda record: record.spec.key(),
            reverse=True,
        )
        store = FileStore(root)
        # Another handle appends records this one has not read yet.
        with FileStore(root) as other:
            for record in late:
                other.put(record)
        assert store.rebuild_index() == 9
        # They follow the indexed keys in shard-file order: by shard prefix,
        # then line order within a shard.
        late_keys = sorted((record.spec.key() for record in late), key=lambda key: key[:2])
        assert late_keys != [record.spec.key() for record in late]
        assert list(store.keys()) == keys + late_keys
        store.close()

    def test_gc_refuses_negative_budgets_before_touching_the_store(self, tmp_path):
        root = tmp_path / "s"
        self._fill(root, sizes=(4, 5))
        before = _snapshot(root)
        store = FileStore(root)
        for budget in ({"max_records": -1}, {"max_bytes": -5}):
            with pytest.raises(StoreError, match="must be >= 0"):
                store.gc(**budget)
        assert len(store) == 2
        store.close()
        assert _snapshot(root) == before

    def test_gc_max_bytes_bounds_the_shards(self, tmp_path):
        root = tmp_path / "s"
        self._fill(root)
        store = FileStore(root)
        budget = 2000
        report = store.gc(max_bytes=budget)
        assert report["evicted"] >= 1
        total = sum(path.stat().st_size for path in (root / "shards").glob("*.jsonl"))
        assert total <= budget

    def test_corrupt_lastread_is_ignored(self, tmp_path):
        root = tmp_path / "s"
        records = self._fill(root, sizes=(4,))
        (root / "lastread.json").write_text("{broken")
        with FileStore(root) as store:
            assert store.get(records[0].spec) == records[0]


class TestStoreCliExtensions:
    @pytest.fixture()
    def stores(self, tmp_path, capsys):
        from repro.cli import main

        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["sweep", "--set", "sizes=[4]", "--set", "seeds=[0,1]", "--quiet", "--store", a]) == 0
        assert main(["sweep", "--set", "sizes=[6]", "--set", "seeds=[0,1]", "--quiet", "--store", b]) == 0
        capsys.readouterr()
        return a, b

    def test_store_merge_cli(self, stores, tmp_path, capsys):
        from repro.cli import main

        a, b = stores
        dst = str(tmp_path / "dst")
        assert main(["store", "merge", a, b, "--into", dst]) == 0
        out = capsys.readouterr().out
        assert "merged 4 of 4 records from 2 store(s)" in out
        assert "0 duplicates, 0 conflicts" in out
        assert main(["store", "ls", "--store", dst, "--keys"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_store_ls_stat_line(self, stores, capsys):
        from repro.cli import main

        a, _b = stores
        assert main(["store", "ls", "--store", a, "--stat"]) == 0
        out = capsys.readouterr().out
        assert "2 records" in out and "writer namespace" in out

    def test_store_gc_budget_flags(self, stores, capsys):
        from repro.cli import main

        a, _b = stores
        assert main(["store", "gc", "--store", a, "--max-records", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted 1 oldest-written records" in out
        assert main(["store", "ls", "--store", a, "--stat"]) == 0
        assert "1 records" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--max-records", "--max-bytes"])
    def test_store_gc_refuses_a_negative_budget(self, stores, capsys, flag):
        from repro.cli import main

        a, _b = stores
        before = _snapshot(Path(a))
        assert main(["store", "gc", "--store", a, flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert _snapshot(Path(a)) == before
        # Zero is a valid budget: it evicts everything, on purpose.
        assert main(["store", "gc", "--store", a, flag, "0"]) == 0
        assert "kept 0 records" in capsys.readouterr().out
        with FileStore(a, create=False) as store:
            assert len(store) == 0


class TestReadsNeverWrite:
    def test_a_read_only_session_leaves_every_file_byte_identical(self, tmp_path, capsys):
        from repro.cli import main
        from repro.distrib import WorkQueue

        queue = WorkQueue(tmp_path / "queue", create=True)
        root = queue.results_root / "w1"
        records = [_record(size) for size in (4, 5, 6)]
        with FileStore(root) as store:
            store.put(records[0])
        with FileStore(root, writer="w1") as store:
            for record in records[1:]:
                store.put(record)
        keys = [record.spec.key() for record in records]
        before = _snapshot(root)

        store = FileStore(root)
        assert store.get(keys[0]) == records[0]
        assert store.get_many(keys) == records
        assert len(store.query()) == 3
        assert len(store.query(problem="rendezvous", limit=1)) == 1
        assert sorted(store.keys()) == sorted(keys)
        assert store.stats()["records"] == 3
        generation = store.generation()
        assert store.refresh() is False
        assert store.generation() == generation
        store.close()

        for argv in (["ls"], ["ls", "--stat"], ["show", keys[1][:12]]):
            assert main(["store", *argv, "--store", str(root)]) == 0
        capsys.readouterr()

        assert queue.find_records(keys) == dict(zip(keys, records))
        assert _snapshot(root) == before
