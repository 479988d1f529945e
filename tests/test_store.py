"""Tests of the content-addressed result store (spec keys, backends, resume)."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ReproError, StoreCorruptionError, StoreError
from repro.runtime import ScenarioSpec, SweepSpec, spec_key
from repro.runtime.executors import ProcessPoolExecutor, run_sweep
from repro.runtime.records import RunRecord
from repro.runtime.runner import run
from repro.store import FileStore, MemoryStore, open_store

#: A small, fast grid reused by most sweep tests (4 cells, trivial scenarios).
GRID = SweepSpec(sizes=(4, 6), seeds=(0, 1), name="store-tests")


class TestSpecKey:
    def test_stable_for_equal_specs(self):
        assert ScenarioSpec(size=8).key() == ScenarioSpec(size=8).key()

    def test_key_order_permutations_hash_identically(self):
        spec = ScenarioSpec(
            problem="teams", size=7, seed=3, team_size=3, scheduler_params={"patience": 4}
        )
        shuffled = dict(reversed(list(spec.to_dict().items())))
        assert ScenarioSpec.from_dict(shuffled).key() == spec.key()

    def test_differing_content_differs(self):
        base = ScenarioSpec()
        assert base.replace(seed=1).key() != base.key()
        assert base.replace(max_traversals=7).key() != base.key()
        assert base.replace(scheduler_params={"patience": 4}).key() != base.key()

    def test_name_is_presentation_only(self):
        base = ScenarioSpec()
        assert base.replace(name="e1-cell").key() == base.key()

    def test_key_version_participates(self, monkeypatch):
        from repro.runtime import spec as spec_module

        base_key = ScenarioSpec().key()
        monkeypatch.setattr(spec_module, "SPEC_KEY_VERSION", spec_module.SPEC_KEY_VERSION + 1)
        assert ScenarioSpec().key() != base_key

    def test_stable_across_processes(self):
        spec = ScenarioSpec(size=9, seed=2, scheduler="avoider", scheduler_params={"patience": 8})
        code = (
            "from repro.runtime import ScenarioSpec;"
            f"print(ScenarioSpec.from_json({spec.to_json()!r}).key())"
        )
        # The child must find the package even on a clean checkout where
        # repro is not installed and PYTHONPATH is unset.
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (package_root, env.get("PYTHONPATH")) if part
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == spec.key()

    def test_module_function_matches_method(self):
        spec = ScenarioSpec(size=5)
        assert spec_key(spec) == spec.key()


class TestMemoryStore:
    def test_put_get_roundtrip(self):
        store = MemoryStore()
        record = run(ScenarioSpec(size=4))
        key = store.put(record)
        assert key == record.spec.key()
        assert store.get(key) is record
        assert store.get(record.spec) is record
        assert record.spec in store and key in store
        assert len(store) == 1 and store.keys() == (key,)

    def test_put_is_idempotent(self):
        store = MemoryStore()
        record = run(ScenarioSpec(size=4))
        store.put(record)
        store.put(record)
        assert len(store) == 1

    def test_miss_returns_none(self):
        assert MemoryStore().get(ScenarioSpec()) is None

    def test_queries_and_generation_follow_every_mutation(self):
        store = MemoryStore()
        record = run(ScenarioSpec(size=4))
        empty = store.generation()
        store.put(record)
        assert store.query().records == [record] and store.generation() != empty
        replaced = dataclasses.replace(record, cost=record.cost + 1)
        store.put_replace(replaced)
        assert store.query().records == [replaced]
        store.clear()
        assert store.query().records == [] and store.generation() == empty


class TestFileStore:
    def test_cache_hit_equals_fresh_run(self, tmp_path):
        spec = ScenarioSpec(
            problem="teams",
            family="ring",
            size=5,
            labels=(9, 4, 17),
            starts=(0, 2, 4),
            values=("a", {"x": 1}, ("b", "c")),
            dormant=(2,),
        )
        fresh = run(spec)
        with FileStore(tmp_path / "store") as store:
            store.put(fresh)
        # A different process would reopen the store and reparse the JSON.
        with FileStore(tmp_path / "store") as store:
            assert store.get(spec) == fresh

    def test_refuses_an_alien_directory(self, tmp_path):
        (tmp_path / "junk.txt").write_text("hello")
        with pytest.raises(StoreError):
            FileStore(tmp_path)

    def test_create_false_requires_existing_store(self, tmp_path):
        with pytest.raises(StoreError):
            FileStore(tmp_path / "missing", create=False)
        FileStore(tmp_path / "made").close()
        FileStore(tmp_path / "made", create=False).close()

    def test_index_is_rebuilt_when_deleted(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            run_sweep(GRID, store=store)
            keys = set(store.keys())
        (tmp_path / "store" / "index.jsonl").unlink()
        with FileStore(tmp_path / "store") as store:
            assert set(store.keys()) == keys

    def test_truncated_final_line_is_dropped_not_fatal(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            run_sweep(GRID, store=store)
            total = len(store)
        # Simulate a sweep killed mid-append: chop the tail of one shard and
        # drop the index so the shard is re-scanned.
        shard = sorted((tmp_path / "store" / "shards").glob("*.jsonl"))[0]
        shard.write_bytes(shard.read_bytes()[:-10])
        (tmp_path / "store" / "index.jsonl").unlink()
        with FileStore(tmp_path / "store") as store:
            assert len(store) == total - 1
            assert store.stats()["truncated_dropped"] >= 1

    def test_corrupted_middle_line_raises(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            record = run(ScenarioSpec(size=4))
            store.put(record)
            shard_name = record.spec.key()[:2]
        shard = tmp_path / "store" / "shards" / f"{shard_name}.jsonl"
        shard.write_text("{not json}\n" + shard.read_text())
        (tmp_path / "store" / "index.jsonl").unlink()
        with pytest.raises(StoreCorruptionError):
            FileStore(tmp_path / "store")

    def test_content_address_mismatch_is_corruption(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            record = run(ScenarioSpec(size=4))
            key = store.put(record)
        shard = tmp_path / "store" / "shards" / f"{key[:2]}.jsonl"
        entry = json.loads(shard.read_text())
        # Tamper with the spec: the stored record no longer hashes to its key.
        entry["record"]["spec"]["seed"] = entry["record"]["spec"]["seed"] + 1
        shard.write_text(json.dumps(entry) + "\n")
        store = FileStore(tmp_path / "store")
        with pytest.raises(StoreCorruptionError):
            store.get(key)

    def test_gc_salvages_and_compacts(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            run_sweep(GRID, store=store)
            total = len(store)
            some_shard = sorted((tmp_path / "store" / "shards").glob("*.jsonl"))[0]
        # Corrupt one line and duplicate another.
        text = some_shard.read_text()
        some_shard.write_text("{broken\n" + text + text)
        (tmp_path / "store" / "index.jsonl").unlink()
        store = FileStore(tmp_path / "store", salvage=True)  # tolerant open for repair
        report = store.gc()
        assert report["kept"] == total
        assert report["dropped_corrupt"] == 1
        assert report["dropped_duplicate"] >= 1
        # After gc the store opens and parses cleanly again.
        with FileStore(tmp_path / "store") as reopened:
            assert len(reopened) == total
            reopened.verify()

    def test_spec_key_version_mismatch_refuses(self, tmp_path, monkeypatch):
        FileStore(tmp_path / "store").close()
        meta = tmp_path / "store" / "store.meta.json"
        data = json.loads(meta.read_text())
        data["spec_key_version"] = data["spec_key_version"] + 1
        meta.write_text(json.dumps(data))
        with pytest.raises(StoreError):
            FileStore(tmp_path / "store")

    def test_open_store_helper(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = open_store()
        assert store.root.name == ".repro-store"
        store.close()


class TestRunSweepWithStore:
    def test_second_run_executes_zero_cells(self, tmp_path):
        store = FileStore(tmp_path / "store")
        first = run_sweep(GRID, store=store)
        assert (first.cache_hits, first.executed) == (0, len(GRID))
        second = run_sweep(GRID, store=store)
        assert (second.cache_hits, second.executed) == (len(GRID), 0)
        assert second.records == first.records
        assert second.table() == first.table()
        assert second.to_json() == first.to_json()

    def test_resume_false_reexecutes(self, tmp_path):
        store = FileStore(tmp_path / "store")
        run_sweep(GRID, store=store)
        again = run_sweep(GRID, store=store, resume=False)
        assert again.cache_hits == 0 and again.executed == len(GRID)

    def test_interrupted_sweep_resumes_identically(self, tmp_path):
        # "Kill" a sweep by only running a subset of the grid, then chopping
        # the final shard line (the in-flight cell of the real kill).
        half = SweepSpec(sizes=(4,), seeds=(0, 1), name="store-tests")
        with FileStore(tmp_path / "store") as store:
            run_sweep(half, store=store)
        shard = max(
            (tmp_path / "store" / "shards").glob("*.jsonl"), key=lambda p: p.stat().st_mtime
        )
        shard.write_bytes(shard.read_bytes()[:-7])
        (tmp_path / "store" / "index.jsonl").unlink()
        with FileStore(tmp_path / "store") as store:
            done_before = len(store)
            assert 0 < done_before < len(GRID)
            resumed = run_sweep(GRID, store=store)
        uninterrupted = run_sweep(GRID)
        assert resumed.cache_hits == done_before
        assert resumed.executed == len(GRID) - done_before
        assert resumed.records == uninterrupted.records
        assert resumed.table() == uninterrupted.table()

    def test_progress_reports_hits_then_runs(self, tmp_path):
        store = FileStore(tmp_path / "store")
        run_sweep(SweepSpec(sizes=(4,), seeds=(0, 1), name="store-tests"), store=store)
        events = []

        def progress(done, total, record, cached):
            events.append((done, total, record.seed, cached))

        run_sweep(GRID, store=store, progress=progress)
        assert [e[0] for e in events] == [1, 2, 3, 4]
        assert all(e[1] == len(GRID) for e in events)
        assert [e[3] for e in events] == [True, True, False, False]

    def test_progress_on_a_cold_store_reports_every_run(self, tmp_path):
        events = []
        run_sweep(
            GRID, store=MemoryStore(),
            progress=lambda done, total, record, cached: events.append((done, cached)),
        )
        assert [done for done, _cached in events] == [1, 2, 3, 4]
        assert not any(cached for _done, cached in events)

    def test_store_is_written_incrementally(self, tmp_path):
        """Every record is persisted as it completes, not at sweep end."""
        store = FileStore(tmp_path / "store")
        seen = []

        def progress(done, total, record, cached):
            seen.append(len(FileStore(tmp_path / "store")._index))

        run_sweep(GRID, store=store, progress=progress)
        assert seen == [1, 2, 3, 4]

    def test_process_pool_with_store_matches_serial(self, tmp_path):
        serial_store = FileStore(tmp_path / "serial")
        pool_store = FileStore(tmp_path / "pool")
        serial = run_sweep(GRID, store=serial_store)
        pooled = run_sweep(GRID, executor=ProcessPoolExecutor(max_workers=2), store=pool_store)
        assert serial.records == pooled.records
        assert sorted(serial_store.keys()) == sorted(pool_store.keys())
        # And a serial resume on the pool-written store is all hits.
        resumed = run_sweep(GRID, store=pool_store)
        assert resumed.cache_hits == len(GRID)
        assert resumed.records == serial.records


class TestQueryLayer:
    @pytest.fixture(scope="class")
    def populated(self):
        store = MemoryStore()
        run_sweep(SweepSpec(sizes=(4, 6, 8), seeds=(0, 1), name="q"), store=store)
        run_sweep(SweepSpec(problems=("esst",), sizes=(4, 5), name="q"), store=store)
        return store

    def test_query_by_problem(self, populated):
        assert len(populated.query(problem="esst")) == 2
        assert len(populated.query(problem="rendezvous")) == 6

    def test_query_by_n_range(self, populated):
        result = populated.query(problem="rendezvous", n_range=(4, 6))
        assert len(result) == 4
        assert all(4 <= record.graph_size <= 6 for record in result)

    def test_query_with_predicate_and_ok(self, populated):
        assert len(populated.query(ok=True)) == len(populated)
        assert len(populated.query(lambda r: r.seed == 1)) == 3

    def test_query_order_is_canonical(self, populated):
        result = populated.query()
        order = [
            (r.spec.problem, r.spec.family, r.graph_size, r.spec.seed) for r in result
        ]
        assert order == sorted(order)

    def test_query_result_renders_as_table(self, populated):
        table = populated.query(problem="esst").table()
        assert "esst" in table and table.count("\n") >= 3


class TestSpecCoverage:
    """The per-problem spec extensions that make new scenarios cacheable."""

    def test_esst_mid_edge_token(self):
        spec = ScenarioSpec(
            problem="esst", family="ring", size=5, token_edge=(0, 1), token_fraction="1/3"
        )
        record = run(spec)
        assert record.ok
        extra = record.extra_dict
        assert extra["token_node"] is None
        assert extra["token_edge"] == (0, 1)
        assert extra["token_fraction"] == "1/3"

    def test_esst_token_fraction_normalised_to_endpoint(self):
        record = run(ScenarioSpec(problem="esst", family="ring", size=5, token_edge=(1, 2), token_fraction="1"))
        assert record.extra_dict["token_node"] == 2
        assert "token_edge" not in record.extra_dict

    def test_token_node_and_edge_are_exclusive(self):
        with pytest.raises(ReproError):
            ScenarioSpec(problem="esst", token_node=1, token_edge=(0, 1)).validate()
        with pytest.raises(ReproError):
            ScenarioSpec(problem="esst", token_fraction="1/2").validate()

    def test_teams_values_and_dormant(self):
        for family, size, seed in (("ring", 5, 0), ("erdos_renyi", 4, 5)):
            spec = ScenarioSpec(
                problem="teams",
                family=family,
                size=size,
                seed=seed,
                labels=(9, 4, 17),
                starts=(0, 2, size - 1),
                values=("a", "b", "c"),
                dormant=(1,),
            )
            record = run(spec)
            assert record.ok
            extra = record.extra_dict
            assert extra["dormant"] == (1,)
            expected = {"9": "a", "4": "b", "17": "c"}
            assert all(mapping == expected for mapping in extra["value_maps"].values())
            # The string-keyed gossip maps survive the record's JSON round trip.
            assert RunRecord.from_dict(json.loads(record.to_json())) == record

    def test_values_length_checked(self):
        with pytest.raises(ReproError):
            ScenarioSpec(problem="teams", labels=(3, 5), values=("x",)).validate()
        with pytest.raises(ReproError):
            run(ScenarioSpec(problem="teams", family="ring", size=5, team_size=3, values=("x",)))

    def test_dormant_index_out_of_range(self):
        with pytest.raises(ReproError):
            run(ScenarioSpec(problem="teams", family="ring", size=5, team_size=2, dormant=(5,)))

    def test_mapping_values_freeze_and_round_trip(self):
        spec = ScenarioSpec(
            problem="teams",
            labels=(3, 5),
            values=({"b": 2, "a": 1}, ["x", "y"]),
        )
        assert spec.values == ((("a", 1), ("b", 2)), ("x", "y"))
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_json(spec.to_json()).key() == spec.key()

    def test_bounds_problem(self):
        record = run(ScenarioSpec(problem="bounds", family="path", size=8, labels=(64, 65), cost_model="paper"))
        extra = record.extra_dict
        assert record.ok and record.cost == extra["rv_bound"]
        assert extra["baseline_bound"] > extra["rv_bound"]

    def test_figures_problem(self):
        record = run(
            ScenarioSpec(problem="figures", family="ring", size=4, problem_params={"kind": "Q", "k": 3})
        )
        assert record.ok and record.cost > 0
        assert record.extra_dict["kind"] == "Q"
        assert "composition" in record.extra_dict


class TestRecordCanonicalisation:
    def test_json_round_trip_preserves_equality(self):
        for spec in (
            ScenarioSpec(size=4),
            ScenarioSpec(problem="esst", family="ring", size=5),
            ScenarioSpec(problem="teams", family="ring", size=5, team_size=2),
        ):
            record = run(spec)
            assert RunRecord.from_dict(json.loads(record.to_json())) == record


class TestPagination:
    @pytest.fixture(scope="class")
    def populated(self):
        store = MemoryStore()
        run_sweep(SweepSpec(sizes=(4, 6, 8), seeds=(0, 1), name="p"), store=store)
        return store

    def test_limit_offset_slice_the_canonical_order(self, populated):
        everything = [r.spec.key() for r in populated.query()]
        paged = []
        for offset in range(0, len(everything), 2):
            page = populated.query(limit=2, offset=offset)
            paged.extend(record.spec.key() for record in page)
        assert paged == everything

    def test_pages_are_stable_across_calls(self, populated):
        first = [r.spec.key() for r in populated.query(limit=3)]
        again = [r.spec.key() for r in populated.query(limit=3)]
        assert first == again and len(first) == 3

    def test_offset_beyond_end_is_empty(self, populated):
        assert len(populated.query(offset=100)) == 0
        assert len(populated.query(limit=5, offset=100)) == 0

    def test_limit_composes_with_filters(self, populated):
        result = populated.query(problem="rendezvous", n_range=(6, 8), limit=2)
        assert len(result) == 2
        assert all(6 <= record.graph_size <= 8 for record in result)

    def test_negative_paging_rejected(self, populated):
        with pytest.raises(ValueError):
            populated.query(limit=-1)
        with pytest.raises(ValueError):
            populated.query(offset=-1)

    def test_filestore_pagination_matches_memory(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            run_sweep(GRID, store=store)
            assert [r.spec.key() for r in store.query(limit=2, offset=1)] == [
                r.spec.key() for r in store.query()
            ][1:3]


class TestGenerationAndRefresh:
    def test_generation_is_deterministic_and_content_addressed(self, tmp_path):
        with FileStore(tmp_path / "a") as a, FileStore(tmp_path / "b") as b:
            empty = a.generation()
            assert empty == b.generation()
            run_sweep(GRID, store=a)
            grown = a.generation()
            assert grown != empty
            # Same records, different directory / insertion order → same stamp.
            run_sweep(SweepSpec(sizes=(6, 4), seeds=(1, 0), name="other"), store=b)
            assert b.generation() == grown

    def test_refresh_sees_a_concurrent_writers_appends(self, tmp_path):
        with FileStore(tmp_path / "store", writer="w1") as one:
            two = FileStore(tmp_path / "store", writer="w2")
            run_sweep(GRID, store=one)
            assert len(two) == 0  # stale handle: opened before the writes
            assert two.refresh() is True
            assert len(two) == len(GRID)
            assert two.generation() == one.generation()
            assert two.refresh() is False  # nothing new: a cheap stat no-op
            two.close()

    def test_own_appends_do_not_dirty_the_fingerprint(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            run_sweep(GRID, store=store)
            assert store.refresh() is False

    def test_opening_an_indexed_store_reads_no_shard_bytes(self, tmp_path, monkeypatch):
        with FileStore(tmp_path / "store") as store:
            run_sweep(GRID, store=store)

        def boom(self, shard):
            raise AssertionError(f"opened shard {shard} despite an intact index")

        monkeypatch.setattr(FileStore, "_load_shard", boom)
        with FileStore(tmp_path / "store", create=False) as store:
            assert len(store) == len(GRID)

    def test_keyed_query_parses_only_the_needed_shards(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            run_sweep(GRID, store=store)
            target = store.query().records[0].spec.key()
        with FileStore(tmp_path / "store", create=False) as store:
            parsed = []
            original = FileStore._load_shard

            def spy(self, shard):
                parsed.append(shard)
                return original(self, shard)

            with pytest.MonkeyPatch.context() as patcher:
                patcher.setattr(FileStore, "_load_shard", spy)
                result = store.query(keys=[target])
            assert len(result) == 1
            assert parsed == [store._index[target]]


class TestIncrementalRefresh:
    """refresh() reads what other handles appended, not the whole index."""

    EXTRA = ScenarioSpec(size=8, seed=3)

    @pytest.fixture()
    def root(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            run_sweep(GRID, store=store)
        return tmp_path / "store"

    def test_refresh_parses_only_the_appending_writers_shard(self, root, monkeypatch):
        reader = FileStore(root)
        assert len(reader.query()) == len(GRID)  # every canonical shard parsed
        canonical = set(reader._shard_cache)
        with FileStore(root, writer="w") as writer:
            writer.put(run(self.EXTRA))
        parsed = []
        original = FileStore._parse_shard

        def spy(self, shard, salvage=False):
            parsed.append(shard)
            return original(self, shard, salvage)

        monkeypatch.setattr(FileStore, "_parse_shard", spy)
        monkeypatch.setattr(FileStore, "_load_index", lambda self: pytest.fail("full reload"))
        assert reader.refresh() is True
        result = reader.query()
        assert len(result) == len(GRID) + 1
        assert self.EXTRA.key() in {record.spec.key() for record in result}
        assert parsed == [f"{self.EXTRA.key()[:2]}--w"]
        assert canonical <= set(reader._shard_cache)
        reader.close()

    def test_half_written_index_line_waits_for_its_newline(self, root):
        reader = FileStore(root)
        record = run(self.EXTRA)
        with FileStore(root, writer="w") as writer:
            writer.put(record)
        index = root / "index.jsonl"
        data = index.read_bytes()
        last = data[data.rfind(b"\n", 0, len(data) - 1) + 1 :]
        index.write_bytes(data[: -len(last)] + last[:10])
        assert reader.refresh() is False
        assert self.EXTRA.key() not in reader.keys()
        with index.open("ab") as handle:
            handle.write(last[10:])
        assert reader.refresh() is True
        assert reader.get(self.EXTRA) == record
        assert len(reader) == len(GRID) + 1
        reader.close()

    @pytest.mark.parametrize("rewrite", ["gc", "rebuild_index"])
    def test_index_rewritten_smaller_reloads_in_full(self, root, rewrite):
        record = run(self.EXTRA)
        with FileStore(root, writer="w") as writer:
            writer.put(record)
            writer.put_replace(record)  # a duplicate index line to compact away
        reader = FileStore(root)
        assert len(reader.query()) == len(GRID) + 1
        index = root / "index.jsonl"
        before = index.stat().st_size
        with FileStore(root) as other:
            getattr(other, rewrite)()
        assert index.stat().st_size < before
        reloads = []
        original = FileStore._load_index

        def spy(self):
            reloads.append(True)
            return original(self)

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(FileStore, "_load_index", spy)
            assert reader.refresh() is True
        assert reloads == [True]
        with FileStore(root) as fresh:
            assert reader.query().records == fresh.query().records
            assert reader.generation() == fresh.generation()
        assert reader.get(self.EXTRA) == record
        reader.close()

    def test_another_handles_append_to_a_cached_shard_is_seen(self, root):
        reader = FileStore(root)
        original = reader.query().records[0]
        replaced = dataclasses.replace(original, cost=original.cost + 1)
        with FileStore(root) as other:  # same canonical shard as the reader's cache
            other.put_replace(replaced)
        assert reader.refresh() is True
        assert reader.get(original.spec) == replaced
        assert replaced in reader.query().records
        reader.close()

    def test_index_rewritten_in_place_reloads_in_full(self, root):
        reader = FileStore(root)
        record = run(self.EXTRA)
        with FileStore(root, writer="w") as writer:
            writer.put(record)
        index = root / "index.jsonl"
        lines = index.read_bytes().splitlines(keepends=True)
        index.write_bytes(b"".join(reversed(lines)))  # same inode, longer, reordered
        assert reader.refresh() is True
        assert reader.get(self.EXTRA) == record
        with FileStore(root) as fresh:
            assert sorted(reader.keys()) == sorted(fresh.keys())
        reader.close()

    def test_generation_moves_exactly_when_the_key_set_does(self, root):
        store = FileStore(root)
        start = store.generation()
        store.query()
        store.get(next(iter(store.keys())))
        assert store.refresh() is False
        assert store.generation() == start

        store.put(run(self.EXTRA))
        after_put = store.generation()
        assert after_put != start

        with FileStore(root, writer="w") as writer:
            writer.put(run(ScenarioSpec(size=9, seed=3)))
        assert store.generation() == after_put  # not seen until refresh()
        assert store.refresh() is True
        after_refresh = store.generation()
        assert after_refresh != after_put
        assert store.refresh() is False
        assert store.generation() == after_refresh

        store.gc(max_records=len(store) - 1)
        after_gc = store.generation()
        assert after_gc != after_refresh
        assert store.generation() == after_gc

        # An index entry whose shard lacks the record: visible after the
        # refresh, dropped lazily by get() — and the generation follows both.
        missing = ScenarioSpec(size=11, seed=3).key()
        shard = store._index[next(iter(store.keys()))]
        with (root / "index.jsonl").open("a") as handle:
            handle.write(json.dumps({"key": missing, "shard": shard}) + "\n")
        assert store.refresh() is True
        assert store.generation() != after_gc
        assert store.get(missing) is None
        assert store.generation() == after_gc
        store.close()
