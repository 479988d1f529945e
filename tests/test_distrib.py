"""Tests of the distributed sweep fabric: queue, claims, worker, executor."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cli import main
from repro.distrib import Dispatcher, QueueExecutor, Worker, WorkQueue, unit_id
from repro.exceptions import QueueError, ReproError
from repro.obs.events import EventJournal, sweep_timeline
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, get_registry, set_registry
from repro.runtime import SweepSpec
from repro.runtime.executors import make_executor, run_sweep
from repro.runtime.runner import run
from repro.store import FileStore, MemoryStore, merge_stores

#: Four trivial cells; the serial reference for every convergence assertion.
GRID = SweepSpec(sizes=(4, 6), seeds=(0, 1), name="distrib-tests")


def _queue(tmp_path, unit_size=2, sweep=GRID, store=None) -> WorkQueue:
    queue = WorkQueue(tmp_path / "queue", create=True)
    Dispatcher(queue, unit_size=unit_size).dispatch(sweep, store=store)
    return queue


def _claim_kinds(queue: WorkQueue, uid: str) -> list:
    """The unit's journalled claims as ``(kind, worker, stolen_from)``."""
    claims = sweep_timeline(queue.journal(), [uid]).get(uid, {"claims": []})["claims"]
    return [(c["kind"], c["worker"], c.get("stolen_from")) for c in claims]


def _shard_record_count(queue: WorkQueue) -> int:
    """Total records across all worker shards == total executions performed."""
    total = 0
    for shard_dir in queue.result_store_dirs():
        with FileStore(shard_dir, create=False, salvage=True) as store:
            total += len(store)
    return total


class TestUnitId:
    def test_content_keyed_and_order_sensitive(self):
        assert unit_id(["a", "b"]) == unit_id(["a", "b"])
        assert unit_id(["a", "b"]) != unit_id(["b", "a"])
        assert unit_id(["a"]) != unit_id(["a", "b"])


class TestDispatcher:
    def test_dispatch_partitions_and_is_idempotent(self, tmp_path):
        queue = _queue(tmp_path, unit_size=3)
        report = Dispatcher(queue, unit_size=3).dispatch(GRID)
        assert report["cells"] == 4 and report["skipped_cached"] == 0
        assert report["units"] == 2
        assert (report["new_units"], report["existing_units"]) == (0, 2)
        assert sorted(report["unit_ids"]) == queue.units()
        assert len(queue.units()) == 2
        sizes = sorted(len(queue.load_unit(uid)) for uid in queue.units())
        assert sizes == [1, 3]

    def test_dispatch_skips_cells_already_stored(self, tmp_path):
        store = MemoryStore()
        cells = list(GRID.cells())
        store.put(run(cells[0]))
        queue = WorkQueue(tmp_path / "queue", create=True)
        report = Dispatcher(queue, unit_size=1).dispatch(GRID, store=store)
        assert report["skipped_cached"] == 1
        assert report["new_units"] == 3

    def test_unit_round_trip_validates_content(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        unit = queue.load_unit(uid)
        assert unit.unit == uid
        assert tuple(spec.key() for spec in unit.specs) == unit.keys
        # Tampering with a cell breaks the content key, loudly.
        path = queue.unit_path(uid)
        path.write_text(path.read_text().replace('"seed":0', '"seed":9'))
        with pytest.raises(QueueError):
            queue.load_unit(uid)

    def test_queue_refuses_non_queue_directory(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(QueueError):
            WorkQueue(tmp_path / "junk")
        with pytest.raises(QueueError):
            WorkQueue(tmp_path / "missing")


class TestClaims:
    def test_fresh_claim_has_one_winner(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "w1", ttl=60)
        assert not queue.try_claim(uid, "w2", ttl=60)

    def test_expired_claim_is_stolen(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)  # already expired
        assert queue.try_claim(uid, "w2", ttl=60)
        assert queue.read_claim(uid)["worker"] == "w2"

    def test_own_claim_is_reclaimed_after_restart(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "w1", ttl=3600)
        # Same worker id, new life: no need to wait out the old lease.
        assert queue.try_claim(uid, "w1", ttl=3600)
        assert not queue.try_claim(uid, "w2", ttl=60)

    def test_release_only_by_holder(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        queue.try_claim(uid, "w1", ttl=60)
        queue.release_claim(uid, "w2")
        assert queue.read_claim(uid)["worker"] == "w1"
        queue.release_claim(uid, "w1")
        assert queue.read_claim(uid) is None

    def test_claimant_killed_mid_write_leaves_the_unit_claimable(
        self, tmp_path, monkeypatch
    ):
        class Killed(BaseException):
            pass

        def killed_while_writing(descriptor, *args, **kwargs):
            os.close(descriptor)
            raise Killed

        queue = _queue(tmp_path)
        uid = queue.units()[0]
        with monkeypatch.context() as patch:
            patch.setattr(os, "fdopen", killed_while_writing)
            with pytest.raises(Killed):
                queue.try_claim(uid, "dead", ttl=60)
        # Past the dead claimant's TTL a second worker gets the unit.
        assert queue.try_claim(uid, "w2", ttl=60, now=time.time() + 120)
        assert queue.read_claim(uid)["worker"] == "w2"


class TestWorker:
    def test_single_worker_drains_to_the_serial_record_set(self, tmp_path):
        queue = _queue(tmp_path)
        totals = Worker(queue, worker_id="w1", lease_ttl=60).run()
        assert totals == {"units": 2, "total": 4, "cached": 0, "salvaged": 0, "executed": 4}
        assert all(queue.is_done(uid) for uid in queue.units())
        with FileStore(tmp_path / "merged") as merged:
            merge_stores(queue.result_store_dirs(), merged)
            serial = run_sweep(GRID)
            assert {r.spec.key() for r in serial.records} == set(merged.keys())
            for record in serial.records:
                assert merged.get(record.spec) == record

    def test_killed_worker_lease_expires_and_partial_shard_is_salvaged(self, tmp_path):
        """The crash-convergence story: steal the lease, salvage, converge."""
        queue = _queue(tmp_path)
        uids = queue.units()
        unit = queue.load_unit(uids[0])
        # Simulate a worker killed mid-unit: one cell executed and persisted
        # in its shard, the lease still on file but expired, no done marker.
        with FileStore(queue.results_root / "dead", create=True) as dead_store:
            dead_store.put(run(unit.specs[0]))
        assert queue.try_claim(uids[0], "dead", ttl=-1)

        totals = Worker(queue, worker_id="w2", lease_ttl=60, poll=0.05).run()
        assert totals["salvaged"] == 1
        assert totals["executed"] == 3
        done = queue.read_done(uids[0])
        assert done["worker"] == "w2" and done["salvaged"] == 1

        # Every cell executed exactly once across the whole fleet history.
        assert _shard_record_count(queue) == len(GRID)
        with FileStore(tmp_path / "merged") as merged:
            report = merge_stores(queue.result_store_dirs(), merged)
            assert report["duplicates"] == 0 and report["conflicts"] == []
            serial = run_sweep(GRID)
            assert {r.spec.key() for r in serial.records} == set(merged.keys())
            for record in serial.records:
                assert merged.get(record.spec) == record

    def test_worker_restart_reuses_its_own_partial_shard(self, tmp_path):
        queue = _queue(tmp_path)
        first = Worker(queue, worker_id="w1", lease_ttl=60, max_units=1).run()
        assert first["units"] == 1 and first["executed"] == 2
        # "Restart": same id drains the rest; its earlier records stay cached.
        second = Worker(queue, worker_id="w1", lease_ttl=60).run()
        assert second["executed"] == 2 and second["cached"] == 0
        assert _shard_record_count(queue) == len(GRID)

    def test_unit_done_between_scan_and_claim_is_not_rerun(self, tmp_path):
        queue = _queue(tmp_path)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        # A late worker arrives at a fully drained queue: nothing to do.
        totals = Worker(queue, worker_id="w2", lease_ttl=60).run()
        assert totals == {"units": 0, "total": 0, "cached": 0, "salvaged": 0, "executed": 0}

    def test_status_accounts_every_cell(self, tmp_path):
        queue = _queue(tmp_path)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        status = queue.status()
        assert status["units"] == status["done"] == 2
        assert status["cells"] == status["executed"] == 4
        assert status["salvaged"] == status["cached"] == 0
        assert status["steals"] == status["expired"] == 0


class TestWorkerIds:
    """Worker ids name a shard directory and a journal shard: they are
    checked before either is created."""

    @pytest.mark.parametrize("bad", ["../escape", "a/b", "a--b", "-lead", ""])
    def test_invalid_ids_are_refused(self, tmp_path, bad):
        queue = _queue(tmp_path)
        with pytest.raises(ReproError, match="invalid worker id"):
            Worker(queue, worker_id=bad)

    @pytest.mark.parametrize("bad", ["../escape", "a/b", "a--b"])
    def test_cli_refuses_them_and_creates_nothing(self, tmp_path, capsys, bad):
        queue = _queue(tmp_path)
        before = sorted(p for p in tmp_path.rglob("*"))
        assert main(["worker", "--queue", str(queue.root), "--worker-id", bad,
                     "--quiet"]) != 0
        assert "invalid worker id" in capsys.readouterr().err
        assert sorted(p for p in tmp_path.rglob("*")) == before
        assert not (tmp_path / "escape").exists()

    @pytest.mark.parametrize(
        "host", ["node_7.cluster", "bad host!", "x--y", "--", "-a-", "_", ""]
    )
    def test_default_id_is_always_valid(self, monkeypatch, host):
        from repro.distrib import worker as worker_module
        from repro.obs.events import check_writer_name

        monkeypatch.setattr(worker_module.socket, "gethostname", lambda: host)
        ident = worker_module.default_worker_id()
        assert check_writer_name(ident) == ident
        assert ident.endswith(f"-{os.getpid()}")


class TestLeaseObservability:
    """Steal provenance read from the journal; expiry from the claim files."""

    def test_expired_then_stolen_lease_is_counted(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)
        # Expired but not yet stolen: the stale claim file is the evidence.
        status = queue.status()
        assert status["expired"] == 1 and status["steals"] == 0
        states = {entry["unit"]: entry for entry in queue.unit_states()}
        assert states[uid]["state"] == "pending"
        assert states[uid]["lease_expired"] is True

        assert queue.try_claim(uid, "w2", ttl=60)  # the steal
        assert _claim_kinds(queue, uid) == [
            ("fresh", "dead", None), ("steal", "w2", "dead"),
        ]
        status = queue.status()
        assert status["steals"] == 1 and status["expired"] == 0
        states = {entry["unit"]: entry for entry in queue.unit_states()}
        assert states[uid]["state"] == "claimed" and states[uid]["steals"] == 1

    def test_steal_count_survives_into_the_done_marker(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)
        Worker(queue, worker_id="w2", lease_ttl=60, poll=0.05).run()
        # The claim file is gone with the release and the done marker holds
        # no provenance; the journal still knows about the steal.
        assert queue.read_claim(uid) is None
        assert [k for k, _, _ in _claim_kinds(queue, uid)] == ["fresh", "steal"]
        status = queue.status()
        assert status["done"] == 2 and status["steals"] == 1
        assert status["expired"] == 0
        states = {entry["unit"]: entry for entry in queue.unit_states()}
        assert states[uid]["steals"] == 1
        assert all("steals" not in states[u] for u in states if u != uid)

    def test_reclaim_preserves_accumulated_steals(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)
        assert queue.try_claim(uid, "w2", ttl=-1)  # steal #1, also expired
        assert queue.try_claim(uid, "w2", ttl=60)  # own reclaim: not a steal
        assert _claim_kinds(queue, uid) == [
            ("fresh", "dead", None), ("steal", "w2", "dead"), ("reclaim", "w2", None),
        ]
        assert queue.status()["steals"] == 1
        # w2's reclaim installed a live 60s lease, so w3 cannot win it.
        assert not queue.try_claim(uid, "w3", ttl=60)

    def test_successive_steals_of_one_unit_count_twice(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)
        assert queue.try_claim(uid, "w2", ttl=-1)  # steal #1, expires at once
        assert queue.try_claim(uid, "w3", ttl=60)  # steal #2
        assert _claim_kinds(queue, uid)[1:] == [
            ("steal", "w2", "dead"), ("steal", "w3", "w2"),
        ]
        assert queue.status()["steals"] == 2
        states = {entry["unit"]: entry for entry in queue.unit_states()}
        assert states[uid]["steals"] == 2

    def test_steals_survive_release_and_cancellation(self, tmp_path):
        queue = _queue(tmp_path)
        first, second = queue.units()
        assert queue.try_claim(first, "dead", ttl=-1)
        assert queue.try_claim(first, "w2", ttl=60)
        queue.release_claim(first, "w2")  # released without a done marker
        assert queue.status()["steals"] == 1
        assert queue.try_claim(second, "dead", ttl=-1)
        assert queue.cancel_unit(second) == "cancelled"  # cancelling steals
        assert queue.status()["steals"] == 2
        states = {entry["unit"]: entry for entry in queue.unit_states()}
        assert states[second]["state"] == "cancelled"
        assert states[second]["steals"] == 1

    def test_release_without_done_keeps_its_steal(self, tmp_path):
        # Intended: when steals lived in claim files, releasing a stolen unit
        # without a done marker deleted its only record.  The journal keeps
        # it, so the queue total still counts the steal; the pending unit's
        # own entry carries no counters, as before.
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)
        assert queue.try_claim(uid, "w2", ttl=60)
        queue.release_claim(uid, "w2")
        assert queue.read_claim(uid) is None and queue.read_done(uid) is None
        status = queue.status()
        assert status["steals"] == 1 and status["pending"] == 2
        states = {entry["unit"]: entry for entry in queue.unit_states()}
        assert states[uid]["state"] == "pending" and "steals" not in states[uid]

    def test_steal_whose_append_failed_is_not_counted(self, tmp_path, monkeypatch):
        # Intended: the journal is the only record, so a steal it could not
        # record (disk trouble) is lost to status(); the lease itself moved.
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)

        def failing_append(self, type, **fields):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(EventJournal, "append", failing_append)
            assert queue.try_claim(uid, "w2", ttl=60)
        assert queue.read_claim(uid)["worker"] == "w2"
        assert queue.status()["steals"] == 0
        states = {entry["unit"]: entry for entry in queue.unit_states()}
        assert states[uid]["state"] == "claimed" and "steals" not in states[uid]

    def test_claim_and_done_files_hold_no_provenance(self, tmp_path):
        queue = _queue(tmp_path)
        first, second = queue.units()
        claim_path = queue.claim_path(first)
        assert queue.try_claim(first, "dead", ttl=-1)
        assert queue.try_claim(first, "w2", ttl=-1)  # a steal
        seen = [claim_path.read_text(encoding="utf-8")]
        assert queue.try_claim(first, "w2", ttl=-1)  # a reclaim
        seen.append(claim_path.read_text(encoding="utf-8"))
        assert queue.renew_claim(first, "w2", ttl=-1)  # a renewal
        seen.append(claim_path.read_text(encoding="utf-8"))
        assert queue.cancel_unit(second) == "cancelled"
        Worker(queue, worker_id="w3", lease_ttl=60, poll=0.05).run()  # steal #2
        assert queue.status()["steals"] == 2
        seen += [queue.done_path(uid).read_text(encoding="utf-8") for uid in (first, second)]
        for text in seen:
            assert "steals" not in text and "stolen_from" not in text, text

    def test_cli_status_prints_lease_counters(self, tmp_path, capsys):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)
        Worker(queue, worker_id="w2", lease_ttl=60, poll=0.05).run()
        assert main(["queue", "status", "--queue", str(queue.root)]) == 0
        out = capsys.readouterr().out
        assert "leases: 1 stolen, 0 expired" in out
        assert main(["queue", "status", "--queue", str(queue.root), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["steals"] == 1 and status["expired"] == 0


class TestLeaseRenewal:
    """ROADMAP item 4 (long-unit half): heartbeats renew the live lease."""

    def test_holder_renews_and_extends_the_lease(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "w1", ttl=5, now=100.0)
        assert queue.renew_claim(uid, "w1", ttl=5, now=104.0) is True
        claim = queue.read_claim(uid)
        assert claim["expires"] == 109.0
        assert claim["created"] == 100.0  # provenance, not a fresh claim
        # The renewed lease outlives the original TTL: no steal at t=107.
        assert not queue.try_claim(uid, "thief", ttl=5, now=107.0)
        assert queue.try_claim(uid, "thief", ttl=5, now=110.0)

    def test_non_holder_cannot_renew(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.renew_claim(uid, "w1", ttl=5) is False  # no claim at all
        assert queue.try_claim(uid, "w1", ttl=5, now=100.0)
        assert queue.renew_claim(uid, "w2", ttl=5, now=101.0) is False
        assert queue.read_claim(uid)["worker"] == "w1"

    def test_renewal_after_a_steal_is_refused(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "w1", ttl=-1)  # expired immediately
        assert queue.try_claim(uid, "thief", ttl=60)  # the steal
        assert queue.renew_claim(uid, "w1", ttl=60) is False
        assert queue.read_claim(uid)["worker"] == "thief"

    def test_renewal_preserves_steal_provenance(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "dead", ttl=-1)
        assert queue.try_claim(uid, "w2", ttl=60)
        assert queue.renew_claim(uid, "w2", ttl=60) is True
        assert _claim_kinds(queue, uid)[-1] == ("steal", "w2", "dead")
        assert queue.status()["steals"] == 1
        states = {entry["unit"]: entry for entry in queue.unit_states()}
        assert states[uid]["state"] == "claimed" and states[uid]["steals"] == 1

    def test_worker_heartbeat_renews_mid_unit(self, tmp_path):
        """A unit longer than the lease TTL finishes under its first owner
        because every heartbeat renews; heartbeat_interval=0 renews on
        every cell."""
        queue = _queue(tmp_path, unit_size=4)
        worker = Worker(
            queue, worker_id="w1", lease_ttl=60, heartbeat_interval=0.0
        )
        totals = worker.run()
        assert totals["executed"] == 4
        renews = queue.journal().events(type="lease.renew")
        assert len(renews) >= 2  # unit start + at least one per-cell renewal
        assert all(e["worker"] == "w1" for e in renews)

    def test_renewal_does_not_depend_on_the_journal(self, tmp_path):
        queue = _queue(tmp_path, unit_size=4)
        renewed = []
        original = queue.renew_claim
        queue.renew_claim = lambda *a, **kw: (  # type: ignore[method-assign]
            renewed.append(a), original(*a, **kw)
        )[1]
        Worker(queue, worker_id="w1", lease_ttl=60, heartbeat_interval=0.0).run()
        assert renewed  # heartbeats renew through the queue's claim files


class TestQueueExecutor:
    def test_matches_serial_run(self, tmp_path):
        serial = run_sweep(GRID)
        queued = run_sweep(
            GRID,
            executor=QueueExecutor(workers=2, queue_dir=tmp_path / "q", unit_size=1),
        )
        assert queued.records == serial.records
        # The explicit queue directory is kept for inspection.
        assert WorkQueue(tmp_path / "q").status()["done"] == 4

    def test_integrates_with_the_store(self, tmp_path):
        with FileStore(tmp_path / "store") as store:
            queued = run_sweep(GRID, executor=QueueExecutor(workers=2), store=store)
            assert queued.executed == 4 and queued.cache_hits == 0
            warm = run_sweep(GRID, store=store)
            assert warm.cache_hits == 4 and warm.executed == 0
            assert warm.records == queued.records

    def test_reused_queue_dir_ignores_previous_sweeps(self, tmp_path):
        """A kept queue directory accumulates sweeps; each run watches only
        its own units and returns only its own records."""
        first_sweep = SweepSpec(sizes=(4,), seeds=(0, 1), name="distrib-tests")
        second_sweep = SweepSpec(sizes=(6,), seeds=(0, 1), name="distrib-tests")
        executor = QueueExecutor(workers=1, queue_dir=tmp_path / "q", unit_size=2)
        run_sweep(first_sweep, executor=executor)
        events = []
        second = run_sweep(
            second_sweep,
            executor=executor,
            progress=lambda done, total, record, cached: events.append((done, total)),
        )
        assert events == [(1, 2), (2, 2)]  # not inflated by the first sweep
        assert second.records == run_sweep(second_sweep).records

    def test_make_executor_kinds(self):
        from repro.runtime.executors import ProcessPoolExecutor, SerialExecutor

        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ProcessPoolExecutor)
        assert isinstance(make_executor(2, kind="serial"), SerialExecutor)
        assert isinstance(make_executor(None, kind="pool"), ProcessPoolExecutor)
        queue_executor = make_executor(3, kind="queue", unit_size=2)
        assert isinstance(queue_executor, QueueExecutor)
        assert queue_executor.workers == 3 and queue_executor.unit_size == 2
        assert make_executor(None, kind="queue").workers == 2
        for jobs in (0, -3):
            with pytest.raises(ReproError, match=f"at least one worker, got {jobs}"):
                make_executor(jobs, kind="queue")
        with pytest.raises(ReproError):
            make_executor(2, kind="warp")
        with pytest.raises(ReproError):
            make_executor(2, kind="pool", unit_size=2)


class TestCliSurface:
    def test_dispatch_worker_status_merge_lifecycle(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        serial_dir = str(tmp_path / "serial")
        merged_dir = str(tmp_path / "merged")

        assert main(["queue", "dispatch", "--set", "sizes=[4,6]", "--set", "seeds=[0,1]",
                     "--queue", queue_dir, "--unit-size", "2"]) == 0
        assert "dispatched 4 cells" in capsys.readouterr().out
        # Queue not drained yet: status exits non-zero.
        assert main(["queue", "status", "--queue", queue_dir]) == 1
        capsys.readouterr()

        assert main(["worker", "--queue", queue_dir, "--worker-id", "w1",
                     "--lease-ttl", "60"]) == 0
        out = capsys.readouterr().out
        assert "worker w1: 2 units" in out and "4 executed" in out

        assert main(["queue", "status", "--queue", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "2/2 units done" in out and "executed 4/4" in out

        assert main(["store", "merge", str(tmp_path / "q" / "results" / "w1"),
                     "--into", merged_dir]) == 0
        capsys.readouterr()
        assert main(["sweep", "--set", "sizes=[4,6]", "--set", "seeds=[0,1]", "--quiet",
                     "--store", serial_dir]) == 0
        capsys.readouterr()

        assert main(["store", "ls", "--store", merged_dir, "--keys"]) == 0
        merged_keys = capsys.readouterr().out
        assert main(["store", "ls", "--store", serial_dir, "--keys"]) == 0
        serial_keys = capsys.readouterr().out
        assert merged_keys == serial_keys and len(merged_keys.splitlines()) == 4

    def test_sweep_executor_queue_flag(self, tmp_path, capsys):
        assert main(["sweep", "--set", "sizes=[4]", "--set", "seeds=[0,1]", "--quiet",
                     "--jobs", "2", "--executor", "queue",
                     "--queue", str(tmp_path / "q"), "--unit-size", "1",
                     "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "cached 0/2, executed 2" in out

    def test_worker_on_missing_queue_errors(self, tmp_path, capsys):
        assert main(["worker", "--queue", str(tmp_path / "missing")]) == 2
        assert "no work queue" in capsys.readouterr().err

    def test_dispatch_store_skip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "--set", "sizes=[4]", "--set", "seeds=[0,1]", "--quiet",
                     "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["queue", "dispatch", "--set", "sizes=[4,6]", "--set", "seeds=[0,1]",
                     "--queue", str(tmp_path / "q"), "--store", store_dir]) == 0
        assert "2 cells already stored" in capsys.readouterr().out


class TestCancellation:
    def test_cancel_unit_tombstones_pending_work(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.cancel_unit(uid) == "cancelled"
        assert queue.cancel_unit(uid) == "already_cancelled"
        status = queue.status()
        assert status["cancelled"] == 1 and status["done"] == 0

    def test_cancelled_units_are_skipped_by_workers(self, tmp_path):
        queue = _queue(tmp_path)
        for uid in queue.units():
            assert queue.cancel_unit(uid) == "cancelled"
        totals = Worker(queue, worker_id="w1", lease_ttl=60).run()
        assert totals["units"] == 0 and totals["executed"] == 0

    def test_finished_unit_reports_already_done(self, tmp_path):
        queue = _queue(tmp_path)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        for uid in queue.units():
            assert queue.cancel_unit(uid) == "already_done"
        status = queue.status()
        assert status["cancelled"] == 0 and status["done"] == 2

    def test_actively_claimed_unit_is_left_alone(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        assert queue.try_claim(uid, "w1", ttl=60) is True
        assert queue.cancel_unit(uid) == "claimed"
        states = {s["unit"]: s["state"] for s in queue.unit_states()}
        assert states[uid] == "claimed"

    def test_unit_states_reports_the_full_lifecycle(self, tmp_path):
        queue = _queue(tmp_path, unit_size=1)
        uids = queue.units()
        queue.try_claim(uids[0], "w1", ttl=60)
        queue.cancel_unit(uids[1])
        states = {s["unit"]: s for s in queue.unit_states()}
        assert states[uids[0]]["state"] == "claimed"
        assert states[uids[0]]["worker"] == "w1"
        assert states[uids[0]]["lease_remaining"] > 0
        assert states[uids[1]]["state"] == "cancelled"
        assert all(s["cells"] == 1 for s in states.values())
        pending = [s for s in states.values() if s["state"] == "pending"]
        assert len(pending) == len(uids) - 2


class TestQueueStatusJson:
    def test_json_output_and_drained_flag(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "queue")
        assert main(["queue", "dispatch", "--set", "sizes=[4,6]", "--set", "seeds=[0,1]",
                     "--queue", queue_dir, "--unit-size", "2"]) == 0
        capsys.readouterr()

        assert main(["queue", "status", "--queue", queue_dir, "--json"]) == 1
        status = json.loads(capsys.readouterr().out)
        assert status["units"] == 2 and status["pending"] == 2
        assert status["drained"] is False

        assert main(["worker", "--queue", queue_dir, "--worker-id", "w1",
                     "--lease-ttl", "60", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["queue", "status", "--queue", queue_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["done"] == 2 and status["drained"] is True

    def test_cancelled_units_count_as_drained(self, tmp_path, capsys):
        queue = _queue(tmp_path)
        for uid in queue.units():
            queue.cancel_unit(uid)
        queue_dir = str(tmp_path / "queue")
        assert main(["queue", "status", "--queue", queue_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["cancelled"] == 2 and status["drained"] is True
        capsys.readouterr()
        assert main(["queue", "status", "--queue", queue_dir]) == 0
        assert "2 cancelled" in capsys.readouterr().out


class TestStatusHeartbeats:
    """Satellite: queue status reports per-worker heartbeat age and flags
    workers whose heartbeat is older than the lease TTL as stale."""

    def test_status_lists_heartbeats_and_flags_stale_workers(
        self, tmp_path, capsys
    ):
        queue = _queue(tmp_path)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        queue_dir = str(tmp_path / "queue")

        assert main(["queue", "status", "--queue", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "worker w1: heartbeat" in out and "STALE" not in out

        assert main(["queue", "status", "--queue", queue_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        (entry,) = status["heartbeats"]
        assert entry["worker"] == "w1" and entry["stale"] is False
        assert entry["age"] >= 0.0
        assert entry["last_event_age"] <= entry["age"]

        # Shrink the TTL below the heartbeat's age: the worker goes stale.
        time.sleep(0.05)
        assert main(["queue", "status", "--queue", queue_dir,
                     "--lease-ttl", "0.01"]) == 0
        assert "STALE" in capsys.readouterr().out

    def test_status_reports_the_drained_workers_heartbeat(self, tmp_path, capsys):
        queue = _queue(tmp_path)
        assert Worker(queue, worker_id="w1", lease_ttl=60).run()["executed"] == 4
        # Every worker journals; the dispatcher journals too but never beats.
        assert main(["queue", "status", "--queue", str(queue.root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        beats = [line for line in lines if "heartbeat" in line]
        assert len(beats) == 1 and beats[0].startswith("worker w1: heartbeat")


def _fold(queue: WorkQueue, uids, now: float) -> dict:
    """``status()`` recomputed by hand from ``unit_states()`` and the journal."""
    states = queue.unit_states(uids, now=now)
    finished = [entry for entry in states if entry["state"] == "done"]
    timeline = sweep_timeline(queue.journal(), uids)
    return {
        "units": len(states),
        "cells": sum(entry["cells"] for entry in states),
        **{
            state: sum(1 for entry in states if entry["state"] == state)
            for state in ("done", "cancelled", "claimed", "pending")
        },
        "cancelled_cells": sum(
            entry["cells"] for entry in states if entry["state"] == "cancelled"
        ),
        **{
            counter: sum(entry[counter] for entry in finished)
            for counter in ("executed", "salvaged", "cached")
        },
        "steals": sum(
            1
            for entry in timeline.values()
            for claim in entry["claims"]
            if claim["kind"] == "steal"
        ),
        "expired": sum(1 for entry in states if entry.get("lease_expired")),
        "workers": len(queue.result_store_dirs()),
    }


class TestOneReaderPerFact:
    """``status()`` folds ``unit_states()``; ``find_records`` is the one
    shard lookup; heartbeats carry the live registry's metrics."""

    def test_status_is_a_fold_over_unit_states(self, tmp_path):
        queue = _queue(tmp_path, unit_size=1)
        expired, stolen, released, cancelled = queue.units()

        def check() -> dict:
            now = time.time()
            status = queue.status(now=now)
            assert status == _fold(queue, queue.units(), now)
            return status

        assert queue.try_claim(expired, "dead", ttl=-1)
        assert check()["expired"] == 1
        assert queue.try_claim(stolen, "dead", ttl=-1)
        assert queue.try_claim(stolen, "w2", ttl=60)
        assert check()["steals"] == 1
        assert queue.try_claim(released, "dead", ttl=-1)
        assert queue.try_claim(released, "w3", ttl=60)
        queue.release_claim(released, "w3")
        status = check()
        assert (status["steals"], status["claimed"], status["pending"]) == (2, 1, 3)
        assert queue.cancel_unit(cancelled) == "cancelled"
        assert check()["cancelled"] == 1
        # w2 restarts: it reclaims its own lease, steals the expired one and
        # takes the released one fresh.
        assert Worker(queue, worker_id="w2", lease_ttl=60).run()["units"] == 3
        status = check()
        assert (status["done"], status["cancelled"], status["pending"]) == (3, 1, 0)
        assert (status["executed"], status["steals"], status["expired"]) == (3, 3, 0)

    def test_status_of_a_subset_counts_only_those_units(self, tmp_path):
        queue = _queue(tmp_path, unit_size=1)
        first, second, third, _fourth = queue.units()
        assert queue.try_claim(first, "dead", ttl=-1)
        assert queue.try_claim(first, "w2", ttl=60)
        assert queue.cancel_unit(second) == "cancelled"
        assert queue.try_claim(third, "dead", ttl=-1)
        now = time.time()
        subset = queue.status([first, second], now=now)
        assert subset == _fold(queue, [first, second], now)
        assert (subset["units"], subset["cells"]) == (2, 2)
        assert (subset["claimed"], subset["cancelled"], subset["pending"]) == (1, 1, 0)
        assert (subset["steals"], subset["expired"]) == (1, 0)
        assert queue.status(now=now)["units"] == 4

    def test_find_records_skips_one_shard_and_unreadable_ones(self, tmp_path):
        queue = _queue(tmp_path, unit_size=4)
        (uid,) = queue.units()
        specs = queue.load_unit(uid).specs
        keys = [spec.key() for spec in specs]
        with FileStore(queue.results_root / "a", create=True) as shard:
            shard.put(run(specs[0]))
        with FileStore(queue.results_root / "b", create=True) as shard:
            shard.put(run(specs[1]))
        (queue.results_root / "0-not-a-store").mkdir()
        found = queue.find_records(keys)
        assert sorted(found) == sorted(keys[:2])
        assert found[keys[1]] == run(specs[1])
        assert sorted(queue.find_records(keys, skip=queue.results_root / "a")) == [keys[1]]
        assert queue.find_records([]) == {}

    def test_salvage_and_collection_share_the_lookup(self, tmp_path, monkeypatch):
        queue = _queue(tmp_path, unit_size=4)
        calls = []
        real = WorkQueue.find_records

        def recording(self, keys, skip=None, **options):
            calls.append((len(keys), skip))
            return real(self, keys, skip, **options)

        monkeypatch.setattr(WorkQueue, "find_records", recording)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        assert calls == [(4, queue.results_root / "w1")]
        calls.clear()
        (uid,) = queue.units()
        assert len(QueueExecutor._collect(queue, list(queue.load_unit(uid).keys))) == 4
        assert calls == [(4, None)]

    def test_worker_with_its_own_shards_root_salvages_from_there(self, tmp_path):
        queue = _queue(tmp_path, unit_size=4)
        (uid,) = queue.units()
        unit = queue.load_unit(uid)
        shards = tmp_path / "shards"
        with FileStore(shards / "dead", create=True) as dead_store:
            dead_store.put(run(unit.specs[0]))
        assert queue.try_claim(uid, "dead", ttl=-1)
        totals = Worker(queue, worker_id="w2", results_root=shards, lease_ttl=60).run()
        assert (totals["salvaged"], totals["executed"]) == (1, 3)

    @pytest.fixture()
    def restore_registry(self):
        previous = get_registry()
        yield
        set_registry(previous)

    def test_heartbeat_holds_the_live_registry(self, tmp_path, restore_registry):
        set_registry(MetricsRegistry())
        queue = _queue(tmp_path)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        beat = queue.journal().latest_heartbeats()["w1"]
        assert beat["phase"] == "exit"
        assert "repro_runs_total" in beat["metrics"]

    def test_repro_metrics_env_reaches_the_worker_heartbeat(
        self, tmp_path, monkeypatch, restore_registry
    ):
        monkeypatch.setenv("REPRO_METRICS", "1")
        queue = _queue(tmp_path)
        argv = ["worker", "--queue", str(queue.root), "--worker-id", "w1", "--quiet"]
        assert main(argv) == 0
        beat = queue.journal().latest_heartbeats()["w1"]
        assert "repro_runs_total" in beat["metrics"]

    def test_no_registry_no_metrics_in_the_heartbeat(self, tmp_path, restore_registry):
        set_registry(NULL_REGISTRY)
        queue = _queue(tmp_path)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        assert "metrics" not in queue.journal().latest_heartbeats()["w1"]
