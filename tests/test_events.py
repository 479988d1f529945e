"""Tests of the durable fleet event journal and its reconstructions."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.distrib import Dispatcher, Worker, WorkQueue
from repro.exceptions import ReproError
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventJournal,
    executed_cells,
    fleet_summary,
    format_event,
    format_fleet,
    sweep_timeline,
)
from repro.runtime import SweepSpec
from repro.runtime.executors import run_sweep
from repro.store import FileStore, merge_stores

GRID = SweepSpec(sizes=(4, 6), seeds=(0, 1), name="events-tests")


def _queue(tmp_path, unit_size=2, sweep=GRID) -> WorkQueue:
    queue = WorkQueue(tmp_path / "queue", create=True)
    Dispatcher(queue, unit_size=unit_size).dispatch(sweep)
    return queue


class TestJournalAppend:
    def test_append_stamps_schema_writer_and_sequence(self, tmp_path):
        with EventJournal(tmp_path / "j", writer="w1") as journal:
            first = journal.append("unit.start", unit="u1", ts=10.0)
            second = journal.append("unit.done", unit="u1", ts=11.0)
        assert first["schema"] == EVENT_SCHEMA_VERSION
        assert first["writer"] == "w1" and first["ts"] == 10.0
        assert (first["seq"], second["seq"]) == (0, 1)
        events = EventJournal(tmp_path / "j").events()
        assert [e["type"] for e in events] == ["unit.start", "unit.done"]

    def test_restarted_writer_continues_its_numbering(self, tmp_path):
        with EventJournal(tmp_path / "j", writer="w1") as journal:
            journal.append("worker.start", ts=1.0)
            journal.append("worker.exit", ts=2.0)
        with EventJournal(tmp_path / "j", writer="w1") as reborn:
            event = reborn.append("worker.start", ts=3.0)
        assert event["seq"] == 2

    def test_reader_journal_refuses_to_append(self, tmp_path):
        journal = EventJournal(tmp_path / "j", create=True)
        with pytest.raises(ReproError):
            journal.append("unit.start")

    def test_invalid_writer_names_rejected(self, tmp_path):
        for bad in ("a--b", "", "-lead", "sp ace", "sl/ash"):
            with pytest.raises(ReproError):
                EventJournal(tmp_path / "j", writer=bad)

    def test_missing_journal_reads_as_empty(self, tmp_path):
        journal = EventJournal(tmp_path / "never")
        assert journal.events() == []
        assert journal.latest_heartbeats() == {}

    def test_generation_tracks_shard_growth(self, tmp_path):
        with EventJournal(tmp_path / "j", writer="w1") as journal:
            before = journal.generation()
            journal.append("unit.start", unit="u1")
            time.sleep(0.01)  # mtime_ns granularity
            after = journal.generation()
        assert before != after
        assert EventJournal(tmp_path / "j").generation() == after


class TestJournalRead:
    def _seed(self, tmp_path) -> EventJournal:
        with EventJournal(tmp_path / "j", writer="w1") as w1:
            w1.append("unit.claim", unit="u1", kind="fresh", ts=1.0)
            w1.append("cell.done", unit="u1", key="k1", status="executed", ts=3.0)
        with EventJournal(tmp_path / "j", writer="w2") as w2:
            w2.append("unit.claim", unit="u2", kind="fresh", ts=2.0)
            w2.append("lease.expire", unit="u1", worker="w1", ts=4.0)
        return EventJournal(tmp_path / "j")

    def test_merged_read_is_totally_ordered(self, tmp_path):
        journal = self._seed(tmp_path)
        events = journal.events()
        assert [e["ts"] for e in events] == [1.0, 2.0, 3.0, 4.0]
        assert [e["writer"] for e in events] == ["w1", "w2", "w1", "w2"]

    def test_filters_are_conjunctive(self, tmp_path):
        journal = self._seed(tmp_path)
        assert len(journal.events(type="unit.claim")) == 2
        assert len(journal.events(unit="u1")) == 3
        assert len(journal.events(since=3.0)) == 2
        # `worker` matches the event's worker field, else its writer stamp:
        # the lease.expire written by w2 names w1 as the (dead) worker.
        w1_view = journal.events(worker="w1")
        assert [e["type"] for e in w1_view] == [
            "unit.claim",
            "cell.done",
            "lease.expire",
        ]

    def test_torn_tail_and_malformed_interior_lines_are_dropped(self, tmp_path):
        journal = self._seed(tmp_path)
        shard = journal.shard_path("w1")
        with shard.open("a", encoding="utf-8") as handle:
            handle.write("{not json}\n")  # malformed interior line
            handle.write('"a string, not an event"\n')  # wrong shape
            handle.write('{"type": "cell.done", "ts": 9.0')  # torn tail
        events = journal.events()
        assert len(events) == 4  # the good lines, nothing else
        assert journal.dropped == 2  # torn tail is not even counted as a line

    def test_a_handle_parses_each_line_once(self, tmp_path, monkeypatch):
        journal = self._seed(tmp_path)
        parsed = []
        loads = json.loads

        def counting(line, *args, **kwargs):
            parsed.append(line)
            return loads(line, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        assert len(journal.events()) == 4
        assert len(journal.events(unit="u1")) == 3
        assert len(parsed) == 4  # unchanged shards: nothing re-parsed
        with EventJournal(tmp_path / "j", writer="w3") as w3:
            w3.append("unit.done", unit="u2", ts=0.5)
        events = journal.events()
        assert len(parsed) == 5  # only the appended line
        assert [e["ts"] for e in events] == [0.5, 1.0, 2.0, 3.0, 4.0]
        # A torn tail waits, unparsed, until its writer completes the line.
        with journal.shard_path("w3").open("a", encoding="utf-8") as handle:
            handle.write('{"type": "unit.start", "ts": 6.0')
            handle.flush()
            assert len(journal.events()) == 5
            handle.write("}\n")
        assert [e["ts"] for e in journal.events()][-1] == 6.0
        # A replaced (shorter) shard is parsed afresh.
        journal.shard_path("w1").write_text(
            json.dumps({"type": "unit.start", "ts": 7.0, "writer": "w1"}) + "\n",
            encoding="utf-8",
        )
        assert [e["ts"] for e in journal.events()] == [0.5, 2.0, 4.0, 6.0, 7.0]

    def test_heartbeat_keeps_only_the_latest_snapshot(self, tmp_path):
        with EventJournal(tmp_path / "j", writer="w1") as journal:
            journal.heartbeat(unit="u1", cells_done=1, ts=1.0)
            journal.heartbeat(unit="u1", cells_done=2, ts=2.0)
        reader = EventJournal(tmp_path / "j")
        beats = reader.latest_heartbeats()
        assert set(beats) == {"w1"}
        assert beats["w1"]["cells_done"] == 2
        # The history is still in the shard.
        assert len(reader.events(type="worker.heartbeat")) == 2


class TestMultiProcessAppenders:
    def test_concurrent_processes_produce_no_torn_records(self, tmp_path):
        """Satellite: N processes append concurrently; the merged read sees
        every event exactly once, with contiguous per-writer sequences."""
        import repro

        root = tmp_path / "j"
        per_writer = 200
        code = (
            "import sys\n"
            "from repro.obs.events import EventJournal\n"
            "root, writer, count = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
            "with EventJournal(root, writer=writer) as journal:\n"
            "    for i in range(count):\n"
            "        journal.append('cell.done', unit='u', key=f'{writer}-{i}',\n"
            "                       status='executed', payload='x' * 256)\n"
        )
        env = dict(os.environ)
        package_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (package_root, env.get("PYTHONPATH")) if part
        )
        writers = [f"w{i}" for i in range(4)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(root), writer, str(per_writer)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for writer in writers
        ]
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()

        journal = EventJournal(root)
        events = journal.events()
        assert journal.dropped == 0
        assert len(events) == len(writers) * per_writer
        for writer in writers:
            seqs = [e["seq"] for e in events if e["writer"] == writer]
            assert sorted(seqs) == list(range(per_writer))
        keys = {e["key"] for e in events}
        assert len(keys) == len(writers) * per_writer


class TestFabricJournal:
    def test_worker_journal_reconstructs_the_sweep_timeline(self, tmp_path):
        queue = _queue(tmp_path)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        journal = queue.journal()
        events = journal.events()
        assert {e["type"] for e in events} >= {
            "sweep.dispatch",
            "unit.claim",
            "unit.start",
            "cell.done",
            "unit.done",
            "worker.start",
            "worker.heartbeat",
            "worker.exit",
        }
        timeline = sweep_timeline(journal)
        assert set(timeline) == set(queue.units())
        for uid, entry in timeline.items():
            assert [c["kind"] for c in entry["claims"]] == ["fresh"]
            assert entry["done"] is not None and not entry["cancelled"]
            assert set(entry["cells"]) == set(queue.load_unit(uid).keys)
        # The journal's executed-cell set is exactly the fleet's record set.
        serial = {r.spec.key() for r in run_sweep(GRID).records}
        assert set(executed_cells(journal)) == serial

    def test_cached_and_salvaged_cells_are_journalled_too(self, tmp_path):
        queue = _queue(tmp_path)
        uid = queue.units()[0]
        unit = queue.load_unit(uid)
        from repro.runtime.runner import run as run_one

        with FileStore(queue.results_root / "dead", create=True) as dead_store:
            dead_store.put(run_one(unit.specs[0]))
        assert queue.try_claim(uid, "dead", ttl=-1)
        Worker(queue, worker_id="w2", lease_ttl=60, poll=0.05).run()

        journal = queue.journal()
        statuses = {
            e["key"]: e["status"] for e in journal.events(type="cell.done")
        }
        assert statuses[unit.keys[0]] == "salvaged"
        assert sorted(statuses) == sorted(
            key for u in queue.units() for key in queue.load_unit(u).keys
        )
        timeline = sweep_timeline(journal)[uid]
        assert [c["kind"] for c in timeline["claims"]] == ["fresh", "steal"]
        assert [e["worker"] for e in timeline["expires"]] == ["dead"]

    def test_cancelled_unit_lands_in_the_timeline(self, tmp_path):
        queue = _queue(tmp_path)
        queue.attach_journal("test")
        uid = queue.units()[0]
        queue.cancel_unit(uid)
        Worker(queue, worker_id="w1", lease_ttl=60).run()
        timeline = sweep_timeline(queue.journal())
        assert timeline[uid]["cancelled"] is True
        others = [u for u in queue.units() if u != uid]
        assert all(not timeline[u]["cancelled"] for u in others)

    def test_the_last_terminal_event_decides_the_unit(self):
        # A canceller killed after journalling ``unit.cancelled`` but before
        # its done marker leaves the unit to a worker, whose ``unit.done``
        # then ends the unit's history.
        events = [
            {"type": "unit.cancelled", "unit": "u1", "ts": 1.0},
            {"type": "unit.done", "unit": "u1", "worker": "w1", "ts": 2.0},
        ]
        entry = sweep_timeline(events)["u1"]
        assert entry["cancelled"] is False and entry["done"]["worker"] == "w1"
        entry = sweep_timeline(events[::-1])["u1"]
        assert entry["cancelled"] is True

    def test_every_worker_journals_into_its_own_shard(self, tmp_path):
        queue = _queue(tmp_path)
        totals = Worker(queue, worker_id="w1", lease_ttl=60).run()
        assert totals["executed"] == 4
        journal = queue.journal()
        assert journal.shard_path("w1").exists()
        cells = journal.events(type="cell.done")
        assert len(cells) == 4 and {e["writer"] for e in cells} == {"w1"}

    def test_death_between_done_event_and_marker_is_rescued(self, tmp_path, monkeypatch):
        """``unit.done`` is journalled before the done marker lands, so a
        worker dying in between leaves an unfinished unit that the next
        worker salvages and journals a final ``unit.done`` for."""
        from repro.distrib import queue as queue_module

        class Killed(Exception):
            pass

        queue = _queue(tmp_path)
        uid = queue.units()[0]
        real_write = queue_module._atomic_write_json

        def dies_before_the_marker(path, payload):
            if path == queue.done_path(uid):
                raise Killed
            real_write(path, payload)

        monkeypatch.setattr(queue_module, "_atomic_write_json", dies_before_the_marker)
        with pytest.raises(Killed):
            Worker(queue, worker_id="doomed", lease_ttl=60).run()
        monkeypatch.undo()
        assert not queue.is_done(uid)
        assert sweep_timeline(queue.journal())[uid]["done"]["worker"] == "doomed"

        Worker(queue, worker_id="rescuer", lease_ttl=60).run()
        entry = sweep_timeline(queue.journal())[uid]
        assert entry["done"]["worker"] == "rescuer"
        assert (entry["done"]["executed"], entry["done"]["salvaged"]) == (0, 2)
        assert queue.read_done(uid)["salvaged"] == 2
        assert {e["status"] for e in entry["cells"].values()} == {"salvaged"}
        executed = [e["key"] for e in queue.journal().events(type="cell.done")
                    if e["status"] == "executed"]
        assert sorted(executed) == sorted(set(executed)) and len(executed) == 4


class TestSigkilledWorker:
    def test_journal_reconstruction_survives_a_sigkilled_worker(self, tmp_path):
        """Acceptance: after SIGKILL mid-drain the journal still reconstructs
        the exact executed-cell set, cross-checked against the done markers
        and the merged store keys."""
        import repro

        sweep = SweepSpec(sizes=(8, 10, 12, 14), seeds=(0, 1), name="events-tests")
        queue = WorkQueue(tmp_path / "queue", create=True)
        Dispatcher(queue, unit_size=1).dispatch(sweep)

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (package_root, env.get("PYTHONPATH")) if part
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "worker",
                "--queue", str(queue.root), "--worker-id", "doomed",
                "--lease-ttl", "30", "--heartbeat", "0.01", "--quiet",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # Kill as soon as the journal proves the worker is mid-drain.
        deadline = time.time() + 60
        while time.time() < deadline:
            if queue.journal().events(type="cell.done", worker="doomed"):
                break
            time.sleep(0.01)
        proc.kill()
        proc.wait(timeout=30)
        assert queue.journal().events(worker="doomed"), "worker never journalled"

        # An expired lease (if the kill landed mid-unit) must be stolen, so
        # rescue with a tiny TTL and a claim-age override via direct steal.
        for uid in queue.units():
            claim = queue.read_claim(uid)
            if claim is not None and claim["worker"] == "doomed":
                queue.try_claim(uid, "doomed", ttl=-1)  # re-expire instantly
        Worker(queue, worker_id="rescuer", lease_ttl=30, poll=0.05).run()
        assert all(queue.is_done(uid) for uid in queue.units())

        journal = queue.journal()
        timeline = sweep_timeline(journal)
        # Every done unit's journalled cells are exactly its keys, and each
        # had at least one claim.
        for uid in queue.units():
            entry = timeline[uid]
            assert entry["done"] is not None
            assert set(entry["cells"]) == set(queue.load_unit(uid).keys)
            assert entry["claims"], f"unit {uid} finished without a claim event"
        # A stolen unit carries its expiry evidence.
        for uid, entry in timeline.items():
            kinds = [c["kind"] for c in entry["claims"]]
            if "steal" in kinds:
                assert any(e["worker"] == "doomed" for e in entry["expires"])

        # Durable ordering: every journalled executed cell has a store line.
        with FileStore(tmp_path / "merged") as merged:
            merge_stores(queue.result_store_dirs(), merged, salvage=True)
            stored = set(merged.keys())
        accounted = {
            key
            for key, event in executed_cells(
                journal, statuses=("executed", "salvaged", "cached")
            ).items()
        }
        assert set(executed_cells(journal)) <= stored
        assert accounted == stored
        assert stored == {r.spec.key() for r in run_sweep(sweep).records}
        # Done markers agree with the journal, unit by unit.
        for uid in queue.units():
            done = queue.read_done(uid)
            statuses = [e["status"] for e in timeline[uid]["cells"].values()]
            assert done["executed"] == statuses.count("executed")
            assert done["salvaged"] == statuses.count("salvaged")
            assert done["cached"] == statuses.count("cached")


class TestFleetSummary:
    def _beat(self, ts, **fields):
        return {"ts": ts, "pid": 1, "host": "h", **fields}

    def test_stale_workers_are_flagged_by_lease_ttl(self, tmp_path):
        status = {"cells": 4, "executed": 2, "salvaged": 0, "cached": 0}
        beats = {
            "live": self._beat(95.0, unit="u1", cells_done=1, unit_total=2),
            "dead": self._beat(10.0),
        }
        summary = fleet_summary(status, beats, lease_ttl=60.0, now=100.0)
        by_name = {w["worker"]: w for w in summary["workers"]}
        assert by_name["live"]["stale"] is False
        assert by_name["dead"]["stale"] is True
        assert summary["live_workers"] == 1 and summary["stale_workers"] == 1
        assert summary["remaining_cells"] == 2

    def test_throughput_and_eta_from_cell_events(self):
        status = {"cells": 10, "executed": 4, "salvaged": 0, "cached": 0}
        beats = {"w1": self._beat(99.0)}
        events = [
            {"type": "cell.done", "ts": 90.0 + i, "seconds": 0.5} for i in range(4)
        ]
        summary = fleet_summary(
            status, beats, events=events, lease_ttl=60.0, now=100.0
        )
        assert summary["cells_per_sec"] == 1.0
        assert summary["eta_seconds"] == pytest.approx(3.0)  # 6 cells * 0.5s / 1

    def test_format_fleet_renders_rows_and_empty_fleet(self):
        summary = fleet_summary({"cells": 0}, {}, now=1.0)
        assert "no worker heartbeats yet" in format_fleet(summary)
        summary = fleet_summary(
            {"cells": 4, "executed": 4},
            {"w1": self._beat(99.0, unit="u" * 20, cells_done=2, unit_total=2)},
            lease_ttl=60.0,
            now=100.0,
        )
        rendered = format_fleet(summary)
        assert "w1" in rendered and "2/2" in rendered
        assert "u" * 12 in rendered and "u" * 13 not in rendered

    def test_format_event_truncates_and_selects_fields(self):
        line = format_event(
            {
                "ts": 0.0,
                "writer": "w1",
                "type": "cell.done",
                "unit": "u" * 40,
                "key": "k1",
                "status": "executed",
                "seconds": 0.5,
            }
        )
        assert "cell.done" in line and "status=executed" in line
        assert "u" * 12 + "…" in line and "u" * 17 not in line
