"""Tests of the HTTP result service (routing, ETag/304, sweeps, safety)."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import parse_qs, urlencode, urlsplit

import pytest

from repro.analysis.experiment_spec import (
    EXPERIMENTS,
    ExperimentSpec,
    aggregate_from_store,
    experiment_spec,
    run_experiment,
)
from repro.cli import main
from repro.distrib.queue import WorkQueue
from repro.distrib.worker import Worker
from repro.runtime.executors import run_sweep
from repro.runtime.spec import SweepSpec
from repro.serve import ResultService, SweepJobs, job_id, make_server
from repro.serve.app import _Handler
from repro.store import FileStore, MemoryStore, merge_stores

from .helpers import golden

#: A tiny registered experiment so service tests do not pay for E1-E6.
TINY = "TINY-SERVE"
TINY_SWEEP = SweepSpec(sizes=(4, 6), seeds=(0, 1), name="tiny-serve")


@pytest.fixture()
def tiny(request):
    if TINY not in EXPERIMENTS:
        EXPERIMENTS.register(
            TINY,
            lambda **params: ExperimentSpec(
                name=TINY,
                title="tiny serve-test experiment",
                sweep=TINY_SWEEP,
                columns=("problem", "family", "n", "seed", "cost"),
                **params,
            ),
        )
    request.addfinalizer(lambda: EXPERIMENTS._entries.pop(TINY, None))
    return TINY


@pytest.fixture()
def live(tiny, tmp_path):
    """A real server on an ephemeral port: ``(service, (host, port))``."""
    store = FileStore(tmp_path / "store")
    run_sweep(TINY_SWEEP, store=store)
    service = ResultService(store, queue=str(tmp_path / "q"))
    server = make_server(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield service, server.server_address[:2]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    store.close()


def body_of(response):
    return json.loads(response.body)


class TestRouting:
    def test_healthz(self):
        service = ResultService(MemoryStore())
        response = service.handle("GET", "/healthz")
        assert response.status == 200 and body_of(response) == {"ok": True}

    def test_index_lists_endpoints(self):
        response = ResultService(MemoryStore()).handle("GET", "/")
        payload = body_of(response)
        assert "GET /experiments" in payload["endpoints"]
        assert payload["sweeps_enabled"] is False

    def test_unknown_path_is_json_404(self):
        response = ResultService(MemoryStore()).handle("GET", "/nope")
        assert response.status == 404 and "error" in body_of(response)

    def test_wrong_method_is_405(self):
        service = ResultService(MemoryStore())
        assert service.handle("POST", "/healthz").status == 405
        assert service.handle("GET", "/sweeps").status == 405

    def test_experiments_listing(self):
        payload = body_of(ResultService(MemoryStore()).handle("GET", "/experiments"))
        names = {entry["name"] for entry in payload["experiments"]}
        assert {"E1", "E3", "F1", "bounds"} <= names
        assert all(entry["cells"] > 0 for entry in payload["experiments"])

    def test_unknown_experiment_is_404(self):
        response = ResultService(MemoryStore()).handle("GET", "/experiments/nope")
        assert response.status == 404

    def test_bad_format_is_400(self):
        response = ResultService(MemoryStore()).handle(
            "GET", "/experiments/E3", params={"format": "yaml"}
        )
        assert response.status == 400

    def test_metrics_counts_requests(self):
        service = ResultService(MemoryStore())
        service.handle("GET", "/healthz")
        service.handle("GET", "/nope")
        payload = body_of(service.handle("GET", "/metrics"))
        assert payload["requests_total"] == 3
        assert payload["errors"] == 1
        assert payload["requests"]["healthz"] == 1


class TestExperimentETag:
    def test_cold_executes_then_304_without_execution(self, tiny):
        service = ResultService(MemoryStore())
        cold = service.handle("GET", f"/experiments/{tiny}")
        assert cold.status == 200
        assert cold.headers["X-Repro-Executed"] == str(len(TINY_SWEEP))
        etag = cold.headers["ETag"]

        warm = service.handle(
            "GET", f"/experiments/{tiny}", headers={"If-None-Match": etag}
        )
        assert warm.status == 304 and warm.body == b""
        metrics = body_of(service.handle("GET", "/metrics"))
        assert metrics["etag_not_modified"] == 1
        assert metrics["experiment_executions"] == len(TINY_SWEEP)

    def test_unconditional_warm_hit_serves_cache_with_zero_executed(self, tiny):
        service = ResultService(MemoryStore())
        cold = service.handle("GET", f"/experiments/{tiny}")
        warm = service.handle("GET", f"/experiments/{tiny}")
        assert warm.status == 200 and warm.body == cold.body
        assert warm.headers["X-Repro-Executed"] == "0"
        assert body_of(service.handle("GET", "/metrics"))["render_cache_hits"] == 1

    def test_etag_moves_when_the_store_grows(self, tiny):
        store = MemoryStore()
        service = ResultService(store)
        etag = service.handle("GET", f"/experiments/{tiny}").headers["ETag"]
        run_sweep(SweepSpec(sizes=(8,), name="more"), store=store)
        stale = service.handle(
            "GET", f"/experiments/{tiny}", headers={"If-None-Match": etag}
        )
        assert stale.status == 200
        assert stale.headers["ETag"] != etag

    def test_warm_store_cold_service_never_executes(self, tiny, tmp_path):
        with FileStore(tmp_path / "store") as store:
            run_sweep(TINY_SWEEP, store=store)
        with FileStore(tmp_path / "store") as store:
            service = ResultService(store)
            response = service.handle("GET", f"/experiments/{tiny}")
            assert response.status == 200
            assert response.headers["X-Repro-Executed"] == "0"
            assert (
                body_of(service.handle("GET", "/metrics"))["experiment_executions"]
                == 0
            )

    def test_markdown_bytes_match_golden_and_json_matches_cli_renderer(self):
        """The service serves byte-identical output to the offline pipeline."""
        store = MemoryStore()
        service = ResultService(store)
        response = service.handle("GET", "/experiments/E3")
        assert response.body.decode("utf-8") == golden("e3_full") + "\n"

        result = aggregate_from_store(experiment_spec("E3"), store)
        as_json = service.handle("GET", "/experiments/E3", params={"format": "json"})
        assert as_json.body.decode("utf-8") == result.render("json") + "\n"
        payload = json.loads(as_json.body)
        assert payload["experiment"] == "E3" and payload["rows"]


class TestRuns:
    @pytest.fixture(scope="class")
    def service(self):
        store = MemoryStore()
        run_sweep(SweepSpec(sizes=(4, 6, 8), seeds=(0, 1), name="r"), store=store)
        run_sweep(SweepSpec(problems=("esst",), sizes=(4, 5), name="r"), store=store)
        return ResultService(store)

    def test_listing_paginates_in_canonical_order(self, service):
        first = body_of(service.handle("GET", "/runs", params={"limit": "3"}))
        assert first["count"] == 3 and first["more"] is True
        rest = body_of(
            service.handle("GET", "/runs", params={"limit": "100", "offset": "3"})
        )
        assert rest["more"] is False
        keys = [r["key"] for r in first["runs"]] + [r["key"] for r in rest["runs"]]
        assert len(keys) == 8 == len(set(keys))
        everything = body_of(service.handle("GET", "/runs", params={"limit": "100"}))
        assert [r["key"] for r in everything["runs"]] == keys

    def test_filters(self, service):
        esst = body_of(service.handle("GET", "/runs", params={"problem": "esst"}))
        assert esst["count"] == 2
        sized = body_of(
            service.handle(
                "GET", "/runs", params={"n_min": "5", "n_max": "6", "problem": "rendezvous"}
            )
        )
        assert sized["count"] == 2
        assert all(5 <= r["n"] <= 6 for r in sized["runs"])

    def test_bad_paging_params_are_400(self, service):
        assert service.handle("GET", "/runs", params={"limit": "x"}).status == 400
        assert service.handle("GET", "/runs", params={"limit": "0"}).status == 400
        assert service.handle("GET", "/runs", params={"offset": "-1"}).status == 400

    def test_get_run_by_key_and_prefix(self, service):
        key = body_of(service.handle("GET", "/runs", params={"limit": "1"}))["runs"][0][
            "key"
        ]
        full = body_of(service.handle("GET", f"/runs/{key}"))
        assert full["key"] == key and full["spec"]["problem"] in ("esst", "rendezvous")
        assert body_of(service.handle("GET", f"/runs/{key[:12]}"))["key"] == key

    def test_missing_key_is_404(self, service):
        assert service.handle("GET", "/runs/feedfacefeedface").status == 404

    def test_ambiguous_prefix_is_400(self, service):
        keys = sorted(service.store.keys())
        prefix = next(
            (
                a[:length]
                for length in range(1, 64)
                for a, b in zip(keys, keys[1:])
                if a[:length] == b[:length]
            ),
            None,
        )
        if prefix is None:  # pragma: no cover - 8 hashes, no shared prefix
            pytest.skip("store keys share no prefix")
        response = service.handle("GET", f"/runs/{prefix}")
        assert response.status == 400 and "ambiguous" in body_of(response)["error"]


class TestSweepLifecycle:
    def test_post_drains_to_the_same_records_as_a_serial_sweep(self, tmp_path):
        store = FileStore(tmp_path / "store")
        service = ResultService(store, queue=str(tmp_path / "q"))
        sweep = {"sizes": [4, 6], "seeds": [0, 1]}

        accepted = service.handle(
            "POST", "/sweeps", body=json.dumps({"sweep": sweep, "unit_size": 2}).encode()
        )
        assert accepted.status == 202
        doc = body_of(accepted)
        jid = doc["job"]
        assert doc["units"] == 2 and doc["cells"] == 4
        assert accepted.headers["Location"] == f"/sweeps/{jid}/status"

        status = body_of(service.handle("GET", f"/sweeps/{jid}/status"))
        assert status["state"] == "pending"

        worker = Worker(str(tmp_path / "q"), worker_id="w0", poll=0.01)
        totals = worker.run()
        assert totals["units"] == 2

        status = body_of(service.handle("GET", f"/sweeps/{jid}/status"))
        assert status["state"] == "done"
        assert status["cells"]["executed"] == 4
        progress = body_of(service.handle("GET", f"/sweeps/{jid}/progress"))
        assert progress["fraction"] == 1.0

        merge_stores([str(worker.store_dir)], store)
        serial = run_sweep(SweepSpec.from_dict(sweep))
        for record in serial:
            assert store.get(record.spec.key()) == record
        store.close()

    def test_repost_is_idempotent(self, tmp_path):
        service = ResultService(MemoryStore(), queue=str(tmp_path / "q"))
        payload = json.dumps({"sweep": {"sizes": [5], "seeds": [0, 1]}}).encode()
        first = body_of(service.handle("POST", "/sweeps", body=payload))
        second = body_of(service.handle("POST", "/sweeps", body=payload))
        assert first["job"] == second["job"]

    def test_fully_cached_sweep_is_born_done(self, tmp_path):
        store = MemoryStore()
        sweep = SweepSpec(sizes=(4,), seeds=(0,), name="cached")
        run_sweep(sweep, store=store)
        service = ResultService(store, queue=str(tmp_path / "q"))
        doc = body_of(
            service.handle("POST", "/sweeps", body=json.dumps(sweep.to_dict()).encode())
        )
        assert doc["units"] == 0 and doc["skipped_cached"] == 1
        status = body_of(service.handle("GET", f"/sweeps/{doc['job']}/status"))
        assert status["state"] == "done"

    def test_cancel_tombstones_and_workers_skip(self, tmp_path):
        service = ResultService(MemoryStore(), queue=str(tmp_path / "q"))
        doc = body_of(
            service.handle(
                "POST",
                "/sweeps",
                body=json.dumps({"sweep": {"sizes": [4, 6], "seeds": [0]}}).encode(),
            )
        )
        jid = doc["job"]
        report = body_of(service.handle("POST", f"/sweeps/{jid}/cancel"))
        assert report["cancelled"] == doc["units"]
        assert (
            body_of(service.handle("GET", f"/sweeps/{jid}/status"))["state"]
            == "cancelled"
        )
        totals = Worker(str(tmp_path / "q"), worker_id="w0", poll=0.01).run()
        assert totals["units"] == 0 and totals["executed"] == 0
        again = body_of(service.handle("POST", f"/sweeps/{jid}/cancel"))
        assert again["already_cancelled"] == doc["units"]

    def test_errors(self, tmp_path):
        without_queue = ResultService(MemoryStore())
        assert without_queue.handle("POST", "/sweeps", body=b"{}").status == 503
        assert without_queue.handle("GET", "/sweeps/abc/status").status == 503

        service = ResultService(MemoryStore(), queue=str(tmp_path / "q"))
        assert service.handle("POST", "/sweeps", body=b"not json").status == 400
        assert service.handle("POST", "/sweeps", body=b"[1]").status == 400
        bogus = json.dumps({"sweep": {"bogus_field": 1}}).encode()
        assert service.handle("POST", "/sweeps", body=bogus).status == 400
        assert service.handle("GET", "/sweeps/missing/status").status == 404
        assert service.handle("POST", "/sweeps/missing/cancel").status == 404

    @pytest.mark.parametrize(
        "sweep",
        [{"sizes": [4], "seeds": []}, {"families": "ring"}],
        ids=["empty-dimension", "bare-string"],
    )
    def test_ill_formed_grid_is_400_and_writes_nothing(self, tmp_path, sweep):
        service = ResultService(MemoryStore(), queue=str(tmp_path / "q"))
        response = service.handle("POST", "/sweeps", body=json.dumps({"sweep": sweep}).encode())
        assert response.status == 400
        assert "undispatchable sweep: SweepSpec field" in body_of(response)["error"]
        assert not list(service.jobs.jobs_root.glob("*"))
        assert service.jobs.queue.units() == []
        events = service.jobs.queue.journal().events()
        assert not [event for event in events if event["type"] in ("job.submit", "sweep.dispatch")]

    def test_job_id_is_content_addressed(self):
        assert job_id(["u1", "u2"]) == job_id(["u1", "u2"])
        assert job_id(["u1", "u2"]) != job_id(["u2", "u1"])


class TestOverHTTP:
    """A few requests through a real socket — the plumbing, not the logic."""

    @pytest.fixture()
    def served(self, live):
        host, port = live[1]
        return f"http://{host}:{port}"

    def test_get_and_conditional_get(self, served, tiny):
        with urllib.request.urlopen(f"{served}/experiments/{tiny}") as response:
            assert response.status == 200
            etag = response.headers["ETag"]
            assert response.headers["X-Repro-Executed"] == "0"
            assert b"tiny serve-test experiment" in response.read()
        conditional = urllib.request.Request(
            f"{served}/experiments/{tiny}", headers={"If-None-Match": etag}
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(conditional)
        assert err.value.code == 304

    def test_post_sweep_and_poll_status(self, served):
        request = urllib.request.Request(
            f"{served}/sweeps",
            data=json.dumps({"sweep": {"sizes": [9], "seeds": [7]}}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 202
            doc = json.load(response)
        with urllib.request.urlopen(f"{served}{doc['status_url']}") as response:
            assert json.load(response)["state"] == "pending"

    def test_404_carries_json_body(self, served):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{served}/bogus")
        assert err.value.code == 404
        assert "error" in json.load(err.value)

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_a_400_and_a_close(self, live, length):
        request = (
            f"POST /sweeps HTTP/1.1\r\nHost: test\r\nContent-Length: {length}\r\n\r\n"
        ).encode()
        with socket.create_connection(live[1], timeout=10) as client:
            client.sendall(request)
            # The server answers without reading a body, then hangs up: the
            # read below ends at EOF instead of timing out.
            raw = b""
            while chunk := client.recv(65536):
                raw += chunk
        status, headers, body = _split_response(raw)
        assert status == 400
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        assert length in json.loads(body)["error"]


class _RecordingSocket(socket.socket):
    """A real TCP socket that records every chunk the server sends."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chunks = []

    def send(self, data, *args):
        self.chunks.append(bytes(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.chunks.append(bytes(data))
        return super().sendall(data, *args)


def _split_response(raw: bytes):
    """``(status, headers, body)`` of one complete raw HTTP response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


class TestKeepAlive:
    """Many requests over one connection: bytes, statuses, and one write each."""

    def test_one_connection_serves_every_response_byte_identically(self, live, tiny):
        service, address = live
        keys = sorted(service.store.keys())
        etags = {}
        plan = []
        for round_ in range(3):
            for fmt in ("markdown", "json"):
                plan.append(("experiment", f"/experiments/{tiny}", {"format": fmt}))
                plan.append(("conditional", f"/experiments/{tiny}", {"format": fmt}))
            plan.append(("runs", "/runs", {"limit": "2", "offset": str(round_)}))
            plan.append(("run", f"/runs/{keys[round_]}", {}))
            plan.append(("error", "/runs", {"limit": "0"}))
            plan.append(("error", "/no-such-endpoint", {}))
        conn = http.client.HTTPConnection(*address, timeout=10)
        statuses = []
        sock = None
        for kind, path, params in plan:
            headers = {}
            if kind == "conditional":
                headers["If-None-Match"] = etags[params["format"]]
            query = f"?{urlencode(params)}" if params else ""
            conn.request("GET", path + query, headers=headers)
            response = conn.getresponse()
            body = response.read()
            sock = sock or conn.sock
            assert conn.sock is sock  # still the first connection
            expected = service.handle("GET", path, params=params, headers=headers)
            assert response.status == expected.status
            assert body == expected.body
            if kind == "experiment":
                assert response.getheader("ETag") == expected.headers["ETag"]
                etags[params["format"]] = response.getheader("ETag")
            statuses.append(response.status)
        conn.close()
        assert len(plan) >= 20
        assert {200, 304, 400, 404} <= set(statuses)

    def test_each_small_response_leaves_in_one_write(self, tiny):
        store = MemoryStore()
        run_sweep(TINY_SWEEP, store=store)
        service = ResultService(store)
        key = sorted(store.keys())[0]
        paths = ["/healthz", f"/experiments/{tiny}?format=json", "/runs?limit=2",
                 f"/runs/{key}", "/no-such-endpoint"]
        requests = b"".join(
            f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode() for path in paths
        ) + b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        paths.append("/healthz")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = socket.create_connection(listener.getsockname())
            accepted, peer = listener.accept()
        with client:
            client.sendall(requests)
            conn = _RecordingSocket(
                accepted.family, accepted.type, accepted.proto, fileno=accepted.detach()
            )
            conn.settimeout(10)  # a handler waiting for more input fails, not hangs
            with conn:
                handler = type("Recorded", (_Handler,), {"service": service})
                handler(conn, peer, None)
                assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert len(conn.chunks) == len(paths)
        for chunk, path in zip(conn.chunks, paths):
            status, headers, body = _split_response(chunk)
            assert int(headers["Content-Length"]) == len(body)
            parsed = urlsplit(path)
            params = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
            expected = service.handle("GET", parsed.path, params=params)
            assert (status, body) == (expected.status, expected.body)


class TestReadWhileWrite:
    def test_concurrent_reads_during_appends_never_error(self, tmp_path):
        """GETs racing a writer appending to the same FileStore stay clean:
        no torn records, no stale-index failures, monotonically growing
        listings."""
        root = tmp_path / "store"
        with FileStore(root, writer="seed") as seeder:
            run_sweep(SweepSpec(sizes=(4,), seeds=(0,), name="seed"), store=seeder)

        service = ResultService(FileStore(root, writer="reader"))
        records = list(run_sweep(SweepSpec(sizes=(5, 6, 7), seeds=(0, 1), name="w")))
        failures = []
        counts = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                listing = service.handle("GET", "/runs", params={"limit": "100"})
                metrics = service.handle("GET", "/metrics")
                if listing.status != 200 or metrics.status != 200:
                    failures.append((listing.status, metrics.status))
                    return
                counts.append(json.loads(listing.body)["count"])

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        with FileStore(root, writer="appender") as writer:
            for record in records:
                writer.put(record)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)

        assert not failures
        assert counts and max(counts) <= 1 + len(records)
        final = service.handle("GET", "/runs", params={"limit": "100"})
        assert json.loads(final.body)["count"] == 1 + len(records)
        for record in records:
            fetched = service.handle("GET", f"/runs/{record.spec.key()}")
            assert fetched.status == 200
        service.store.close()


class TestSweepJobsDirect:
    def test_load_missing_job_raises(self, tmp_path):
        jobs = SweepJobs(tmp_path / "q")
        from repro.exceptions import QueueError

        with pytest.raises(QueueError, match="no sweep job"):
            jobs.load("beef")

    def test_job_file_is_one_canonical_json_line(self, tmp_path):
        jobs = SweepJobs(tmp_path / "q")
        job = jobs.submit(SweepSpec(sizes=(4,), seeds=(0,), name="g"))
        text = jobs.job_path(job["job"]).read_text(encoding="utf-8")
        assert text == json.dumps(job, sort_keys=True, separators=(",", ":")) + "\n"
        assert [path.name for path in jobs.jobs_root.iterdir()] == [f"{job['job']}.json"]

    def test_in_flight_gauge(self, tmp_path):
        jobs = SweepJobs(tmp_path / "q")
        assert jobs.in_flight() == 0
        jobs.submit(SweepSpec(sizes=(4,), seeds=(0,), name="g"))
        assert jobs.in_flight() == 1
        Worker(str(tmp_path / "q"), worker_id="w0", poll=0.01).run()
        assert jobs.in_flight() == 0


class TestEventsEndpoint:
    def _drained_service(self, tmp_path):
        store = MemoryStore()
        service = ResultService(store, queue=str(tmp_path / "q"))
        sweep = {"sizes": [4, 6], "seeds": [0, 1]}
        body = json.dumps({"sweep": sweep, "unit_size": 2}).encode()
        jid = body_of(service.handle("POST", "/sweeps", body=body))["job"]
        Worker(str(tmp_path / "q"), worker_id="w0", poll=0.01).run()
        return service, jid

    def test_events_page_filters_and_etag(self, tmp_path):
        service, jid = self._drained_service(tmp_path)
        response = service.handle("GET", "/events")
        assert response.status == 200
        payload = body_of(response)
        types = {event["type"] for event in payload["events"]}
        assert {"job.submit", "sweep.dispatch", "unit.claim", "cell.done",
                "unit.done", "worker.heartbeat"} <= types
        assert payload["count"] == payload["total"] and not payload["more"]
        assert payload["dropped"] == 0
        submits = [e for e in payload["events"] if e["type"] == "job.submit"]
        assert [e["job"] for e in submits] == [jid]

        etag = response.headers["ETag"]
        again = service.handle("GET", "/events", headers={"if-none-match": etag})
        assert again.status == 304

        page = body_of(service.handle("GET", "/events", params={"limit": "3"}))
        assert page["count"] == 3 and page["more"] is True
        rest = body_of(
            service.handle(
                "GET", "/events", params={"limit": "1000", "offset": "3"}
            )
        )
        assert rest["count"] == page["total"] - 3

        cells = body_of(
            service.handle("GET", "/events", params={"type": "cell.done"})
        )
        assert {e["type"] for e in cells["events"]} == {"cell.done"}
        assert cells["total"] == 4

    def test_events_validates_parameters(self, tmp_path):
        service, _jid = self._drained_service(tmp_path)
        assert service.handle("GET", "/events", params={"limit": "0"}).status == 400
        assert service.handle("GET", "/events", params={"offset": "-1"}).status == 400
        assert service.handle("GET", "/events", params={"since": "noon"}).status == 400
        late = body_of(
            service.handle("GET", "/events", params={"since": "9999999999"})
        )
        assert late["total"] == 0

    def test_events_and_fleet_require_a_queue(self):
        service = ResultService(MemoryStore())
        assert service.handle("GET", "/events").status == 503
        assert service.handle("GET", "/fleet").status == 503

    def test_fleet_snapshot(self, tmp_path):
        service, _jid = self._drained_service(tmp_path)
        payload = body_of(service.handle("GET", "/fleet"))
        assert payload["queue"]["done"] == 2
        assert payload["remaining_cells"] == 0
        (worker,) = payload["workers"]
        assert worker["worker"] == "w0" and worker["stale"] is False

    def test_cancelled_cells_are_not_remaining(self, tmp_path, capsys):
        # Four one-cell units: three run, one is cancelled and never will.
        service = ResultService(MemoryStore(), queue=str(tmp_path / "q"))
        doc = {"sweep": {"sizes": [4, 6], "seeds": [0, 1]}, "unit_size": 1}
        jid = body_of(service.handle("POST", "/sweeps", body=json.dumps(doc).encode()))["job"]
        queue = WorkQueue(tmp_path / "q")
        unit_ids = SweepJobs(queue).load(jid)["unit_ids"]
        assert queue.cancel_unit(unit_ids[3]) == "cancelled"
        Worker(str(tmp_path / "q"), worker_id="w0", poll=0.01).run()
        fleet = body_of(service.handle("GET", "/fleet"))
        assert (fleet["queue"]["done"], fleet["queue"]["cancelled"]) == (3, 1)
        assert fleet["remaining_cells"] == 0 and fleet["eta_seconds"] is None
        assert queue.fleet(lease_ttl=30.0)["remaining_cells"] == 0
        assert main(["top", "--queue", str(tmp_path / "q"), "--once"]) == 0
        assert "remaining cells: 0" in capsys.readouterr().out

    def test_job_status_counts_are_the_queue_status_of_its_units(self, tmp_path):
        service = ResultService(MemoryStore(), queue=str(tmp_path / "q"))
        first = {"sweep": {"sizes": [4, 6], "seeds": [0, 1]}, "unit_size": 1}
        jid = body_of(service.handle("POST", "/sweeps", body=json.dumps(first).encode()))["job"]
        other = {"sweep": {"sizes": [5], "seeds": [0]}, "unit_size": 1}
        service.handle("POST", "/sweeps", body=json.dumps(other).encode())
        queue = WorkQueue(tmp_path / "q")
        unit_ids = SweepJobs(queue).load(jid)["unit_ids"]
        assert queue.try_claim(unit_ids[0], "dead", ttl=-1)
        assert queue.try_claim(unit_ids[0], "w1", ttl=60)
        assert queue.cancel_unit(unit_ids[1]) == "cancelled"
        Worker(str(tmp_path / "q"), worker_id="w2", poll=0.01, max_units=1).run()
        now = time.time()
        status = SweepJobs(queue).status(jid, now=now)
        counts = queue.status(unit_ids, now=now)
        assert status["units"] == {
            state: counts[state]
            for state in ("units", "done", "cancelled", "claimed", "pending")
        }
        assert status["units"]["units"] == 4 and counts["units"] < len(queue.units())
        for counter in ("executed", "salvaged", "cached"):
            assert status["cells"][counter] == counts[counter]
        served = body_of(service.handle("GET", f"/sweeps/{jid}/status"))
        assert served["units"] == status["units"] and served["state"] == "running"

    def test_queue_status_heartbeats_name_the_fleet_workers(self, tmp_path, capsys):
        service, _jid = self._drained_service(tmp_path)
        Worker(str(tmp_path / "q"), worker_id="w1", poll=0.01).run()
        assert main(["queue", "status", "--queue", str(tmp_path / "q"), "--json"]) == 0
        beats = json.loads(capsys.readouterr().out)["heartbeats"]
        fleet = body_of(service.handle("GET", "/fleet"))
        names = [worker["worker"] for worker in fleet["workers"]]
        assert [beat["worker"] for beat in beats] == names == ["w0", "w1"]
        for beat, worker in zip(beats, fleet["workers"]):
            assert set(beat) == set(worker)
            assert worker["last_event_age"] <= worker["age"]

    def test_index_lists_observability_endpoints(self, tmp_path):
        service = ResultService(MemoryStore(), queue=str(tmp_path / "q"))
        endpoints = body_of(service.handle("GET", "/"))["endpoints"]
        assert any("GET /events" in e for e in endpoints)
        assert any("GET /fleet" in e for e in endpoints)
