"""``serve``: one closed-loop client against ``repro serve`` on loopback.

The store holds every registered experiment's cells plus a seeded bulk of
cheap rendezvous and tick-simulation cells (about 5k records, computed once
per run before set-up).  Set-up writes them into a fresh FileStore, opens
the serving handle, builds the :class:`ResultService` and binds
``make_server`` on an ephemeral loopback port.

A pass is a write that appends a new record through a second FileStore
handle with its own writer namespace (so the store generation moves and
later experiment GETs miss the render cache), then 41 requests sent one at
a time over one keep-alive connection, as a closed-loop client sends them:
a filtered ``GET /runs`` page, then ``GET /runs/<key>``, unconditional
``GET /experiments/<name>`` (json or markdown, popular names more often),
conditional GETs carrying the last ETag seen and more pages, in a seeded
order.  So a write comes every 41 requests.

On the keep-alive connection every response with a body waits about 40 ms
(the server sends headers and body in two writes, and the client's delayed
ACK holds the second); that wait is part of what a client sees, so it is
part of every latency.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import shutil
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

from harness import PassResult, Workload, digest, log

#: Requests of a pass after its write and first page, in a seeded order:
#: record reads, unconditional and conditional experiment GETs, and pages
#: that find the store already re-read.
MIX = (("run", 26), ("experiment", 5), ("conditional", 5), ("runs", 4))
BULK_RENDEZVOUS = 4000
BULK_TICK = 800
FORMATS = ("json", "markdown")


class ServeWorkload(Workload):
    name = "serve"
    # A run holds 200-250 requests, so p95 has barely ten samples beyond
    # it; p90 has twenty and lies inside one cluster, the pages.
    tail_percentile = 90

    def __init__(self, seed, scratch, tracer) -> None:
        super().__init__(seed, scratch, tracer)
        from repro.analysis.experiment_spec import EXPERIMENTS

        self.experiments = [name for name in EXPERIMENTS.names() if name != "bounds"]
        # Zipf-like popularity: a few tables draw most of the reads.
        self.popularity = [1.0 / rank for rank in range(1, len(self.experiments) + 1)]
        self.bulk = self._bulk_cells()
        self.bulk_keys = sorted({cell.key() for cell in self.bulk})
        self.records: list = []
        self.writable: list = []
        self.writes = 0
        self.expected: Dict[Tuple[str, str], bytes] = {}
        self.etags: Dict[Tuple[str, str], str] = {}
        self.store = self.writer = self.service = self.server = None
        self.thread: Optional[threading.Thread] = None
        self.conn: Optional[http.client.HTTPConnection] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.setups = 0
        self._cache_base: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def _bulk_cells(self) -> list:
        from repro.runtime.spec import ScenarioSpec

        rng = random.Random(f"perfbench-serve-bulk:{self.seed}")
        cells = []
        for _ in range(BULK_RENDEZVOUS):
            small = rng.randrange(1, 32)
            cells.append(ScenarioSpec(
                problem="rendezvous",
                family=rng.choice(("ring", "path", "star", "complete")),
                size=rng.randrange(4, 9),
                seed=rng.randrange(1_000_000),
                labels=(small, rng.randrange(small + 1, 64)),
                scheduler="random",
                max_traversals=20_000,
            ))
        for _ in range(BULK_TICK):
            cells.append(ScenarioSpec(
                problem=rng.choice(("tick_leader", "tick_gossip")),
                family="ring",
                size=rng.randrange(4, 7),
                seed=rng.randrange(1_000_000),
                problem_params={"interleaving": "random", "max_ticks": 400},
            ))
        return cells

    def ops(self, index: int) -> list:
        """The request sequence of pass ``index``.

        A write, then a ``/runs`` page — the first read after the write, so
        it re-reads the whole store — then ``MIX`` in a seeded order.  Every
        pass costs alike, and the percentiles fall inside one route each:
        p50 among the record reads, p90 among the later pages.
        """
        rng = random.Random(f"perfbench-serve:{self.seed}:{index}")
        kinds = [kind for kind, count in MIX for _ in range(count)]
        rng.shuffle(kinds)
        ops: list = [("write",)]
        for kind in ["runs"] + kinds:
            if kind == "run":
                ops.append(("run", rng.choice(self.bulk_keys)))
            elif kind == "runs":
                offset = rng.randrange(0, 1000)
                ops.append(("runs", urlencode({"problem": "rendezvous", "limit": 50, "offset": offset})))
            else:
                name = rng.choices(self.experiments, weights=self.popularity)[0]
                ops.append((kind, name, "json" if rng.random() < 0.75 else "markdown"))
        return ops

    def inputs_digest(self) -> str:
        return digest({
            "bulk": [cell.to_dict() for cell in self.bulk],
            "ops": [self.ops(index) for index in range(3)],
        })

    def prepare(self) -> None:
        """Compute every record the store will hold (input generation)."""
        from repro.analysis.experiment_spec import run_experiment
        from repro.runtime.executors import run_sweep

        started = time.perf_counter()
        records = {}
        for name in self.experiments:
            for record in run_experiment(name).records:
                records[record.spec.key()] = record
        bulk = run_sweep(self.bulk).records
        for record in bulk:
            records[record.spec.key()] = record
        self.records = list(records.values())
        # Records to append during the run: met rendezvous cells re-keyed
        # with a larger traversal budget.  A budget the run never reached
        # does not change its outcome, so each is the true record of its spec.
        self.writable = [
            record for record in bulk
            if record.spec.problem == "rendezvous" and record.reason == "meeting"
        ]
        log(f"[serve] computed {len(self.records)} records in {time.perf_counter() - started:.1f}s")

    def _next_write(self):
        base = self.writable[self.writes % len(self.writable)]
        budget = base.spec.max_traversals + 1 + self.writes // len(self.writable)
        self.writes += 1
        spec = dataclasses.replace(base.spec, max_traversals=budget)
        return dataclasses.replace(base, spec=spec)

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.serve.app import ResultService, make_server
        from repro.store.filestore import FileStore

        self.setups += 1
        root = self.scratch / f"serve-store-{self.setups}"
        with FileStore(root) as fresh:
            for record in self.records:
                fresh.put(record)
        self.root = root
        self.store = FileStore(root)
        self.service = ResultService(self.store)
        self.server = make_server(self.service, host="127.0.0.1", port=0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.writer = FileStore(root, writer="perfbench-writer")
        self.address = self.server.server_address[:2]
        # The client's one connection, kept alive across requests (and
        # reopened by http.client should the server close it).
        self.conn = http.client.HTTPConnection(*self.address, timeout=60)
        self.conn.request("GET", "/healthz")
        response = self.conn.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"serve set-up: /healthz answered {response.status}")
        self.etags = {}

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self.thread is not None:
            self.thread.join(timeout=30)
            self.thread = None
        for handle in (self.writer, self.store):
            if handle is not None:
                handle.close()
        self.writer = self.store = None
        if getattr(self, "root", None) is not None:
            shutil.rmtree(self.root, ignore_errors=True)

    def _offline_renders(self) -> Dict[Tuple[str, str], bytes]:
        """Every experiment rendered straight from a fresh store handle."""
        from repro.analysis.experiment_spec import aggregate_from_store, experiment_spec
        from repro.store.filestore import FileStore

        renders = {}
        with FileStore(self.root) as offline:
            for name in self.experiments:
                result = aggregate_from_store(experiment_spec(name), offline)
                for fmt in FORMATS:
                    renders[(name, fmt)] = (result.render(fmt) + "\n").encode("utf-8")
        return renders

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def run_pass(self, index: int) -> PassResult:
        if not self.expected:
            self.expected = self._offline_renders()
        if self.tracer.armed and self._cache_base is None:
            self._cache_base = self._cache_counts()
        latencies: List[float] = []
        problems: List[str] = []
        timed = 0.0
        requests = 0
        for op in self.ops(index):
            if op[0] == "write":
                record = self._next_write()
                with self.timed() as clock:
                    with self.tracer.span("serve.write"):
                        self.writer.put(record)
                        self.writer.flush()
                timed += clock.seconds
                continue
            status, headers, body, seconds = self._request(op)
            timed += seconds
            latencies.append(seconds)
            requests += 1
            problem = self._check(op, status, headers, body)
            if problem:
                problems.append(problem)
        return PassResult(
            wall=timed,
            units=requests,
            unit_seconds=timed,
            latencies=latencies,
            timed=timed,
            attempted=requests,
            failed=len(problems),
            problems=problems,
        )

    def _request(self, op) -> Tuple[int, Dict[str, str], bytes, float]:
        headers = {}
        if op[0] in ("experiment", "conditional"):
            path = f"/experiments/{op[1]}?format={op[2]}"
            etag = self.etags.get((op[1], op[2]))
            if op[0] == "conditional" and etag is not None:
                headers["If-None-Match"] = etag
        elif op[0] == "run":
            path = f"/runs/{op[1]}"
        else:
            path = f"/runs?{op[1]}"
        tracer = self.tracer
        with self.timed() as clock:
            with tracer.span("serve.http") as span:
                tracer.expect_remote(span.frame)
                try:
                    self.conn.request("GET", path, headers=headers)
                    response = self.conn.getresponse()
                    body = response.read()
                finally:
                    tracer.expect_remote(None)
        return response.status, dict(response.getheaders()), body, clock.seconds

    def _check(self, op, status: int, headers: Dict[str, str], body: bytes) -> Optional[str]:
        if status not in (200, 304):
            return f"{op}: status {status}: {body[:200]!r}"
        if op[0] in ("experiment", "conditional"):
            key = (op[1], op[2])
            if status == 304:
                return None if op[0] == "conditional" else f"{op}: 304 without If-None-Match"
            self.etags[key] = headers.get("ETag", "")
            if headers.get("X-Repro-Executed") != "0":
                return f"{op}: the service executed cells"
            if body != self.expected[key]:
                return f"{op}: body differs from the offline render"
            return None
        if status != 200:
            return f"{op}: status {status}"
        payload = json.loads(body)
        if op[0] == "run":
            return None if payload.get("key") == op[1] else f"{op}: wrong record"
        return None if payload.get("count", 0) <= 50 else f"{op}: page too long"

    def finish(self) -> List[str]:
        # Writes never touch experiment cells, so a render at the final
        # generation must equal the one every 200 body was compared with.
        if self.expected and self._offline_renders() != self.expected:
            return ["offline renders changed between generations"]
        return []

    def _cache_counts(self) -> Tuple[float, float]:
        counter = self.service.registry.counter(
            "serve_render_cache_total", "Rendered-bytes cache lookups, by outcome"
        )
        return counter.value(outcome="hit"), counter.value(outcome="miss")

    def layer_extras(self) -> Dict[str, float]:
        hits, misses = self._cache_counts()
        base_hits, base_misses = self._cache_base or (0.0, 0.0)
        hits, misses = hits - base_hits, misses - base_misses
        return {"serve.render_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0}
