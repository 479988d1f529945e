"""Tests of the telemetry layer: metrics registry, tracing, profiling.

The load-bearing guarantees:

* metrics and tracing are **off by default** and cost nothing when off —
  an untraced run produces a byte-identical :class:`RunRecord`;
* a trace's counters, span counts and events are deterministic for a fixed
  spec (only measured seconds vary);
* the registry is thread-safe (the HTTP service records into one instance
  from ``ThreadingHTTPServer`` threads);
* ``render_prom`` emits the Prometheus text exposition format exactly.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    Tracer,
    current_tracer,
    deterministic_view,
    disable_metrics,
    enable_metrics,
    engine_coverage,
    format_profile,
    get_registry,
    use_tracer,
)
from repro.runtime.records import RunRecord
from repro.runtime.runner import run
from repro.runtime.spec import ScenarioSpec
from repro.serve import ResultService, make_server
from repro.store import MemoryStore


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "Things")
        counter.inc()
        counter.inc(2, kind="a")
        counter.inc(3, kind="a")
        assert counter.value() == 1
        assert counter.value(kind="a") == 5
        assert counter.value(kind="never") == 0

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12

    def test_histogram_counts_sum_and_buckets(self):
        histogram = MetricsRegistry().histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(6.25)
        assert histogram.cumulative_buckets(()) == [
            (0.1, 1),
            (1.0, 3),
            (float("inf"), 4),
        ]

    def test_same_name_same_instrument_wrong_kind_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total")
        assert registry.counter("x_total") is counter
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_prom_exposition_golden(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", "Scenario runs").inc(3, problem="teams")
        registry.gauge("repro_depth").set(2.5)
        histogram = registry.histogram("repro_wait_seconds", "Waits", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        assert registry.render_prom() == (
            "# TYPE repro_depth gauge\n"
            "repro_depth 2.5\n"
            "# HELP repro_runs_total Scenario runs\n"
            "# TYPE repro_runs_total counter\n"
            'repro_runs_total{problem="teams"} 3\n'
            "# HELP repro_wait_seconds Waits\n"
            "# TYPE repro_wait_seconds histogram\n"
            'repro_wait_seconds_bucket{le="0.1"} 1\n'
            'repro_wait_seconds_bucket{le="1"} 2\n'
            'repro_wait_seconds_bucket{le="+Inf"} 2\n'
            "repro_wait_seconds_sum 0.55\n"
            "repro_wait_seconds_count 2\n"
        )

    def test_prom_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(1, path='a"b\\c')
        assert 'c_total{path="a\\"b\\\\c"} 1' in registry.render_prom()

    def test_json_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.counter("b_total").inc(1, kind="x")
        registry.histogram("h_seconds").observe(0.25)
        snapshot = json.loads(registry.render_json())
        assert snapshot["a_total"] == 2
        assert snapshot["b_total"] == {"kind=x": 1}
        assert snapshot["h_seconds"] == {"count": 1, "sum": 0.25}

    def test_registry_is_thread_safe(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        histogram = registry.histogram("lat_seconds")
        threads = [
            threading.Thread(
                target=lambda: [
                    (counter.inc(thread=str(t % 2)), histogram.observe(0.01))
                    for _ in range(500)
                ],
            )
            for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(thread="0") + counter.value(thread="1") == 4000
        assert histogram.count() == 4000

    def test_disabled_registry_hands_out_noops(self):
        null = MetricsRegistry(enabled=False)
        counter = null.counter("x_total")
        counter.inc(99)
        assert counter.value() == 0
        assert null.names() == []
        assert null.render_prom() == ""

    def test_global_registry_defaults_to_null_and_toggles(self):
        assert get_registry() is NULL_REGISTRY
        try:
            live = enable_metrics()
            assert get_registry() is live and live.enabled
            assert enable_metrics() is live  # idempotent
        finally:
            disable_metrics()
        assert get_registry() is NULL_REGISTRY


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_accumulate_under_an_injected_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("work"):
            pass  # 0 -> 1
        start = tracer.clock()  # 2
        tracer.add_span("work", start)  # 3 - 2
        trace = tracer.finish()
        assert trace.spans["work"] == {"count": 2, "seconds": 2.0}

    def test_events_are_bounded(self):
        tracer = Tracer(max_events=2)
        for index in range(5):
            tracer.event("meeting", index=index)
        trace = tracer.finish()
        assert [event["index"] for event in trace.events] == [0, 1]
        assert trace.events_dropped == 3

    def test_ambient_tracer_scoping(self):
        assert current_tracer() is None
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with use_tracer(None):
                assert current_tracer() is None
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_to_dict_sorts_and_versions(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.count("b", 2)
        tracer.count("a")
        payload = tracer.finish().to_dict()
        assert list(payload["counters"]) == ["a", "b"]
        assert payload["schema"] == 1


# ----------------------------------------------------------------------
# traced runs end to end
# ----------------------------------------------------------------------
TEAMS_SPEC = ScenarioSpec(
    problem="teams", family="ring", size=4, seed=0, team_size=2, scheduler="round_robin"
)


@pytest.fixture(scope="module")
def plain_record():
    return run(TEAMS_SPEC)


@pytest.fixture(scope="module")
def traced_record():
    return run(TEAMS_SPEC, trace=True)


@pytest.fixture(scope="module")
def traced_again():
    return run(TEAMS_SPEC, trace=True)


class TestTracedRuns:
    def test_untraced_run_is_byte_identical(self, plain_record, traced_record):
        # Stripping the trace key recovers the plain record exactly — so
        # traced and untraced records share a spec key in the store.
        stripped = tuple(kv for kv in traced_record.extra if kv[0] != "trace")
        assert stripped == plain_record.extra
        assert run(TEAMS_SPEC).to_json() == plain_record.to_json()

    def test_trace_is_deterministic_for_a_fixed_spec(
        self, traced_record, traced_again
    ):
        first = traced_record.extra_dict["trace"]
        second = traced_again.extra_dict["trace"]
        assert deterministic_view(first) == deterministic_view(second)
        assert first["counters"]["engine.decisions"] > 0
        # Parking runs also tally the agents ``max_safe_advance`` examined.
        spec = ScenarioSpec(
            problem="rendezvous", family="ring", size=6, seed=8, labels=(2, 9),
            starts=(1, 4), scheduler="avoider",
        )
        first, second = (run(spec, trace=True).extra_dict["trace"] for _ in range(2))
        assert deterministic_view(first) == deterministic_view(second)
        assert "engine.fused_loop" in first["spans"]
        assert first["counters"]["engine.msa_agents_scanned"] > 0

    def test_trace_round_trips_through_record_json(self, traced_record):
        rebuilt = RunRecord.from_dict(json.loads(traced_record.to_json()))
        assert rebuilt == traced_record

    def test_engine_coverage_and_profile_table(self, traced_record):
        trace = traced_record.extra_dict["trace"]
        coverage = engine_coverage(trace)
        assert coverage is not None and coverage > 0.5
        table = format_profile(trace)
        assert "engine.run" in table and "% of run" in table
        assert "engine coverage:" in table and "counters:" in table

    def test_esst_trace_has_no_engine_span(self):
        spec = ScenarioSpec(problem="esst", family="ring", size=5, seed=0)
        trace = run(spec, trace=True).extra_dict["trace"]
        assert engine_coverage(trace) is None
        assert trace["spans"]["run"]["count"] == 1


# ----------------------------------------------------------------------
# the registry under a threading HTTP server
# ----------------------------------------------------------------------
class TestServeRegistry:
    def test_concurrent_requests_count_exactly(self):
        service = ResultService(MemoryStore())
        server = make_server(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        urllib.request.urlopen(f"{base}/healthz").read()
                        for _ in range(25)
                    ]
                )
                for _ in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            with urllib.request.urlopen(f"{base}/metrics") as response:
                metrics = json.load(response)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert metrics["requests"]["healthz"] == 100
        assert metrics["requests_total"] == 101  # the /metrics call itself
        assert metrics["errors"] == 0

    def test_prom_format_over_http(self):
        service = ResultService(MemoryStore())
        service.handle("GET", "/healthz")
        response = service.handle("GET", "/metrics", params={"format": "prom"})
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = response.body.decode("utf-8")
        assert "# TYPE serve_http_requests_total counter" in text
        assert 'serve_http_requests_total{route="healthz"} 1' in text
        assert "serve_http_request_seconds_bucket" in text

    def test_unknown_metrics_format_is_400(self):
        service = ResultService(MemoryStore())
        response = service.handle("GET", "/metrics", params={"format": "xml"})
        assert response.status == 400


class TestProfileFooter:
    def test_events_dropped_lands_in_the_trace_and_the_footer(self):
        """Satellite: the tracer's drop counter survives into the persisted
        payload and the profile footer names it."""
        tracer = Tracer(max_events=1)
        with tracer.span("run"):
            for index in range(4):
                tracer.event("meeting", index=index)
        payload = tracer.finish().to_dict()
        assert payload["events_dropped"] == 3
        rendered = format_profile(payload)
        assert "events: 1 recorded, 3 dropped" in rendered

    def test_footer_is_omitted_without_events(self):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        rendered = format_profile(tracer.finish().to_dict())
        assert "recorded" not in rendered
