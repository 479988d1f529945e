"""The HTTP result service: the store + experiments + queue fabric as an API.

A deliberately minimal serving tier — stdlib ``http.server`` only, one
:class:`ResultService` whose :meth:`~ResultService.handle` maps a parsed
request to a :class:`Response` without touching a socket (which is what the
tests drive), and a thin :class:`ThreadingHTTPServer` wrapper around it.

Read path
---------
``GET /experiments/<name>`` renders a registered experiment through the
same :func:`~repro.analysis.experiment_spec.aggregate_from_store` /
:func:`~repro.analysis.experiment_spec.run_experiment` pipeline as the CLI,
so the bytes served equal the bytes ``repro experiment`` prints.  Every
response carries an ETag built from the experiment's content hash
(:func:`~repro.analysis.experiment_spec.experiment_key`) and the store's
:meth:`~repro.store.base.ResultStore.generation` stamp: a repeat request
with ``If-None-Match`` is answered ``304 Not Modified`` from the two hashes
alone — no record reads, no aggregation, no rendering, and never an
execution.  Unconditional repeats hit a bounded rendered-bytes cache keyed
by the same ETag.  ``GET /runs`` pages the store's canonical-order query
layer; ``GET /runs/<key>`` fetches one record by (a unique prefix of) its
content address.

Write path
----------
``POST /sweeps`` dispatches a :class:`~repro.runtime.spec.SweepSpec` onto
the queue fabric and returns a content-keyed job id (see
:mod:`repro.serve.jobs`); ``GET /sweeps/<id>/status`` / ``…/progress``
observe the unit lease/done files; ``POST /sweeps/<id>/cancel`` tombstones
unclaimed units.  The service itself never executes sweep cells — workers
drain the queue, and a store merge makes their records servable.

Fleet observability
-------------------
``GET /events`` pages the queue's durable event journal
(:mod:`repro.obs.events`) in ``(ts, writer, seq)`` order, filterable by
``type`` / ``worker`` / ``unit`` / ``since`` and ETag'd on the journal
shards' change fingerprint — a quiet fleet answers conditional polls with
``304`` without reading a single event line.  ``GET /fleet`` summarises the
live fleet from the latest worker heartbeats (age, unit in flight,
progress, staleness against the lease TTL) plus queue totals, throughput
and an ETA — the JSON twin of ``repro top``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..analysis.experiment_spec import (
    EXPERIMENTS,
    ExperimentSpec,
    aggregate_from_store,
    experiment_spec,
    run_experiment,
)
from ..analysis.render import FORMATS
from ..distrib.dispatcher import DEFAULT_UNIT_SIZE
from ..distrib.queue import WorkQueue
from ..distrib.worker import DEFAULT_LEASE_TTL
from ..exceptions import QueueError, ReproError
from ..obs.metrics import MetricsRegistry
from ..runtime.records import RunRecord
from ..runtime.spec import SweepSpec
from ..store.base import ResultStore
from .jobs import SweepJobs

__all__ = ["Response", "ResultService", "make_server", "DEFAULT_PORT"]

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8642

#: Rendered-bytes cache entries kept per service (FIFO eviction).
_RENDER_CACHE_SIZE = 128

#: MIME type per table format.
_CONTENT_TYPES = {
    "markdown": "text/markdown; charset=utf-8",
    "csv": "text/csv; charset=utf-8",
    "json": "application/json; charset=utf-8",
}

#: Most /runs a single page may return.
MAX_PAGE_LIMIT = 1000

#: Default /runs page size.
DEFAULT_PAGE_LIMIT = 50


class Response(NamedTuple):
    """One materialised HTTP response: status, extra headers, body bytes."""

    status: int
    headers: Dict[str, str]
    body: bytes


class _HTTPError(Exception):
    """Internal control flow: unwound into a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _json_response(
    payload: Any, status: int = 200, headers: Optional[Dict[str, str]] = None
) -> Response:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    merged = {"Content-Type": _CONTENT_TYPES["json"]}
    if headers:
        merged.update(headers)
    return Response(status, merged, body)


def _int_param(params: Dict[str, str], name: str, default: int) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise _HTTPError(400, f"query parameter {name!r} must be an integer, got {raw!r}")


def _run_summary(record: RunRecord) -> Dict[str, Any]:
    key = record.spec.key()
    return {
        "key": key,
        "problem": record.problem,
        "family": record.family,
        "n": record.graph_size,
        "seed": record.seed,
        "scheduler": record.scheduler,
        "ok": record.ok,
        "cost": record.cost,
        "url": f"/runs/{key}",
    }


class ResultService:
    """The routing/cache/metrics core of ``repro serve`` (socket-free).

    Parameters
    ----------
    store:
        The serving :class:`~repro.store.base.ResultStore`.  A
        :class:`~repro.store.filestore.FileStore` is refreshed before every
        read, so records appended by concurrent workers (or a ``store
        merge``) become servable without a restart.
    queue:
        Optional work-queue directory (or open
        :class:`~repro.distrib.queue.WorkQueue`) enabling the ``/sweeps``
        write path; without it those endpoints answer ``503``.
    unit_size:
        Default cells per dispatched work unit for ``POST /sweeps``.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        queue: Optional[Union[WorkQueue, str]] = None,
        unit_size: int = DEFAULT_UNIT_SIZE,
    ) -> None:
        self.store = store
        self.jobs = (
            None if queue is None else SweepJobs(queue, store=store, unit_size=unit_size)
        )
        self._lock = threading.RLock()
        self._render_cache: "OrderedDict[Tuple[str, str, str], Tuple[Response, str]]" = (
            OrderedDict()
        )
        # Per-instance registry: each service owns its counters (tests build
        # many fresh services; a process-global registry would smear them).
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "serve_http_requests_total", "HTTP requests answered, by route"
        )
        self._request_seconds = self.registry.histogram(
            "serve_http_request_seconds", "Request handling wall time, by route"
        )
        self._errors = self.registry.counter(
            "serve_http_errors_total", "Requests answered with an error body"
        )
        self._etag_not_modified = self.registry.counter(
            "serve_etag_not_modified_total", "Conditional requests answered 304"
        )
        self._render_cache_ops = self.registry.counter(
            "serve_render_cache_total", "Rendered-bytes cache lookups, by outcome"
        )
        self._renders = self.registry.counter(
            "serve_renders_total", "Experiment tables rendered"
        )
        self._experiment_executions = self.registry.counter(
            "serve_experiment_executions_total", "Sweep cells executed by cold GETs"
        )
        self._sweeps = self.registry.counter(
            "serve_sweeps_total", "Sweep write-path operations, by action"
        )

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
        body: bytes = b"",
    ) -> Response:
        """Answer one request.  Thread-safe; never raises for request errors
        (they become JSON ``4xx``/``5xx`` bodies), so every handler thread
        of the HTTP server funnels through here without ceremony."""
        params = params or {}
        headers = {key.lower(): value for key, value in (headers or {}).items()}
        with self._lock:
            started = time.perf_counter()
            try:
                route, response = self._route(method, path, params, headers, body)
            except _HTTPError as error:
                route, response = "error", _json_response(
                    {"error": str(error)}, status=error.status
                )
                self._errors.inc()
            except ReproError as error:
                route, response = "error", _json_response(
                    {"error": str(error)}, status=400
                )
                self._errors.inc()
            # Counted after routing, so a served ``/metrics`` body reflects
            # every *prior* request per route — the historical semantics.
            self._requests.inc(route=route)
            self._request_seconds.observe(time.perf_counter() - started, route=route)
            return response

    def _route(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[str, Response]:
        parts = [part for part in path.split("/") if part]
        if not parts:
            return "index", self._index()
        head, rest = parts[0], parts[1:]
        if head == "healthz" and not rest:
            self._need(method, "GET")
            return "healthz", _json_response({"ok": True})
        if head == "metrics" and not rest:
            self._need(method, "GET")
            return "metrics", self._metrics(params)
        if head == "experiments":
            self._need(method, "GET")
            if not rest:
                return "experiments", self._list_experiments()
            if len(rest) == 1:
                return "experiment", self._get_experiment(rest[0], params, headers)
        if head == "runs":
            self._need(method, "GET")
            if not rest:
                return "runs", self._list_runs(params)
            if len(rest) == 1:
                return "run", self._get_run(rest[0])
        if head == "sweeps":
            if not rest:
                self._need(method, "POST")
                return "sweep_submit", self._submit_sweep(body)
            if len(rest) == 2 and rest[1] in ("status", "progress", "cancel"):
                self._need(method, "POST" if rest[1] == "cancel" else "GET")
                return f"sweep_{rest[1]}", self._sweep(rest[1], rest[0])
        if head == "events" and not rest:
            self._need(method, "GET")
            return "events", self._events(params, headers)
        if head == "fleet" and not rest:
            self._need(method, "GET")
            return "fleet", self._fleet()
        raise _HTTPError(404, f"no such endpoint: {method} {path}")

    @staticmethod
    def _need(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"method {method} not allowed (use {expected})")

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _index(self) -> Response:
        return _json_response(
            {
                "service": "repro serve",
                "endpoints": {
                    "GET /healthz": "liveness probe",
                    "GET /metrics": (
                        "request / cache / execution counters "
                        "(?format=prom for Prometheus text format)"
                    ),
                    "GET /experiments": "registered experiments",
                    "GET /experiments/<name>?format=markdown|csv|json": (
                        "rendered experiment table (ETag: experiment key + store generation)"
                    ),
                    "GET /runs?problem=&family=&scheduler=&n_min=&n_max=&ok=&limit=&offset=": (
                        "stored run records, canonical order, paginated"
                    ),
                    "GET /runs/<spec_key>": "one stored record (unique prefixes allowed)",
                    "POST /sweeps": "dispatch a SweepSpec onto the work queue",
                    "GET /sweeps/<id>/status": "aggregate job state",
                    "GET /sweeps/<id>/progress": "per-unit lease/done detail",
                    "POST /sweeps/<id>/cancel": "tombstone the job's unclaimed units",
                    "GET /events?type=&worker=&unit=&since=&limit=&offset=": (
                        "the queue's durable event journal, paginated "
                        "(ETag: journal change fingerprint)"
                    ),
                    "GET /fleet": "live workers from heartbeats + queue totals",
                },
                "sweeps_enabled": self.jobs is not None,
            }
        )

    def _metrics(self, params: Optional[Dict[str, str]] = None) -> Response:
        """The metrics endpoint: legacy JSON by default, Prometheus on demand.

        ``?format=prom`` renders the per-service registry in the Prometheus
        text exposition format.  The JSON shape (and its counting semantics —
        ``requests_total`` includes the request being served, the per-route
        map does not) is unchanged from the pre-registry implementation.
        """
        format = (params or {}).get("format", "json")
        self.registry.gauge("serve_store_records", "Records in the serving store").set(
            len(self.store)
        )
        self.registry.gauge(
            "serve_render_cache_entries", "Rendered-bytes cache entries"
        ).set(len(self._render_cache))
        self.registry.gauge(
            "serve_sweeps_in_flight", "Dispatched sweep jobs not yet drained"
        ).set(0 if self.jobs is None else self.jobs.in_flight())
        if format == "prom":
            return Response(
                200,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                self.registry.render_prom().encode("utf-8"),
            )
        if format != "json":
            raise _HTTPError(400, f"unknown metrics format {format!r}: use json or prom")
        per_route = {
            dict(labels).get("route", ""): int(value)
            for labels, value in self._requests.samples()
        }
        payload = {
            # The in-flight request (this one) was counted at entry by the
            # dict implementation; the registry counts after routing, so the
            # served total adds it back.
            "requests_total": sum(per_route.values()) + 1,
            "requests": per_route,
            "errors": int(self._errors.value()),
            "etag_not_modified": int(self._etag_not_modified.value()),
            "render_cache_hits": int(self._render_cache_ops.value(outcome="hit")),
            "render_cache_misses": int(self._render_cache_ops.value(outcome="miss")),
            "renders": int(self._renders.value()),
            "experiment_executions": int(self._experiment_executions.value()),
            "sweeps_dispatched": int(self._sweeps.value(action="dispatched")),
            "sweeps_cancelled": int(self._sweeps.value(action="cancelled")),
            "store_records": len(self.store),
            "render_cache_entries": len(self._render_cache),
            "sweeps_in_flight": 0 if self.jobs is None else self.jobs.in_flight(),
        }
        return _json_response(payload)

    def _list_experiments(self) -> Response:
        experiments = []
        for name in EXPERIMENTS.names():
            spec = experiment_spec(name)
            experiments.append(
                {
                    "name": name,
                    "title": spec.title,
                    "cells": len(spec.cell_specs()),
                    "url": f"/experiments/{name}",
                }
            )
        return _json_response({"experiments": experiments})

    def _etag(self, spec: ExperimentSpec) -> str:
        return f'"{spec.key()}.{self.store.generation()}"'

    def _get_experiment(
        self, name: str, params: Dict[str, str], headers: Dict[str, str]
    ) -> Response:
        format = params.get("format", "markdown")
        if format not in FORMATS:
            raise _HTTPError(
                400, f"unknown format {format!r}; available: {sorted(FORMATS)}"
            )
        try:
            spec = experiment_spec(name)
        except ReproError as error:
            raise _HTTPError(404, str(error))
        self.store.refresh()
        etag = self._etag(spec)
        if_none_match = headers.get("if-none-match", "")
        if if_none_match and (etag in if_none_match or if_none_match.strip() == "*"):
            # The warm-hit fast path: two hashes decided nothing changed —
            # zero record reads, zero renders, zero executions.
            self._etag_not_modified.inc()
            return Response(304, {"ETag": etag}, b"")
        cache_key = (name, format, etag)
        cached = self._render_cache.get(cache_key)
        if cached is not None:
            self._render_cache_ops.inc(outcome="hit")
            self._render_cache.move_to_end(cache_key)
            return cached[0]
        self._render_cache_ops.inc(outcome="miss")
        try:
            result = aggregate_from_store(spec, self.store)
        except ReproError:
            # Cold: some cells are not stored yet.  Execute them through the
            # ordinary experiment pipeline (persisting as they complete),
            # then restamp the ETag — the store generation just moved.
            result = run_experiment(spec, store=self.store)
            self._experiment_executions.inc(result.executed)
            etag = self._etag(spec)
            cache_key = (name, format, etag)
        self._renders.inc()
        body = (result.render(format) + "\n").encode("utf-8")
        base_headers = {
            "Content-Type": _CONTENT_TYPES[format],
            "ETag": etag,
            "X-Repro-Cells": str(len(result.records)),
        }
        response = Response(
            200, {**base_headers, "X-Repro-Executed": str(result.executed)}, body
        )
        # Replays of this entry did not execute anything, whatever the cold
        # request that populated it had to do — cache a zeroed header.
        self._render_cache[cache_key] = (
            Response(200, {**base_headers, "X-Repro-Executed": "0"}, body),
            etag,
        )
        while len(self._render_cache) > _RENDER_CACHE_SIZE:
            self._render_cache.popitem(last=False)
        return response

    def _list_runs(self, params: Dict[str, str]) -> Response:
        self.store.refresh()
        matches: Dict[str, Any] = {}
        for name in ("problem", "family", "scheduler"):
            if name in params:
                matches[name] = params[name]
        n_min = _int_param(params, "n_min", 0)
        n_max = _int_param(params, "n_max", -1)
        if "n_min" in params or "n_max" in params:
            matches["n_range"] = (n_min, n_max if n_max >= 0 else (1 << 62))
        if "ok" in params:
            matches["ok"] = params["ok"].lower() in ("1", "true", "yes")
        limit = _int_param(params, "limit", DEFAULT_PAGE_LIMIT)
        offset = _int_param(params, "offset", 0)
        if not 0 < limit <= MAX_PAGE_LIMIT:
            raise _HTTPError(400, f"limit must be in 1..{MAX_PAGE_LIMIT}, got {limit}")
        if offset < 0:
            raise _HTTPError(400, f"offset must be non-negative, got {offset}")
        # One extra record decides "more" without a full count of the match set.
        result = self.store.query(limit=limit + 1, offset=offset, **matches)
        page = result.records[:limit]
        return _json_response(
            {
                "runs": [_run_summary(record) for record in page],
                "count": len(page),
                "offset": offset,
                "limit": limit,
                "more": len(result.records) > limit,
            }
        )

    def _get_run(self, key: str) -> Response:
        self.store.refresh()
        record = self.store.get(key) if len(key) == 64 else None
        if record is None:
            hits = sorted(stored for stored in self.store.keys() if stored.startswith(key))
            if len(hits) > 1:
                raise _HTTPError(
                    400, f"key prefix {key!r} is ambiguous ({len(hits)} matches)"
                )
            record = self.store.get(hits[0]) if hits else None
        if record is None:
            raise _HTTPError(404, f"no stored record matches key {key!r}")
        payload = record.to_dict()
        payload["key"] = record.spec.key()
        return _json_response(payload)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _need_jobs(self) -> SweepJobs:
        if self.jobs is None:
            raise _HTTPError(
                503, "no work queue configured; restart with repro serve --queue DIR"
            )
        return self.jobs

    def _submit_sweep(self, body: bytes) -> Response:
        jobs = self._need_jobs()
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HTTPError(400, f"request body is not JSON: {error}")
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        unit_size = payload.pop("unit_size", None) if "sweep" in payload else None
        sweep_data = payload.get("sweep", payload)
        if not isinstance(sweep_data, dict):
            raise _HTTPError(400, "'sweep' must be a SweepSpec JSON object")
        try:
            sweep = SweepSpec.from_dict(sweep_data).validate()
            job = jobs.submit(
                sweep, unit_size=None if unit_size is None else int(unit_size)
            )
        except (ReproError, TypeError, ValueError) as error:
            raise _HTTPError(400, f"undispatchable sweep: {error}")
        self._sweeps.inc(action="dispatched")
        jid = job["job"]
        return _json_response(
            {
                "job": jid,
                "cells": job["cells"],
                "skipped_cached": job["skipped_cached"],
                "units": len(job["unit_ids"]),
                "status_url": f"/sweeps/{jid}/status",
                "progress_url": f"/sweeps/{jid}/progress",
            },
            status=202,
            headers={"Location": f"/sweeps/{jid}/status"},
        )

    def _sweep(self, action: str, jid: str) -> Response:
        jobs = self._need_jobs()
        try:
            if action == "status":
                return _json_response(jobs.status(jid))
            if action == "progress":
                return _json_response(jobs.progress(jid))
            report = jobs.cancel(jid)
        except QueueError as error:
            raise _HTTPError(404, str(error))
        self._sweeps.inc(action="cancelled")
        return _json_response(report)

    # ------------------------------------------------------------------
    # fleet observability
    # ------------------------------------------------------------------
    def _events(self, params: Dict[str, str], headers: Dict[str, str]) -> Response:
        """Page the journal; conditional polls are decided by one fingerprint."""
        journal = self._need_jobs().queue.journal()
        limit = _int_param(params, "limit", DEFAULT_PAGE_LIMIT)
        offset = _int_param(params, "offset", 0)
        if not 0 < limit <= MAX_PAGE_LIMIT:
            raise _HTTPError(400, f"limit must be in 1..{MAX_PAGE_LIMIT}, got {limit}")
        if offset < 0:
            raise _HTTPError(400, f"offset must be non-negative, got {offset}")
        since: Optional[float] = None
        if "since" in params:
            try:
                since = float(params["since"])
            except ValueError:
                raise _HTTPError(
                    400,
                    f"query parameter 'since' must be a timestamp, got {params['since']!r}",
                )
        etag = f'"events.{journal.generation()}"'
        if_none_match = headers.get("if-none-match", "")
        if if_none_match and (etag in if_none_match or if_none_match.strip() == "*"):
            self._etag_not_modified.inc()
            return Response(304, {"ETag": etag}, b"")
        events = journal.events(
            type=params.get("type"),
            worker=params.get("worker"),
            unit=params.get("unit"),
            since=since,
        )
        page = events[offset : offset + limit]
        return _json_response(
            {
                "events": page,
                "count": len(page),
                "total": len(events),
                "offset": offset,
                "limit": limit,
                "more": offset + limit < len(events),
                "dropped": journal.dropped,
            },
            headers={"ETag": etag},
        )

    def _fleet(self) -> Response:
        """The live fleet: ``repro top``'s JSON twin."""
        return _json_response(self._need_jobs().queue.fleet(DEFAULT_LEASE_TTL))


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Socket adapter: parse, delegate to the service, write the response.

    The response is buffered and leaves in one write when the request is
    done (``wbufsize = -1``), on a socket with Nagle's algorithm off: a
    keep-alive client never waits on its delayed ACK for a second segment.
    """

    service: ResultService  # injected by make_server via a subclass attribute
    quiet = True
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - log formatting only
            super().log_message(format, *args)

    def _dispatch(self, method: str) -> None:
        parsed = urlsplit(self.path)
        params = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # Where the body ends is unknown, so the connection cannot carry
            # another request: answer and hang up (send_header sets
            # close_connection for "Connection: close").
            self._send(_json_response(
                {"error": f"invalid Content-Length {raw_length!r}"},
                status=400,
                headers={"Connection": "close"},
            ))
            return
        body = self.rfile.read(length) if length else b""
        self._send(self.service.handle(
            method, parsed.path, params=params, headers=dict(self.headers), body=body
        ))

    def _send(self, response: Response) -> None:
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        if response.body and response.status != 304:
            self.wfile.write(response.body)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


def make_server(
    service: ResultService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for ``service`` (``port=0`` picks a free
    one; read it back from ``server.server_address``).  The caller owns the
    serve_forever/shutdown lifecycle — and the store's, whose handle must
    outlive the server."""
    handler = type(
        "ReproRequestHandler", (_Handler,), {"service": service, "quiet": quiet}
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
