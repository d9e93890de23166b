"""The asyncio HTTP front end: jobs in, progress streams out.

Stdlib only — ``asyncio.start_server`` plus a hand-rolled HTTP/1.1
handler (request line, headers, ``Content-Length`` bodies, chunked
responses).  One connection serves one request (``Connection: close``),
which keeps the parser honest and the streaming path trivial.

API (see ``docs/SERVING.md`` and ``docs/TELEMETRY.md``)::

    GET  /healthz            liveness
    GET  /stats              server-wide counters (coalescing, cache,
                             per-worker state, backpressure)
    GET  /metrics            Prometheus text exposition of the fleet
                             metric catalog
    GET  /logs?job=&level=   structured JSON log records from the
                             bounded in-memory ring (``level``: that
                             level and above; 400 when unknown)
    POST /jobs               submit a sweep spec -> 202 {"job": {...}}
                             400 bad spec, 429 + Retry-After when full;
                             an ``X-Repro-Trace`` header joins the
                             job to the client's trace
    GET  /jobs/<id>          job snapshot (state + counts)
    GET  /jobs/<id>/stream   chunked NDJSON progress events, replayed
                             from the start, until the job is done;
                             ``heartbeat`` records fill silent gaps
    GET  /jobs/<id>/result   per-cell rows once the job is done (409
                             while it is still running)
    GET  /jobs/<id>/spans    the job's finished span tree (latency
                             attribution; root duration == job wall
                             time)

Per-cell flow: probe the on-disk result cache inline (microseconds —
the warm-hit path never touches a worker), else ship the cell to the
work-stealing pool; either way the computation is wrapped in the
single-flight table so identical cells across concurrent jobs resolve
to one computation.  Every stage is a span (``cell`` -> ``flight`` ->
``cache.probe`` / ``queue.wait`` / ``worker.exec`` -> ``publish``), so
a job's latency decomposes the way a CPI stack decomposes cycles.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import json
import sys
import time
import urllib.parse
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.harness.engine import CellResult, ResultCache, SweepEngine, \
    default_cache_dir
from repro.obs.metrics import stream_points
from repro.obs.telemetry import Counter, Gauge, build_tree, \
    parse_trace_header
from repro.obs.telemetry.logs import LEVELS
from repro.obs.telemetry.spans import Span
from repro.serve.jobs import Busy, CellRecord, Job, JobStore
from repro.serve.scheduler import WorkerPool
from repro.serve.singleflight import SingleFlight
from repro.serve.spec import SpecError, expand_cells, parse_spec
from repro.serve.telemetry import FleetTelemetry

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            429: "Too Many Requests", 500: "Internal Server Error"}

#: Status the current request has written (contextvar: every client
#: connection is its own task, so concurrent requests cannot race it).
_STATUS: "contextvars.ContextVar[int]" = \
    contextvars.ContextVar("repro_serve_status", default=0)


def _route_of(method: str, target: str) -> str:
    """Normalized route label for the request counter (bounded label
    cardinality: job ids and unknown paths never become labels)."""
    path = target.partition("?")[0]
    if path.startswith("/jobs/"):
        parts = path.strip("/").split("/")
        tail = parts[2] if len(parts) > 2 else ""
        if tail in ("stream", "result", "spans"):
            return f"/jobs/<id>/{tail}"
        return "/jobs/<id>"
    if path in ("/healthz", "/stats", "/metrics", "/logs", "/jobs"):
        return path
    return "<other>"


@dataclasses.dataclass
class ServeConfig:
    """Knobs for one server instance."""

    host: str = "127.0.0.1"
    port: int = 8642                 # 0 = ephemeral (tests/benches)
    workers: int = 2
    #: Active (queued+running) jobs admitted before 429.
    max_jobs: int = 8
    #: Cells a single job may expand to (400 beyond it).
    max_cells_per_job: int = 4096
    #: Retry-After hint handed to backpressured clients, seconds.
    retry_after_s: float = 1.0
    #: Result-cache directory; ``None`` = the engine default
    #: (REPRO_CACHE_DIR or .repro-cache).  ``no_cache`` disables disk
    #: caching entirely — coalescing still dedupes concurrent cells.
    cache_dir: Optional[str] = None
    no_cache: bool = False
    #: Interval-sampler rows per cell progress event (observed cells).
    stream_tail: int = 16
    #: Seconds of stream silence before a ``heartbeat`` record is
    #: emitted (<= 0 disables heartbeats).  Clients size their stall
    #: timeout as N missed heartbeats.
    heartbeat_s: float = 2.0
    #: Echo every structured log record to stdout as a JSON line
    #: (``repro serve`` turns this on; embedded harnesses keep quiet).
    echo_logs: bool = False


class ServeApp:
    """One server: job store + single-flight table + worker pool."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        cache_dir: Optional[Path]
        if self.config.no_cache:
            cache_dir = None
        elif self.config.cache_dir:
            cache_dir = Path(self.config.cache_dir)
        else:
            cache_dir = default_cache_dir()
        self._cache_dir = cache_dir
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        #: Serial engine used only for its microsecond cache probe.
        self.engine = SweepEngine(jobs=1, cache=cache)
        self.store = JobStore(max_active=self.config.max_jobs,
                              retry_after_s=self.config.retry_after_s)
        self.flights = SingleFlight()
        self.pool = WorkerPool(workers=self.config.workers,
                               cache_dir=cache_dir)
        #: Cells whose serving has started (the other cell counts are
        #: ``telemetry.cells``, by source).
        self.cells_requested = 0
        self.telemetry = FleetTelemetry(
            self, echo=sys.stdout if self.config.echo_logs else None)
        self._server: Optional[asyncio.AbstractServer] = None
        self.port = self.config.port

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host,
            port=self.config.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.pool.close()

    # -- per-cell serving path --------------------------------------------

    async def _produce(self, job: Job, record: CellRecord,
                       parent: Span) -> Tuple[str, CellResult]:
        """Leader-side production: probe the cache, else go through the
        pool — with each stage attributed to its own span."""
        tele = self.telemetry
        tracer = tele.tracer
        probe_span = tracer.start("cache.probe", parent=parent,
                                  cell=record.index)
        probed = self.engine.probe_cell(record.cell)
        probe_ms = (time.perf_counter()  # sim-lint: ignore[SIM-D004]
                    - probe_span.start_s) * 1000.0
        tracer.finish(probe_span,
                      status="hit" if probed is not None else "miss")
        tele.cache_probe_ms.observe(
            probe_ms, result="hit" if probed is not None else "miss")
        if probed is not None:
            return "cache", probed

        queue_span = tracer.start("queue.wait", parent=parent,
                                  cell=record.index)
        slot: Dict[str, Span] = {}

        def _dispatched(worker_id: int, stolen: bool) -> None:
            tracer.finish(queue_span, worker=worker_id, stolen=stolen)
            slot["exec"] = tracer.start("worker.exec", parent=parent,
                                        cell=record.index,
                                        worker=worker_id)

        try:
            outcome = await self.pool.submit(record.cell,
                                             on_dispatch=_dispatched)
        except Exception:
            exec_span = slot.get("exec")
            if exec_span is not None:
                tracer.finish(exec_span, status="error")
            else:
                tracer.finish(queue_span, status="error")
            raise
        exec_span = slot.get("exec")
        if exec_span is not None:
            end_s = time.perf_counter()  # sim-lint: ignore[SIM-D004]
            # Attribute the execution window: the worker's reported
            # pure-simulation seconds, then cache store + transport.
            sim_end = min(exec_span.start_s + outcome.sim_s, end_s)
            sim_span = tracer.start("simulate", parent=exec_span,
                                    cell=record.index,
                                    start_s=exec_span.start_s)
            tracer.finish(sim_span, end_s=sim_end,
                          sim_s=round(outcome.sim_s, 6))
            store_span = tracer.start("cache.store", parent=exec_span,
                                      cell=record.index, start_s=sim_end,
                                      note="store + result transport")
            tracer.finish(store_span, end_s=end_s)
            tracer.finish(exec_span, end_s=end_s)
        return "computed", outcome

    async def _run_cell(self, job: Job, record: CellRecord) -> None:
        tele = self.telemetry
        tracer = tele.tracer
        self.cells_requested += 1
        record.status = "running"
        root = job.root_span if isinstance(job.root_span, Span) else None
        cell_span = tracer.start("cell", parent=root, job=job.id,
                                 cell=record.index,
                                 benchmark=record.cell.benchmark,
                                 label=record.cell.label,
                                 seed=record.cell.seed,
                                 digest=record.digest[:12])
        flight_span = tracer.start("flight", parent=cell_span,
                                   cell=record.index)
        started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        outcome: Optional[CellResult] = None
        try:
            led, (source, outcome) = await self.flights.run(
                record.digest,
                lambda: self._produce(job, record, flight_span))
        except Exception as error:  # noqa: BLE001 — fail the cell, not the job
            record.status = "failed"
            record.error = f"{type(error).__name__}: {error}"
            record.service_ms = round(
                (time.perf_counter() - started) * 1000.0, 3)  # sim-lint: ignore[SIM-D004]
            job.failed_cells += 1
            tracer.finish(flight_span, status="error")
            tele.cells.inc(source="failed")
            tele.cell_service_ms.observe(record.service_ms,
                                         source="failed")
            tele.ring.log("error", "cell.failed", trace=job.trace_id,
                          job=job.id, cell=record.index,
                          benchmark=record.cell.benchmark,
                          label=record.cell.label, error=record.error)
        else:
            if not led:
                source = "coalesced"
            stats = outcome.result.stats
            record.status = "done"
            record.source = source
            record.ipc = round(outcome.ipc, 6)
            record.cycles = stats.cycles
            record.committed = stats.committed
            record.sim_s = round(outcome.sim_s, 6)
            record.service_ms = round(
                (time.perf_counter() - started) * 1000.0, 3)  # sim-lint: ignore[SIM-D004]
            job.done_cells += 1
            tracer.finish(flight_span, source=source, coalesced=not led)
            tele.cells.inc(source=source)
            tele.cell_service_ms.observe(record.service_ms, source=source)
            tele.ring.log("info", "cell.done", trace=job.trace_id,
                          job=job.id, cell=record.index,
                          benchmark=record.cell.benchmark,
                          label=record.cell.label, source=source,
                          ipc=record.ipc, service_ms=record.service_ms)
        event = {"event": "cell", "job": job.id, **record.row()}
        if record.status == "done" and outcome is not None \
                and outcome.obs is not None:
            event["obs"] = {
                "samples": len(outcome.obs.samples),
                "tail": stream_points(outcome.obs.samples,
                                      self.config.stream_tail),
            }
        publish_span = tracer.start("publish", parent=cell_span,
                                    cell=record.index)
        await job.publish(event)
        tracer.finish(publish_span)
        tracer.finish(cell_span, status=record.status)

    async def _run_job(self, job: Job) -> None:
        tele = self.telemetry
        job.state = "running"
        tele.ring.log("info", "job.start", trace=job.trace_id, job=job.id,
                      n_cells=len(job.records))
        await job.publish({"event": "job", **job.summary()})
        await asyncio.gather(*[self._run_cell(job, record)
                               for record in job.records])
        await job.finish()
        root = job.root_span if isinstance(job.root_span, Span) else None
        if root is not None:
            # Root span == job wall time, exactly: same clock readings
            # the job summary's elapsed_s is computed from.
            tele.tracer.finish(root, end_s=job.finished_s, status="done",
                               done=job.done_cells,
                               failed=job.failed_cells)
        tele.ring.log("info", "job.done", trace=job.trace_id, job=job.id,
                      done=job.done_cells, failed=job.failed_cells,
                      elapsed_s=job.summary()["elapsed_s"])

    # -- HTTP plumbing ----------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        method = ""
        target = ""
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, headers, body = request
            await self._dispatch(method, target, headers, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # noqa: BLE001 — a request must not kill the server
            self.telemetry.ring.log(
                "error", "http.error", method=method, target=target,
                error=f"{type(error).__name__}: {error}")
            try:
                self._write_json(writer, 500,
                                 {"error": f"{type(error).__name__}: "
                                           f"{error}"})
            except (ConnectionError, RuntimeError):
                pass
        finally:
            if method:
                status = _STATUS.get()
                self.telemetry.http_requests.inc(
                    route=_route_of(method, target), method=method,
                    status=str(status) if status else "aborted")
                if status >= 400:
                    self.telemetry.ring.log("warning", "http.rejected",
                                            method=method, target=target,
                                            status=status)
            try:
                writer.close()
            except RuntimeError:
                pass

    @staticmethod
    async def _read_request(
            reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        body = await reader.readexactly(length) if length > 0 else b""
        return method, target, headers, body

    @staticmethod
    def _write_json(writer: asyncio.StreamWriter, status: int,
                    payload: Dict[str, object],
                    extra_headers: Optional[List[str]] = None) -> None:
        body = json.dumps(payload).encode()
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        lines.extend(extra_headers or [])
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        _STATUS.set(status)

    @staticmethod
    def _write_text(writer: asyncio.StreamWriter, status: int,
                    text: str) -> None:
        body = text.encode()
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: text/plain; version=0.0.4; "
                "charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        _STATUS.set(status)

    async def _dispatch(self, method: str, target: str,
                        headers: Dict[str, str], body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        path, _, query = target.partition("?")
        if path == "/healthz" and method == "GET":
            self._write_json(writer, 200, {"ok": True})
        elif path == "/stats" and method == "GET":
            self._write_json(writer, 200, self.stats())
        elif path == "/metrics" and method == "GET":
            self._write_text(writer, 200, self.telemetry.registry.render())
        elif path == "/logs" and method == "GET":
            self._logs(query, writer)
        elif path == "/jobs" and method == "POST":
            self._submit(body, headers, writer)
        elif path.startswith("/jobs/"):
            await self._job_routes(method, path, writer)
        else:
            self._write_json(writer, 404, {"error": f"no route {target}"})
        await writer.drain()

    def _logs(self, query: str, writer: asyncio.StreamWriter) -> None:
        params = urllib.parse.parse_qs(query)
        job = params.get("job", [None])[0]
        level = params.get("level", [None])[0]
        if level is not None and level not in LEVELS:
            self._write_json(writer, 400, {
                "error": f"unknown level {level!r}; choose from: "
                         f"{', '.join(LEVELS)}"})
            return
        try:
            limit = int(params.get("limit", ["200"])[0])
        except ValueError:
            limit = 200
        rows = self.telemetry.ring.rows(job=job, level=level,
                                        limit=max(limit, 1))
        self._write_json(writer, 200,
                         {"records": rows,
                          "dropped": self.telemetry.ring.dropped})

    def _submit(self, body: bytes, headers: Dict[str, str],
                writer: asyncio.StreamWriter) -> None:
        tele = self.telemetry
        tracer = tele.tracer
        trace_id, parent_id = parse_trace_header(
            headers.get("x-repro-trace"))
        submit_span = tracer.start(
            "http.submit",
            trace_id=trace_id if trace_id else tracer.new_trace_id(),
            parent_id=parent_id)
        parse_span = tracer.start("spec.parse", parent=submit_span)

        def _reject(status: int, message: str,
                    extra: Optional[List[str]] = None,
                    payload_extra: Optional[Dict[str, object]] = None,
                    ) -> None:
            tracer.finish(submit_span, status="rejected", http=status)
            tele.ring.log("warning", "submit.rejected",
                          trace=submit_span.trace_id, status=status,
                          error=message)
            reply: Dict[str, object] = {"error": message}
            reply.update(payload_extra or {})
            self._write_json(writer, status, reply, extra_headers=extra)

        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as error:
            tracer.finish(parse_span, status="error")
            _reject(400, f"body is not JSON: {error}")
            return
        try:
            spec = parse_spec(payload)
        except SpecError as error:
            tracer.finish(parse_span, status="error")
            _reject(400, str(error))
            return
        if spec.n_cells > self.config.max_cells_per_job:
            tracer.finish(parse_span, status="error")
            _reject(400, f"job expands to {spec.n_cells} cells, over "
                         f"the {self.config.max_cells_per_job}-cell "
                         "cap; split the sweep")
            return
        tracer.finish(parse_span, n_cells=spec.n_cells)
        admit_span = tracer.start("admit", parent=submit_span)
        try:
            job = self.store.admit(spec, expand_cells(spec))
        except Busy as error:
            tracer.finish(admit_span, status="busy")
            _reject(429, str(error),
                    extra=[f"Retry-After: "
                           f"{max(1, int(error.retry_after_s))}"],
                    payload_extra={"retry_after_s": error.retry_after_s})
            return
        tracer.finish(admit_span, job=job.id)
        tele.jobs_admitted.inc()
        job.trace_id = submit_span.trace_id
        # Re-home the admission-time spans under the job so they show
        # up in /jobs/<id>/spans, then open the job's root span pinned
        # to the same clock reading elapsed_s counts from.
        tracer.adopt(parse_span, job.id)
        tracer.adopt(admit_span, job.id)
        submit_span.job = job.id
        job.root_span = tracer.start("job", parent=submit_span,
                                     job=job.id, start_s=job.created_s,
                                     n_cells=len(job.records))
        asyncio.ensure_future(self._run_job(job))
        self._write_json(writer, 202, {
            "job": job.summary(),
            "heartbeat_s": self.config.heartbeat_s})
        tracer.finish(submit_span, job_id=job.id)

    async def _job_routes(self, method: str, path: str,
                          writer: asyncio.StreamWriter) -> None:
        parts = path.strip("/").split("/")
        job = self.store.get(parts[1]) if len(parts) >= 2 else None
        if job is None or method != "GET":
            status = 405 if job is not None else 404
            self._write_json(writer, status,
                             {"error": f"no job at {path}"})
            return
        tail = parts[2] if len(parts) > 2 else ""
        if tail == "":
            self._write_json(writer, 200, {"job": job.summary()})
        elif tail == "stream":
            await self._stream_job(job, writer)
        elif tail == "result":
            if job.state != "done":
                self._write_json(writer, 409,
                                 {"error": f"job {job.id} is {job.state}; "
                                           "stream or poll until done"})
            else:
                self._write_json(writer, 200,
                                 {"job": job.summary(),
                                  "cells": job.result_rows()})
        elif tail == "spans":
            spans = self.telemetry.tracer.job_spans(job.id)
            self._write_json(writer, 200, {
                "job": job.id,
                "trace": job.trace_id,
                "state": job.state,
                "spans": spans,
                # The tree roots at the "job" span, which is retained
                # when the job finishes — None while still running.
                "tree": build_tree(spans)})
        else:
            self._write_json(writer, 404, {"error": f"no route {path}"})

    async def _stream_job(self, job: Job,
                          writer: asyncio.StreamWriter) -> None:
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head)
        _STATUS.set(200)

        def _chunk(payload: Dict[str, object]) -> bytes:
            data = (json.dumps(payload) + "\n").encode()
            return b"%x\r\n" % len(data) + data + b"\r\n"

        heartbeat_s = self.config.heartbeat_s
        index = 0
        while True:
            if heartbeat_s > 0:
                try:
                    events = await asyncio.wait_for(
                        job.events_after(index), timeout=heartbeat_s)
                except asyncio.TimeoutError:
                    # Nothing happened for a full interval: tell the
                    # client the server (and the job) are still alive.
                    self.telemetry.heartbeats.inc()
                    writer.write(_chunk({
                        "event": "heartbeat", "job": job.id,
                        "state": job.state, "done": job.done_cells,
                        "failed": job.failed_cells,
                        "n_cells": len(job.records),
                        "pending": self.pool.pending()}))
                    try:
                        await writer.drain()
                    except ConnectionError:
                        return
                    continue
            else:
                events = await job.events_after(index)
            if not events:
                break
            index += len(events)
            for event in events:
                writer.write(_chunk(event))
            try:
                await writer.drain()
            except ConnectionError:
                return
        writer.write(b"0\r\n\r\n")

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` body.  Each single count ``/metrics`` also
        reports is read through its registry metric, so the two cannot
        disagree; per-worker rows, log records by level and what only
        ``/stats`` shows are read from their owner."""
        tele = self.telemetry
        cache = self.engine.cache
        ring = tele.ring

        def count(metric: Union[Counter, Gauge], **labels: object) -> int:
            return int(metric.value(**labels))

        return {
            "jobs": {"active": count(tele.jobs_active),
                     "total": self.store.total(),
                     "rejected": count(tele.jobs_rejected),
                     "max_active": self.store.max_active},
            "cells": {"requested": self.cells_requested,
                      **{source: count(tele.cells, source=source)
                         for source in ("cache", "computed", "coalesced",
                                        "failed")}},
            "singleflight": {"leaders": count(tele.singleflight,
                                              role="leader"),
                             "joined": count(tele.singleflight,
                                             role="joined"),
                             "inflight": count(tele.singleflight_inflight),
                             "peak_inflight": self.flights.peak_inflight},
            "pool": {"workers": self.pool.workers,
                     "steals": count(tele.pool_steals),
                     "respawns": count(tele.pool_respawns),
                     "pending": count(tele.pool_pending),
                     "backlogs": self.pool.backlogs(),
                     "worker_state": self.pool.worker_rows()},
            "cache": {"enabled": cache is not None,
                      "dir": str(cache.root) if cache is not None else None,
                      "hits": count(tele.cache_hits),
                      "misses": count(tele.cache_misses),
                      "stores": count(tele.cache_stores),
                      "hit_s": round(cache.hit_s, 6)
                      if cache is not None else 0.0,
                      "miss_s": round(cache.miss_s, 6)
                      if cache is not None else 0.0,
                      "store_s": round(cache.store_s, 6)
                      if cache is not None else 0.0},
            "telemetry": {
                "spans_started": tele.tracer.started,
                "spans_finished": count(tele.spans_finished),
                "log_records": dict(ring.counts),
                "logs_dropped": ring.dropped,
                "heartbeats": count(tele.heartbeats),
                "heartbeat_s": self.config.heartbeat_s},
        }


def run_server(config: Optional[ServeConfig] = None) -> None:
    """Blocking entry point for ``repro serve`` (Ctrl-C to stop).

    Emits structured JSON log lines on stdout (``echo_logs``) instead
    of ad-hoc prints, so a supervisor can ship them as-is.
    """
    config = config if config is not None else ServeConfig()
    config.echo_logs = True

    async def _main() -> None:
        app = ServeApp(config)
        await app.start()
        cache = app.engine.cache
        app.telemetry.ring.log(
            "info", "serve.start",
            url=f"http://{app.config.host}:{app.port}",
            workers=app.pool.workers,
            cache=str(cache.root) if cache is not None else None,
            heartbeat_s=app.config.heartbeat_s)
        try:
            await asyncio.Event().wait()
        finally:
            await app.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print(json.dumps({"event": "serve.stop", "reason": "interrupt"}))
