"""Fleet telemetry bundle: the serve stack's spans + metrics + logs.

One :class:`FleetTelemetry` instance per :class:`~repro.serve.server.
ServeApp` owns the span tracer, the metrics registry (with the full
metric catalog declared up front — see ``docs/TELEMETRY.md``), and the
structured-log ring.

Every count has one store.  What the server observes itself —
requests, admissions, cells by source, heartbeats and latencies — is
stored in the registry, bumped inline where the event happens.  What a
subsystem already keeps (worker pool, single-flight table, job store,
result cache, span tracer, log ring) stays there: its metric reads it
at render time, and ``/stats`` reads the same metric, so the two
endpoints cannot disagree.

Everything here is coordinator-side: worker processes keep their own
result caches and report nothing — their contribution is visible as
the ``worker.exec`` span and the per-worker pool series.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, TextIO

from repro.obs.telemetry import (
    LogRing,
    MetricsRegistry,
    PROBE_BUCKETS_MS,
    SpanTracer,
)

if TYPE_CHECKING:
    from repro.serve.server import ServeApp


class FleetTelemetry:
    """Tracer + registry + log ring, plus the serve metric catalog."""

    def __init__(self, app: ServeApp,
                 echo: Optional[TextIO] = None) -> None:
        self.tracer = SpanTracer()
        self.registry = MetricsRegistry()
        self.ring = LogRing(echo=echo)
        registry = self.registry
        store = app.store
        flights = app.flights
        pool = app.pool
        cache = app.engine.cache

        def per_worker(field: str) -> Callable[[], Dict[Any, Any]]:
            return lambda: {row["id"]: row[field]
                            for row in pool.worker_rows()}

        # -- admission / HTTP ------------------------------------------
        self.http_requests = registry.counter(
            "repro_http_requests_total", "HTTP requests served",
            ("route", "method", "status"))
        self.jobs_admitted = registry.counter(
            "repro_jobs_admitted_total", "Jobs accepted by admission")
        self.jobs_rejected = registry.counter(
            "repro_jobs_rejected_total",
            "Admissions refused with 429 (the backpressure rate)",
            read=lambda: store.rejected)
        self.jobs_active = registry.gauge(
            "repro_jobs_active", "Jobs currently queued or running",
            read=store.active)

        # -- cells / cache ---------------------------------------------
        self.cells = registry.counter(
            "repro_cells_total",
            "Cells resolved, by source (cache/computed/coalesced/failed)",
            ("source",))
        self.cell_service_ms = registry.histogram(
            "repro_cell_service_ms",
            "Per-cell service latency by source, milliseconds",
            ("source",))
        self.cache_probe_ms = registry.histogram(
            "repro_cache_probe_ms",
            "Inline result-cache probe latency by outcome, milliseconds",
            ("result",), buckets=PROBE_BUCKETS_MS)
        # Without a disk cache these three have no samples (and read 0).
        self.cache_hits = registry.counter(
            "repro_cache_hits_total", "Result-cache probe hits",
            read=None if cache is None else lambda: cache.hits)
        self.cache_misses = registry.counter(
            "repro_cache_misses_total", "Result-cache probe misses",
            read=None if cache is None else lambda: cache.misses)
        # Worker-side stores are invisible to the coordinator's
        # ResultCache, but every computed cell stored exactly once.
        self.cache_stores = registry.counter(
            "repro_cache_stores_total",
            "Results written to the cache (coordinator stores plus one "
            "per computed cell — workers store from their own process)",
            read=None if cache is None else lambda: (
                cache.stores + self.cells.value(source="computed")))

        # -- coalescing -------------------------------------------------
        self.singleflight = registry.counter(
            "repro_singleflight_total",
            "Single-flight outcomes (role=leader|joined)", ("role",),
            read=lambda: {"leader": flights.leaders,
                          "joined": flights.joined})
        self.singleflight_inflight = registry.gauge(
            "repro_singleflight_inflight",
            "Computations currently in the single-flight table",
            read=flights.inflight)
        self.coalescing_ratio = registry.gauge(
            "repro_coalescing_ratio",
            "Fraction of requested cells served by joining another "
            "request's flight",
            read=lambda: round(self.cells.value(source="coalesced")
                               / max(app.cells_requested, 1), 6))

        # -- worker pool ------------------------------------------------
        self.pool_steals = registry.counter(
            "repro_pool_steals_total",
            "Tasks stolen from another worker's backlog",
            read=lambda: pool.steals)
        self.pool_respawns = registry.counter(
            "repro_pool_respawns_total",
            "Workers respawned after a crash",
            read=lambda: sum(pool.worker_respawns))
        self.pool_pending = registry.gauge(
            "repro_pool_pending", "Tasks queued or in flight in the pool",
            read=pool.pending)
        self.pool_backlog = registry.gauge(
            "repro_pool_backlog_depth", "Queued tasks per worker",
            ("worker",), read=per_worker("backlog"))
        self.worker_busy = registry.gauge(
            "repro_pool_worker_busy",
            "1 when the worker is computing a cell, else 0", ("worker",),
            read=lambda: {row["id"]: int(row["state"] == "busy")
                          for row in pool.worker_rows()})
        self.worker_busy_s = registry.counter(
            "repro_pool_worker_busy_seconds_total",
            "Seconds each worker spent computing cells", ("worker",),
            read=per_worker("busy_s"))
        self.worker_cells = registry.counter(
            "repro_pool_worker_cells_total",
            "Cells each worker finished successfully", ("worker",),
            read=per_worker("done"))

        # -- streams / telemetry self-accounting -----------------------
        self.heartbeats = registry.counter(
            "repro_stream_heartbeats_total",
            "Heartbeat records emitted on progress streams")
        self.log_records = registry.counter(
            "repro_log_records_total", "Structured log records by level",
            ("level",), read=lambda: self.ring.counts)
        self.spans_finished = registry.counter(
            "repro_spans_finished_total", "Spans finished by the tracer",
            read=lambda: self.tracer.finished)
