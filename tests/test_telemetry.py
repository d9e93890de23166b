"""Fleet telemetry (:mod:`repro.obs.telemetry` + the serve wiring).

* Span tracer: context propagation, trace-header parsing, per-job
  retention, tree building, and the coverage math the span-sum
  acceptance gate rests on.
* Metrics registry: counters/gauges/histograms render as Prometheus
  text that the bundled parser round-trips; label escaping, bucket
  monotonicity, and deterministic output order.
* Log ring: bounded retention with a drop counter, level/job filters,
  and core-field shadowing protection.
* End to end against a live server: root span duration equals job wall
  time with >= 95% direct-child coverage; /metrics carries the cache,
  coalescing, worker, and admission series and stays stable (modulo
  timing fields) across identical warm runs; /logs correlates by job;
  heartbeats fill silent streams and the client's stall detector
  fires when they stop; ``repro top``/``repro timeline`` exit 0.
* The profiled-cell cache contract: profiler-skewed timings are
  flagged, never cached, and skipped by the perf gate.
"""

import json

import pytest

from repro.obs.telemetry import (
    LogRing,
    MetricsRegistry,
    SpanTracer,
    TRACE_HEADER,
    build_tree,
    child_coverage,
    parse_prometheus_text,
    parse_trace_header,
)
from repro.serve.bench import ServerHarness
from repro.serve.client import ServeClient, ServeStalled
from repro.serve.server import ServeConfig

N = 300


def spec_payload(**overrides):
    payload = {"benchmarks": ["gzip"], "presets": ["conventional"],
               "seeds": [0], "n_instructions": N}
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# spans


class TestSpans:
    def test_nesting_via_context(self):
        tracer = SpanTracer()
        with tracer.span("outer", job="job-1") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
                assert inner.job == "job-1"  # inherited
        assert outer.end_s is not None and inner.end_s is not None

    def test_trace_header_roundtrip(self):
        tracer = SpanTracer()
        span = tracer.start("http.submit")
        from repro.obs.telemetry import format_trace_header
        header = format_trace_header(span.trace_id, span.span_id)
        trace_id, parent_id = parse_trace_header(header)
        assert trace_id == span.trace_id
        assert parent_id == span.span_id

    @pytest.mark.parametrize("value", [
        None, "", "no spaces allowed x", "a" * 65, "bad;semi",
        "t1-abc;x", "only-trace-no-parent-is-fine",
    ])
    def test_bad_headers_degrade_to_fresh_trace(self, value):
        trace_id, parent_id = parse_trace_header(value)
        if value == "only-trace-no-parent-is-fine":
            assert trace_id == value and parent_id is None
        else:
            assert parent_id is None

    def test_finish_is_idempotent(self):
        tracer = SpanTracer()
        span = tracer.start("x", job="j")
        tracer.finish(span, status="done")
        first_end = span.end_s
        tracer.finish(span, status="changed")
        assert span.end_s == first_end and span.status == "done"
        assert tracer.finished == 1

    def test_job_retention_is_bounded(self):
        tracer = SpanTracer(keep_jobs=2)
        for index in range(4):
            span = tracer.start("job", job=f"job-{index}")
            tracer.finish(span)
        assert tracer.job_spans("job-0") == []
        assert len(tracer.job_spans("job-3")) == 1

    def test_tree_and_coverage(self):
        tracer = SpanTracer()
        root = tracer.start("job", job="j", start_s=100.0)
        left = tracer.start("cell", parent=root, start_s=100.0)
        right = tracer.start("cell", parent=root, start_s=105.0)
        grand = tracer.start("flight", parent=left, start_s=100.5)
        tracer.finish(grand, end_s=103.0)
        tracer.finish(left, end_s=104.0)
        tracer.finish(right, end_s=110.0)
        tracer.finish(root, end_s=110.0)
        tree = build_tree(tracer.job_spans("j"))
        assert tree["name"] == "job"
        assert [len(tree["children"]), len(tree["children"][0]["children"])] \
            == [2, 1]
        # children cover [100,104] + [105,110] of [100,110] -> 90%
        assert child_coverage(tree) == pytest.approx(0.9)

    def test_overlapping_children_not_double_counted(self):
        tracer = SpanTracer()
        root = tracer.start("job", job="j", start_s=0.0)
        for start, end in ((0.0, 6.0), (4.0, 10.0)):
            child = tracer.start("cell", parent=root, start_s=start)
            tracer.finish(child, end_s=end)
        tracer.finish(root, end_s=10.0)
        assert child_coverage(build_tree(tracer.job_spans("j"))) \
            == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# metrics registry


class TestRegistry:
    def test_render_parses_and_roundtrips(self):
        registry = MetricsRegistry()
        requests = registry.counter("req_total", "requests",
                                    ("route", "status"))
        requests.inc(route="/jobs", status="202")
        requests.inc(2, route="/jobs", status="202")
        registry.gauge("depth", "queue depth").set(7)
        hist = registry.histogram("lat_ms", "latency",
                                  buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        scrape = parse_prometheus_text(registry.render())
        assert scrape.types == {"req_total": "counter", "depth": "gauge",
                                "lat_ms": "histogram"}
        assert scrape.samples['req_total{route="/jobs",status="202"}'] == 3
        assert scrape.samples["depth"] == 7
        assert scrape.samples['lat_ms_bucket{le="1"}'] == 1
        assert scrape.samples['lat_ms_bucket{le="10"}'] == 2
        assert scrape.samples['lat_ms_bucket{le="+Inf"}'] == 3
        assert scrape.samples["lat_ms_count"] == 3
        assert scrape.samples["lat_ms_sum"] == pytest.approx(55.5)

    def test_render_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            counter = registry.counter("c_total", "c", ("b", "a"))
            counter.inc(b="2", a="1")
            counter.inc(b="1", a="2")
            registry.gauge("g", "g").set(1)
            return registry.render()

        assert build() == build()

    def test_counter_never_decreases(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_read_through_metrics_show_the_owners_value(self):
        """A metric with ``read`` stores nothing: render() and value()
        show whatever its owner holds at that moment."""
        owner = {"total": 3, "depth": 2, "by_role": {"leader": 4}}
        registry = MetricsRegistry()
        total = registry.counter("owned_total", "owned",
                                 read=lambda: owner["total"])
        by_role = registry.counter("roles_total", "roles", ("role",),
                                   read=lambda: owner["by_role"])
        depth = registry.gauge("depth", "depth",
                               read=lambda: owner["depth"])
        workers = registry.gauge(
            "busy", "busy", ("worker",),
            read=lambda: {1: owner["depth"] - 2, 0: owner["depth"]})
        for _ in range(2):
            owner["total"] += 5
            owner["depth"] -= 1
            owner["by_role"]["joined"] = owner["total"] * 2
            scrape = parse_prometheus_text(registry.render())
            assert scrape.samples["owned_total"] == owner["total"]
            assert scrape.samples["depth"] == owner["depth"]
            assert scrape.samples['roles_total{role="leader"}'] == 4
            assert scrape.samples['roles_total{role="joined"}'] \
                == owner["total"] * 2
            assert scrape.samples['busy{worker="0"}'] == owner["depth"]
            assert scrape.samples['busy{worker="1"}'] \
                == owner["depth"] - 2
            assert total.value() == owner["total"]
            assert depth.value() == owner["depth"]
            assert by_role.value(role="joined") == owner["total"] * 2
            assert by_role.value(role="absent") == 0
            assert workers.value(worker=0) == owner["depth"]
        # Label sets render sorted, whatever order the owner keeps.
        assert [key for key in scrape.samples if key.startswith("busy")] \
            == ['busy{worker="0"}', 'busy{worker="1"}']
        # The owner keeps the value; writing it here is an error.
        with pytest.raises(TypeError):
            total.inc()
        with pytest.raises(TypeError):
            depth.set(1)

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("e_total", "e", ("msg",)).inc(
            msg='quote " slash \\ newline \n end')
        scrape = parse_prometheus_text(registry.render())
        (key,) = scrape.series("e_total")
        assert '\\"' in key and "\\n" in key

    @pytest.mark.parametrize("text", [
        "# TYPE a bogus\na 1\n",
        "# TYPE a counter\na 1\na 2\n",
        "# TYPE a counter\na{bad-label=\"x\"} 1\n",
        "# TYPE a counter\na one\n",
    ])
    def test_parser_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_prometheus_text(text)


# ---------------------------------------------------------------------------
# log ring


class TestLogRing:
    def test_bounded_with_drop_counter(self):
        ring = LogRing(capacity=4)
        for index in range(10):
            ring.log("info", "tick", job=f"job-{index % 2}", n=index)
        assert len(ring) == 4
        assert ring.dropped == 6
        rows = ring.rows()
        assert [row["n"] for row in rows] == [6, 7, 8, 9]
        assert all(rows[i]["seq"] < rows[i + 1]["seq"]
                   for i in range(len(rows) - 1))

    def test_filters(self):
        ring = LogRing()
        ring.log("info", "a", job="job-1")
        ring.log("error", "b", job="job-1")
        ring.log("info", "c", job="job-2")
        assert [r["event"] for r in ring.rows(job="job-1")] == ["a", "b"]
        assert [r["event"] for r in ring.rows(level="error")] == ["b"]
        assert [r["event"] for r in ring.rows(limit=1)] == ["c"]

    def test_fields_cannot_shadow_core_keys(self):
        ring = LogRing()
        ring.log("info", "x", job="job-1",
                 **{"seq": 999, "ts_ms": -1.0, "extra": 1})
        (row,) = ring.rows()
        assert row["seq"] == 1 and row["ts_ms"] != -1.0
        assert row["extra"] == 1

    def test_unknown_level_degrades_to_info(self):
        ring = LogRing()
        ring.log("fatal", "x")
        assert ring.rows()[0]["level"] == "info"
        assert ring.counts == {"info": 1}

    def test_echo_writes_json_lines(self):
        import io
        stream = io.StringIO()
        ring = LogRing(echo=stream)
        ring.log("info", "hello", job="job-1")
        line = stream.getvalue().strip()
        assert json.loads(line)["event"] == "hello"


# ---------------------------------------------------------------------------
# profiled cells never pollute the perf gate


class TestProfiledCells:
    def _cell(self):
        from dataclasses import replace

        from repro.config import base_machine, conventional_lsq
        from repro.harness.engine import Cell
        machine = replace(base_machine(), lsq=conventional_lsq(ports=2))
        return Cell(benchmark="gzip", machine=machine, seed=0,
                    n_instructions=N, label="conventional-2p")

    def test_profiled_flag_set_and_kept_out_of_caches(self, tmp_path,
                                                      monkeypatch):
        """A profiled run is flagged, and running it leaves every
        cache empty — including the engine default dir — so its
        profiler-skewed sim_s can never be replayed as a real timing."""
        from repro.harness.engine import ResultCache, profile_cell
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cell = self._cell()
        outcome, table = profile_cell(cell, top=5)
        assert outcome.profiled is True
        assert outcome.cached is False
        assert table and all("tottime_s" in row for row in table)
        cache = ResultCache(tmp_path / "cache")
        assert cache.load(cell.digest()) is None, \
            "profiled run leaked its skewed timing into the cache"

    def test_sweep_report_carries_profiled_flag(self):
        from repro.harness.engine import profile_cell, sweep_report
        outcome, _table = profile_cell(self._cell(), top=1)
        report = sweep_report([outcome], jobs=1, cache=None,
                              wall_s=outcome.wall_s)
        (row,) = report["cells"]
        assert row["profiled"] is True

    def test_diff_skips_profiled_timings_but_not_ipc(self):
        from repro.harness.engine import diff_reports

        def report(sim_s, ipc, profiled):
            cell = {"benchmark": "gzip", "label": "conventional-2p",
                    "seed": 0, "n_instructions": N, "ipc": ipc,
                    "sim_s": sim_s, "profiled": profiled}
            return {"cells": [cell]}

        # 10x slower but profiled -> timing regression is ignored...
        assert diff_reports(report(1.0, 1.5, False),
                            report(10.0, 1.5, True)) == []
        # ...and the aggregate gate excludes the skewed row too.
        assert diff_reports(report(1.0, 1.5, False),
                            report(10.0, 1.5, True),
                            aggregate_wall=True) == []
        # ...while an IPC drift on the same profiled cell still fails.
        problems = diff_reports(report(1.0, 1.5, False),
                                report(10.0, 1.6, True))
        assert problems and "IPC" in problems[0]
        # Unprofiled rows keep the timing gate.
        problems = diff_reports(report(1.0, 1.5, False),
                                report(10.0, 1.5, False))
        assert problems and "sim time" in problems[0]


# ---------------------------------------------------------------------------
# the live server, end to end


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("telemetry-cache")
    config = ServeConfig(port=0, workers=2, cache_dir=str(cache_dir),
                         heartbeat_s=0.25)
    with ServerHarness(config) as running:
        yield running


@pytest.fixture(scope="module")
def client(harness):
    return ServeClient(port=harness.port)


@pytest.mark.slow
class TestTelemetryEndToEnd:
    def test_span_tree_sums_to_job_wall_time(self, client):
        job = client.submit(spec_payload(benchmarks=["gzip", "mgrid"]),
                            trace="pytest-trace-1")
        job_id = str(job["id"])
        final = client.wait(job_id, stall_after_s=30.0)
        reply = client.spans(job_id)
        assert reply["trace"] == "pytest-trace-1"
        tree = build_tree(reply["spans"])
        assert tree is not None and tree["name"] == "job"
        # The acceptance gate: root duration == job wall time, and the
        # direct children account for >= 95% of it.
        assert tree["duration_ms"] / 1000.0 == pytest.approx(
            float(final["job"]["elapsed_s"]), abs=1e-6)
        assert child_coverage(tree) >= 0.95
        names = set()

        def walk_names(node):
            names.add(node["name"])
            for sub in node["children"]:
                walk_names(sub)

        walk_names(tree)
        assert {"job", "cell", "flight", "cache.probe"} <= names
        # At least one cell computed, so the queue/exec split exists.
        assert {"queue.wait", "worker.exec"} <= names

    def test_metrics_parse_with_required_series(self, client):
        scrape = parse_prometheus_text(client.metrics())
        for prefix in ("repro_cache_hits_total",
                       "repro_cache_misses_total",
                       "repro_cache_probe_ms_bucket",
                       "repro_coalescing_ratio",
                       "repro_singleflight_total",
                       "repro_pool_worker_busy",
                       "repro_pool_backlog_depth",
                       "repro_jobs_admitted_total",
                       "repro_jobs_rejected_total",
                       "repro_http_requests_total",
                       "repro_cell_service_ms_bucket"):
            assert scrape.series(prefix), f"missing {prefix}"

    def test_metrics_stable_across_identical_warm_runs(self, client):
        spec = spec_payload(seeds=[7])
        # Prime: the first-ever run of this cell is cold by definition.
        prime = client.submit(spec)
        client.wait(str(prime["id"]), stall_after_s=30.0)
        deltas = []
        for _ in range(2):
            before = parse_prometheus_text(client.metrics()).samples
            job = client.submit(spec)
            client.wait(str(job["id"]), stall_after_s=30.0)
            after = parse_prometheus_text(client.metrics()).samples
            assert set(after) >= set(before)
            deltas.append({key: after[key] - before.get(key, 0.0)
                           for key in after})
        first, second = deltas
        # Warm run #2 must move the same counters by the same amount —
        # modulo timing-valued series (sums/buckets/seconds/gauges).
        timing = ("_sum", "_bucket", "_seconds_total")
        skip = ("repro_coalescing_ratio", "repro_pool_pending",
                "repro_jobs_active", "repro_singleflight_inflight",
                "repro_stream_heartbeats_total",
                "repro_pool_worker_busy")
        for key in sorted(set(first) | set(second)):
            if any(key.startswith(s) for s in skip) \
                    or any(t in key for t in timing):
                continue
            if "http_requests" in key:
                continue  # this test's own /metrics GETs are counted
            assert first.get(key, 0.0) == pytest.approx(
                second.get(key, 0.0)), \
                f"{key} drifted between identical warm runs"
        # And both were pure cache traffic.
        assert first.get('repro_cells_total{source="cache"}', 0) == 1

    def test_logs_correlate_by_job(self, client):
        job = client.submit(spec_payload(seeds=[11]),
                            trace="pytest-trace-logs")
        job_id = str(job["id"])
        client.wait(str(job["id"]), stall_after_s=30.0)
        records = client.logs(job=job_id)["records"]
        events = [record["event"] for record in records]
        assert events[0] == "job.start" and events[-1] == "job.done"
        assert "cell.done" in events
        assert all(record["job"] == job_id for record in records)
        assert all(record["trace"] == "pytest-trace-logs"
                   for record in records)
        # level filter composes with the job filter
        assert client.logs(job=job_id, level="error")["records"] == []

    def test_stats_worker_rows(self, client):
        stats = client.stats()
        pool = stats["pool"]
        rows = pool["worker_state"]
        assert len(rows) == 2 == pool["workers"]
        for row in rows:
            assert row["alive"] is True
            assert row["state"] in ("busy", "idle")
            assert row["respawns"] == 0
        assert sum(row["done"] for row in rows) >= 1
        assert pool["backlogs"] == [0, 0]
        tele = stats["telemetry"]
        assert tele["spans_finished"] >= tele["spans_started"] - 4
        assert stats["cache"]["stores"] >= 1

    def test_stats_and_metrics_report_one_store(self, client):
        """/stats keeps its key tree, and every count it shares with
        /metrics reads the same there: both render from one store."""
        job = client.submit(spec_payload(benchmarks=["gzip", "mgrid"],
                                         seeds=[43]))
        client.wait(str(job["id"]), stall_after_s=30.0)
        samples = parse_prometheus_text(client.metrics()).samples
        stats = client.stats()

        def keys(tree):
            return {key: keys(value) if isinstance(value, dict) else None
                    for key, value in tree.items()}

        row_keys = {"alive", "backlog", "benchmark", "busy_s", "digest",
                    "done", "failed", "id", "label", "respawns", "state"}
        assert {key: keys(value) for key, value in stats.items()} == {
            "jobs": dict.fromkeys(["active", "total", "rejected",
                                   "max_active"]),
            "cells": dict.fromkeys(["requested", "cache", "computed",
                                    "coalesced", "failed"]),
            "singleflight": dict.fromkeys(["leaders", "joined",
                                           "inflight", "peak_inflight"]),
            "pool": dict.fromkeys(["workers", "steals", "respawns",
                                   "pending", "backlogs",
                                   "worker_state"]),
            "cache": dict.fromkeys(["enabled", "dir", "hits", "misses",
                                    "stores", "hit_s", "miss_s",
                                    "store_s"]),
            "telemetry": {"spans_started": None, "spans_finished": None,
                          "log_records": keys(stats["telemetry"]
                                              ["log_records"]),
                          "logs_dropped": None, "heartbeats": None,
                          "heartbeat_s": None},
        }
        rows = stats["pool"]["worker_state"]
        assert all(set(row) == row_keys for row in rows)

        cells, flights = stats["cells"], stats["singleflight"]
        pool, cache = stats["pool"], stats["cache"]
        tele = stats["telemetry"]
        shared = {
            "repro_jobs_rejected_total": stats["jobs"]["rejected"],
            "repro_jobs_active": stats["jobs"]["active"],
            'repro_singleflight_total{role="leader"}': flights["leaders"],
            'repro_singleflight_total{role="joined"}': flights["joined"],
            "repro_singleflight_inflight": flights["inflight"],
            "repro_pool_steals_total": pool["steals"],
            "repro_pool_respawns_total": pool["respawns"],
            "repro_pool_pending": pool["pending"],
            "repro_cache_hits_total": cache["hits"],
            "repro_cache_misses_total": cache["misses"],
            "repro_cache_stores_total": cache["stores"],
            "repro_spans_finished_total": tele["spans_finished"],
            "repro_stream_heartbeats_total": tele["heartbeats"],
            "repro_coalescing_ratio": round(
                cells["coalesced"] / max(cells["requested"], 1), 6),
        }
        for source in ("cache", "computed", "coalesced", "failed"):
            shared[f'repro_cells_total{{source="{source}"}}'] = \
                cells[source]
        for row in rows:
            worker = f'{{worker="{row["id"]}"}}'
            shared["repro_pool_worker_cells_total" + worker] = row["done"]
            shared["repro_pool_backlog_depth" + worker] = row["backlog"]
            assert pool["backlogs"][row["id"]] == row["backlog"]
        for level, count in tele["log_records"].items():
            shared[f'repro_log_records_total{{level="{level}"}}'] = count
        assert {key: samples.get(key, 0) for key in shared} == shared
        assert cells["computed"] >= 2 and cache["stores"] >= 2
        assert {key for key in samples
                if key.startswith("repro_log_records_total")} \
            == {f'repro_log_records_total{{level="{level}"}}'
                for level in tele["log_records"]}

    def test_heartbeats_fill_silent_streams(self, client):
        # 30k instructions computes for a second or more against a
        # 0.25 s heartbeat interval — the stream must carry heartbeats.
        job = client.submit(spec_payload(seeds=[23],
                                         n_instructions=30000))
        events = list(client.stream(str(job["id"]), stall_after_s=30.0))
        beats = [e for e in events if e["event"] == "heartbeat"]
        assert beats, "no heartbeat on a slow stream"
        for beat in beats:
            assert beat["job"] == str(job["id"])
            assert beat["n_cells"] == 1

    def test_submit_cli_reports_heartbeats(self, harness, capsys):
        from repro.cli import main
        main(["submit", "--port", str(harness.port),
              "--benchmarks", "gzip", "--presets", "conventional",
              "--seeds", "31", "-n", "30000"])
        out = capsys.readouterr().out
        assert "server alive" in out
        assert "done," in out

    def test_top_once(self, harness, capsys):
        from repro.cli import main
        main(["top", "--once", "--port", str(harness.port)])
        out = capsys.readouterr().out
        assert "repro top" in out and "idle" in out
        assert "coalescing" in out

    def test_timeline_cli_writes_valid_trace(self, harness, client,
                                             tmp_path, capsys):
        from repro.cli import main
        from repro.obs.chrometrace import validate_chrome_trace_file
        job = client.submit(spec_payload(benchmarks=["gzip"],
                                         seeds=[41]))
        job_id = str(job["id"])
        client.wait(job_id, stall_after_s=30.0)
        out_file = tmp_path / "timeline.json"
        main(["timeline", job_id, "--port", str(harness.port),
              "-o", str(out_file), "--cells", "1"])
        assert validate_chrome_trace_file(str(out_file)) == []
        doc = json.loads(out_file.read_text())
        names = {event.get("name") for event in doc["traceEvents"]}
        assert "job" in names and "cell" in names  # server spans
        other = doc["otherData"]
        assert other["kind"] == "repro-timeline"
        assert other["job"] == job_id
        assert len(other["cells"]) == 1  # one re-simulated cell


@pytest.mark.slow
def test_client_stall_detector_fires(tmp_path):
    """With heartbeats disabled and a compute-bound job, a tight stall
    budget must raise ServeStalled instead of hanging forever."""
    config = ServeConfig(port=0, workers=1, heartbeat_s=0.0,
                         cache_dir=str(tmp_path / "cache"))
    with ServerHarness(config) as harness:
        client = ServeClient(port=harness.port)
        job = client.submit(spec_payload(benchmarks=["gzip", "mgrid"],
                                         seeds=[0, 1],
                                         n_instructions=20000))
        with pytest.raises(ServeStalled):
            for _event in client.stream(str(job["id"]),
                                        stall_after_s=0.3):
                pass
        # The server itself is healthy; the job still finishes.
        final = client.wait(str(job["id"]), stall_after_s=60.0)
        assert final["job"]["state"] == "done"


@pytest.mark.slow
def test_trace_header_reaches_server_verbatim(tmp_path):
    """The raw X-Repro-Trace header value (not a re-encoding) becomes
    the job's trace id, so cross-system correlation works."""
    config = ServeConfig(port=0, workers=1,
                         cache_dir=str(tmp_path / "cache"))
    with ServerHarness(config) as harness:
        client = ServeClient(port=harness.port)
        assert TRACE_HEADER == "X-Repro-Trace"
        job = client.submit(spec_payload(), trace="ext.system-42")
        assert job["trace"] == "ext.system-42"
        client.wait(str(job["id"]), stall_after_s=30.0)
        spans = client.spans(str(job["id"]))["spans"]
        assert spans and all(span["trace"] == "ext.system-42"
                             for span in spans)
