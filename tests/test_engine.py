"""Tests for the parallel, disk-cached sweep engine.

Covers the ISSUE's acceptance criteria directly: cached and fresh runs
are bit-identical, the parallel path matches the serial path, a second
process reuses the first one's cache, and the cache key separates cells
that differ only in seed or run length.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import (base_machine, conventional_lsq,
                          full_techniques_lsq, segmented_lsq, techniques_lsq)
from repro.harness import engine as engine_module
from repro.harness.engine import (
    Cell,
    ResultCache,
    SweepEngine,
    code_version,
    config_fingerprint,
    diff_reports,
    profile_cell,
    sweep_report,
)
from repro.obs import ObsConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


def cell(benchmark="gzip", seed=0, n_instructions=600, validate=False,
         **lsq):
    return Cell(benchmark=benchmark, machine=base_machine(**lsq),
                seed=seed, n_instructions=n_instructions,
                validate=validate)


def stats_of(cell_result):
    return dataclasses.asdict(cell_result.result.stats)


class TestCacheKey:
    def test_digest_is_stable(self):
        assert cell().digest() == cell().digest()

    def test_config_fingerprint_distinguishes_machines(self):
        assert config_fingerprint(base_machine()) \
            != config_fingerprint(base_machine(search_ports=1))

    def test_digest_covers_seed(self):
        assert cell(seed=0).digest() != cell(seed=1).digest()

    def test_digest_covers_n_instructions(self):
        assert cell(n_instructions=600).digest() \
            != cell(n_instructions=1200).digest()

    def test_digest_covers_benchmark_and_config(self):
        digests = {cell().digest(), cell(benchmark="mgrid").digest(),
                   cell(search_ports=1).digest(),
                   cell(validate=True).digest()}
        assert len(digests) == 4

    def test_digest_ignores_label(self):
        tagged = dataclasses.replace(cell(), label="base-2p")
        assert tagged.digest() == cell().digest()

    def test_digest_covers_code_version(self, monkeypatch):
        before = cell().digest()
        monkeypatch.setenv("REPRO_CODE_VERSION", "something-else")
        monkeypatch.setattr("repro.harness.engine._code_version", None)
        assert cell().digest() != before

    def test_code_version_is_cached_per_process(self):
        assert code_version() == code_version()


class TestDiskCache:
    def test_fresh_and_cached_runs_bit_identical(self, tmp_path):
        first = SweepEngine(cache=ResultCache(tmp_path))
        fresh = first.run_cell(cell())
        second = SweepEngine(cache=ResultCache(tmp_path))
        cached = second.run_cell(cell())
        assert not fresh.cached and cached.cached
        assert stats_of(fresh) == stats_of(cached)

    def test_corrupt_entry_is_a_miss_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        engine.run_cell(cell())
        path = cache.path_for(cell().digest())
        path.write_bytes(b"not a pickle")
        redone = SweepEngine(cache=ResultCache(tmp_path)).run_cell(cell())
        assert not redone.cached
        with open(path, "rb") as handle:
            pickle.load(handle)  # rewritten entry is valid again

    def test_no_cache_engine_always_simulates(self, tmp_path):
        engine = SweepEngine(cache=None)
        assert not any(engine.run_cell(cell()).cached for _ in range(2))

    def test_two_runner_identities_do_not_collide(self, tmp_path):
        """Cells differing only in seed or run length sharing one cache
        directory must stay distinct (the old (benchmark, machine) key
        conflated them)."""
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        a = engine.run_cell(cell(seed=0))
        b = engine.run_cell(cell(seed=3))
        c = engine.run_cell(cell(n_instructions=1200))
        assert not (a.cached or b.cached or c.cached)
        assert stats_of(a) != stats_of(b)
        assert c.result.stats.committed > a.result.stats.committed

    def test_validation_summary_survives_the_cache(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        fresh = engine.run_cell(cell(validate=True))
        cached = SweepEngine(cache=ResultCache(tmp_path)) \
            .run_cell(cell(validate=True))
        assert fresh.validation is not None and cached.cached
        assert cached.validation == fresh.validation
        assert fresh.validation.checked_loads > 0


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestStoreFaultInjection:
    """``ResultCache.store`` must not leak the mkstemp descriptor or
    orphan the temp file when serialization blows up mid-write."""

    def _store_args(self, tmp_path):
        engine = SweepEngine(cache=None)
        done = engine.run_cell(cell())
        cache = ResultCache(tmp_path / "cache")
        return cache, cell().digest(), done

    def test_pickle_failure_leaves_no_debris(self, tmp_path,
                                             monkeypatch):
        cache, digest, done = self._store_args(tmp_path)
        before = _open_fds()

        def boom(*_args, **_kwargs):
            raise pickle.PicklingError("injected")

        monkeypatch.setattr(pickle, "dump", boom)
        for _ in range(20):
            with pytest.raises(pickle.PicklingError):
                cache.store(digest, done.result, done.sim_s,
                            done.validation)
        monkeypatch.undo()
        stray = [p for p in cache.root.rglob(".tmp-*")]
        assert stray == [], f"orphaned temp files: {stray}"
        assert _open_fds() == before, "descriptor leak across failures"
        # and the entry was never half-written
        assert cache.load(digest) is None

    def test_fdopen_failure_closes_raw_descriptor(self, tmp_path,
                                                  monkeypatch):
        cache, digest, done = self._store_args(tmp_path)
        before = _open_fds()

        def boom(*_args, **_kwargs):
            raise OSError("injected fdopen failure")

        monkeypatch.setattr(os, "fdopen", boom)
        for _ in range(20):
            with pytest.raises(OSError):
                cache.store(digest, done.result, done.sim_s,
                            done.validation)
        monkeypatch.undo()
        assert list(cache.root.rglob(".tmp-*")) == []
        assert _open_fds() == before

    def test_store_still_works_after_failures(self, tmp_path,
                                              monkeypatch):
        cache, digest, done = self._store_args(tmp_path)

        def boom(*_args, **_kwargs):
            raise pickle.PicklingError("injected")

        monkeypatch.setattr(pickle, "dump", boom)
        with pytest.raises(pickle.PicklingError):
            cache.store(digest, done.result, done.sim_s, done.validation)
        monkeypatch.undo()
        cache.store(digest, done.result, done.sim_s, done.validation)
        payload = cache.load(digest)
        assert payload is not None
        assert payload.result.stats == done.result.stats


class TestConcurrentCacheWrites:
    def test_racing_writers_both_succeed_bit_identical(self, tmp_path):
        """Two processes released by a barrier store the same digest at
        the same instant: both must succeed, and the surviving entry
        must be a valid, complete pickle (atomic tempfile+rename, never
        an in-place write)."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        engine = SweepEngine(cache=None)
        done = engine.run_cell(cell())
        digest = cell().digest()
        cache_dir = tmp_path / "cache"
        barrier = ctx.Barrier(2)
        errors = ctx.Queue()

        def writer():
            try:
                local = ResultCache(cache_dir)
                barrier.wait(timeout=30)
                for _ in range(50):
                    local.store(digest, done.result, done.sim_s, None)
            except BaseException as error:  # noqa: BLE001 — reported
                errors.put(f"{type(error).__name__}: {error}")

        procs = [ctx.Process(target=writer) for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        failures = []
        while not errors.empty():
            failures.append(errors.get())
        assert failures == []
        assert all(proc.exitcode == 0 for proc in procs)

        reader = ResultCache(cache_dir)
        payload = reader.load(digest)
        assert payload is not None
        assert payload.result.stats == done.result.stats
        # no temp debris survived the race
        assert list(reader.root.rglob(".tmp-*")) == []


class TestParallel:
    CELLS = None

    def _cells(self):
        return [cell(benchmark=name, seed=seed)
                for name in ("gzip", "mgrid") for seed in (0, 1)]

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = SweepEngine(jobs=1).run_cells(self._cells())
        parallel = SweepEngine(jobs=2).run_cells(self._cells())
        assert [stats_of(r) for r in serial] \
            == [stats_of(r) for r in parallel]

    def test_parallel_preserves_input_order(self):
        cells = self._cells()
        results = SweepEngine(jobs=2).run_cells(cells)
        assert [r.cell for r in results] == cells

    def test_mixed_hits_and_misses(self, tmp_path):
        cells = self._cells()
        warm = SweepEngine(cache=ResultCache(tmp_path))
        warm.run_cell(cells[0])
        engine = SweepEngine(jobs=2, cache=ResultCache(tmp_path))
        results = engine.run_cells(cells)
        assert [r.cached for r in results] \
            == [True] + [False] * (len(cells) - 1)
        assert engine.cache.hits == 1

    def test_progress_callback_sees_every_cell(self):
        seen = []
        SweepEngine(jobs=2).run_cells(
            self._cells(),
            progress=lambda r, done, total: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


SWEEP_PRESETS = (("conventional-2p", lambda: conventional_lsq(ports=2)),
                 ("techniques-1p", lambda: techniques_lsq(ports=1)),
                 ("full-1p", lambda: full_techniques_lsq(ports=1)))


def preset_cells(benchmarks, presets=SWEEP_PRESETS, n_instructions=600):
    return [Cell(benchmark=name,
                 machine=dataclasses.replace(base_machine(), lsq=make()),
                 n_instructions=n_instructions, label=label)
            for name in benchmarks for label, make in presets]


@pytest.fixture
def serial_pools(monkeypatch):
    """Replace ``multiprocessing.Pool`` in the engine with an in-process
    stand-in; returns the pools created, each recording its width and
    the tasks it was given."""
    created = []

    class SerialPool:
        def __init__(self, processes):
            self.processes = processes
            self.tasks = None
            created.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            self.tasks = list(tasks)
            return [fn(task) for task in self.tasks]

    monkeypatch.setattr(engine_module, "Pool", SerialPool)
    return created


class TestSharedTraceTasks:
    """Cells that share (benchmark, n_instructions, seed) run as one
    task that generates the trace once."""

    def test_grouped_runs_match_one_cell_runs(self):
        cells = preset_cells(("gzip", "mcf", "mgrid"))
        alone = [stats_of(SweepEngine().run_cell(item)) for item in cells]
        for jobs in (1, 2):
            results = SweepEngine(jobs=jobs).run_cells(cells)
            assert [r.cell for r in results] == cells
            assert [stats_of(r) for r in results] == alone

    def test_one_trace_per_distinct_spec(self, monkeypatch):
        from repro.workload import ALL_BENCHMARKS
        calls = []
        real = engine_module.generate_trace

        def counting(benchmark, **kwargs):
            calls.append((benchmark, kwargs["n_instructions"],
                          kwargs["seed"]))
            return real(benchmark, **kwargs)

        monkeypatch.setattr(engine_module, "generate_trace", counting)
        cells = preset_cells(ALL_BENCHMARKS, n_instructions=150)
        results = SweepEngine(jobs=1).run_cells(cells)
        assert len(results) == 54
        assert sorted(calls) == sorted(
            (name, 150, 0) for name in ALL_BENCHMARKS)

    def test_sim_s_charges_each_cell_a_share_of_generation(self,
                                                           monkeypatch):
        ticks = iter(range(10, 1000, 10))
        clock = type("Clock", (), {
            "perf_counter": staticmethod(lambda: float(next(ticks)))})
        monkeypatch.setattr(engine_module, "time", clock)
        outputs = engine_module._simulate_cells(
            preset_cells(("gzip",), n_instructions=100))
        # Generation took one 10 s tick, split three ways; each
        # simulation took one tick of its own.
        assert [round(output[1], 6) for output in outputs] == \
            [round(10 + 10 / 3, 6)] * 3

    def test_too_few_groups_are_split_to_fill_the_pool(self, serial_pools):
        presets = SWEEP_PRESETS + (("segmented-2p",
                                    lambda: segmented_lsq(ports=2)),)
        cells = preset_cells(("gzip",), presets=presets,
                             n_instructions=200)
        results = SweepEngine(jobs=4).run_cells(cells)
        pool, = serial_pools
        assert pool.processes == 4
        assert [len(task) for task in pool.tasks] == [1, 1, 1, 1]
        assert [r.cell for r in results] == cells

    def test_groups_become_tasks_in_first_appearance_order(self,
                                                           serial_pools):
        cells = preset_cells(("mgrid", "gzip"), n_instructions=200)
        SweepEngine(jobs=2).run_cells(cells)
        pool, = serial_pools
        assert pool.processes == 2
        assert [[item.label for item in task] for task in pool.tasks] == \
            [[label for label, __ in SWEEP_PRESETS]] * 2
        assert [task[0].benchmark for task in pool.tasks] == \
            ["mgrid", "gzip"]

    def test_a_failing_cell_fails_the_batch(self):
        bad = dataclasses.replace(cell(), benchmark="nosuchbench")
        with pytest.raises(KeyError, match="unknown benchmark"):
            SweepEngine(jobs=1).run_cells([cell(), bad])


class TestSweepReport:
    def test_report_shape(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        results = engine.run_cells([cell(), cell(seed=1)])
        report = sweep_report(results, jobs=1, cache=engine.cache,
                              wall_s=1.25)
        assert report["n_cells"] == 2 and report["simulated"] == 2
        assert report["cache"]["enabled"]
        assert report["cache"]["misses"] == 2
        for row in report["cells"]:
            assert set(row) >= {"benchmark", "seed", "ipc", "sim_s",
                                "wall_s", "cached", "digest"}
        json.dumps(report)  # machine-readable for real


class TestObsCache:
    """A traced run must never poison the cache of an untraced run —
    the obs configuration is part of the cell's content address."""

    def test_digest_covers_obs_config(self):
        plain = cell()
        traced = dataclasses.replace(plain, obs=ObsConfig())
        resampled = dataclasses.replace(plain,
                                        obs=ObsConfig(sample_interval=32))
        assert len({plain.digest(), traced.digest(),
                    resampled.digest()}) == 3

    def test_traced_run_does_not_poison_untraced_cache(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        traced = engine.run_cell(dataclasses.replace(cell(),
                                                     obs=ObsConfig()))
        plain = engine.run_cell(cell())
        assert not plain.cached  # a genuine miss
        assert traced.obs is not None and plain.obs is None
        assert stats_of(traced) == stats_of(plain)  # obs parity holds too

    def test_obs_summary_survives_the_cache(self, tmp_path):
        traced = dataclasses.replace(cell(), obs=ObsConfig())
        fresh = SweepEngine(cache=ResultCache(tmp_path)).run_cell(traced)
        cached = SweepEngine(cache=ResultCache(tmp_path)).run_cell(traced)
        assert cached.cached
        assert fresh.obs is not None and cached.obs == fresh.obs
        assert fresh.obs.cycles > 0 and fresh.obs.samples

    def test_parallel_obs_matches_serial(self):
        cells = [dataclasses.replace(cell(benchmark=name),
                                     obs=ObsConfig())
                 for name in ("gzip", "mgrid")]
        serial = SweepEngine(jobs=1).run_cells(cells)
        parallel = SweepEngine(jobs=2).run_cells(cells)
        assert [r.obs for r in serial] == [r.obs for r in parallel]


class TestProfile:
    def test_profile_cell_returns_hot_functions(self):
        result, rows = profile_cell(cell(n_instructions=400), top=5)
        assert result.result.stats.committed > 0
        assert 0 < len(rows) <= 5
        for row in rows:
            assert {"function", "calls", "tottime_s", "cumtime_s"} \
                <= set(row)


class TestBenchDiff:
    @staticmethod
    def _report(sim_s=1.0, ipc=1.5):
        return {"cells": [{"benchmark": "gzip", "label": "full-1p",
                           "seed": 0, "n_instructions": 600,
                           "sim_s": sim_s, "ipc": ipc}]}

    def test_identical_reports_pass(self):
        assert diff_reports(self._report(), self._report()) == []

    def test_wall_time_regression_flagged(self):
        problems = diff_reports(self._report(sim_s=1.0),
                                self._report(sim_s=1.3))
        assert len(problems) == 1 and "sim time" in problems[0]

    def test_wall_time_improvement_and_tolerance_ok(self):
        assert diff_reports(self._report(sim_s=1.0),
                            self._report(sim_s=0.5)) == []
        assert diff_reports(self._report(sim_s=1.0),
                            self._report(sim_s=1.15)) == []

    def test_ipc_drift_flagged_both_directions(self):
        for new_ipc in (1.51, 1.49):
            problems = diff_reports(self._report(ipc=1.5),
                                    self._report(ipc=new_ipc))
            assert len(problems) == 1 and "IPC" in problems[0]

    def test_unmatched_cells_are_ignored_but_no_overlap_fails(self):
        other = {"cells": [{"benchmark": "mgrid", "label": "a", "seed": 0,
                            "n_instructions": 600, "sim_s": 9.0,
                            "ipc": 9.0}]}
        both = {"cells": self._report()["cells"] + other["cells"]}
        assert diff_reports(self._report(), both) == []
        assert diff_reports(self._report(), other) \
            == ["no comparable cells between the two reports"]

    def test_script_entry_point(self, tmp_path):
        import runpy
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(self._report(sim_s=1.0)))
        new.write_text(json.dumps(self._report(sim_s=5.0)))
        module = runpy.run_path(
            str(REPO_ROOT / "scripts" / "bench_diff.py"))
        assert module["main"]([str(old), str(old)]) == 0
        assert module["main"]([str(old), str(new)]) == 1
        assert module["main"]([str(old), str(new),
                               "--wall-tol", "10"]) == 0

    @pytest.mark.parametrize("calibration", [
        None,          # pre-calibration baseline: field absent
        0,             # zeroed by hand
        "fast",        # non-numeric garbage
        {"s": 1.0},    # wrong type entirely
    ])
    def test_normalize_survives_malformed_calibration(self, tmp_path,
                                                      calibration,
                                                      capsys):
        """``--normalize`` against an old baseline with a missing or
        malformed ``calibration_s`` falls back to the unnormalized
        comparison with a warning — it must never crash the gate."""
        import runpy
        old_report = self._report(sim_s=1.0)
        if calibration is not None:
            old_report["calibration_s"] = calibration
        new_report = self._report(sim_s=1.0)
        new_report["calibration_s"] = 2.0
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(old_report))
        new.write_text(json.dumps(new_report))
        module = runpy.run_path(
            str(REPO_ROOT / "scripts" / "bench_diff.py"))
        assert module["main"]([str(old), str(new), "--normalize"]) == 0
        captured = capsys.readouterr()
        assert "--normalize ignored" in captured.err
        # the unnormalized gate still fires on a real regression
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(self._report(sim_s=5.0)))
        assert module["main"]([str(old), str(worse),
                               "--normalize"]) == 1

    def test_non_dict_report_is_usage_error(self, tmp_path, capsys):
        import runpy
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps([1, 2, 3]))
        new.write_text(json.dumps(self._report()))
        module = runpy.run_path(
            str(REPO_ROOT / "scripts" / "bench_diff.py"))
        assert module["main"]([str(old), str(new)]) == 2
        assert "not a report object" in capsys.readouterr().err


@pytest.mark.slow
class TestCrossProcess:
    """A second ``repro bench`` invocation is served entirely from the
    first one's disk cache and emits identical per-cell stats."""

    def _bench(self, tmp_path, out_name, *extra):
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        out = tmp_path / out_name
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "bench", "--smoke",
             "-o", str(out), *extra],
            cwd=str(REPO_ROOT), env=env,
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(out) as handle:
            return json.load(handle)

    def test_second_invocation_is_all_hits(self, tmp_path):
        first = self._bench(tmp_path, "first.json")
        second = self._bench(tmp_path, "second.json", "--expect-cached")
        assert first["simulated"] == first["n_cells"]
        assert second["simulated"] == 0
        assert second["cache"]["hits"] == second["n_cells"]

        def strip(report):
            return [{k: v for k, v in row.items()
                     if k not in ("sim_s", "wall_s", "cached")}
                    for row in report["cells"]]
        assert strip(first) == strip(second)
