"""Parallel, disk-cached sweep engine.

Every figure and table of the paper replays some slice of the
18-benchmark x N-configuration sweep.  This module turns that sweep into
an explicit object: a :class:`Cell` is one (benchmark, machine, seed)
point, a :class:`SweepEngine` fans cells out over a ``multiprocessing``
pool, and a :class:`ResultCache` persists finished cells on disk so a
second process (another bench, a rerun, CI) pays nothing for work
already done.

Cache design
------------

The cache is content-addressed: a cell's key is the SHA-256 digest of a
canonical JSON encoding of everything that determines its result —

* the full :class:`~repro.config.MachineConfig` (dataclasses flattened,
  enums by value),
* the benchmark name, generator seed and run length,
* whether the run is validated (the oracle summary is cached alongside),
* a *code version*: a digest over every ``repro`` source file, so any
  change to the simulator silently invalidates all prior entries, and
* a schema number for the cached payload format itself.

Entries live under ``<cache dir>/<digest[:2]>/<digest>.pkl`` (the
``REPRO_CACHE_DIR`` environment variable overrides the default
``.repro-cache/``).  Writes go through a temporary file in the same
directory followed by :func:`os.replace`, so concurrent workers and
concurrent processes can share a cache directory without ever observing
a torn entry; unreadable or stale entries are treated as misses and
rewritten.  Simulation is deterministic given (trace, machine), so a
cached result is bit-identical to a fresh one — the determinism tests
in ``tests/test_engine.py`` assert exactly that.

Parallelism
-----------

``SweepEngine(jobs=N)`` runs missing cells through a worker pool.  One
task covers the missing cells that share a trace (benchmark, run length
and seed): the worker receives their pickled :class:`Cell` objects (the
:class:`MachineConfig` plus trace spec), generates the trace once,
simulates each machine on it, and ships the
:class:`~repro.pipeline.processor.SimulationResult` objects back.  A
trace is immutable (frozen instructions, and neither the pipeline nor
the oracle writes to it), so the cells of a task cannot see each other.
Results are returned in input order regardless of completion order, so
the parallel path is observationally identical to the serial one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import time
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.obs import Observer, ObsConfig, ObsSummary
from repro.pipeline.processor import SimulationResult, simulate
from repro.workload import generate_trace

#: Version of the cached payload format; bump to invalidate every entry.
#: 2: cells carry an observability configuration (part of the key) and
#: payloads an optional ObsSummary.
CACHE_SCHEMA = 2

#: Default cache directory (relative to the current working directory)
#: when ``REPRO_CACHE_DIR`` is not set.
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """The cache root: ``REPRO_CACHE_DIR`` env override, else
    ``.repro-cache/`` under the current directory."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR)


_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file (cached per process).

    Folding this into each cell key means any edit to the simulator —
    pipeline, core structures, workload generator, configuration — makes
    every previously cached result unreachable, which is the entire
    invalidation story: stale entries are never *deleted*, they simply
    stop matching.  ``REPRO_CODE_VERSION`` overrides the scan (useful
    for tests that need a stable or deliberately different version).
    """
    global _code_version
    if _code_version is None:
        override = os.environ.get("REPRO_CODE_VERSION")
        if override:
            _code_version = override
        else:
            digest = hashlib.sha256()
            package_root = Path(__file__).resolve().parent.parent
            for path in sorted(package_root.rglob("*.py")):
                digest.update(path.relative_to(package_root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
            _code_version = digest.hexdigest()[:16]
    return _code_version


def _canonical(value: object) -> object:
    """Encode a config value as plain JSON-able data, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def config_fingerprint(machine: MachineConfig) -> str:
    """Stable digest of a full machine configuration."""
    payload = json.dumps(_canonical(machine), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class ValidationSummary:
    """What the memory-model oracle / invariant checker verified while
    producing a (possibly now-cached) result."""

    checked_loads: int
    checked_cycles: int
    report: str


@dataclasses.dataclass(frozen=True)
class Cell:
    """One (benchmark, machine, seed) point of a sweep.

    ``label`` is a human-readable tag (e.g. the LSQ preset name) carried
    into reports; it is deliberately **excluded** from the cache key.
    """

    benchmark: str
    machine: MachineConfig
    seed: int = 0
    n_instructions: int = 6000
    validate: bool = False
    label: str = ""
    #: Observability configuration (repro.obs); ``None`` runs without
    #: instrumentation.  Part of the cache key: although SimStats are
    #: bit-identical either way, the cached payload differs (it carries
    #: the ObsSummary), so a traced run must never be served where an
    #: untraced one was asked for — or vice versa.
    obs: Optional[ObsConfig] = None

    def digest(self) -> str:
        """Content address of this cell's result."""
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "code": code_version(),
                "benchmark": self.benchmark,
                "seed": self.seed,
                "n_instructions": self.n_instructions,
                "validate": self.validate,
                "machine": _canonical(self.machine),
                "obs": _canonical(self.obs),
            },
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass
class CellResult:
    """A finished cell: the simulation result plus provenance."""

    cell: Cell
    result: SimulationResult
    #: Pure simulation seconds spent by whichever process *produced*
    #: the result (preserved across the cache).
    sim_s: float
    #: Seconds this engine spent obtaining the result (cache probe or
    #: live simulation, as seen by the coordinating process).
    wall_s: float
    cached: bool
    validation: Optional[ValidationSummary] = None
    #: Observability summary when the cell requested instrumentation.
    obs: Optional[ObsSummary] = None
    #: True when the run executed under cProfile.  Profiler overhead
    #: inflates ``sim_s`` severely, so profiled results are never
    #: cached and the perf gate skips their timings.
    profiled: bool = False

    @property
    def ipc(self) -> float:
        return self.result.ipc


@dataclasses.dataclass
class _StoredPayload:
    """On-disk representation of a finished cell."""

    schema: int
    result: SimulationResult
    sim_s: float
    validation: Optional[ValidationSummary]
    obs: Optional[ObsSummary] = None


class ResultCache:
    """Content-addressed on-disk cache of simulation results.

    Thread/process safe by construction: reads open complete files only,
    writes are tempfile + :func:`os.replace` (atomic on POSIX within a
    filesystem), and a corrupt or unreadable entry is a miss.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Results written by this process.
        self.stores = 0
        # Cumulative probe/store latency, seconds — the telemetry
        # layer's cache latency series read these.
        self.hit_s = 0.0
        self.miss_s = 0.0
        self.store_s = 0.0

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def load(self, digest: str) -> Optional[_StoredPayload]:
        started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        try:
            with open(self.path_for(digest), "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            self.miss_s += time.perf_counter() - started  # sim-lint: ignore[SIM-D004]
            return None
        if not isinstance(payload, _StoredPayload) \
                or payload.schema != CACHE_SCHEMA:
            self.misses += 1
            self.miss_s += time.perf_counter() - started  # sim-lint: ignore[SIM-D004]
            return None
        self.hits += 1
        self.hit_s += time.perf_counter() - started  # sim-lint: ignore[SIM-D004]
        return payload

    def store(self, digest: str, result: SimulationResult, sim_s: float,
              validation: Optional[ValidationSummary],
              obs: Optional[ObsSummary] = None) -> None:
        started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = _StoredPayload(schema=CACHE_SCHEMA, result=result,
                                 sim_s=sim_s, validation=validation,
                                 obs=obs)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".pkl")
        handle = None
        try:
            handle = os.fdopen(descriptor, "wb")
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.close()
            os.replace(tmp_name, path)
            self.stores += 1
            self.store_s += time.perf_counter() - started  # sim-lint: ignore[SIM-D004]
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        finally:
            # Serialization can raise anywhere between mkstemp and
            # os.replace; the raw descriptor must be released on every
            # path (close() is idempotent once fdopen took ownership).
            if handle is not None:
                handle.close()
            else:
                os.close(descriptor)


_CellOutput = Tuple[SimulationResult, float, Optional[ValidationSummary],
                    Optional[ObsSummary]]


def _simulate_cells(cells: Sequence[Cell]) -> List[_CellOutput]:
    """Worker body: generate the cells' shared trace once, then simulate
    each cell's machine on it and summarise.

    Every cell must name the same (benchmark, n_instructions, seed).  A
    cell's ``sim_s`` is its own simulation plus an equal share of the
    generation time, so the sum over the task is its total work.
    Top-level (picklable) so it can run in pool workers; also the serial
    path, so both paths share one definition.  Validation errors
    propagate — a failed run is never cached.
    """
    first = cells[0]
    started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
    trace = generate_trace(first.benchmark,
                           n_instructions=first.n_instructions,
                           seed=first.seed)
    gen_share = (time.perf_counter() - started) / len(cells)  # sim-lint: ignore[SIM-D004]
    outputs: List[_CellOutput] = []
    for cell in cells:
        started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        checker = None
        if cell.validate:
            from repro.validate import ValidationChecker
            checker = ValidationChecker()
        observer = Observer(cell.obs) if cell.obs is not None else None
        result = simulate(trace, cell.machine, checker=checker, obs=observer)
        sim_s = gen_share + time.perf_counter() - started  # sim-lint: ignore[SIM-D004]
        validation = None
        if checker is not None:
            validation = ValidationSummary(
                checked_loads=checker.checked_loads,
                checked_cycles=checker.checked_cycles,
                report=checker.report())
        obs_summary = observer.summary() if observer is not None else None
        outputs.append((result, sim_s, validation, obs_summary))
    return outputs


def _simulate_cell(cell: Cell) -> _CellOutput:
    """A one-cell task: generate the trace, simulate, summarise."""
    return _simulate_cells([cell])[0]


def _tasks(cells: Sequence[Cell], jobs: int) -> List[List[int]]:
    """Partition ``cells`` (by position) into pool tasks.

    Cells that share a trace form one task, in order of first
    appearance.  While there are fewer tasks than ``min(jobs,
    len(cells))``, the largest task is split in half, so grouping never
    idles a worker the per-cell split would have used.
    """
    tasks: List[List[int]] = []
    task_of: Dict[Tuple[str, int, int], int] = {}
    for position, cell in enumerate(cells):
        key = (cell.benchmark, cell.n_instructions, cell.seed)
        if key not in task_of:
            task_of[key] = len(tasks)
            tasks.append([])
        tasks[task_of[key]].append(position)
    while len(tasks) < min(jobs, len(cells)):
        largest = max(range(len(tasks)), key=lambda t: len(tasks[t]))
        task = tasks[largest]
        half = len(task) // 2
        tasks[largest:largest + 1] = [task[:half], task[half:]]
    return tasks


#: Progress callback: (finished cell, 1-based index, total).
ProgressFn = Callable[[CellResult, int, int], None]


class SweepEngine:
    """Runs sweep cells with optional parallelism and disk caching.

    ``jobs`` is the worker-pool width (1 = serial, in-process);
    ``cache=None`` disables disk caching entirely (the ``--no-cache``
    escape hatch).  The engine itself keeps no state between calls;
    the cache counts its own hits and misses.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None) -> None:
        self.jobs = max(1, jobs)
        self.cache = cache

    def _from_cache(self, cell: Cell, digest: str) -> Optional[CellResult]:
        if self.cache is None:
            return None
        started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        payload = self.cache.load(digest)
        if payload is None:
            return None
        return CellResult(cell=cell, result=payload.result,
                          sim_s=payload.sim_s,
                          wall_s=time.perf_counter() - started,  # sim-lint: ignore[SIM-D004]
                          cached=True, validation=payload.validation,
                          obs=payload.obs)

    def _finish(self, cell: Cell, digest: str, result: SimulationResult,
                sim_s: float, wall_s: float,
                validation: Optional[ValidationSummary],
                obs: Optional[ObsSummary]) -> CellResult:
        if self.cache is not None:
            self.cache.store(digest, result, sim_s, validation, obs)
        return CellResult(cell=cell, result=result, sim_s=sim_s,
                          wall_s=wall_s, cached=False, validation=validation,
                          obs=obs)

    def probe_cell(self, cell: Cell) -> Optional[CellResult]:
        """Cache-only lookup: return the cached result or ``None``.

        This is the serving layer's warm-hit path — a single disk read
        measured in microseconds, never a simulation.  Safe to call from
        an event loop without an executor.
        """
        return self._from_cache(cell, cell.digest())

    def run_cell(self, cell: Cell) -> CellResult:
        """Run one cell in-process (cache-first)."""
        digest = cell.digest()
        cached = self._from_cache(cell, digest)
        if cached is not None:
            return cached
        started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        result, sim_s, validation, obs = _simulate_cell(cell)
        return self._finish(cell, digest, result, sim_s,
                            time.perf_counter() - started, validation, obs)  # sim-lint: ignore[SIM-D004]

    def run_cells(self, cells: Sequence[Cell],
                  progress: Optional[ProgressFn] = None) -> List[CellResult]:
        """Run many cells, fanning cache misses out over the pool.

        Results come back in input order regardless of completion
        order, so callers cannot observe the parallelism.
        """
        total = len(cells)
        results: Dict[int, CellResult] = {}
        missing: List[Tuple[int, Cell, str]] = []
        done = 0
        for index, cell in enumerate(cells):
            digest = cell.digest()
            cached = self._from_cache(cell, digest)
            if cached is not None:
                results[index] = cached
                done += 1
                if progress is not None:
                    progress(cached, done, total)
            else:
                missing.append((index, cell, digest))

        if missing:
            started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
            missing_cells = [cell for _, cell, _ in missing]
            tasks = _tasks(missing_cells, self.jobs)
            batches = [[missing_cells[position] for position in task]
                       for task in tasks]
            if self.jobs > 1 and len(tasks) > 1:
                with Pool(processes=min(self.jobs, len(tasks))) as pool:
                    task_outputs = pool.map(_simulate_cells, batches,
                                            chunksize=1)
            else:
                task_outputs = [_simulate_cells(batch) for batch in batches]
            outputs: Dict[int, _CellOutput] = {}
            for task, task_output in zip(tasks, task_outputs):
                outputs.update(zip(task, task_output))
            elapsed = time.perf_counter() - started  # sim-lint: ignore[SIM-D004]
            # Attribute coordinator wall time evenly across the batch:
            # with a pool, per-cell wall time is not individually
            # observable from here, and the sum is what matters.
            share = elapsed / len(missing)
            for position, (index, cell, digest) in enumerate(missing):
                result, sim_s, validation, obs = outputs[position]
                finished = self._finish(cell, digest, result, sim_s,
                                        share, validation, obs)
                results[index] = finished
                done += 1
                if progress is not None:
                    progress(finished, done, total)
        return [results[index] for index in range(total)]


def sweep_report(results: Sequence[CellResult], *, jobs: int,
                 cache: Optional[ResultCache],
                 wall_s: float) -> Dict[str, object]:
    """Machine-readable summary of a sweep (the ``BENCH_sweep.json``
    payload): per-cell wall time and IPC plus cache hit/miss totals, so
    the performance trajectory of the harness itself is tracked."""
    cells: List[Dict[str, object]] = []
    for item in results:
        cells.append({
            "benchmark": item.cell.benchmark,
            "label": item.cell.label,
            "seed": item.cell.seed,
            "n_instructions": item.cell.n_instructions,
            "digest": item.cell.digest(),
            "ipc": round(item.ipc, 6),
            "cycles": item.result.stats.cycles,
            "committed": item.result.stats.committed,
            "sim_s": round(item.sim_s, 6),
            "wall_s": round(item.wall_s, 6),
            "cached": item.cached,
            "validated": item.validation is not None,
            "traced": item.obs is not None,
            "profiled": item.profiled,
        })
    simulated = sum(1 for item in results if not item.cached)
    report: Dict[str, object] = {
        "schema": CACHE_SCHEMA,
        "code_version": code_version(),
        "jobs": jobs,
        "cells": cells,
        "n_cells": len(results),
        "simulated": simulated,
        "sim_s": round(sum(item.sim_s for item in results), 6),
        "wall_s": round(wall_s, 6),
        "cache": {
            "enabled": cache is not None,
            "dir": str(cache.root) if cache is not None else None,
            "hits": cache.hits if cache is not None else 0,
            "misses": cache.misses if cache is not None else 0,
        },
    }
    return report


def calibration_loop_s(iterations: int = 2_000_000, *,
                       reps: int = 5) -> float:
    """Time a fixed pure-Python loop — a machine-speed probe.

    Stored alongside every baseline report so two reports taken on
    machines of different speed can be compared meaningfully: scaling
    the old report's ``sim_s`` by the calibration ratio cancels the
    host-speed difference (``scripts/bench_diff.py --normalize``).

    Min of ``reps`` runs: the per-cell ``sim_s`` numbers it rescales
    are best-case (min-of-reps) timings, so the probe must be a
    best-case timing too — a single run can be 20%+ slow under
    transient load, which would skew every normalized comparison.
    """
    best = float("inf")
    for __ in range(reps):
        started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        acc = 0
        for i in range(iterations):
            acc += i & 7
        del acc
        elapsed = time.perf_counter() - started  # sim-lint: ignore[SIM-D004]
        if elapsed < best:
            best = elapsed
    return best


def baseline_report(cells: Sequence[Cell], *,
                    reps: int = 3) -> Dict[str, object]:
    """Measure a fresh performance baseline (the ``BENCH_core.json``
    payload).

    Every cell is simulated live — never through the result cache, which
    preserves *old* timings by design — ``reps`` times, keeping the
    fastest repetition (minimum is the standard estimator for
    "how fast can this code run"; the slower repetitions measure the
    machine, not the code).  One extra repetition runs under
    :mod:`tracemalloc` to record the allocation footprint: peak traced
    bytes and the number of live allocated blocks at the end of the
    run, both of which drop when hot paths stop building per-cycle
    temporaries.  Cells carry the same match keys as sweep reports
    (benchmark/label/seed/n_instructions, ``sim_s``, ``ipc``), so
    :func:`diff_reports` gates one baseline against another unchanged.
    """
    import tracemalloc

    rows: List[Dict[str, object]] = []
    total_sim = 0.0
    for cell in cells:
        best_s: Optional[float] = None
        result: Optional[SimulationResult] = None
        for __ in range(max(reps, 1)):
            outcome, sim_s, __v, __o = _simulate_cell(cell)
            if best_s is None or sim_s < best_s:
                best_s, result = sim_s, outcome
        assert best_s is not None and result is not None
        tracemalloc.start()
        _simulate_cell(cell)
        __, peak_bytes = tracemalloc.get_traced_memory()
        alloc_blocks = sum(
            stat.count
            for stat in tracemalloc.take_snapshot().statistics("filename"))
        tracemalloc.stop()
        stats = result.stats
        total_sim += best_s
        rows.append({
            "benchmark": cell.benchmark,
            "label": cell.label,
            "seed": cell.seed,
            "n_instructions": cell.n_instructions,
            "ipc": round(result.ipc, 6),
            "cycles": stats.cycles,
            "committed": stats.committed,
            "sim_s": round(best_s, 6),
            "cycles_per_sec": round(stats.cycles / best_s) if best_s else 0,
            "reps": max(reps, 1),
            "alloc_peak_kb": round(peak_bytes / 1024, 1),
            "alloc_blocks": alloc_blocks,
        })
    return {
        "schema": CACHE_SCHEMA,
        "kind": "core-baseline",
        "code_version": code_version(),
        "calibration_s": round(calibration_loop_s(), 6),
        "cells": rows,
        "n_cells": len(rows),
        "simulated": len(rows),
        "sim_s": round(total_sim, 6),
    }


def profile_cell(cell: Cell,
                 top: int = 15) -> Tuple[CellResult, List[Dict[str, object]]]:
    """Simulate one cell under :mod:`cProfile`, in-process.

    Returns the finished cell plus a hot-function table (top ``top``
    functions by internal time) ready to merge into a
    ``BENCH_sweep.json`` report under a ``"profile"`` key.  The run is
    deliberately **not** written to the result cache: profiling inflates
    ``sim_s``, and cached timings feed the perf-regression gate.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
    profiler.enable()
    result, sim_s, validation, obs = _simulate_cell(cell)
    profiler.disable()
    wall_s = time.perf_counter() - started  # sim-lint: ignore[SIM-D004]
    raw: Dict[Tuple[str, int, str], Tuple[int, int, float, float, object]] = \
        getattr(pstats.Stats(profiler), "stats")
    rows: List[Dict[str, object]] = []
    ranked = sorted(raw.items(), key=lambda item: item[1][2], reverse=True)
    for (filename, line, func), (_cc, ncalls, tottime, cumtime, _callers) \
            in ranked[:max(top, 0)]:
        name = func if filename == "~" else \
            f"{os.path.basename(filename)}:{line}:{func}"
        rows.append({
            "function": name,
            "calls": ncalls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    cell_result = CellResult(cell=cell, result=result, sim_s=sim_s,
                             wall_s=wall_s, cached=False,
                             validation=validation, obs=obs,
                             profiled=True)
    return cell_result, rows


def diff_reports(old: Dict[str, object], new: Dict[str, object], *,
                 wall_tol: float = 0.20,
                 ipc_tol: float = 0.001,
                 aggregate_wall: bool = False) -> List[str]:
    """Compare two ``BENCH_sweep.json`` reports; return regressions.

    Cells are matched on (benchmark, label, seed, n_instructions) — not
    on digest, which changes with every code edit.  A matched cell
    regresses when its pure simulation time (``sim_s``, preserved across
    the cache) grew by more than ``wall_tol`` (relative), or its IPC
    moved by more than ``ipc_tol`` (relative) in either direction — IPC
    is deterministic, so any drift means the simulated machine changed.
    Returns human-readable problem strings; empty means the gate passes.

    With ``aggregate_wall`` the wall budget applies to the *summed*
    sim time of the matched cells instead of each cell individually —
    per-cell timings on short cells flicker past any reasonable budget
    under ambient load, while the total averages the noise out (IPC
    checks stay per-cell; they are exact either way).
    """
    def _index(report: Dict[str, object]) -> Dict[Tuple[object, ...],
                                                  Dict[str, object]]:
        cells = report.get("cells", [])
        out: Dict[Tuple[object, ...], Dict[str, object]] = {}
        if isinstance(cells, list):
            for cell in cells:
                if isinstance(cell, dict):
                    key = (cell.get("benchmark"), cell.get("label"),
                           cell.get("seed"), cell.get("n_instructions"))
                    out[key] = cell
        return out

    problems: List[str] = []
    old_cells = _index(old)
    new_cells = _index(new)
    matched = 0
    old_total = 0.0
    new_total = 0.0
    for key, new_cell in new_cells.items():
        old_cell = old_cells.get(key)
        if old_cell is None:
            continue
        matched += 1
        tag = "/".join(str(part) for part in key)
        # A row measured under cProfile carries profiler-skewed sim_s;
        # its timing is not comparable in either direction (IPC still
        # is — profiling does not change the simulated machine).
        timing_ok = not (bool(old_cell.get("profiled"))
                         or bool(new_cell.get("profiled")))
        old_sim = float(old_cell.get("sim_s", 0.0) or 0.0)  # type: ignore[arg-type]
        new_sim = float(new_cell.get("sim_s", 0.0) or 0.0)  # type: ignore[arg-type]
        if timing_ok:
            old_total += old_sim
            new_total += new_sim
        if timing_ok and not aggregate_wall and old_sim > 0 and \
                new_sim > old_sim * (1.0 + wall_tol):
            problems.append(
                f"{tag}: sim time {old_sim:.3f}s -> {new_sim:.3f}s "
                f"(+{(new_sim / old_sim - 1.0) * 100:.1f}% > "
                f"{wall_tol * 100:.0f}% budget)")
        old_ipc = float(old_cell.get("ipc", 0.0) or 0.0)  # type: ignore[arg-type]
        new_ipc = float(new_cell.get("ipc", 0.0) or 0.0)  # type: ignore[arg-type]
        if old_ipc > 0 and abs(new_ipc / old_ipc - 1.0) > ipc_tol:
            problems.append(
                f"{tag}: IPC {old_ipc:.6f} -> {new_ipc:.6f} "
                f"({(new_ipc / old_ipc - 1.0) * 100:+.3f}% beyond "
                f"±{ipc_tol * 100:.1f}%)")
    if aggregate_wall and old_total > 0 and \
            new_total > old_total * (1.0 + wall_tol):
        problems.append(
            f"total: sim time {old_total:.3f}s -> {new_total:.3f}s "
            f"over {matched} cell(s) "
            f"(+{(new_total / old_total - 1.0) * 100:.1f}% > "
            f"{wall_tol * 100:.0f}% budget)")
    if matched == 0:
        problems.append("no comparable cells between the two reports")
    return problems
