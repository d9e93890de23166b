"""The benchmark's workloads; this file runs one of them per interpreter.

``perf/run.py`` starts a fresh interpreter on this file for each
workload (``--workload NAME --seed S --seconds T --trace 0|1 --out
FILE``) and reads the JSON result it writes to ``FILE``.

Every workload is a closed loop of *rounds*: a round runs the
workload's cells (or, for ``serve-mix``, its jobs) once and waits for
all of them; the next round starts only if it is expected to end
within ``--seconds``.  End-to-end throughputs are medians over rounds,
latencies are percentiles over every cell or job of the run.

``--trace 1`` runs the per-layer measurement instead: one untraced
pass over the workload's trace cells, then traced passes (see
``layertrace.py``) for the rest of the budget.  Per-layer numbers are
per pass.

The layers are driven only through their public entry points:
``generate_trace``, ``Processor``, ``SweepEngine.run_cells`` and the
serve stack's ``repro serve``/``ServeClient``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import (ALL_BENCHMARKS, FP_BENCHMARKS, INT_BENCHMARKS,  # noqa: E402
                   Processor, base_machine, conventional_lsq,
                   full_techniques_lsq, generate_trace, profile_for,
                   segmented_lsq, techniques_lsq)
from repro.core.lsq import Retry  # noqa: E402
from repro.harness.engine import Cell, SweepEngine  # noqa: E402
from repro.stats.counters import stats_digest  # noqa: E402
from repro.validate import ValidationChecker  # noqa: E402

import layertrace  # noqa: E402

EXPECTED_PATH = PERF_DIR / "expected.json"
OUT_DIR = PERF_DIR / "out"

#: Seeds whose cell digests ``perf/pin.py`` records.
PINNED_SEEDS = (0, 1)

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 7

#: The paper's geomean speedup of the 1-ported, all-techniques LSQ over
#: the 2-ported conventional one, percent (Section 4.3).
PAPER_SPEEDUP_PCT = {"INT": 6.0, "FP": 23.0}

_PRESETS = {
    "conventional-2p": lambda: conventional_lsq(ports=2),
    "techniques-1p": lambda: techniques_lsq(ports=1),
    "full-1p": lambda: full_techniques_lsq(ports=1),
    "segmented-2p": lambda: segmented_lsq(ports=2),
}
_MACHINES: Dict[str, object] = {}


def machine_for(label: str):
    """The base machine with the LSQ a label names (``full-1p`` ...)."""
    if label not in _MACHINES:
        _MACHINES[label] = replace(base_machine(), lsq=_PRESETS[label]())
    return _MACHINES[label]


def cell_key(cell: Cell) -> str:
    return f"{cell.benchmark}|{cell.label}|{cell.seed}|{cell.n_instructions}"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimWorkload:
    """Simulation cells run in-process (``jobs=1``) or through the
    sweep engine's pool (``jobs>1``)."""

    name: str
    pairs: Tuple[Tuple[str, str], ...]      # (benchmark, machine label)
    n: int
    jobs: int = 1
    validate: bool = False

    def cells(self, seed: int, n: Optional[int] = None) -> List[Cell]:
        return [Cell(benchmark=bench, machine=machine_for(label), seed=seed,
                     n_instructions=n or self.n, validate=self.validate,
                     label=label)
                for bench, label in self.pairs]

    def trace_cells(self, cells: List[Cell]) -> List[Cell]:
        """Cells the traced run covers.  Wrappers cannot reach pool
        workers, so a pooled grid is traced serially, one cell per
        benchmark (rotating through the labels) to fit the budget."""
        if self.jobs == 1:
            return cells
        labels = list(dict.fromkeys(label for __, label in self.pairs))
        benches = list(dict.fromkeys(bench for bench, __ in self.pairs))
        chosen = {(bench, labels[index % len(labels)])
                  for index, bench in enumerate(benches)}
        return [cell for cell in cells
                if (cell.benchmark, cell.label) in chosen]


#: serve-mix: client threads, server worker processes, and the distinct
#: cells of round 0 its traced run simulates in-process.
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_TRACE_CELLS = 8


@dataclass(frozen=True)
class ServeWorkload:
    """Single-cell jobs against a live job server, from
    ``SERVE_CLIENTS`` threads, each waiting for its job before sending
    the next."""

    name: str
    benchmarks: Tuple[str, ...]
    labels: Tuple[str, ...]
    n: int
    jobs_per_round: int

    def cell_seed(self, seed: int, round_index: int) -> int:
        # Every round asks for cells of a fresh generator seed, so each
        # round starts from a cold cache like the first one.
        return seed * 1000 + round_index

    def picks(self, seed: int, round_index: int,
              n: Optional[int] = None) -> List[Cell]:
        """The round's jobs, in submission order.

        Every distinct cell of the round is asked for once, at evenly
        spaced positions, so each round simulates the same benchmark x
        LSQ set and its misses arrive at the same pace.  The other jobs
        repeat cells already asked for, half Pareto-hot (hottest first,
        order shuffled per round) and half uniform.
        """
        rng = random.Random(seed * 1000 + round_index)
        cell_seed = self.cell_seed(seed, round_index)
        order = [Cell(benchmark=bench, machine=machine_for(label),
                      seed=cell_seed, n_instructions=n or self.n, label=label)
                 for bench in self.benchmarks for label in self.labels]
        rng.shuffle(order)
        spacing = self.jobs_per_round / len(order)
        picks: List[Cell] = []
        asked = 0
        for slot in range(self.jobs_per_round):
            if asked < len(order) and slot >= asked * spacing:
                index = asked
                asked += 1
            elif rng.random() < 0.5:
                index = (int(rng.paretovariate(1.16)) - 1) % asked
            else:
                index = rng.randrange(asked)
            picks.append(order[index])
        return picks


WORKLOADS: Dict[str, object] = {
    workload.name: workload for workload in (
        SimWorkload(
            "sweep-grid",
            tuple((bench, label) for bench in ALL_BENCHMARKS
                  for label in ("conventional-2p", "techniques-1p",
                                "full-1p")),
            n=4000, jobs=2),
        # mgrid full-1p is the most LSQ-heavy cell but its cycle count
        # swings +-23% with the seed; these three stay within 3%.
        SimWorkload(
            "lsq-bound",
            (("mgrid", "segmented-2p"), ("equake", "segmented-2p"),
             ("equake", "full-1p")),
            n=20000),
        SimWorkload(
            "stall-bound",
            (("mcf", "conventional-2p"), ("art", "conventional-2p"),
             ("swim", "conventional-2p")),
            n=20000),
        SimWorkload(
            "validated",
            tuple((bench, label) for bench in ("gzip", "equake")
                  for label in ("conventional-2p", "full-1p")),
            n=12000, validate=True),
        ServeWorkload(
            "serve-mix", tuple(ALL_BENCHMARKS),
            ("conventional-2p", "full-1p"), n=4000, jobs_per_round=240),
    )
}


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------

@dataclass
class CellRun:
    """One cell's outcome and host timings."""

    key: str
    benchmark: str
    label: str
    seed: int
    n: int
    error: Optional[str] = None
    digest: Optional[str] = None
    committed: int = 0
    cycles: int = 0
    ipc: float = 0.0
    wall_s: float = 0.0
    gen_s: float = 0.0
    warm_s: float = 0.0
    loop_s: float = 0.0
    stats: object = None
    cache_delta: Tuple[int, int, int, int] = (0, 0, 0, 0)
    checked_loads: int = 0
    #: serve-mix: ``cache``/``computed``/``coalesced``
    source: Optional[str] = None

    @classmethod
    def of(cls, cell: Cell, **fields) -> "CellRun":
        return cls(key=cell_key(cell), benchmark=cell.benchmark,
                   label=cell.label, seed=cell.seed, n=cell.n_instructions,
                   **fields)


def _cache_counts(memory) -> Tuple[int, int, int, int]:
    return (memory.l1d.stats.hits, memory.l1d.stats.misses,
            memory.l2.stats.hits, memory.l2.stats.misses)


def _instrument(tracer: layertrace.LayerTracer, processor) -> None:
    """Shadow the live simulation's layer methods with wrappers."""
    processor.step = tracer.wrap("pipeline.step", processor.step)
    tracer.instrument("pipeline.iq", processor.iq)
    tracer.instrument("pipeline.rob", processor.rob)
    tracer.instrument("pipeline.regfile", processor.regfile)
    tracer.instrument("pipeline.fu", processor.fus)
    tracer.instrument("pipeline.bpred", processor.branch_predictor)
    tracer.instrument("core.lsq", processor.lsq, count_if={
        "try_execute_load": lambda result: not isinstance(result, Retry)})
    tracer.instrument("memory", processor.memory)
    if processor.checker is not None:
        tracer.instrument("validate", processor.checker)


def run_cell(cell: Cell, tracer: Optional[layertrace.LayerTracer] = None,
             cell_id: int = 0) -> CellRun:
    """Generate, build, warm and run one cell in this process.

    Equivalent to ``simulate(generate_trace(...), machine)``: warm-up is
    called here (``run(warm=False)``) only so its time is its own.
    """
    def call(name: str, fn: Callable, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    clock = time.perf_counter
    started = tracer.begin_cell(cell_id) if tracer is not None else clock()
    try:
        trace = call("workload.generate_trace", generate_trace,
                     cell.benchmark, n_instructions=cell.n_instructions,
                     seed=cell.seed)
        generated = clock()
        checker = ValidationChecker() if cell.validate else None
        processor = call("pipeline.build", Processor, cell.machine,
                         checker=checker)
        if tracer is not None:
            _instrument(tracer, processor)
        call("pipeline.warm", processor.warm_caches, trace)
        call("pipeline.warm", processor.warm_predictor, trace)
        warmed = clock()
        before = _cache_counts(processor.memory)
        result = call("pipeline.run", processor.run, trace, warm=False)
        finished = clock()
    except Exception as error:  # noqa: BLE001 — a failed cell is a result
        return CellRun.of(cell, error=f"{type(error).__name__}: {error}",
                          wall_s=clock() - started)
    finally:
        if tracer is not None:
            tracer.end_cell(started)
    after = _cache_counts(processor.memory)
    stats = result.stats
    return CellRun.of(
        cell, digest=stats_digest(stats), committed=stats.committed,
        cycles=stats.cycles, ipc=stats.ipc, wall_s=finished - started,
        gen_s=generated - started, warm_s=warmed - generated,
        loop_s=finished - warmed, stats=stats,
        cache_delta=tuple(b - a for a, b in zip(before, after)),
        checked_loads=checker.checked_loads if checker is not None else 0)


def pool_round(cells: List[Cell], jobs: int) -> Tuple[float, List[CellRun]]:
    """One ``SweepEngine.run_cells`` call; per-cell time is the worker's
    ``sim_s`` (trace generation + simulation)."""
    engine = SweepEngine(jobs=jobs, cache=None)
    started = time.perf_counter()
    try:
        results = engine.run_cells(cells)
    except Exception as error:  # noqa: BLE001 — the whole batch failed
        wall = time.perf_counter() - started
        message = f"{type(error).__name__}: {error}"
        return wall, [CellRun.of(cell, error=message) for cell in cells]
    wall = time.perf_counter() - started
    runs = []
    for item in results:
        stats = item.result.stats
        runs.append(CellRun.of(
            item.cell, digest=stats_digest(stats), committed=stats.committed,
            cycles=stats.cycles, ipc=stats.ipc, wall_s=item.sim_s,
            stats=stats))
    return wall, runs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class OutputCheck:
    """Counts attempted and failed operations of one run.

    An operation fails when it raised (including watchdog and
    validation errors), committed the wrong number of instructions,
    disagrees with the digest pinned in ``expected.json`` (seeds 0 and
    1 at the default run length), or disagrees with an earlier run of
    the same cell in this process.
    """

    def __init__(self, workload: str, seed: int, default_n: bool) -> None:
        pinned = None
        if default_n and EXPECTED_PATH.is_file():
            expected = json.loads(EXPECTED_PATH.read_text())
            pinned = expected.get("workloads", {}).get(workload, {}) \
                .get(str(seed))
        self.pinned: Optional[Dict[str, Dict[str, object]]] = pinned
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.errors: List[str] = []
        self._seen: Dict[str, Tuple[Optional[str], int]] = {}

    def record(self, run: CellRun) -> bool:
        self.attempted += 1
        problem = run.error
        if problem is None and run.committed != run.n:
            problem = f"committed {run.committed} of {run.n} instructions"
        if problem is None:
            # Served rows carry cycles but no stats digest.
            digest, cycles = self._seen.setdefault(run.key,
                                                   (run.digest, run.cycles))
            if cycles != run.cycles or None not in (digest, run.digest) \
                    and digest != run.digest:
                problem = "differs from an earlier run of the same cell"
            elif digest is None:
                self._seen[run.key] = (run.digest, cycles)
        if problem is None and self.pinned is not None:
            pin = self.pinned.get(run.key)
            if pin is not None:
                self.checked += 1
                if run.digest is not None and run.digest != pin["digest"]:
                    problem = f"stats digest {run.digest[:12]} != pinned " \
                              f"{str(pin['digest'])[:12]}"
                elif run.cycles != pin["cycles"]:
                    problem = f"{run.cycles} cycles != pinned {pin['cycles']}"
        if problem is not None:
            self.fail(f"{run.key}: {problem}")
            return False
        return True

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def note(self, seed: int) -> str:
        if self.pinned is None:
            return (f"digest check skipped: seed {seed} at this run length "
                    f"is not pinned (pinned seeds: "
                    f"{', '.join(map(str, PINNED_SEEDS))}); checked "
                    "completion and run-to-run agreement only")
        return f"digest check: {self.checked} results matched " \
               f"perf/expected.json"


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def timed_rounds(seconds: float,
                 round_fn: Callable[[int], Tuple[float, object]],
                 ) -> List[Tuple[float, object]]:
    """Run rounds while the next one is expected to end in budget.

    ``round_fn(index)`` returns ``(wall seconds, outcome)``.
    """
    rounds: List[Tuple[float, object]] = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        rounds.append(round_fn(len(rounds)))
        now = time.perf_counter()
        if (now - started) + (now - round_started) > seconds:
            print(f"  {len(rounds)} round(s) in {now - started:.2f}s: "
                  + " ".join(f"{wall:.2f}" for wall, __ in rounds),
                  file=sys.stderr)
            return rounds


@dataclass
class Round:
    """What one measured round delivered."""

    wall_s: float
    #: Committed instructions simulated in the round (serve-mix: by the
    #: workers, for the jobs they computed).
    simulated: int
    #: Latency of every result the round delivered, milliseconds.
    job_ms: List[float]


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """The run's end-to-end metrics (all but setup and memory).

    The first round warms the allocator, the page cache and (serve-mix)
    the worker processes; its outputs are checked, but it is timed only
    when it is the only round.
    """
    timed = rounds[1:] or rounds
    latencies = [ms for item in timed for ms in item.job_ms]
    return {
        "sim_kips": statistics.median(
            item.simulated / item.wall_s / 1000.0 for item in timed),
        "jobs_per_s": statistics.median(
            len(item.job_ms) / item.wall_s for item in timed),
        "job_ms.p50": percentile(latencies, 0.50),
        "job_ms.p98": percentile(latencies, 0.98),
    }


def percentile(values: Sequence[float], fraction: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(fraction * 100)) - 1]


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class ServerProcess:
    """``repro serve`` in its own interpreter, as users run it.

    The clients stay in the workload process.  With the server in the
    same interpreter (``ServerHarness``), client and server threads
    queue on one interpreter lock, and the hit-path latency measures
    that queue instead of the server.
    """

    def __init__(self, workers: int, scratch: Path) -> None:
        scratch.mkdir(parents=True, exist_ok=True)
        self._log_path = scratch / "serve.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        with open(self._log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", str(workers),
                 "--cache", str(scratch / "cache")],
                stdout=log, stderr=subprocess.STDOUT, env=env)

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until ``/healthz`` answers; returns the port."""
        from repro.serve.client import ServeClient
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited "
                                   f"{self.process.returncode}; see "
                                   f"{self._log_path}")
            for line in self._log_path.read_text().splitlines():
                if '"serve.start"' in line:
                    port = int(json.loads(line)["url"].rsplit(":", 1)[1])
                    if ServeClient(port=port, timeout=5.0).healthz():
                        return port
            time.sleep(0.002)
        raise RuntimeError(f"repro serve not ready in {timeout:.0f}s")

    def stop(self) -> None:
        """Interrupt the server (it closes its workers) and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


_IMPORT_CODE = (
    "import repro\n"
    "from repro.harness.engine import code_version\n"
    "code_version()\n"
    "print('ready', flush=True)\n")


def _import_seconds() -> float:
    started = time.perf_counter()
    process = subprocess.Popen([sys.executable, "-c", _IMPORT_CODE],
                               stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        ready = time.perf_counter()
        process.wait(timeout=60)
    finally:
        process.stdout.close()
        if process.poll() is None:
            process.kill()
            process.wait()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"import probe failed (exit {process.returncode})")
    return ready - started


def _serve_seconds(workers: int, scratch: Path) -> float:
    started = time.perf_counter()
    with ServerProcess(workers, scratch) as server:
        server.wait_ready()
        return time.perf_counter() - started


def measure_setup(workload: object, scratch: Path) -> float:
    """Median seconds from interpreter launch to ready, over fresh
    interpreters: ``import repro`` and ``code_version()``, or, for
    serve-mix, ``repro serve`` until ``/healthz`` answers."""
    if isinstance(workload, ServeWorkload):
        return statistics.median(
            _serve_seconds(SERVE_WORKERS, scratch / f"setup-{index}")
            for index in range(SETUP_REPS))
    return statistics.median(_import_seconds() for __ in range(SETUP_REPS))


def accuracy(runs: Sequence[CellRun]) -> Tuple[float, float]:
    """``(ipc_err_pct, speedup_err_pp)`` against the paper.

    IPC error: mean absolute % error of each conventional-2p cell's IPC
    against Table 2.  Speedup error: per suite (INT, FP), the gap in
    percentage points between the geomean full-1p-over-conventional-2p
    speedup and the paper's; averaged over the suites present.  Zero
    when the runs hold no such cells.
    """
    conv: Dict[Tuple[str, int], float] = {}
    full: Dict[Tuple[str, int], float] = {}
    for run in runs:
        if run.error is not None or run.ipc <= 0:
            continue
        if run.label == "conventional-2p":
            conv[(run.benchmark, run.seed)] = run.ipc
        elif run.label == "full-1p":
            full[(run.benchmark, run.seed)] = run.ipc
    ipc_err = statistics.fmean(
        abs(ipc / profile_for(bench).base_ipc - 1.0) * 100.0
        for (bench, __), ipc in conv.items()) if conv else 0.0
    gaps = []
    for suite, members in (("INT", INT_BENCHMARKS), ("FP", FP_BENCHMARKS)):
        ratios = [full[key] / conv[key] for key in conv
                  if key in full and key[0] in members]
        if ratios:
            geomean = math.exp(statistics.fmean(math.log(r) for r in ratios))
            gaps.append(abs((geomean - 1.0) * 100.0
                            - PAPER_SPEEDUP_PCT[suite]))
    return ipc_err, (statistics.fmean(gaps) if gaps else 0.0)


# ---------------------------------------------------------------------------
# simulation workloads
# ---------------------------------------------------------------------------

def run_serial(cells: List[Cell],
               tracer: Optional[layertrace.LayerTracer] = None,
               first_id: int = 0) -> Tuple[float, List[CellRun]]:
    """Run cells one after another; returns (summed cell seconds, runs).

    Garbage from the previous cell is collected before each one, untimed,
    so no cell pays for another's collection and peak memory is one
    cell's own.
    """
    runs = []
    for offset, cell in enumerate(cells):
        gc.collect()
        runs.append(run_cell(cell, tracer, cell_id=first_id + offset))
    return sum(run.wall_s for run in runs), runs


def _sim_round(workload: SimWorkload, cells: List[Cell]
               ) -> Tuple[float, List[CellRun]]:
    # Serial rounds do not go through SweepEngine(jobs=1).run_cells: it
    # gives no hook between cells, and the per-cell gc.collect of
    # run_serial is what keeps peak_rss_mb steady.  On lsq-bound, seeds
    # 0-2, peak RSS read 36.0-36.1 MiB with it and 37.4-40.6 without.
    if workload.jobs > 1:
        gc.collect()
        return pool_round(cells, workload.jobs)
    return run_serial(cells)


def measure_sim(workload: SimWorkload, seed: int, seconds: float,
                n: Optional[int], check: OutputCheck) -> List[Round]:
    cells = workload.cells(seed, n)
    rounds = []
    for wall, runs in timed_rounds(seconds,
                                   lambda __: _sim_round(workload, cells)):
        for run in runs:
            check.record(run)
        rounds.append(Round(
            wall, sum(run.committed for run in runs if run.error is None),
            [run.wall_s * 1000.0 for run in runs]))
    return rounds


def _model_metrics(runs: Sequence[CellRun]) -> Dict[str, float]:
    """Phase, model-count and cache metrics of one untraced pass."""
    good = [run for run in runs if run.stats is not None]
    committed = sum(run.committed for run in good) or 1
    cycles = sum(run.cycles for run in good)
    wall = sum(run.wall_s for run in good) or 1.0
    delta = [sum(run.cache_delta[i] for run in good) for i in range(4)]

    def pki(counter: str) -> float:
        return sum(getattr(run.stats, counter) for run in good) \
            * 1000.0 / committed

    def ratio(hits: int, misses: int) -> float:
        return misses / (hits + misses) if hits + misses else 0.0

    return {
        "workload.gen_s": sum(run.gen_s for run in good),
        "workload.gen_share": sum(run.gen_s for run in good) / wall,
        "pipeline.warm_s": sum(run.warm_s for run in good),
        "pipeline.ns_per_cycle":
            sum(run.loop_s for run in good) / cycles * 1e9 if cycles else 0.0,
        "memory.l1d_miss_ratio": ratio(delta[0], delta[1]),
        "memory.l2_miss_ratio": ratio(delta[2], delta[3]),
        "model.cycles": cycles,
        "model.sq_searches_pki": pki("sq_searches"),
        "model.lq_searches_pki": pki("lq_searches"),
        "model.sq_segment_visits_pki": pki("sq_segment_visits"),
        "model.sq_port_stalls_pki": pki("sq_port_stalls"),
        "model.violation_squashes_pki": pki("violation_squashes"),
        "validate.checked_loads": sum(run.checked_loads for run in good),
    }


def _layer_metrics(tracer: layertrace.LayerTracer, passes: int,
                   untraced_s: float) -> Dict[str, float]:
    """Self times and calls per traced pass."""
    metrics: Dict[str, float] = {
        "pipeline.step_self_s": tracer.self_s("pipeline.step") / passes,
        "pipeline.run_self_s": tracer.self_s("pipeline.run") / passes,
        "pipeline.steps": tracer.calls("pipeline.step") / passes,
        "core.lsq.self_s": tracer.self_s("core.lsq") / passes,
        "core.lsq.calls": tracer.calls("core.lsq") / passes,
        "memory.self_s": tracer.self_s("memory") / passes,
        "memory.data_access.calls":
            tracer.calls("memory.data_access") / passes,
        "memory.instruction_access.calls":
            tracer.calls("memory.instruction_access") / passes,
        "validate.self_s": tracer.self_s("validate") / passes,
        "validate.calls": tracer.calls("validate") / passes,
    }
    for part in ("iq", "rob", "regfile", "fu", "bpred"):
        metrics[f"pipeline.{part}.self_s"] = \
            tracer.self_s(f"pipeline.{part}") / passes
        metrics[f"pipeline.{part}.calls"] = \
            tracer.calls(f"pipeline.{part}") / passes
    for method in ("load_blocked", "try_execute_load", "try_execute_store",
                   "try_commit_store", "begin_cycle", "sample"):
        name = f"core.lsq.{method}"
        metrics[f"{name}.calls"] = tracer.calls(name) / passes
        metrics[f"{name}.self_s"] = tracer.self_s(name) / passes
    attempts = tracer.calls("core.lsq.load_blocked") \
        + tracer.calls("core.lsq.try_execute_load")
    executed = tracer.hits.get("core.lsq.try_execute_load", 0)
    metrics["core.lsq.load_attempt_yield"] = \
        executed / attempts if attempts else 0.0
    corrected = tracer.cells_s - tracer.overhead_s
    metrics["trace.overhead_ratio"] = \
        tracer.cells_s / passes / untraced_s if untraced_s else 0.0
    metrics["trace.other_share"] = \
        tracer.other_s / corrected if corrected > 0 else 0.0
    return metrics


def trace_cells_run(cells: List[Cell], seconds_left: float,
                    check: OutputCheck, name: str, seed: int
                    ) -> Tuple[Dict[str, float], List[CellRun]]:
    """Untraced pass, then traced passes while the budget lasts."""
    untraced_s, untraced = run_serial(cells)
    for run in untraced:
        check.record(run)
    metrics = _model_metrics(untraced)
    c_in, c_out = layertrace.calibrate()
    tracer = layertrace.LayerTracer(c_in=c_in, c_out=c_out)
    reference = {run.key: run.digest for run in untraced}

    def traced_pass(index: int) -> Tuple[float, None]:
        wall, runs = run_serial(cells, tracer, first_id=index * len(cells))
        for run in runs:
            if check.record(run) and run.digest != reference.get(run.key):
                check.fail(f"{run.key}: traced digest differs from the "
                           "untraced run")
        return wall, None

    passes = len(timed_rounds(seconds_left, traced_pass))
    metrics.update(_layer_metrics(tracer, passes, untraced_s))
    write_trace_file(name, seed, tracer, passes, c_in, c_out)
    return metrics, untraced


def write_trace_file(name: str, seed: int, tracer: layertrace.LayerTracer,
                     passes: int, c_in: float, c_out: float) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "calibration": {"c_in_ns": c_in * 1e9, "c_out_ns": c_out * 1e9},
        "split": tracer.split(),
        "layers": {key: {"self_s": value[0] / passes,
                         "calls": value[1] / passes}
                   for key, value in sorted(tracer.acc.items())},
        "spans": tracer.export(),
    }
    path = OUT_DIR / f"trace-{name}.json"
    path.write_text(json.dumps(payload) + "\n")
    split = ", ".join(f"{layer} {share:.1%}"
                      for layer, share in payload["split"].items())
    print(f"{name}: layer split {split} -> {path.relative_to(ROOT)}",
          file=sys.stderr)


def trace_sim(workload: SimWorkload, seed: int, seconds: float,
              n: Optional[int], check: OutputCheck) -> Dict[str, float]:
    started = time.perf_counter()
    cells = workload.cells(seed, n)
    metrics = {"harness.pool_efficiency": 0.0, "harness.digest_s": 0.0}
    accuracy_runs: List[CellRun] = []
    if workload.jobs > 1:
        wall, runs = pool_round(cells, workload.jobs)
        for run in runs:
            check.record(run)
        accuracy_runs = runs
        metrics["harness.pool_efficiency"] = \
            sum(run.wall_s for run in runs) / (workload.jobs * wall)
        digest_started = time.perf_counter()
        for cell in cells:
            cell.digest()
        metrics["harness.digest_s"] = time.perf_counter() - digest_started
    left = seconds - (time.perf_counter() - started)
    layer, untraced = trace_cells_run(workload.trace_cells(cells), left,
                                      check, workload.name, seed)
    metrics.update(layer)
    ipc_err, speedup_err = accuracy(accuracy_runs or untraced)
    metrics["model.ipc_err_pct"] = ipc_err
    metrics["model.speedup_err_pp"] = speedup_err
    metrics.update({name: 0.0 for name in SERVE_LAYER_METRICS})
    return metrics


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

SERVE_SPANS = {"http.submit": "submit", "queue.wait": "queue_wait",
               "cache.probe": "cache_probe", "worker.exec": "worker_exec",
               "publish": "publish"}
SERVE_LAYER_METRICS = tuple(
    [f"serve.{short}_ms.p50" for short in SERVE_SPANS.values()]
    + ["serve.hit_ratio", "serve.coalesce_ratio", "serve.backpressured"])


@dataclass
class _JobOutcome:
    run: CellRun
    latency_ms: float
    sim_s: float = 0.0
    spans: Dict[str, float] = field(default_factory=dict)


def _serve_job(client, cell: Cell, with_spans: bool) -> _JobOutcome:
    from repro.serve.client import ServeError
    label = cell.label
    spec = {"benchmarks": [cell.benchmark],
            "presets": [label.split("-")[0]], "seeds": [cell.seed],
            "n_instructions": cell.n_instructions}
    started = time.perf_counter()
    try:
        job = client.submit_with_retry(spec, attempts=20)
        final = client.wait(str(job["id"]))
        latency_ms = (time.perf_counter() - started) * 1000.0
        rows = final.get("cells") or [{}]
        row = rows[0]
        if row.get("status") != "done" or row.get("label") != label:
            error = row.get("error") or f"job ended {row.get('status')!r}"
            return _JobOutcome(CellRun.of(cell, error=str(error)), latency_ms)
        spans: Dict[str, float] = {}
        if with_spans:
            for span in client.spans(str(job["id"])).get("spans", []):
                if span.get("name") in SERVE_SPANS and \
                        span.get("duration_ms") is not None:
                    spans[span["name"]] = float(span["duration_ms"])
        run = CellRun.of(cell, committed=int(row["committed"]),
                         cycles=int(row["cycles"]), ipc=float(row["ipc"]),
                         wall_s=latency_ms / 1000.0, source=row["source"])
        return _JobOutcome(run, latency_ms, float(row.get("sim_s") or 0.0),
                           spans)
    except (ServeError, OSError, KeyError, TypeError, ValueError) as error:
        latency_ms = (time.perf_counter() - started) * 1000.0
        return _JobOutcome(CellRun.of(
            cell, error=f"{type(error).__name__}: {error}"), latency_ms)


def _serve_round(client, picks: List[Cell],
                 with_spans: bool) -> Tuple[float, List[_JobOutcome]]:
    """Closed loop: ``SERVE_CLIENTS`` threads, each sending its next job
    only after the previous one completed.  Returns (wall seconds,
    jobs)."""
    lock = threading.Lock()
    jobs = iter(picks)
    outcomes: List[_JobOutcome] = []
    started = time.perf_counter()

    def drive() -> None:
        while True:
            with lock:
                cell = next(jobs, None)
            if cell is None:
                return
            outcome = _serve_job(client, cell, with_spans)
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=drive, name=f"perf-client-{i}")
               for i in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, outcomes


def _serve_session(scratch: Path, body: Callable[[object], object]):
    """Run ``body(client)`` against a fresh server; always tears the
    server and its workers down."""
    from repro.serve.client import ServeClient
    with ServerProcess(SERVE_WORKERS, scratch / "serve") as server:
        return body(ServeClient(port=server.wait_ready()))


def measure_serve(workload: ServeWorkload, seed: int, seconds: float,
                  n: Optional[int], check: OutputCheck,
                  scratch: Path) -> List[Round]:
    def body(client) -> List[Round]:
        rounds = []
        for wall, outcomes in timed_rounds(seconds, lambda index: _serve_round(
                client, workload.picks(seed, index, n), with_spans=False)):
            for outcome in outcomes:
                check.record(outcome.run)
            rounds.append(Round(
                wall, sum(outcome.run.committed for outcome in outcomes
                          if outcome.run.source == "computed"),
                [outcome.latency_ms for outcome in outcomes]))
        return rounds

    return _serve_session(scratch, body)


def trace_serve(workload: ServeWorkload, seed: int, seconds: float,
                n: Optional[int], check: OutputCheck,
                scratch: Path) -> Dict[str, float]:
    started = time.perf_counter()
    picks = workload.picks(seed, 0, n)
    metrics: Dict[str, float] = {}
    runs: List[CellRun] = []

    def body(client) -> Dict[str, float]:
        wall, outcomes = _serve_round(client, picks, with_spans=True)
        by_span: Dict[str, List[float]] = {name: [] for name in SERVE_SPANS}
        sim_s = 0.0
        for outcome in outcomes:
            check.record(outcome.run)
            runs.append(outcome.run)
            if outcome.run.source == "computed":
                sim_s += outcome.sim_s
            for name, duration in outcome.spans.items():
                by_span[name].append(duration)
        stats = client.stats()
        cells = stats["cells"]
        requested = cells["requested"] or 1
        result = {f"serve.{short}_ms.p50":
                  percentile(by_span[name], 0.50)
                  for name, short in SERVE_SPANS.items()}
        result["serve.hit_ratio"] = cells["cache"] / requested
        result["serve.coalesce_ratio"] = cells["coalesced"] / requested
        result["serve.backpressured"] = stats["jobs"]["rejected"]
        result["harness.pool_efficiency"] = \
            sim_s / (SERVE_WORKERS * wall)
        return result

    metrics.update(_serve_session(scratch, body))
    distinct = list({cell_key(cell): cell for cell in picks}.values())
    digest_started = time.perf_counter()
    for cell in distinct:
        cell.digest()
    metrics["harness.digest_s"] = time.perf_counter() - digest_started
    left = seconds - (time.perf_counter() - started)
    layer, __ = trace_cells_run(distinct[:SERVE_TRACE_CELLS], left,
                                check, workload.name, seed)
    metrics.update(layer)
    ipc_err, speedup_err = accuracy(runs)
    metrics["model.ipc_err_pct"] = ipc_err
    metrics["model.speedup_err_pp"] = speedup_err
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool,
        n: Optional[int], scratch: Path) -> Dict[str, object]:
    """Measure one workload; returns the result record."""
    workload = WORKLOADS[name]
    default_n = n is None or n == workload.n
    check = OutputCheck(name, seed, default_n)
    serve = isinstance(workload, ServeWorkload)
    record: Dict[str, object] = {"workload": name, "seed": seed}
    if trace:
        if serve:
            metrics = trace_serve(workload, seed, seconds, n, check, scratch)
        else:
            metrics = trace_sim(workload, seed, seconds, n, check)
    else:
        setup_s = measure_setup(workload, scratch)
        if serve:
            rounds = measure_serve(workload, seed, seconds, n, check, scratch)
        else:
            rounds = measure_sim(workload, seed, seconds, n, check)
        metrics = end_to_end(rounds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        record["rounds"] = [
            {"wall_s": item.wall_s, "simulated": item.simulated,
             "job_ms": [round(ms, 3) for ms in item.job_ms]}
            for item in rounds]
    record.update({
        "correct": check.failed == 0,
        "attempted": max(check.attempted, 1),
        "failed": check.failed if check.attempted else 1,
        "metrics": metrics,
        "notes": [check.note(seed)],
        "errors": check.errors,
    })
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.n, Path(args.scratch))
    Path(args.out).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
