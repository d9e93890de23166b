"""Cached experiment runner.

Each figure sweeps several LSQ configurations over the 18-benchmark
suite.  The runner keeps its original per-process memo (figures that
share configurations, e.g. the base case, pay for each run once) but
delegates all execution to :class:`repro.harness.engine.SweepEngine`,
which adds two things the memo cannot provide: fan-out of cache misses
over a ``multiprocessing`` pool, and a content-addressed on-disk cache
shared across processes (see :mod:`repro.harness.engine`).

The run length defaults to ``REPRO_BENCH_INSTRUCTIONS`` (environment
variable, default 6000): long enough for steady-state behaviour with
warmed caches/predictors, short enough that a full figure regenerates in
about a minute of pure-Python simulation.  The variable is read when the
runner is *constructed*, not when the module is imported, so setting it
programmatically (e.g. in a test or driver script) works as expected.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import LsqConfig, MachineConfig, base_machine
from repro.harness.engine import Cell, SweepEngine
from repro.obs import ObsConfig, ObsSummary
from repro.pipeline.processor import SimulationResult
from repro.workload import ALL_BENCHMARKS


def default_instructions() -> int:
    """Per-trace dynamic instruction count: the current value of the
    ``REPRO_BENCH_INSTRUCTIONS`` environment variable, default 6000."""
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "6000"))


#: (benchmark, machine, seed, n_instructions, validate, obs) —
#: everything that determines a result.  Two runners sharing an engine
#: (or the disk cache behind it) can never collide on runner identity;
#: in particular a traced runner (obs set) never poisons the entries an
#: untraced runner reads, and vice versa.
_ResultKey = Tuple[str, MachineConfig, int, int, bool, Optional[ObsConfig]]


class ExperimentRunner:
    """Runs (benchmark, machine) pairs with result caching."""

    def __init__(self, n_instructions: Optional[int] = None,
                 seed: int = 0,
                 benchmarks: Iterable[str] = ALL_BENCHMARKS,
                 validate: bool = False,
                 engine: Optional[SweepEngine] = None,
                 obs: Optional[ObsConfig] = None) -> None:
        self.n_instructions = (default_instructions()
                               if n_instructions is None else n_instructions)
        self.seed = seed
        self.benchmarks: Tuple[str, ...] = tuple(benchmarks)
        #: Run every simulation under the memory-model oracle and
        #: invariant checker (repro.validate) — slower, but any bench
        #: built on this runner becomes a correctness smoke test.
        self.validate = validate
        #: Observability configuration for every run (``None`` = no
        #: instrumentation); part of both the memo key and the cell
        #: cache key.  Summaries are kept per run (:meth:`obs_summary`).
        self.obs = obs
        #: Execution backend; the default is serial with no disk cache,
        #: which preserves the historical in-process behaviour.  Pass
        #: ``SweepEngine(jobs=N, cache=ResultCache())`` for parallel,
        #: cross-process-cached sweeps.
        self.engine = engine if engine is not None else SweepEngine()
        self._results: Dict[_ResultKey, SimulationResult] = {}
        self._obs_summaries: Dict[_ResultKey, Optional[ObsSummary]] = {}

    def _cell(self, benchmark: str, machine: MachineConfig,
              seed: int) -> Cell:
        return Cell(benchmark=benchmark, machine=machine, seed=seed,
                    n_instructions=self.n_instructions,
                    validate=self.validate, obs=self.obs)

    def _key(self, benchmark: str, machine: MachineConfig,
             seed: int) -> _ResultKey:
        return (benchmark, machine, seed, self.n_instructions,
                self.validate, self.obs)

    def run(self, benchmark: str, machine: MachineConfig,
            seed: Optional[int] = None) -> SimulationResult:
        seed = self.seed if seed is None else seed
        key = self._key(benchmark, machine, seed)
        if key not in self._results:
            cell_result = self.engine.run_cell(
                self._cell(benchmark, machine, seed))
            self._results[key] = cell_result.result
            self._obs_summaries[key] = cell_result.obs
        return self._results[key]

    def obs_summary(self, benchmark: str, machine: MachineConfig,
                    seed: Optional[int] = None) -> Optional[ObsSummary]:
        """Observability summary of an already-run point (``None`` when
        the runner is untraced or the point has not been run)."""
        seed = self.seed if seed is None else seed
        return self._obs_summaries.get(self._key(benchmark, machine, seed))

    def run_suite(self, machine: MachineConfig,
                  benchmarks: Optional[Iterable[str]] = None
                  ) -> Dict[str, SimulationResult]:
        names = tuple(benchmarks) if benchmarks is not None else self.benchmarks
        self._prefetch([(name, machine, self.seed) for name in names])
        return {name: self.run(name, machine) for name in names}

    def run_lsq_suite(self, lsq: LsqConfig,
                      machine: Optional[MachineConfig] = None
                      ) -> Dict[str, SimulationResult]:
        """Run the whole suite on ``machine`` (default: Table 1 base)
        with its LSQ replaced by ``lsq``."""
        from dataclasses import replace
        base = machine if machine is not None else base_machine()
        return self.run_suite(replace(base, lsq=lsq))

    def run_seeds(self, benchmark: str, machine: MachineConfig,
                  seeds: Iterable[int]) -> List[SimulationResult]:
        """Run one (benchmark, machine) pair under several generator
        seeds — the cheap way to put spread bars on any reported number
        (synthetic traces are the only randomness in a run).

        Runs go through the same cached, validated path as :meth:`run`
        (the seed is part of the cache key), so a multi-seed bench both
        honours ``validate=True`` and reuses prior results.
        """
        seed_list = list(seeds)
        self._prefetch([(benchmark, machine, seed) for seed in seed_list])
        return [self.run(benchmark, machine, seed=seed)
                for seed in seed_list]

    def _prefetch(self, points: List[Tuple[str, MachineConfig, int]]) -> None:
        """Batch-run not-yet-memoised points through the engine so a
        parallel engine can overlap them; results land in the memo."""
        missing = [(benchmark, machine, seed)
                   for benchmark, machine, seed in points
                   if self._key(benchmark, machine, seed)
                   not in self._results]
        if len(missing) < 2 or self.engine.jobs < 2:
            return
        cells = [self._cell(benchmark, machine, seed)
                 for benchmark, machine, seed in missing]
        for (benchmark, machine, seed), cell_result \
                in zip(missing, self.engine.run_cells(cells)):
            key = self._key(benchmark, machine, seed)
            self._results[key] = cell_result.result
            self._obs_summaries[key] = cell_result.obs


def confidence(values: List[float]) -> Tuple[float, float]:
    """(mean, half-range) of a small sample — the spread annotation used
    by the multi-seed bench."""
    if not values:
        raise ValueError("no values")
    mean = sum(values) / len(values)
    half_range = (max(values) - min(values)) / 2
    return mean, half_range


_default_runner: Optional[ExperimentRunner] = None


def default_runner() -> ExperimentRunner:
    """Process-wide shared runner (the benches all reuse its cache)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner()
    return _default_runner
