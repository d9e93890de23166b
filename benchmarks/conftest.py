"""Shared fixtures for the reproduction benchmarks.

Every bench regenerates one of the paper's tables or figures.  Each
bench module declares the cells it reads as a module-level ``CELLS``
list; the session-scoped :func:`results` fixture takes the union over
the modules of the selected tests and runs it as ONE engine batch
(:func:`repro.harness.figures.run_batch`).  So a configuration several
benches share (e.g. the 2-ported conventional base) is simulated once,
each benchmark's trace is generated once, ``pytest benchmarks/`` runs a
single batch, and one bench file run alone simulates only its own
cells.  All execution goes through the sweep engine
(:mod:`repro.harness.engine`), so results also persist in the on-disk
cache across bench invocations and fan out over worker processes when
``REPRO_BENCH_JOBS`` > 1.  The MSHR and ordering-schemes benches vary
what a cell cannot express and call ``simulate`` directly.

Results are printed (run with ``-s`` to see them live) and written to
``benchmarks/results/<name>.txt``.

Environment knobs:

``REPRO_BENCH_INSTRUCTIONS``
    dynamic instructions per benchmark trace (default 6000).
``REPRO_BENCH_SUBSET``
    comma-separated benchmark names to restrict the figure suite
    (default: all eighteen applications).
``REPRO_BENCH_JOBS``
    worker processes for sweep fan-out (default 1 = serial).
``REPRO_BENCH_CACHE``
    set to ``0``/``off`` to disable the on-disk result cache.
``REPRO_CACHE_DIR``
    cache directory (default ``.repro-cache``).
"""

import os
from pathlib import Path

import pytest

from repro.harness.engine import Cell, ResultCache, SweepEngine
from repro.harness.figures import default_instructions, run_batch
from repro.workload import ALL_BENCHMARKS

RESULTS_DIR = Path(__file__).parent / "results"


def _selected_benchmarks():
    subset = os.environ.get("REPRO_BENCH_SUBSET", "")
    if subset:
        return tuple(name.strip() for name in subset.split(",") if name.strip())
    return ALL_BENCHMARKS


#: The benchmarks the figure benches sweep.
SUITE = _selected_benchmarks()
#: The smaller suite of the ablation and extension benches.
SUBSET = ("gzip", "vortex", "mgrid", "equake")
#: Dynamic instructions per trace.
N = default_instructions()


def cell(benchmark, machine, seed=0):
    """The bench suite's cell for one (benchmark, machine, seed) point."""
    return Cell(benchmark=benchmark, machine=machine, seed=seed,
                n_instructions=N)


def _engine_from_env():
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache = None
    if os.environ.get("REPRO_BENCH_CACHE", "1").lower() not in ("0", "off", "no"):
        cache = ResultCache()
    return SweepEngine(jobs=jobs, cache=cache)


@pytest.fixture(scope="session")
def results(request):
    """Every cell the selected benches declare, run as one batch and
    keyed by ``Cell.digest()``."""
    modules = dict.fromkeys(getattr(item, "module", None)
                            for item in request.session.items)
    cells = [declared for module in modules
             for declared in getattr(module, "CELLS", ())]
    return run_batch(cells, _engine_from_env())


def lookup(results, benchmark, machine, seed=0):
    """The simulation result of one declared point of the session
    batch."""
    return results[cell(benchmark, machine, seed).digest()].result


def emit(result_name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result_name}.txt").write_text(text + "\n")
