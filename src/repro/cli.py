"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------

``run``       simulate one benchmark on a chosen LSQ design and print a
              full report (IPC, search bandwidth, pressure breakdown).
``figure``    regenerate one of the paper's figures/tables (optionally
              as an ASCII bar chart).
``sweep``     compare several LSQ presets on one benchmark.
``gentrace``  generate a synthetic trace, report its characteristics,
              optionally save it as ``.lsqtrace``.
``trace``     run one benchmark under the observability layer
              (:mod:`repro.obs`): structured events, interval metrics,
              a CPI stall-attribution stack, and a Chrome-trace/Perfetto
              ``trace.json``.
``profile``   cProfile one sweep cell and merge the hot-function table
              into ``BENCH_sweep.json``.
``pipetrace`` draw the per-instruction pipeline diagram for the first
              instructions of a run.
``check``     run benchmarks × LSQ presets under the full validation
              stack (memory-model oracle + cycle-level invariants,
              optionally fault injection); validated runs replay from
              the result cache (``--cache``/``--no-cache``); exit
              nonzero on any failure.
``bench``     run a benchmarks × presets × seeds sweep through the
              parallel, disk-cached engine (``--jobs``, ``--cache``,
              ``--progress``) and write a machine-readable
              ``BENCH_sweep.json`` with per-cell wall time, IPC and
              cache hit/miss counts; ``--compare OLD.json`` gates on
              per-cell sim-time (>20%) and IPC (>0.1%) regressions.
``lint``      run the simulator-aware static analyzer
              (:mod:`repro.analyze`) over the repro sources; exit
              nonzero on any non-baselined finding.
``serve``     run the simulation-as-a-service job server
              (:mod:`repro.serve`): clients POST sweep specs, identical
              cells coalesce, results stream back as NDJSON.
``submit``    submit a sweep spec to a running server and stream the
              job to completion (heartbeats surface stalls).
``top``       one-screen fleet view of a running server — jobs, cache
              and coalescing counters, per-worker busy/idle state —
              refreshed in place (``--once`` for scripts/CI).
``timeline``  fetch a finished job's span tree and merge it with
              deterministic re-simulations of its cells into a single
              Perfetto/Chrome trace: server latency attribution on top,
              per-cell pipeline microstructure below.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Callable, Dict, List, NoReturn, Sequence

from repro.config import (
    LoadQueueSearchMode,
    LsqConfig,
    MachineConfig,
    base_machine,
    conventional_lsq,
    full_techniques_lsq,
    scaled_machine,
    segmented_lsq,
    techniques_lsq,
)
from repro.pipeline.processor import Processor, simulate
from repro.stats.analysis import SweepSummary, search_pressure
from repro.workload import ALL_BENCHMARKS, generate_trace
from repro.workload.tools import mix_report
from repro.workload.trace import Trace

PRESETS: Dict[str, callable] = {
    "conventional": conventional_lsq,
    "techniques": techniques_lsq,
    "segmented": lambda ports: segmented_lsq(ports=ports),
    "full": full_techniques_lsq,
}

#: Exit codes, one meaning per number so CI and scripts can tell the
#: failure classes apart.  Usage errors are always ``2`` (argparse's
#: own convention) no matter which verb raised them; the validation
#: verbs add 3/4, the serving verbs 5/6.
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_FORBIDDEN = 3
EXIT_WATCHDOG = 4
EXIT_UNAVAILABLE = 5   # submit: the server cannot be reached
EXIT_BUSY = 6          # submit: backpressured (429) past all retries
#: The reader closed stdout (``repro run ... | head``): 128 + SIGPIPE,
#: the status a shell reports for a process SIGPIPE ended.
EXIT_BROKEN_PIPE = 141


def _usage_error(message: str) -> NoReturn:
    """Reject bad arguments the way argparse does: message on stderr,
    exit :data:`EXIT_USAGE`.  (``sys.exit(message)`` would exit 1 with
    the text *as* the code — indistinguishable from a validation
    failure.)"""
    print(message, file=sys.stderr)
    sys.exit(EXIT_USAGE)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


#: The type of every ``-n/--instructions`` flag: an explicit count must
#: be at least 1.  (The ``0`` default of ``figure``, ``bench`` and
#: ``submit`` is not parsed, so it still means "the default".)
_instruction_count = _int_at_least(1)


def _default_instructions() -> int:
    """``$REPRO_BENCH_INSTRUCTIONS`` or 6000; a bad value of the
    variable is a usage error."""
    from repro.harness.figures import default_instructions
    try:
        return default_instructions()
    except ValueError as error:
        _usage_error(str(error))


def _lsq(preset: str, ports: int) -> LsqConfig:
    """LSQ ``preset`` with ``ports`` search ports.  Every verb builds its
    machines' LSQs here, so an out-of-range geometry (``--ports 0``) is
    a usage error, not a traceback that exits like a failed check.

    ``membar`` (litmus only) is the paper's software-ordering design
    (Section 2.2): the one preset whose declared ordering model is
    relaxed."""
    if preset != "membar" and preset not in PRESETS:
        _usage_error(f"unknown LSQ preset {preset!r}; choose from: "
                     f"{', '.join(sorted(PRESETS))}")
    try:
        if preset == "membar":
            return replace(conventional_lsq(ports=ports),
                           lq_search=LoadQueueSearchMode.MEMBAR)
        return PRESETS[preset](ports=ports)
    except ValueError as error:
        _usage_error(f"bad machine: {error}")


def _machine(args) -> MachineConfig:
    core = scaled_machine() if getattr(args, "scaled", False) \
        else base_machine()
    return replace(core, lsq=_lsq(args.lsq, args.ports))


def _load_trace(args) -> Trace:
    name = args.benchmark
    if name.endswith(".lsqtrace"):
        if not os.path.exists(name):
            _usage_error(f"trace file not found: {name}")
        try:
            return Trace.load(name)
        except ValueError as error:
            _usage_error(f"bad trace file: {error}")
    if name.startswith("litmus/"):
        from repro.litmus import parse_litmus_name
        try:
            parse_litmus_name(name)
        except ValueError as error:
            _usage_error(str(error))
        return generate_trace(name, n_instructions=args.instructions,
                              seed=getattr(args, "seed", 0))
    if name not in ALL_BENCHMARKS:
        _usage_error(f"unknown benchmark {name!r}; choose from: "
                     f"{', '.join(ALL_BENCHMARKS)}, a litmus/... name, "
                     f"or a .lsqtrace file")
    return generate_trace(name, n_instructions=args.instructions)


def _select(text: str, known: Sequence[str], what: str) -> List[str]:
    """``all`` (every name in ``known``) or a comma-separated selection
    from ``known``; an unknown name is a usage error."""
    if text == "all":
        return list(known)
    names = [name.strip() for name in text.split(",") if name.strip()]
    for name in names:
        if name not in known:
            _usage_error(f"unknown {what} {name!r}; choose from: "
                         f"{', '.join(known)} or 'all'")
    return names


def cmd_run(args) -> None:
    trace = _load_trace(args)
    result = simulate(trace, _machine(args))
    stats = result.stats
    print(f"{trace.name}: {stats.committed} instructions in "
          f"{stats.cycles} cycles -> IPC {stats.ipc:.2f}")
    print(f"  mix: {stats.committed_loads} loads, "
          f"{stats.committed_stores} stores, "
          f"{stats.committed_branches} branches")
    print(f"  searches: SQ {stats.sq_searches}, LQ {stats.lq_searches}, "
          f"load buffer {stats.load_buffer_searches}, "
          f"invalidation {stats.invalidation_searches}")
    print(f"  forwarding: {stats.forwarded_loads} loads "
          f"(SQ match rate {stats.forward_match_rate:.2f}); "
          f"violations: {stats.violation_squashes}; "
          f"branch mispredicts: {stats.branch_mispredicts} "
          f"(rate {stats.branch_mispredict_rate:.3f})")
    print(f"  occupancy: LQ {stats.avg_lq_occupancy:.1f} / "
          f"SQ {stats.avg_sq_occupancy:.1f}; "
          f"OOO loads {stats.avg_ooo_loads:.2f}")
    print("\n" + search_pressure(stats).format())


def _engine(args):
    """Build a SweepEngine from the shared --jobs/--cache/--no-cache
    options (disk cache on unless --no-cache)."""
    from repro.harness.engine import ResultCache, SweepEngine
    cache = None
    if not getattr(args, "no_cache", False):
        cache_dir = getattr(args, "cache_dir", None)
        cache = ResultCache(cache_dir) if cache_dir else ResultCache()
    return SweepEngine(jobs=getattr(args, "jobs", 1) or 1, cache=cache)


def cmd_figure(args) -> None:
    from repro.harness import figures
    from repro.harness.plots import bar_chart
    names = (list(figures.ALL_EXPERIMENTS) if args.name == "all"
             else [args.name])
    unknown = [name for name in names
               if name not in figures.ALL_EXPERIMENTS]
    if unknown:
        _usage_error(f"unknown figure {unknown[0]!r}; choose from: "
                     f"{', '.join(sorted(figures.ALL_EXPERIMENTS))} "
                     f"or 'all'")
    results = figures.run_experiments(
        names, ALL_BENCHMARKS,
        args.instructions or _default_instructions(), _engine(args))
    for name in names:
        print(bar_chart(results[name]) if args.chart
              else results[name].format())
        print()


def cmd_sweep(args) -> None:
    trace = _load_trace(args)
    ipc: Dict[str, Dict[str, float]] = {}
    for label, preset in PRESETS.items():
        for ports in (1, 2):
            machine = replace(base_machine(), lsq=preset(ports=ports))
            ipc[f"{label}-{ports}p"] = {
                trace.name: simulate(trace, machine).ipc}
    summary = SweepSummary(ipc=ipc, baseline="conventional-2p")
    print(summary.format())
    print(f"best: {summary.best_config()}")


def cmd_gentrace(args) -> None:
    trace = _load_trace(args)
    print(mix_report(trace))
    if args.output:
        trace.save(args.output)
        print(f"saved to {args.output}")


def cmd_trace(args) -> None:
    """Observe one run: events + metrics + CPI stack + Perfetto trace."""
    from repro.obs import ObsConfig, Observer
    from repro.obs.chrometrace import (
        export_chrome_trace,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.stats.report import cpi_stack_table, format_table

    if args.smoke:
        args.benchmark = args.benchmark or SMOKE_BENCHMARKS[0]
        args.instructions = SMOKE_INSTRUCTIONS
    if not args.benchmark:
        _usage_error("trace: benchmark required (or pass --smoke)")
    trace = _load_trace(args)
    machine = _machine(args)
    observer = Observer(ObsConfig(sample_interval=args.sample_interval,
                                  event_limit=args.event_limit))
    processor = Processor(machine, obs=observer)
    tracer = None
    if args.pipetrace:
        from repro.pipeline.debug import PipelineTracer
        tracer = PipelineTracer(limit=args.pipetrace)
        processor.tracer = tracer
    result = processor.run(trace)
    summary = observer.summary()

    label = f"{trace.name} x {args.lsq}-{args.ports}p"
    doc = export_chrome_trace(observer, tracer=tracer, label=label)
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        sys.exit(1)
    write_chrome_trace(args.output, doc)

    stats = result.stats
    print(f"{label}: {stats.committed} instructions in {stats.cycles} "
          f"cycles -> IPC {stats.ipc:.2f}")
    print(cpi_stack_table(summary.cpi_slots, summary.commit_width,
                          stats.committed,
                          title="\nCPI stall attribution"))
    counts = [(kind, summary.event_counts.get(kind, 0))
              for kind in sorted(summary.event_counts)]
    print("\n" + format_table(["event", "count"], counts, title="Events"))
    if summary.dropped_events:
        print(f"  ({summary.dropped_events} events beyond the "
              f"--event-limit were counted but not stored)")
    print(f"\n{len(summary.samples)} metric samples every "
          f"{args.sample_interval} cycles; trace -> {args.output} "
          f"(load in ui.perfetto.dev)")
    if args.pipetrace and tracer is not None:
        print("\n" + tracer.render_recent())


def cmd_profile(args) -> None:
    """cProfile one sweep cell; merge the hot spots into the report."""
    import json

    from repro.harness.engine import Cell, profile_cell, sweep_report
    from repro.stats.report import format_table

    if args.benchmark not in ALL_BENCHMARKS:
        _usage_error(f"unknown benchmark {args.benchmark!r}; choose "
                     f"from: {', '.join(ALL_BENCHMARKS)} (profile "
                     "regenerates the trace by name, so .lsqtrace files "
                     "are not accepted)")
    machine = _machine(args)
    label = f"{args.lsq}-{args.ports}p"
    cell = Cell(benchmark=args.benchmark, machine=machine, seed=args.seed,
                n_instructions=args.instructions, label=label)
    cell_result, rows = profile_cell(cell, top=args.top)
    print(f"{args.benchmark} x {label}: IPC {cell_result.ipc:.2f}, "
          f"{cell_result.sim_s:.2f}s under cProfile")
    print(format_table(
        ["function", "calls", "tottime (s)", "cumtime (s)"],
        [[row["function"], row["calls"], row["tottime_s"],
          row["cumtime_s"]] for row in rows],
        title="\nHot functions (by internal time)"))

    report = None
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = None
    if not isinstance(report, dict):
        report = sweep_report([cell_result], jobs=1, cache=None,
                              wall_s=cell_result.wall_s)
    report["profile"] = {
        "benchmark": args.benchmark,
        "label": label,
        "seed": args.seed,
        "n_instructions": args.instructions,
        "sim_s": round(cell_result.sim_s, 6),
        "hot_functions": rows,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nprofile merged into {args.output}")


def cmd_pipetrace(args) -> None:
    from repro.pipeline.debug import PipelineTracer
    trace = _load_trace(args)
    machine = _machine(args)
    processor = Processor(machine)
    processor.tracer = PipelineTracer(limit=args.last + 1)
    processor.run(trace)
    print(processor.tracer.render(args.first, args.last))


def cmd_check(args) -> None:
    """Benchmarks x presets under the oracle and invariant checker,
    each validated cell through the result cache; fault campaigns
    (``--faults``) always simulate."""
    from repro.harness.engine import Cell
    from repro.validate import (
        SimulationDeadlock,
        ValidationError,
        run_all_fault_classes,
    )
    benchmarks = _select(args.benchmark, ALL_BENCHMARKS, "benchmark")
    presets = _select(args.lsq, sorted(PRESETS), "LSQ preset")
    if not benchmarks or not presets:
        _usage_error("check: the benchmark or --lsq selection is empty")
    engine = _engine(args)
    failed = []
    hung = 0
    loads = cycles = injected = cached = 0
    for bench in benchmarks:
        trace = (generate_trace(bench, n_instructions=args.instructions)
                 if args.faults else None)
        for preset in presets:
            label = f"{bench} x {preset}"
            machine = replace(base_machine(), lsq=_lsq(preset, args.ports))
            cell = Cell(benchmark=bench, machine=machine,
                        n_instructions=args.instructions, validate=True,
                        label=preset)
            try:
                result = engine.run_cell(cell)
            except SimulationDeadlock as error:
                hung += 1
                print(f"HUNG {label}\n{error}")
                continue
            except ValidationError as error:
                failed.append(label)
                print(f"FAIL {label}\n{error}")
                continue
            summary = result.validation
            loads += summary.checked_loads
            cycles += summary.checked_cycles
            cached += result.cached
            print(f"ok   {label}: IPC {result.ipc:.2f}; {summary.report}"
                  + (" [cached]" if result.cached else ""))
            if trace is not None:
                reports = run_all_fault_classes(trace, machine,
                                                seed=args.seed)
                for __, report in sorted(reports.items()):
                    injected += len(report.outcomes)
                    if not report.ok:
                        if label not in failed:
                            failed.append(label)
                        print(f"FAIL {report.format()}")
                        print(report.checker.bundle().format())
                    else:
                        print(f"     {report.format()}")
    total = len(benchmarks) * len(presets)
    print(f"\ncheck: {total - len(failed) - hung}/{total} configuration(s) "
          f"passed"
          + (f", {len(failed)} FAILED" if failed else "")
          + (f", {hung} HUNG" if hung else "")
          + f"; {loads} committed loads cross-checked, {cycles} cycles of "
          f"invariants, {injected} faults injected, {cached} validated "
          f"run(s) replayed from cache")
    if failed:
        print("failed: " + ", ".join(failed))
    if hung:
        sys.exit(EXIT_WATCHDOG)
    if failed:
        sys.exit(EXIT_VALIDATION)


#: The litmus --smoke slice: two shapes, both fence modes, two seeds —
#: seconds of work, exercises generator, interleaver, checker and the
#: fault campaigns end to end.
LITMUS_SMOKE_SHAPES = ("mp", "sb")
LITMUS_SMOKE_SEEDS = (0, 1)
LITMUS_SMOKE_INSTRUCTIONS = 160


def _parse_seed_range(text: str) -> List[int]:
    """``A:B`` -> ``[A, B)``; a single integer -> that one seed."""
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi <= lo:
                raise ValueError
            return list(range(lo, hi))
        return [int(text)]
    except ValueError:
        print(f"bad --seed-range {text!r}; expected A:B (half-open) "
              f"or a single integer", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def cmd_litmus(args) -> None:
    from repro.config import OrderingModel
    from repro.litmus import SHAPES, run_battery, run_litmus_fault_campaign
    from repro.validate import SimulationDeadlock

    if args.smoke:
        shapes = list(LITMUS_SMOKE_SHAPES)
        seeds = list(LITMUS_SMOKE_SEEDS)
        args.instructions = LITMUS_SMOKE_INSTRUCTIONS
        args.faults = True
    else:
        shapes = list(SHAPES) if args.shape == "all" else [args.shape]
        seeds = _parse_seed_range(args.seed_range)
    fence_modes = {"off": (False,), "on": (True,),
                   "both": (False, True)}[args.fence]
    machine = replace(base_machine(), lsq=_lsq(args.lsq, args.ports))
    model = (None if args.model == "auto"
             else OrderingModel(args.model))
    try:
        battery = run_battery(
            machine, shapes=shapes, fence_modes=fence_modes, seeds=seeds,
            contexts=args.contexts, interleave=args.interleave,
            padding=args.padding, n_instructions=args.instructions,
            model=model)
    except SimulationDeadlock as error:
        print(f"HUNG: {error}")
        sys.exit(EXIT_WATCHDOG)
    for report in battery.reports:
        print(report.format())
    print(f"\nlitmus: {len(battery.reports)} cell(s) under "
          f"{battery.model.value}: "
          f"{'ok' if battery.ok else 'FORBIDDEN OUTCOMES'}")
    for witness in battery.witnesses:
        print(f"  {witness.format()}")
        if witness.bundle is not None:
            print(witness.bundle.format())
    exit_code = 0
    if battery.witnesses:
        exit_code = EXIT_FORBIDDEN
    elif not battery.ok:
        exit_code = EXIT_VALIDATION   # oracle failures without a witness
    if args.faults:
        try:
            campaigns = run_litmus_fault_campaign(
                machine, shapes=[s for s in shapes if s in ("mp", "corr")]
                or ["mp"], seeds=seeds[:2],
                n_instructions=args.instructions, rate=args.fault_rate,
                fault_seed=args.seed)
        except SimulationDeadlock as error:
            print(f"HUNG (fault campaign): {error}")
            sys.exit(EXIT_WATCHDOG)
        for name, reports in sorted(campaigns.items()):
            for report in reports:
                if not report.ok:
                    exit_code = exit_code or EXIT_VALIDATION
                    print(f"FAIL {report.format()}")
                else:
                    print(f"     {report.format()}")
    if exit_code:
        sys.exit(exit_code)


#: Preset → default search-port count for the bench sweep, following the
#: paper's pairing: conventional/segmented are evaluated 2-ported,
#: techniques/full are the 1-ported designs they are compared against.
BENCH_DEFAULT_PORTS = {"conventional": 2, "segmented": 2,
                       "techniques": 1, "full": 1}

#: The --smoke slice: two benchmarks (one INT, one FP) x the two
#: bracketing presets, short traces — seconds of work, exercises the
#: whole engine + cache path.  CI runs it twice and asserts the second
#: pass is served entirely from cache.
SMOKE_BENCHMARKS = ("gzip", "mgrid")
SMOKE_PRESETS = ("conventional", "full")
SMOKE_INSTRUCTIONS = 800


def cmd_bench(args) -> None:
    import json
    import time

    from repro.harness.engine import sweep_report
    from repro.serve.spec import SweepSpec, expand_cells

    if args.output is None:
        args.output = ("BENCH_core.json" if args.baseline
                       else "BENCH_sweep.json")
    if args.smoke:
        benchmarks = list(SMOKE_BENCHMARKS)
        presets = list(SMOKE_PRESETS)
        seeds = [0]
        n_instructions = args.instructions or SMOKE_INSTRUCTIONS
    else:
        benchmarks = _select(args.benchmarks, ALL_BENCHMARKS, "benchmark")
        presets = _select(args.presets, sorted(PRESETS), "preset")
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        n_instructions = args.instructions or _default_instructions()
    if not benchmarks or not presets or not seeds:
        # An empty grid is a usage error, never a vacuous success —
        # in particular `--expect-cached` over zero cells must not
        # report a warm cache it never touched.
        empty = ("benchmarks" if not benchmarks
                 else "presets" if not presets else "seeds")
        _usage_error(f"bench: --{empty} selected zero cells; nothing "
                     "to run (and nothing to assert with "
                     "--expect-cached)")
    if args.compare and not os.path.isfile(args.compare):
        # Fail before the sweep, not after minutes of simulation.
        _usage_error(f"bench: --compare baseline not found: "
                     f"{args.compare}")

    try:
        cells = expand_cells(SweepSpec(
            benchmarks=tuple(benchmarks), presets=tuple(presets),
            seeds=tuple(seeds), n_instructions=n_instructions,
            ports=args.ports, validate=args.validate))
    except ValueError as error:
        _usage_error(f"bad machine: {error}")

    if args.baseline:
        _bench_baseline(args, cells, benchmarks, presets, seeds,
                        n_instructions)
        return

    engine = _engine(args)
    print(f"bench: {len(cells)} cells ({len(benchmarks)} benchmarks x "
          f"{len(presets)} presets x {len(seeds)} seed(s), "
          f"n={n_instructions}), jobs={engine.jobs}, "
          f"cache={'off' if engine.cache is None else engine.cache.root}")

    def show(cell_result, done, total) -> None:
        cell = cell_result.cell
        source = "cache" if cell_result.cached else "simulated"
        print(f"  [{done}/{total}] {cell.benchmark} x {cell.label} "
              f"seed {cell.seed}: IPC {cell_result.ipc:.2f} "
              f"({cell_result.sim_s:.2f}s sim, {source})")

    started = time.perf_counter()  # sim-lint: ignore[SIM-D004]
    results = engine.run_cells(cells, progress=show if args.progress
                               else None)
    wall_s = time.perf_counter() - started  # sim-lint: ignore[SIM-D004]

    report = sweep_report(results, jobs=engine.jobs, cache=engine.cache,
                          wall_s=wall_s)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    hits = engine.cache.hits if engine.cache is not None else 0
    simulated = report["simulated"]
    print(f"bench: {simulated} simulated, {hits} cache hit(s); "
          f"sim {report['sim_s']:.2f}s, wall {wall_s:.2f}s -> "
          f"{args.output}")
    if args.expect_cached and simulated:
        missed = [item.cell for item in results if not item.cached]
        print(f"bench: --expect-cached but {len(missed)} cell(s) were "
              "simulated: "
              + ", ".join(f"{c.benchmark} x {c.label} seed {c.seed}"
                          for c in missed))
        sys.exit(1)
    if args.compare:
        _compare_report(args.compare, report)


def _compare_report(old_path: str, report) -> None:
    """The inline perf-regression gate (same as scripts/bench_diff.py)."""
    import json

    from repro.harness.engine import diff_reports
    try:
        with open(old_path) as handle:
            old_report = json.load(handle)
    except (OSError, ValueError) as error:
        _usage_error(f"bench: cannot read --compare baseline: {error}")
        return
    problems = diff_reports(old_report, report)
    if problems:
        print(f"bench: {len(problems)} regression(s) vs {old_path}:")
        for problem in problems:
            print(f"  {problem}")
        sys.exit(1)
    print(f"bench: no regressions vs {old_path}")


def _bench_baseline(args, cells, benchmarks, presets, seeds,
                    n_instructions) -> None:
    """``repro bench --baseline``: measure a fresh perf baseline.

    Always simulates live (the result cache would hand back *old*
    timings), min-of-``--reps`` per cell, plus one tracemalloc-
    instrumented repetition for the allocation footprint.
    """
    import json

    from repro.harness.engine import baseline_report

    print(f"bench: measuring baseline over {len(cells)} cells "
          f"({len(benchmarks)} benchmarks x {len(presets)} presets x "
          f"{len(seeds)} seed(s), n={n_instructions}), "
          f"min of {args.reps} rep(s)")
    report = baseline_report(cells, reps=args.reps)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for row in report["cells"]:
        print(f"  {row['benchmark']} x {row['label']} seed {row['seed']}: "
              f"IPC {row['ipc']:.2f}, {row['sim_s']:.3f}s sim, "
              f"{row['cycles_per_sec']:,} cycles/s, "
              f"peak {row['alloc_peak_kb']:.0f} KiB")
    print(f"bench: baseline sim {report['sim_s']:.2f}s "
          f"(calibration {report['calibration_s']:.3f}s) -> {args.output}")
    if args.compare:
        _compare_report(args.compare, report)


def cmd_lint(args) -> None:
    from repro.analyze.runner import run_lint
    code = run_lint(namespace=args)
    if code:
        sys.exit(code)


def cmd_serve(args) -> None:
    """Run the simulation job server until interrupted."""
    from repro.serve.server import ServeConfig, run_server
    if args.workers < 1:
        _usage_error("serve: --workers must be >= 1")
    if args.max_jobs < 1:
        _usage_error("serve: --max-jobs must be >= 1")
    run_server(ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_jobs=args.max_jobs, retry_after_s=args.retry_after,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        heartbeat_s=args.heartbeat))


def cmd_submit(args) -> None:
    """Submit a sweep spec to a running server; stream it to done."""
    import json

    from repro.serve.client import (
        Backpressure,
        ServeClient,
        ServeStalled,
        ServeUnavailable,
        SpecRejected,
    )
    from repro.serve.spec import smoke_spec

    if args.smoke:
        spec = smoke_spec(args.instructions or SMOKE_INSTRUCTIONS)
    else:
        spec = {
            "benchmarks": [b.strip() for b in args.benchmarks.split(",")
                           if b.strip()],
            "presets": [p.strip() for p in args.presets.split(",")
                        if p.strip()],
            "seeds": [],
            "n_instructions": args.instructions or SMOKE_INSTRUCTIONS,
            "validate": args.validate,
            "obs": args.obs,
        }
        for text in args.seeds.split(","):
            if text.strip():
                try:
                    spec["seeds"].append(int(text))
                except ValueError:
                    _usage_error(f"submit: bad seed {text.strip()!r}")
        if args.ports:
            spec["ports"] = args.ports
    client = ServeClient(host=args.host, port=args.port)
    # Client-side trace id: pid-derived, no wall clock or RNG.  It is
    # sent as X-Repro-Trace so the server's spans and log records for
    # this job correlate back to this invocation.
    trace = f"cli-{os.getpid():08x}"
    try:
        job = client.submit_with_retry(
            spec, attempts=args.retries if args.wait_busy else 1,
            trace=trace)
    except SpecRejected as error:
        _usage_error(f"submit: spec rejected: {error}")
        return
    except Backpressure as error:
        print(f"submit: server busy ({error}); retry in "
              f"{error.retry_after_s:.0f}s or pass --wait-busy",
              file=sys.stderr)
        sys.exit(EXIT_BUSY)
    except ServeUnavailable as error:
        print(f"submit: {error}", file=sys.stderr)
        sys.exit(EXIT_UNAVAILABLE)
    job_id = str(job["id"])
    # Stall budget: N missed heartbeats.  A healthy server heartbeats
    # every heartbeat_s even when no cell finished, so silence longer
    # than misses * heartbeat_s means wedged, not slow.
    heartbeat_s = float(job.get("heartbeat_s") or 0.0)
    stall_after_s = heartbeat_s * max(args.heartbeat_misses, 1) \
        if heartbeat_s > 0 else None
    print(f"submit: {job_id} ({job['n_cells']} cells, trace {trace}) -> "
          f"http://{args.host}:{args.port}/jobs/{job_id}")
    try:
        for event in client.stream(job_id, stall_after_s=stall_after_s):
            if event.get("event") == "cell":
                status = event.get("status")
                mark = "ok  " if status == "done" else "FAIL"
                print(f"  {mark} [{event.get('index')}] "
                      f"{event.get('benchmark')} x {event.get('label')} "
                      f"seed {event.get('seed')}: "
                      f"IPC {event.get('ipc')} "
                      f"({event.get('source') or event.get('error')}, "
                      f"{event.get('service_ms')} ms)")
            elif event.get("event") == "heartbeat":
                print(f"  ...  {event.get('done')}/{event.get('n_cells')} "
                      f"done, {event.get('pending')} queued "
                      "(server alive)")
        final = client.result(job_id)
    except ServeStalled as error:
        print(f"submit: {error} — {max(args.heartbeat_misses, 1)} "
              "heartbeats missed; the server or its workers are wedged",
              file=sys.stderr)
        sys.exit(EXIT_UNAVAILABLE)
    except ServeUnavailable as error:
        print(f"submit: lost the server mid-stream: {error}",
              file=sys.stderr)
        sys.exit(EXIT_UNAVAILABLE)
    summary = final["job"]
    assert isinstance(summary, dict)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(final, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"submit: result -> {args.output}")
    print(f"submit: {job_id} {summary['state']}: {summary['done']} done, "
          f"{summary['failed']} failed "
          f"(sources {summary['sources']}) in {summary['elapsed_s']}s")
    if int(summary.get("failed", 0) or 0):
        sys.exit(EXIT_VALIDATION)


def _render_top(stats: Dict[str, object], host: str, port: int) -> str:
    """Format one /stats snapshot as the ``repro top`` screen."""
    jobs = stats.get("jobs") or {}
    cells = stats.get("cells") or {}
    flight = stats.get("singleflight") or {}
    cache = stats.get("cache") or {}
    pool = stats.get("pool") or {}
    tele = stats.get("telemetry") or {}
    assert isinstance(jobs, dict) and isinstance(cells, dict)
    assert isinstance(flight, dict) and isinstance(cache, dict)
    assert isinstance(pool, dict) and isinstance(tele, dict)
    requested = int(cells.get("requested", 0) or 0)
    coalesced = int(cells.get("coalesced", 0) or 0)
    hits = int(cache.get("hits", 0) or 0)
    misses = int(cache.get("misses", 0) or 0)
    probes = hits + misses
    lines = [
        f"repro top — http://{host}:{port}",
        f"jobs   : {jobs.get('active', 0)}/{jobs.get('max_active', 0)} "
        f"active, {jobs.get('total', 0)} known, "
        f"{jobs.get('rejected', 0)} rejected (429)",
        f"cells  : {requested} requested — "
        f"{cells.get('cache', 0)} cache, {cells.get('computed', 0)} "
        f"computed, {coalesced} coalesced, {cells.get('failed', 0)} "
        "failed",
        f"flight : {flight.get('leaders', 0)} leaders, "
        f"{flight.get('joined', 0)} joined, "
        f"{flight.get('inflight', 0)} in flight "
        f"(peak {flight.get('peak_inflight', 0)}); coalescing "
        f"{(coalesced / requested) if requested else 0.0:.0%}",
        f"cache  : {hits}/{probes} hit"
        f" ({(hits / probes) if probes else 0.0:.0%}),"
        f" {cache.get('stores', 0)} stores"
        f" [{cache.get('dir') or 'disabled'}]",
        f"spans  : {tele.get('spans_finished', 0)} finished, "
        f"logs {tele.get('log_records', {})}, "
        f"heartbeats {tele.get('heartbeats', 0)}",
        "",
        "  id state alive  backlog  done fail resp   busy_s  current",
    ]
    workers = pool.get("worker_state")
    for row in workers if isinstance(workers, list) else []:
        current = "-"
        if row.get("state") == "busy":
            current = (f"{row.get('benchmark')} x {row.get('label')} "
                       f"[{row.get('digest')}]")
        lines.append(
            f"  {row.get('id'):>2} {str(row.get('state')):<5} "
            f"{'yes' if row.get('alive') else 'NO ':<5} "
            f"{row.get('backlog', 0):>7}  {row.get('done', 0):>4} "
            f"{row.get('failed', 0):>4} {row.get('respawns', 0):>4} "
            f"{float(row.get('busy_s', 0.0) or 0.0):>8.2f}  {current}")
    lines.append(
        f"\npool   : {pool.get('pending', 0)} pending, "
        f"{pool.get('steals', 0)} steals, "
        f"{pool.get('respawns', 0)} respawns")
    return "\n".join(lines)


def cmd_top(args) -> None:
    """Live (or one-shot) fleet view rendered from ``GET /stats``."""
    import time as _time

    from repro.serve.client import ServeClient, ServeUnavailable
    client = ServeClient(host=args.host, port=args.port)
    while True:
        try:
            stats = client.stats()
        except ServeUnavailable as error:
            print(f"top: {error}", file=sys.stderr)
            sys.exit(EXIT_UNAVAILABLE)
        screen = _render_top(stats, args.host, args.port)
        if args.once:
            print(screen)
            return
        # Clear + home, then redraw — flicker-free enough for a tty.
        print("\x1b[2J\x1b[H" + screen, flush=True)
        _time.sleep(max(args.interval, 0.2))


def cmd_timeline(args) -> None:
    """Merge a finished job's spans with re-simulated cell traces into
    one Perfetto/Chrome trace file."""
    import json

    from repro.obs.chrometrace import write_chrome_trace
    from repro.obs.telemetry.timeline import (
        merge_timeline,
        resimulate_cell_trace,
    )
    from repro.serve.client import ServeClient, ServeError, ServeUnavailable

    client = ServeClient(host=args.host, port=args.port)
    try:
        job = client.job(args.job_id)
        if job.get("state") != "done":
            print(f"timeline: {args.job_id} is {job.get('state')}; "
                  "wait for it to finish", file=sys.stderr)
            sys.exit(EXIT_VALIDATION)
        spans_reply = client.spans(args.job_id)
        result = client.result(args.job_id)
    except ServeUnavailable as error:
        print(f"timeline: {error}", file=sys.stderr)
        sys.exit(EXIT_UNAVAILABLE)
    except ServeError as error:
        print(f"timeline: {error}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    spans = spans_reply.get("spans")
    if not isinstance(spans, list) or not spans:
        print(f"timeline: no spans retained for {args.job_id} "
              "(server restarted?)", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    rows = result.get("cells")
    assert isinstance(rows, list)
    done_rows = [row for row in rows if row.get("status") == "done"]
    # Prefer cells that actually executed here — their worker.exec
    # window is real wall time; cache hits only have the probe.
    done_rows.sort(key=lambda row: 0 if row.get("source") == "computed"
                   else 1)
    picked = done_rows[:max(args.cells, 1)]
    cell_traces = []
    for row in picked:
        try:
            doc = resimulate_cell_trace(row, pipetrace=args.pipetrace)
        except ValueError as error:
            print(f"timeline: skipping cell {row.get('index')}: {error}",
                  file=sys.stderr)
            continue
        cell_traces.append((int(str(row.get("index"))), doc))
    summary = result.get("job")
    assert isinstance(summary, dict)
    try:
        doc = merge_timeline(summary, spans, cell_traces)
    except ValueError as error:
        print(f"timeline: {error}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    output = args.output or f"timeline-{args.job_id}.json"
    write_chrome_trace(output, doc)
    n_events = len(doc["traceEvents"])
    print(f"timeline: {args.job_id}: {len(spans)} spans + "
          f"{len(cell_traces)} re-simulated cells -> {output} "
          f"({n_events} events; open in https://ui.perfetto.dev)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_lsq=True):
        p.add_argument("benchmark",
                       help=f"benchmark name ({', '.join(ALL_BENCHMARKS)}) "
                            "or a .lsqtrace file")
        p.add_argument("-n", "--instructions", type=_instruction_count,
                       default=6000)
        if with_lsq:
            p.add_argument("--lsq", choices=sorted(PRESETS),
                           default="conventional")
            p.add_argument("--ports", type=int, default=2)
            p.add_argument("--scaled", action="store_true",
                           help="use the 12-wide scaled machine (Sec. 4.3)")

    run = sub.add_parser("run", help="simulate one benchmark")
    add_common(run)
    run.set_defaults(func=cmd_run)

    def add_engine_options(p):
        p.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes for cache misses "
                            "(default 1 = serial)")
        p.add_argument("--cache", dest="cache_dir", metavar="DIR",
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", help="fig6..fig12, table2..table6, or 'all'")
    figure.add_argument("-n", "--instructions", type=_instruction_count,
                        default=0,
                        help="instructions per trace (default: "
                             "$REPRO_BENCH_INSTRUCTIONS or 6000)")
    figure.add_argument("--chart", action="store_true",
                        help="render as an ASCII bar chart")
    add_engine_options(figure)
    figure.set_defaults(func=cmd_figure)

    bench = sub.add_parser(
        "bench", help="benchmarks x presets x seeds sweep through the "
                      "parallel, disk-cached engine")
    bench.add_argument("--benchmarks", default="all",
                       help="comma-separated names (default: all 18)")
    bench.add_argument("--presets", default="all",
                       help="comma-separated preset names (default: all 4)")
    bench.add_argument("--seeds", default="0",
                       help="comma-separated generator seeds (default: 0)")
    bench.add_argument("-n", "--instructions", type=_instruction_count,
                       default=0,
                       help="instructions per trace (default: "
                            "$REPRO_BENCH_INSTRUCTIONS or 6000)")
    bench.add_argument("--ports", type=int, default=0,
                       help="search ports for every preset (default: "
                            "the paper's pairing, 2p conventional/"
                            "segmented vs 1p techniques/full)")
    bench.add_argument("--validate", action="store_true",
                       help="run every cell under the memory-model "
                            "oracle and invariant checker")
    bench.add_argument("--smoke", action="store_true",
                       help="tiny fixed slice (gzip,mgrid x conventional,"
                            "full, 800 instructions) for CI cache checks")
    bench.add_argument("--progress", action="store_true",
                       help="print each cell as it finishes")
    bench.add_argument("--expect-cached", action="store_true",
                       help="exit nonzero if any cell had to be "
                            "simulated (CI warm-cache assertion)")
    bench.add_argument("--compare", metavar="OLD.json",
                       help="perf-regression gate: exit nonzero if any "
                            "cell's sim time grew >20%% or IPC moved "
                            ">0.1%% vs this earlier report")
    bench.add_argument("--baseline", action="store_true",
                       help="measure a fresh perf baseline (always "
                            "simulates live; min of --reps repetitions "
                            "per cell plus a tracemalloc pass) and write "
                            "it as BENCH_core.json")
    bench.add_argument("--reps", type=int, default=3,
                       help="timing repetitions per cell for --baseline "
                            "(default 3; fastest wins)")
    bench.add_argument("-o", "--output", default=None,
                       help="machine-readable report path (default: "
                            "BENCH_sweep.json, or BENCH_core.json "
                            "with --baseline)")
    add_engine_options(bench)
    bench.set_defaults(func=cmd_bench)

    sweep = sub.add_parser("sweep", help="compare LSQ presets")
    add_common(sweep, with_lsq=False)
    sweep.set_defaults(func=cmd_sweep)

    gentrace = sub.add_parser("gentrace", help="generate/inspect a trace")
    add_common(gentrace, with_lsq=False)
    gentrace.add_argument("-o", "--output", help="save as .lsqtrace")
    gentrace.set_defaults(func=cmd_gentrace)

    trace = sub.add_parser(
        "trace", help="observe one run: structured events, interval "
                      "metrics, CPI stack, Perfetto trace.json")
    trace.add_argument("benchmark", nargs="?", default="",
                       help=f"benchmark name ({', '.join(ALL_BENCHMARKS)}) "
                            "or a .lsqtrace file")
    trace.add_argument("-n", "--instructions", type=_instruction_count,
                       default=6000)
    trace.add_argument("--lsq", choices=sorted(PRESETS),
                       default="conventional")
    trace.add_argument("--ports", type=int, default=2)
    trace.add_argument("--scaled", action="store_true",
                       help="use the 12-wide scaled machine (Sec. 4.3)")
    trace.add_argument("--smoke", action="store_true",
                       help="fixed tiny run (gzip, 800 instructions) "
                            "for the CI trace-smoke gate")
    trace.add_argument("-o", "--output", default="trace.json",
                       help="Chrome-trace output path (default: "
                            "trace.json; load in ui.perfetto.dev)")
    trace.add_argument("--sample-interval", type=_int_at_least(1),
                       default=64,
                       help="cycles between metric samples (default 64)")
    trace.add_argument("--event-limit", type=_int_at_least(0),
                       default=65536,
                       help="stored-event cap; per-kind counts stay "
                            "exact beyond it (default 65536)")
    trace.add_argument("--pipetrace", type=_int_at_least(0), default=0,
                       metavar="N",
                       help="also record the first N dispatched "
                            "instructions as pipeline slices and print "
                            "the diagram")
    trace.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile", help="cProfile one sweep cell; hot-function table "
                        "into BENCH_sweep.json")
    add_common(profile)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--top", type=int, default=15,
                         help="hot functions to keep (default 15)")
    profile.add_argument("-o", "--output", default="BENCH_sweep.json",
                         help="report to merge the profile into "
                              "(default: BENCH_sweep.json)")
    profile.set_defaults(func=cmd_profile)

    pipe = sub.add_parser("pipetrace", help="per-instruction pipeline view")
    add_common(pipe)
    pipe.add_argument("--first", type=int, default=0)
    pipe.add_argument("--last", type=int, default=40)
    pipe.set_defaults(func=cmd_pipetrace)

    check = sub.add_parser(
        "check", help="run benchmarks under full validation")
    check.add_argument("benchmark",
                       help="comma-separated benchmark names "
                            f"({', '.join(ALL_BENCHMARKS)}) or 'all'")
    check.add_argument("-n", "--instructions", type=_instruction_count,
                       default=6000)
    check.add_argument("--lsq", default="all",
                       help="comma-separated LSQ presets "
                            f"({', '.join(sorted(PRESETS))}) or 'all' "
                            "(default)")
    check.add_argument("--ports", type=int, default=2)
    check.add_argument("--faults", action="store_true",
                       help="also run the fault-injection campaigns and "
                            "assert zero silent corruptions")
    check.add_argument("--seed", type=int, default=0,
                       help="fault-injection RNG seed")
    check.add_argument("--cache", dest="cache_dir", metavar="DIR",
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
    check.add_argument("--no-cache", action="store_true",
                       help="simulate every validated run afresh")
    check.set_defaults(func=cmd_check)

    from repro.litmus.shapes import SHAPES as _shapes
    litmus = sub.add_parser(
        "litmus", help="memory-consistency torture battery: litmus "
                       "shapes x fencing x interleaving seeds, outcomes "
                       "checked against the declared ordering model")
    litmus.add_argument("shape", nargs="?", default="all",
                        choices=sorted(_shapes) + ["all"],
                        help="litmus shape (default: all)")
    litmus.add_argument("--fence", choices=["off", "on", "both"],
                        default="both",
                        help="run unfenced, fenced, or both variants "
                             "(default: both)")
    litmus.add_argument("--contexts", type=int, default=0,
                        help="context count (default: the shape's own)")
    litmus.add_argument("--interleave", choices=["random", "round_robin"],
                        default="random")
    litmus.add_argument("--padding", type=int, default=0,
                        help="filler ALU ops before each litmus op")
    litmus.add_argument("--seed-range", default="0:8", dest="seed_range",
                        help="interleaving seeds as half-open A:B or a "
                             "single integer (default: 0:8)")
    litmus.add_argument("-n", "--instructions", type=_instruction_count,
                        default=320,
                        help="instructions per cell (default: 320)")
    litmus.add_argument("--lsq", choices=sorted(PRESETS) + ["membar"],
                        default="conventional",
                        help="LSQ preset; 'membar' is the Section 2.2 "
                             "software-ordering design (relaxed model)")
    litmus.add_argument("--ports", type=int, default=2)
    litmus.add_argument("--model",
                        choices=["auto", "sc", "tso", "relaxed"],
                        default="auto",
                        help="ordering model to hold outcomes to "
                             "(default: the machine's declared model)")
    litmus.add_argument("--faults", action="store_true",
                        help="also run the litmus fault campaigns "
                             "(drop-membar, corrupt-nilp) and assert "
                             "zero silent corruptions")
    litmus.add_argument("--fault-rate", type=float, default=0.25,
                        dest="fault_rate")
    litmus.add_argument("--seed", type=int, default=0,
                        help="fault-injection RNG seed")
    litmus.add_argument("--smoke", action="store_true",
                        help="fixed tiny slice (mp,sb x both fences x "
                             "2 seeds + fault campaigns) for CI")
    litmus.set_defaults(func=cmd_litmus)

    from repro.analyze.runner import build_parser as build_lint_parser
    lint = sub.add_parser(
        "lint", help="simulator-aware static analysis over repro sources")
    build_lint_parser(lint)
    lint.set_defaults(func=cmd_lint)

    serve = sub.add_parser(
        "serve", help="run the simulation job server (POST sweep specs "
                      "to /jobs; progress streams as NDJSON)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (default 8642; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes for cache misses "
                            "(default 2)")
    serve.add_argument("--max-jobs", type=int, default=8,
                       dest="max_jobs",
                       help="active jobs admitted before 429 "
                            "(default 8)")
    serve.add_argument("--retry-after", type=float, default=1.0,
                       dest="retry_after",
                       help="Retry-After hint for backpressured "
                            "clients, seconds (default 1)")
    serve.add_argument("--cache", dest="cache_dir", metavar="DIR",
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache "
                            "(coalescing still dedupes concurrent "
                            "cells)")
    serve.add_argument("--heartbeat", type=float, default=2.0,
                       help="stream heartbeat interval, seconds "
                            "(default 2; 0 disables)")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a sweep to a running server and stream "
                       "the job to completion")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8642)
    submit.add_argument("--benchmarks", default="gzip",
                        help="comma-separated names, litmus/... allowed "
                             "(default: gzip)")
    submit.add_argument("--presets", default="conventional,full",
                        help="comma-separated preset names "
                             "(default: conventional,full)")
    submit.add_argument("--seeds", default="0",
                        help="comma-separated seeds (default: 0)")
    submit.add_argument("-n", "--instructions", type=_instruction_count,
                        default=0,
                        help="instructions per cell (default: 800)")
    submit.add_argument("--ports", type=int, default=0,
                        help="search ports (default: the paper's "
                             "pairing)")
    submit.add_argument("--validate", action="store_true",
                        help="run every cell under the validation stack")
    submit.add_argument("--obs", action="store_true",
                        help="attach the interval sampler; progress "
                             "events carry IPC/occupancy tails")
    submit.add_argument("--smoke", action="store_true",
                        help="submit the fixed CI smoke slice")
    submit.add_argument("--wait-busy", action="store_true",
                        dest="wait_busy",
                        help="sleep out 429 backpressure instead of "
                             "exiting 6")
    submit.add_argument("--retries", type=int, default=60,
                        help="max submission attempts with --wait-busy "
                             "(default 60)")
    submit.add_argument("-o", "--output", default=None,
                        help="also write the full result JSON here")
    submit.add_argument("--heartbeat-misses", type=int, default=3,
                        dest="heartbeat_misses",
                        help="consecutive missed heartbeats before the "
                             "stream is declared stalled (default 3)")
    submit.set_defaults(func=cmd_submit)

    top = sub.add_parser(
        "top", help="live per-worker fleet view of a running server")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8642)
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (scripts/CI)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh interval, seconds (default 1)")
    top.set_defaults(func=cmd_top)

    timeline = sub.add_parser(
        "timeline", help="merge a finished job's span tree with "
                         "re-simulated cell pipeline traces into one "
                         "Perfetto/Chrome trace")
    timeline.add_argument("job_id", help="job id (e.g. job-000001)")
    timeline.add_argument("--host", default="127.0.0.1")
    timeline.add_argument("--port", type=int, default=8642)
    timeline.add_argument("--cells", type=int, default=2,
                          help="cells to re-simulate into the timeline "
                               "(default 2; computed cells first)")
    timeline.add_argument("--pipetrace", type=int, default=48,
                          help="instructions of pipeline diagram per "
                               "cell (default 48)")
    timeline.add_argument("-o", "--output", default=None,
                          help="output file (default "
                               "timeline-<job>.json)")
    timeline.set_defaults(func=cmd_timeline)
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Only this process's stdout is given up; SIGPIPE keeps Python's
        # default (ignored), so ``repro serve`` survives a client that
        # disconnects mid-response.  Point stdout at devnull so the
        # interpreter's exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(EXIT_BROKEN_PIPE)


if __name__ == "__main__":
    main()
