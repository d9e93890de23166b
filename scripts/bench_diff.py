#!/usr/bin/env python3
"""Perf-regression gate over two ``BENCH_sweep.json`` reports.

Usage::

    python scripts/bench_diff.py OLD.json NEW.json [--wall-tol 0.20]
                                                   [--ipc-tol 0.001]

Cells are matched on (benchmark, label, seed, n_instructions); a match
regresses when its pure simulation time grew by more than ``--wall-tol``
(relative, default 20%) or its IPC moved by more than ``--ipc-tol``
(relative, default 0.1%) in either direction.  Exits non-zero on any
regression — wire it between a baseline ``repro bench`` report and a
fresh one (``repro bench --compare OLD.json`` is the same gate inline).

``--normalize`` rescales the old report's sim times by the ratio of the
two reports' ``calibration_s`` machine-speed probes (recorded by
``repro bench --baseline``), so a baseline committed from one machine
can gate a run on a slower one.  The scale is clamped at 1.0 — the
probe carries its own noise, and the gate must only ever *loosen* from
it, never manufacture a failure.  IPC comparison is unaffected (it is
deterministic).  Ignored with a warning when either report lacks a
calibration.

``--aggregate-wall`` applies the wall budget to the summed sim time of
the matched cells instead of each cell individually: short cells
flicker past any reasonable per-cell budget under ambient load, while
the total averages the noise out.  IPC stays per-cell (it is exact).
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.harness.engine import diff_reports  # noqa: E402


def _calibration(report, which):
    """``calibration_s`` as a positive float, else ``None`` with a
    warning.  Old baselines predate the field, hand-edited ones carry
    strings or zeros — none of those may crash the gate."""
    value = report.get("calibration_s")
    try:
        number = float(value) if value is not None else 0.0
    except (TypeError, ValueError):
        print(f"bench-diff: --normalize ignored ({which} report has "
              f"malformed calibration_s {value!r})", file=sys.stderr)
        return None
    if number <= 0.0:
        print(f"bench-diff: --normalize ignored ({which} report lacks "
              "calibration_s; only 'repro bench --baseline' records "
              "it)", file=sys.stderr)
        return None
    return number


def _service_diff(reports, args) -> int:
    """Gate two ``kind: service`` reports (``BENCH_service.json``)."""
    from repro.serve.bench import diff_service_reports
    old, new = reports
    if old.get("kind") != "service" or new.get("kind") != "service":
        print("bench-diff: cannot compare a service report against a "
              "sweep report", file=sys.stderr)
        return 2
    failures = diff_service_reports(old, new, normalize=args.normalize)
    if failures:
        print(f"bench-diff: {len(failures)} serving regression(s) "
              f"({args.old} -> {args.new}):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"bench-diff: no serving regressions "
          f"({args.old} -> {args.new})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline BENCH_sweep.json")
    parser.add_argument("new", help="candidate BENCH_sweep.json")
    parser.add_argument("--wall-tol", type=float, default=0.20,
                        help="relative sim-time budget (default 0.20)")
    parser.add_argument("--ipc-tol", type=float, default=0.001,
                        help="relative IPC drift budget (default 0.001)")
    parser.add_argument("--normalize", action="store_true",
                        help="rescale the old report's sim times by the "
                             "calibration_s ratio, clamped at 1.0 so it "
                             "only ever loosens the gate (cross-machine)")
    parser.add_argument("--aggregate-wall", action="store_true",
                        help="apply the wall budget to the summed sim "
                             "time of the matched cells instead of each "
                             "cell (noise-robust; IPC stays per-cell)")
    args = parser.parse_args(argv)

    reports = []
    for path in (args.old, args.new):
        try:
            with open(path) as handle:
                reports.append(json.load(handle))
        except (OSError, ValueError) as error:
            print(f"bench-diff: cannot read {path}: {error}",
                  file=sys.stderr)
            return 2
    for path, report in zip((args.old, args.new), reports):
        if not isinstance(report, dict):
            print(f"bench-diff: {path} is not a report object "
                  f"(got {type(report).__name__})", file=sys.stderr)
            return 2

    if reports[1].get("kind") == "service" \
            or reports[0].get("kind") == "service":
        return _service_diff(reports, args)

    if args.normalize:
        old_cal = _calibration(reports[0], "old")
        new_cal = _calibration(reports[1], "new")
        if old_cal is not None and new_cal is not None:
            # Clamped at 1.0: a slower measuring machine loosens the
            # wall budget, but a faster (or transiently lighter-loaded)
            # one never tightens it — the probe has its own noise, and
            # a regression gate must not manufacture failures from it.
            scale = max(1.0, new_cal / old_cal)
            for cell in reports[0].get("cells", []):
                cell["sim_s"] = cell.get("sim_s", 0.0) * scale
            print(f"bench-diff: normalized old sim times x{scale:.3f} "
                  f"(calibration {old_cal:.3f}s -> {new_cal:.3f}s)")

    problems = diff_reports(reports[0], reports[1],
                            wall_tol=args.wall_tol, ipc_tol=args.ipc_tol,
                            aggregate_wall=args.aggregate_wall)
    if problems:
        print(f"bench-diff: {len(problems)} regression(s) "
              f"({args.old} -> {args.new}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"bench-diff: no regressions ({args.old} -> {args.new})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
