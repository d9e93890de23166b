#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 perf/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``perf/run.py -o FILE`` appends, one per
untraced workload run.  For every (end-to-end metric, workload) row,
with the direction and bound from ``BENCHMARK.json``:

* The i-th parent run of a workload is paired with its i-th change run.
  At least 10 pairs are required, and the side that started first must
  alternate from one pair to the next.
* ``unresolved``: the parent's own spread (interquartile range over
  median) is wider than the bound, unless every change run beats every
  parent run (``better``) or, by more than the bound, loses to every
  one (``REGRESSION``).
* ``REGRESSION``: the change's median is worse than the parent's by
  more than the bound.
* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range.
* ``worse``: the mirror of ``gain`` -- a clear loss that is still
  within the bound.  Reported, but not a regression.
* ``same``: none of the above.

A workload whose failed/attempted share rose is a regression too.  A
run that timed out or crashed carries no metrics; its pair is left out
of the metric rows, which read ``unresolved`` when fewer than 10 pairs
remain.
Exit status: 1 on any regression, 2 on unusable input, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


class InputError(ValueError):
    """The runs cannot be compared."""


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced run records by workload, in file order."""
    runs: Dict[str, List[dict]] = {}
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise InputError(f"{path}:{number}: {error}") from None
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            higher_is_better: bool, bound: float) -> Tuple[str, int]:
    """(verdict, change wins) for one row of paired values."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse = sign * (p_med - c_med)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better", wins
        if worse > bound * abs(p_med) and \
                all(sign * (c - p) < 0 for c in change for p in parent):
            return "REGRESSION", wins
        return "unresolved", wins
    if worse > bound * abs(p_med):
        return "REGRESSION", wins
    if wins >= 0.9 * len(parent) and -worse > p_q3 - p_q1:
        return "gain", wins
    if losses >= 0.9 * len(parent) and worse > p_q3 - p_q1:
        return "worse", wins
    return "same", wins


def _check_pairs(name: str, parent: List[dict], change: List[dict]) -> int:
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        raise InputError(f"{name}: {pairs} pair(s); at least {MIN_PAIRS} "
                         "alternating parent/change pairs are required")
    order = [parent[i].get("started", 0.0) < change[i].get("started", 0.0)
             for i in range(pairs)]
    if any(order[i] == order[i + 1] for i in range(pairs - 1)):
        raise InputError(f"{name}: runs do not alternate which side "
                         "started first")
    return pairs


def _fail_share(runs: List[dict]) -> float:
    attempted = sum(int(run["attempted"]) for run in runs)
    return sum(int(run["failed"]) for run in runs) / max(attempted, 1)


def compare(parent_runs: Dict[str, List[dict]],
            change_runs: Dict[str, List[dict]],
            spec: dict) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    lines = [f"{'workload':12s} {'metric':12s} {'parent median [q1,q3]':>32s}"
             f" {'change median [q1,q3]':>32s} {'wins':>5s}  verdict"]
    regressed = False
    for name in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(name, [])
        change = change_runs.get(name, [])
        pairs = _check_pairs(name, parent, change)
        parent, change = parent[:pairs], change[:pairs]
        before, after = _fail_share(parent), _fail_share(change)
        if after > before:
            regressed = True
            lines.append(f"{name:12s} {'fail_frac':12s} {before:>32.4f} "
                         f"{after:>32.4f} {'':>5s}  REGRESSION")
        # A timed-out or crashed run has no metrics; its failure is
        # judged above, and its pair drops out of the metric rows.
        measured = [(p, c) for p, c in zip(parent, change)
                    if p["metrics"] and c["metrics"]]
        if len(measured) < MIN_PAIRS:
            lines.append(f"{name:12s} {'(metrics)':12s} "
                         f"{f'{len(measured)}/{pairs} pairs measured':>71s}"
                         "  unresolved")
            continue
        for definition in spec["end_to_end"]:
            metric = definition["name"]
            try:
                p_values = [float(p["metrics"][metric]) for p, __ in measured]
                c_values = [float(c["metrics"][metric]) for __, c in measured]
            except KeyError:
                raise InputError(f"{name}: a run lacks {metric}") from None
            result, wins = verdict(p_values, c_values,
                                   definition["better"] == "higher",
                                   float(definition["bound"]))
            regressed = regressed or result == "REGRESSION"
            p_q1, p_med, p_q3 = quartiles(p_values)
            c_q1, c_med, c_q3 = quartiles(c_values)
            lines.append(
                f"{name:12s} {metric:12s} "
                f"{f'{p_med:.4g} [{p_q1:.4g},{p_q3:.4g}]':>32s} "
                f"{f'{c_med:.4g} [{c_q1:.4g},{c_q3:.4g}]':>32s} "
                f"{wins:>2d}/{len(measured):<2d}  {result}")
    return lines, regressed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark runs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    try:
        lines, regressed = compare(load_runs(args.parent),
                                   load_runs(args.change), spec)
    except (InputError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
