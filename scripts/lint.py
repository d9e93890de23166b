#!/usr/bin/env python
"""Run the full static-analysis gate: sim-lint plus the mypy strict gate.

Usage::

    PYTHONPATH=src python scripts/lint.py [--require-mypy] [--sarif FILE]
                                          [--changed-only [BASE]]
                                          [--perf-budget SECONDS]

Runs, in order:

1. ``repro lint`` (the simulator-aware analyzer of :mod:`repro.analyze`)
   over ``src/repro``;
2. ``mypy --strict`` over the strictly-typed subset (``repro.core``,
   ``repro.config``, ``repro.obs``, ``repro.litmus`` and the sweep
   engine), when mypy is importable.

mypy is an optional dependency (``pip install -e .[lint]``); without it
step 2 is skipped with a notice, unless ``--require-mypy`` is given
(CI passes it so the strict gate can never silently vanish).

``--changed-only`` lints only the ``src/repro`` files touched relative
to a git base (default ``HEAD``) — the fast pre-commit loop.
**Soundness caveat**: the slice runs in *partial* mode.  Whole-corpus
families are skipped outright (SIM-C counter accounting, SIM-K
cache-key completeness: their verdicts are claims about every module
at once), and the interprocedural flow rules (SIM-T) only see flows
whose source, path and sink all live inside the changed files — a
taint entering from an unchanged module is invisible.  Clean here
means "nothing newly wrong *within* the slice"; the full corpus run
(CI) stays the gate.

``--perf-budget`` fails the run when the corpus-wide sim-lint pass
exceeds the given wall-clock seconds: the analyzer is part of every
developer loop and CI run, so its own cost is budgeted like the
simulator's (see BENCH_core.json for that gate).

Exit status is nonzero when either gate fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules held to ``mypy --strict`` (the ISSUE's typing gate).
STRICT_TARGETS = [
    os.path.join("src", "repro", "core"),
    os.path.join("src", "repro", "config.py"),
    os.path.join("src", "repro", "harness", "engine.py"),
    os.path.join("src", "repro", "obs"),
    os.path.join("src", "repro", "litmus"),
]


def changed_py_files(base: str) -> Optional[List[str]]:
    """``src/repro`` Python files changed vs ``base`` (None on git
    failure, empty list when nothing relevant changed)."""
    command = ["git", "diff", "--name-only", "--diff-filter=d", base,
               "--", "src/repro"]
    try:
        output = subprocess.check_output(command, cwd=REPO_ROOT, text=True)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"lint: git diff failed ({error}); "
              f"falling back to a full run")
        return None
    return [os.path.join(REPO_ROOT, line.strip())
            for line in output.splitlines()
            if line.strip().endswith(".py")
            and os.path.exists(os.path.join(REPO_ROOT, line.strip()))]


def run_sim_lint(args: argparse.Namespace) -> int:
    from repro.analyze.runner import run_lint

    lint_args: List[str] = []
    if args.changed_only is not None:
        changed = changed_py_files(args.changed_only)
        if changed is not None:
            if not changed:
                print("== sim-lint (repro.analyze) ==")
                print("no changed src/repro files; nothing to lint")
                return 0
            print("== sim-lint (repro.analyze, changed-only: "
                  "PARTIAL — corpus-keyed families skipped, "
                  "cross-module flows invisible) ==")
            lint_args = changed + ["--partial"]
    if not lint_args:
        print("== sim-lint (repro.analyze) ==")
        lint_args = [os.path.join(REPO_ROOT, "src", "repro")]
    if args.sarif:
        lint_args += ["--sarif", args.sarif]

    started = time.perf_counter()
    status = run_lint(lint_args)
    elapsed = time.perf_counter() - started
    print(f"sim-lint wall time: {elapsed:.2f}s")
    if args.perf_budget is not None and elapsed > args.perf_budget:
        print(f"sim-lint perf budget EXCEEDED: {elapsed:.2f}s > "
              f"{args.perf_budget:.2f}s budget")
        return status or 1
    return status


def run_mypy(required: bool) -> int:
    print("\n== mypy --strict ==")
    try:
        import mypy  # noqa: F401
    except ImportError:
        if required:
            print("mypy is required (--require-mypy) but not installed; "
                  "install with: pip install -e .[lint]")
            return 1
        print("mypy not installed; skipping the strict typing gate "
              "(pip install -e .[lint] to enable)")
        return 0
    command = [sys.executable, "-m", "mypy", "--strict"] + STRICT_TARGETS
    print(" ".join(command))
    return subprocess.call(command, cwd=REPO_ROOT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require-mypy", action="store_true",
                        help="fail (instead of skip) when mypy is missing")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write sim-lint findings as SARIF 2.1.0")
    parser.add_argument("--changed-only", nargs="?", const="HEAD",
                        metavar="BASE",
                        help="lint only src/repro files changed vs BASE "
                             "(default HEAD); runs in partial mode — see "
                             "the module docstring for the soundness "
                             "caveat")
    parser.add_argument("--perf-budget", type=float, metavar="SECONDS",
                        help="fail when the sim-lint pass takes longer "
                             "than this many wall-clock seconds")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    lint_status = run_sim_lint(args)
    mypy_status = run_mypy(required=args.require_mypy)

    if lint_status or mypy_status:
        print("\nlint: FAILED")
        return 1
    print("\nlint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
