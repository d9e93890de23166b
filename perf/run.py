#!/usr/bin/env python3
"""Host-performance benchmark: every workload, every metric, one command.

    python3 perf/run.py                               # all workloads, seed 0
    python3 perf/run.py --workloads lsq-bound --seed 3 --seconds 15 --trace 0
    python3 perf/run.py --workloads lsq-bound,stall-bound -o runs.jsonl
    python3 perf/run.py --trace                       # per-layer metrics

Each workload runs in a fresh interpreter (``perf/workloads.py``) with
a wall-clock timeout, a private ``REPRO_CACHE_DIR`` and a private
``TMPDIR`` under ``perf/out/``, all removed afterwards.  The run prints
every metric of ``BENCHMARK.json`` (``end_to_end`` untraced,
``per_layer`` with ``--trace``) as ``workload metric value unit``, then
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``-o FILE`` appends one JSON record per workload run, the input of
``perf/compare.py``.

Exit status: 0 when every operation succeeded, 1 when any failed
(including a timed-out workload), 2 when the benchmark cannot run
here (no ``src/repro``, no ``BENCHMARK.json``, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"


def timeout_for(seconds: float) -> float:
    """Wall-clock limit of one workload process: set-up, the measured
    rounds (the last may overrun the budget by one round) and
    teardown."""
    return 3.0 * seconds + 60.0


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: Optional[int]) -> Dict[str, object]:
    """Run one workload in a fresh interpreter and return its record."""
    (PERF_DIR / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{name}-",
                                    dir=PERF_DIR / "out"))
    try:
        (scratch / "tmp").mkdir()
        out = scratch / "result.json"
        command = [sys.executable, str(PERF_DIR / "workloads.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(int(trace)),
                   "--scratch", str(scratch), "--out", str(out)]
        if n is not None:
            command += ["--n", str(n)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        env["REPRO_CACHE_DIR"] = str(scratch / "cache")
        env["TMPDIR"] = str(scratch / "tmp")
        limit = timeout_for(seconds)
        process = subprocess.Popen(command, cwd=ROOT, env=env,
                                   stdout=sys.stderr,
                                   start_new_session=True)
        try:
            process.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            _kill_group(process)
            process.wait()
            return _failure(name, seed, f"timed out after {limit:.0f}s")
        finally:
            # Workers the workload failed to stop die with its group.
            _kill_group(process)
        if process.returncode != 0 or not out.is_file():
            return _failure(name, seed,
                            f"exited {process.returncode} without a result")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _failure(name: str, seed: int, error: str) -> Dict[str, object]:
    return {"workload": name, "seed": seed, "correct": False,
            "attempted": 1, "failed": 1, "metrics": {}, "notes": [],
            "errors": [error]}


def _format(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the host-performance benchmark.")
    # One option, two spellings; ``--workload NAME`` reads better for a
    # run of one workload, the form the ``BENCHMARK.json`` command takes.
    parser.add_argument("--workloads", "--workload", default="",
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): traced run, per-layer "
                             "metrics")
    parser.add_argument("--n", type=int, default=None,
                        help="override every cell's instruction count "
                             "(smoke runs; digests are checked only at the "
                             "default)")
    parser.add_argument("-o", "--output", default=None,
                        help="append one JSON record per workload run")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'repro'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if not SPEC_PATH.is_file():
        print(f"error: {SPEC_PATH} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    selected = [name for name in args.workloads.split(",") if name] or known
    unknown = [name for name in selected if name not in known]
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}; choose "
              f"from {', '.join(known)}", file=sys.stderr)
        return 2
    if args.n is not None and args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return 2
    seconds = float(args.seconds if args.seconds is not None
                    else spec["run_seconds"])
    definitions = spec["per_layer" if args.trace else "end_to_end"]

    records: List[Dict[str, object]] = []
    for name in selected:
        started = time.time()
        record = run_workload(name, args.seed, seconds, bool(args.trace),
                              args.n)
        metrics = record["metrics"]
        assert isinstance(metrics, dict)
        if metrics:
            missing = [d["name"] for d in definitions
                       if d["name"] not in metrics]
            if missing:
                print(f"error: {name} did not report "
                      f"{', '.join(missing)}", file=sys.stderr)
                return 2
        for definition in definitions if metrics else []:
            print(f"{name} {definition['name']} "
                  f"{_format(metrics[definition['name']])} "
                  f"{definition['unit']}")
        for line in list(record.get("notes", [])) + \
                [f"FAILED: {error}" for error in record.get("errors", [])]:
            print(f"{name}: {line}", file=sys.stderr)
        record.update(seconds=seconds, trace=int(args.trace), n=args.n,
                      started=started)
        records.append(record)
        if args.output:
            with open(args.output, "a") as handle:
                handle.write(json.dumps(record) + "\n")

    single = len(records) == 1
    summary = {
        "correct": all(bool(r["correct"]) for r in records),
        "attempted": sum(int(r["attempted"]) for r in records),
        "failed": sum(int(r["failed"]) for r in records),
        "metrics": {
            (d["name"] if single else f"{r['workload']}/{d['name']}"):
                {"value": r["metrics"][d["name"]], "unit": d["unit"]}
            for r in records if r["metrics"] for d in definitions},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
