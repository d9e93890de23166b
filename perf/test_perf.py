"""Tests of the host-performance benchmark (``pytest perf/``).

They run every workload at a tiny run length, so they check plumbing,
metric names and output checks, not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import compare  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

ROOT = PERF_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(cwd / "perf" / "run.py"), "--n", "300",
         "--seconds", "0.2", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_every_metric_is_printed_with_its_unit():
    untraced, traced = _run("--trace", "0"), _run("--trace", "1")
    for process, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        lines = stdout.strip().splitlines()
        printed = {tuple(line.split()[:2]): line.split()[3]
                   for line in lines[:-1]}
        for workload in SPEC["workloads"]:
            for definition in SPEC[section]:
                key = (workload["name"], definition["name"])
                assert printed.get(key) == definition["unit"], key
        summary = json.loads(lines[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= len(SPEC["workloads"])


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = _run("--workloads", "lsq-bound", cwd=tmp_path)
    stdout, __ = process.communicate(timeout=60)
    assert process.returncode == 2 and stdout == ""
    assert not (tmp_path / "perf" / "out").exists()


def _cell(name: str, n: int = 1500):
    workload = workloads.WORKLOADS[name]
    return workload.cells(0, n)


@pytest.mark.parametrize("name", ["lsq-bound", "validated"])
def test_traced_digests_equal_untraced(name):
    tracer = layertrace.LayerTracer(*layertrace.calibrate(calls=20_000))
    for index, cell in enumerate(_cell(name)):
        plain = workloads.run_cell(cell)
        traced = workloads.run_cell(cell, tracer, cell_id=index)
        assert plain.error is None and traced.error is None
        assert traced.digest == plain.digest
    assert tracer.calls("core.lsq") > 0 and tracer.calls("memory") > 0
    if name == "validated":
        assert tracer.calls("validate") > 0


def test_other_share_is_small():
    check = workloads.OutputCheck("lsq-bound", 0, default_n=False)
    metrics, __ = workloads.trace_cells_run(
        _cell("lsq-bound", 3000)[:1], 0.0, check, "test", 0)
    assert check.failed == 0
    assert 0.0 <= metrics["trace.other_share"] <= 0.02
    assert metrics["pipeline.steps"] == metrics["model.cycles"]


def _records(path: Path, kips, first: bool, timeout_at: int = -1) -> None:
    with open(path, "w") as handle:
        for index, value in enumerate(kips):
            metrics = {d["name"]: 1.0 for d in SPEC["end_to_end"]}
            metrics["sim_kips"] = value
            record = {"workload": "lsq-bound", "trace": 0, "attempted": 3,
                      "failed": 0, "metrics": metrics}
            if index == timeout_at:
                # What run.py writes for a workload that timed out.
                record.update(attempted=1, failed=1, metrics={})
            record["started"] = 2.0 * index + (
                0.0 if (index % 2 == 0) == first else 1.0)
            handle.write(json.dumps(record) + "\n")


def _verdicts(output: str) -> dict:
    rows = [line.split() for line in output.splitlines()[1:]]
    return {row[1]: row[-1] for row in rows}


def test_compare_flags_a_drop_and_passes_identical(tmp_path, capsys):
    base = [100.0 + (i % 3) * 0.5 for i in range(10)]
    parent, change = tmp_path / "parent", tmp_path / "change"
    _records(parent, base, first=True)

    _records(change, base, first=False)
    assert compare.main([str(parent), str(change)]) == 0
    assert set(_verdicts(capsys.readouterr().out).values()) == {"same"}

    # A clear 20% drop is flagged; within the 25% bound it does not fail.
    _records(change, [value * 0.8 for value in base], first=False)
    assert compare.main([str(parent), str(change)]) == 0
    assert _verdicts(capsys.readouterr().out)["sim_kips"] == "worse"

    _records(change, [value * 0.7 for value in base], first=False)
    assert compare.main([str(parent), str(change)]) == 1
    assert _verdicts(capsys.readouterr().out)["sim_kips"] == "REGRESSION"

    # A hang is a regression, not unusable input.
    _records(change, base, first=False, timeout_at=4)
    assert compare.main([str(parent), str(change)]) == 1
    verdicts = _verdicts(capsys.readouterr().out)
    assert verdicts["fail_frac"] == "REGRESSION"
    assert verdicts["(metrics)"] == "unresolved"

    _records(change, base[:9], first=False)
    assert compare.main([str(parent), str(change)]) == 2
