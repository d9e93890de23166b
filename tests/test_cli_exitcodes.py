"""The CLI exit-code contract, pinned in one place.

One number, one meaning, every verb:

====  =======================================================
code  meaning
====  =======================================================
0     success
1     validation / regression / failed-cell outcome
2     usage error (argparse's convention, everywhere)
3     forbidden litmus outcome (``repro litmus``)
4     watchdog: simulation hung (``check``/``litmus``)
5     serving: server unreachable (``repro submit``)
6     serving: backpressured past all retries (``repro submit``)
141   the reader closed stdout (128 + SIGPIPE)
====  =======================================================

Historically several verbs rejected bad arguments via
``sys.exit("message")``, which exits **1** with the message as the
code — indistinguishable from a genuine validation failure.  Every
usage rejection now goes through one helper that prints to stderr and
exits 2, and this module is the regression net.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.workload.trace import Trace
from tests.conftest import alu


def run_cli(argv):
    try:
        cli.main(argv)
    except SystemExit as error:
        return error.code or 0
    return 0


def test_exit_codes_are_distinct_and_stable():
    codes = {cli.EXIT_VALIDATION, cli.EXIT_USAGE, cli.EXIT_FORBIDDEN,
             cli.EXIT_WATCHDOG, cli.EXIT_UNAVAILABLE, cli.EXIT_BUSY}
    assert codes == {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("argv, fragment", [
    # run: bad benchmark / bad .lsqtrace path / bad litmus name
    (["run", "nosuchbench"], "unknown benchmark"),
    (["run", "/nonexistent/trace.lsqtrace"], "trace file not found"),
    (["run", "litmus/nosuchshape"], "litmus"),
    # figure
    (["figure", "fig99"], "unknown figure"),
    # check
    (["check", "nosuchbench"], "unknown benchmark"),
    # profile rejects .lsqtrace by design
    (["profile", "trace.lsqtrace"], "unknown benchmark"),
    # trace without a benchmark or --smoke
    (["trace"], "benchmark required"),
    # gentrace on a missing trace file
    (["gentrace", "/nonexistent/t.lsqtrace"], "trace file not found"),
    # litmus: malformed seed range (both shapes)
    (["litmus", "mp", "--seed-range", "5:2"], "bad --seed-range"),
    (["litmus", "mp", "--seed-range", "x"], "bad --seed-range"),
    # bench: unknown names, empty selections, missing baseline
    (["bench", "--benchmarks", "nosuchbench"], "unknown benchmark"),
    (["bench", "--presets", "nosuchpreset"], "unknown preset"),
    (["bench", "--benchmarks", "", "--expect-cached"], "zero cells"),
    (["bench", "--benchmarks", "gzip", "--seeds", ""], "zero cells"),
    (["bench", "--smoke", "--compare", "/nonexistent/base.json"],
     "baseline not found"),
    # serve: nonsensical knobs
    (["serve", "--workers", "0"], "--workers"),
    (["serve", "--max-jobs", "0"], "--max-jobs"),
    # submit: unparsable seed
    (["submit", "--seeds", "banana"], "bad seed"),
    # run: a truncated / bad-magic .lsqtrace
    (["run", "{truncated}"], "truncated record"),
    (["run", "{bad_magic}"], "not an .lsqtrace file"),
    # out-of-range machine geometry, on every verb that builds one
    (["run", "gzip", "--ports", "0"], "search_ports must be positive"),
    (["check", "gzip", "--ports", "0"], "search_ports must be positive"),
    (["litmus", "--smoke", "--ports", "0"],
     "search_ports must be positive"),
    (["pipetrace", "gzip", "--ports", "0"],
     "search_ports must be positive"),
    (["profile", "gzip", "--ports", "0"], "search_ports must be positive"),
    (["bench", "--smoke", "--ports", "-1"],
     "search_ports must be positive"),
    # an explicit instruction count below 1
    (["run", "gzip", "-n", "0"], "must be at least 1"),
    (["run", "gzip", "-n", "-5"], "must be at least 1"),
    (["trace", "gzip", "-n", "0"], "must be at least 1"),
    (["gentrace", "gzip", "-n", "-3"], "must be at least 1"),
    (["figure", "fig8", "-n", "-1", "--no-cache"], "must be at least 1"),
    (["trace", "--smoke", "--sample-interval", "0"], "must be at least 1"),
    (["trace", "--smoke", "--event-limit", "-1"], "must be at least 0"),
    (["trace", "--smoke", "--pipetrace", "-1"], "must be at least 0"),
])
def test_usage_errors_exit_2_with_stderr(argv, fragment, capsys, tmp_path):
    files = {"truncated": tmp_path / "cut.lsqtrace",
             "bad_magic": tmp_path / "bogus.lsqtrace"}
    Trace([alu(pc=0), alu(pc=4)]).save(files["truncated"])
    files["truncated"].write_bytes(files["truncated"].read_bytes()[:-1])
    files["bad_magic"].write_bytes(b"NOPE" + b"\x00" * 64)
    argv = [arg.format(**files) for arg in argv]
    assert run_cli(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert fragment in captured.err
    # the message must be on stderr, never smuggled into the code
    assert captured.out == ""


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_bench_instructions_variable_exits_2(value, monkeypatch,
                                                 capsys):
    """``figure`` and ``bench`` read their default length from
    ``REPRO_BENCH_INSTRUCTIONS``; a bad value is a usage error that
    names the variable, not a traceback or an empty run."""
    monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", value)
    assert run_cli(["figure", "table2", "--no-cache"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "REPRO_BENCH_INSTRUCTIONS" in captured.err
    assert captured.out == ""


def test_argparse_own_rejections_also_exit_2(capsys):
    assert run_cli(["run", "bzip", "--lsq", "bogus"]) == cli.EXIT_USAGE
    assert run_cli(["nosuchverb"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_submit_unreachable_server_exits_5(capsys):
    # port 1 is never listening; connection refused, not a usage error
    assert run_cli(["submit", "--port", "1", "--smoke"]) \
        == cli.EXIT_UNAVAILABLE
    assert "cannot reach" in capsys.readouterr().err


def test_compare_unreadable_baseline_after_run_exits_2(tmp_path, capsys):
    """The inline ``--compare`` gate's read failure is a usage error
    (2), distinct from a real regression (1).  The file exists (so the
    fail-fast precheck admits it) but is not valid JSON."""
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code = run_cli(["bench", "--smoke", "-n", "200", "--no-cache",
                    "-o", str(tmp_path / "out.json"),
                    "--compare", str(garbage)])
    assert code == cli.EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_compare_regression_exits_1(tmp_path, capsys):
    """A genuine perf regression through --compare stays exit 1."""
    out = tmp_path / "fresh.json"
    assert run_cli(["bench", "--smoke", "-n", "200", "--no-cache",
                    "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    for row in report["cells"]:
        row["sim_s"] = row["sim_s"] / 100.0   # fake a far-faster past
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(report))
    code = run_cli(["bench", "--smoke", "-n", "200", "--no-cache",
                    "-o", str(tmp_path / "second.json"),
                    "--compare", str(doctored)])
    assert code == cli.EXIT_VALIDATION
    capsys.readouterr()


def test_closed_stdout_exits_quietly_with_sigpipe_status():
    """``repro ... | head -1``: the reader leaves after one line.  The
    trace is far larger than a pipe holds, so the CLI is still writing
    when the pipe closes; it must stop without a traceback and with
    128 + SIGPIPE, not 1 (a validation failure)."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "pipetrace", "gzip",
         "-n", "3000", "--first", "0", "--last", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root)
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
