"""Golden-digest parity suite: simulator semantics pinned bit-exactly.

Every entry below is the SHA-256 of the canonicalized
:class:`~repro.stats.counters.SimStats` of one (benchmark, seed, preset)
run, recorded before the hot-path overhaul of the cycle loop.  Any
future performance work that drifts a single counter — an extra search,
a different forwarding match, one more port stall — changes the digest
and fails this suite loudly.

Coverage deliberately spans the four machine presets of the paper's
evaluation (two-ported conventional, one-ported techniques, segmented,
and the load-buffer "full" configuration) on two generator seeds, and
includes runs *through* squash-recovery windows: both ``mgrid`` on the
segmented preset and ``wupwise`` on the pair-predictor preset trigger
load-load ordering violation squashes, so recovery, replay, and
re-execution paths are all under the digest.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import (
    base_machine,
    conventional_lsq,
    full_techniques_lsq,
    segmented_lsq,
    techniques_lsq,
)
from repro.pipeline.processor import simulate
from repro.stats.counters import SimStats, canonical_stats, stats_digest
from repro.workload import generate_trace

N_INSTRUCTIONS = 3000

PRESETS = {
    "conventional-2p": lambda: conventional_lsq(ports=2),
    "techniques-1p": lambda: techniques_lsq(ports=1),
    "segmented-2p": lambda: segmented_lsq(ports=2),
    "full-1p": lambda: full_techniques_lsq(ports=1),
}

#: (benchmark, seed, preset) -> SHA-256 of canonical_stats(run stats).
GOLDEN_DIGESTS = {
    ("gcc", 0, "conventional-2p"):
        "eb9ea6317d191e01847e344e794b587d891c0f1381da915758b6fc17d956f035",
    ("gcc", 0, "techniques-1p"):
        "4706c31b8defa04c9c08c4a3a154626b9dccbf417868b6ed90c26ce3d4dba82f",
    ("gcc", 0, "segmented-2p"):
        "eb9ea6317d191e01847e344e794b587d891c0f1381da915758b6fc17d956f035",
    ("gcc", 0, "full-1p"):
        "4706c31b8defa04c9c08c4a3a154626b9dccbf417868b6ed90c26ce3d4dba82f",
    ("gcc", 1, "conventional-2p"):
        "fd6f2149c02404a260772570abe839badbacfbb5caded546b0b9987e4e194fe5",
    ("gcc", 1, "techniques-1p"):
        "9fc721a98ab24c5ab0f2a2f6c8ab1ca03de991bbdbc5192b7cc7a617ee3157f7",
    ("gcc", 1, "segmented-2p"):
        "fd6f2149c02404a260772570abe839badbacfbb5caded546b0b9987e4e194fe5",
    ("gcc", 1, "full-1p"):
        "9fc721a98ab24c5ab0f2a2f6c8ab1ca03de991bbdbc5192b7cc7a617ee3157f7",
    ("mgrid", 0, "conventional-2p"):
        "707fc2e63748ba3295df3e175fac2926e863c5089edb81324fd00eb35797641a",
    ("mgrid", 0, "techniques-1p"):
        "c497297d7f85fd8ebe6ce211d01f822d52814e34c7202fa5c9f7add232e7d841",
    ("mgrid", 0, "segmented-2p"):
        "eb69fe5ca2f1d190c3fee805c160faff26be23e6083c04f7acdd2421b0de91ab",
    ("mgrid", 0, "full-1p"):
        "d26eb1ac1f5cdfcd923090f6c9481d3cae11a04485e9b1e0ef420c336e505d42",
    ("mgrid", 1, "conventional-2p"):
        "5d4c5db21ca89bb85810ae238244dec0ff69206a0e23f4bd9258880def601896",
    ("mgrid", 1, "techniques-1p"):
        "5e8c64859697ab1fc21621d07f04b95ac9d1965af965f6e94cc155684761d466",
    ("mgrid", 1, "segmented-2p"):
        "ee0de734054d3e43fecedc1c642e1486cd24ce78bc08de3cac981afa8f5997fb",
    ("mgrid", 1, "full-1p"):
        "d416d75c44ebd2f3d32e0b3156aa6a77f9b9ec75a09a638461f731c75283f1c0",
    ("wupwise", 0, "conventional-2p"):
        "b9eeb7c886b73ed7f772cfc2bf3cd52fb29d8e7d1a2ad3c76a8405ffbc1e823c",
    ("wupwise", 0, "techniques-1p"):
        "e53f7a0ac35d24116313ef79fb55f77e299f35fedcb01ef69deb76ae89336939",
    ("wupwise", 0, "segmented-2p"):
        "db769d172ee9224976a44a54ee7dd24df16cad61968fc819cef8e83387ff2511",
    ("wupwise", 0, "full-1p"):
        "9f5de5a10701210da19f3cf61673e59c2007a8d78798e3ee0fe0f6a11272b455",
    ("wupwise", 1, "conventional-2p"):
        "ad9976416ac6995b8eb336cee2f3ec7c0f39c97e7cbd9daa3cb678acf2129a24",
    ("wupwise", 1, "techniques-1p"):
        "539eda6c69a376bb4512f90c4c6ead91819ebe01d8e5c303818019888df5e54d",
    ("wupwise", 1, "segmented-2p"):
        "ed83c0d6554cb96bb5717afbf0c25186a9af1bc65e272b505b865fab8e238d84",
    ("wupwise", 1, "full-1p"):
        "ef9fee51b53f33e86a655eb29f51bb0c0c8180e64a705c2c841dfe6295089947",
}

_TRACE_CACHE = {}


def _trace(bench, seed):
    key = (bench, seed)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = generate_trace(
            bench, n_instructions=N_INSTRUCTIONS, seed=seed)
    return _TRACE_CACHE[key]


@pytest.mark.parametrize("bench,seed,preset",
                         sorted(GOLDEN_DIGESTS),
                         ids=lambda v: str(v))
def test_stats_digest_matches_golden(bench, seed, preset):
    machine = replace(base_machine(), lsq=PRESETS[preset]())
    result = simulate(_trace(bench, seed), machine)
    assert stats_digest(result.stats) == \
        GOLDEN_DIGESTS[(bench, seed, preset)], (
        f"SimStats drifted for {bench} seed {seed} on {preset}: "
        "simulator semantics changed (or the canonical encoding did); "
        "if intentional, regenerate GOLDEN_DIGESTS and say so in the PR")


def test_suite_runs_through_squash_recovery():
    """The pinned runs must actually exercise squash recovery, or the
    parity suite would silently stop covering the recovery path."""
    segmented = simulate(
        _trace("mgrid", 0),
        replace(base_machine(), lsq=segmented_lsq(ports=2))).stats
    assert segmented.load_load_squashes > 0
    assert segmented.violation_squashes > 0
    predictor = simulate(
        _trace("wupwise", 1),
        replace(base_machine(), lsq=techniques_lsq(ports=1))).stats
    assert predictor.load_load_squashes > 0
    assert predictor.violation_squashes > 0


@pytest.mark.slow
def test_served_cell_matches_golden_digest(tmp_path):
    """Telemetry parity: a cell served through the fully instrumented
    server (spans, metrics, logs, heartbeats all live) must produce the
    exact golden SimStats digest — observation cannot perturb the
    simulated machine."""
    from repro.harness.engine import ResultCache
    from repro.serve.bench import ServerHarness
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig
    from repro.serve.spec import expand_cells, parse_spec

    spec = parse_spec({"benchmarks": ["gcc"],
                       "presets": ["conventional"], "seeds": [0],
                       "n_instructions": N_INSTRUCTIONS})
    (cell,) = expand_cells(spec)
    assert cell.label == "conventional-2p"
    cache_dir = tmp_path / "cache"
    config = ServeConfig(port=0, workers=1, cache_dir=str(cache_dir),
                         heartbeat_s=0.25)
    with ServerHarness(config) as harness:
        client = ServeClient(port=harness.port)
        job = client.submit(spec.as_payload(), trace="parity")
        final = client.wait(str(job["id"]), stall_after_s=60.0)
    (row,) = final["cells"]
    assert row["status"] == "done" and row["digest"] == cell.digest()
    payload = ResultCache(cache_dir).load(cell.digest())
    assert payload is not None, "served cell never reached the cache"
    assert stats_digest(payload.result.stats) == \
        GOLDEN_DIGESTS[("gcc", 0, "conventional-2p")], (
        "serving a cell through the telemetry-instrumented stack "
        "changed its SimStats — observation must be side-effect-free")


def test_canonical_stats_is_stable_and_complete():
    stats = SimStats()
    stats.cycles = 7
    stats.segment_search_hist = {2: 1, 1: 3}
    first = canonical_stats(stats)
    stats.segment_search_hist = {1: 3, 2: 1}  # same content, other order
    assert canonical_stats(stats) == first
    # Every dataclass field participates in the digest.
    import dataclasses
    import json
    payload = json.loads(first)
    assert set(payload) == {f.name for f in dataclasses.fields(SimStats)}
    stats.sq_searches += 1
    assert canonical_stats(stats) != first
