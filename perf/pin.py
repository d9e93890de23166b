#!/usr/bin/env python3
"""Pin the output of every benchmark cell for the pinned seeds.

    python3 perf/pin.py        # rewrites perf/expected.json

``perf/run.py`` checks each simulated cell's ``SimStats`` digest, and
each served cell's cycle count, against this file for seeds 0 and 1 at
the default run lengths.  The pins are computed here through
``SweepEngine.run_cells`` (the ``simulate`` path, with the validation
checker on ``validated`` cells), independently of how the benchmark
drives each layer.

Re-pin only in a change meant to alter the simulated machine.  A
change that only makes the simulator faster must leave every pin as it
is: a digest mismatch counts as a failed operation.
"""

from __future__ import annotations

import json
from typing import Dict, List

from workloads import (EXPECTED_PATH, PINNED_SEEDS, WORKLOADS,
                       ServeWorkload, cell_key)
from repro.harness.engine import Cell, SweepEngine, code_version
from repro.stats.counters import stats_digest

#: serve-mix rounds whose cells are pinned; a run that gets through
#: more rounds checks the later ones for agreement only.
SERVE_ROUNDS = 10


def cells_for(workload: object, seed: int) -> List[Cell]:
    if isinstance(workload, ServeWorkload):
        distinct: Dict[str, Cell] = {}
        for round_index in range(SERVE_ROUNDS):
            for cell in workload.picks(seed, round_index):
                distinct.setdefault(cell_key(cell), cell)
        return list(distinct.values())
    return workload.cells(seed)


def main() -> int:
    engine = SweepEngine(jobs=2, cache=None)
    pins: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name, workload in WORKLOADS.items():
        for seed in PINNED_SEEDS:
            results = engine.run_cells(cells_for(workload, seed))
            pins.setdefault(name, {})[str(seed)] = {
                cell_key(item.cell): {
                    "digest": stats_digest(item.result.stats),
                    "cycles": item.result.stats.cycles}
                for item in results}
            print(f"{name} seed {seed}: {len(results)} cells pinned")
    EXPECTED_PATH.write_text(json.dumps(
        {"code_version": code_version(), "workloads": pins},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
