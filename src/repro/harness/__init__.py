"""Experiment harness: regenerate every table and figure of the paper.

:mod:`repro.harness.engine` provides the parallel, disk-cached sweep
engine; :mod:`repro.harness.figures` declares each figure and table of
the evaluation (Section 4) as the machines behind its columns plus a
render to a structured result with a ``format()`` text rendering that
mirrors the paper's rows/series, and runs any set of them as one engine
batch.
"""

from repro.harness.engine import (
    Cell,
    CellResult,
    ReportBackendMismatch,
    ResultCache,
    SweepEngine,
    sweep_report,
)
from repro.harness import figures
from repro.harness.figures import default_instructions

__all__ = [
    "Cell",
    "CellResult",
    "ReportBackendMismatch",
    "ResultCache",
    "SweepEngine",
    "default_instructions",
    "figures",
    "sweep_report",
]
