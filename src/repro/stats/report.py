"""Small reporting helpers shared by the harness and the benchmarks."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def speedup(test_ipc: float, base_ipc: float) -> float:
    """Relative performance change: +0.10 means 10% faster than base."""
    if base_ipc <= 0:
        raise ValueError("base IPC must be positive")
    return test_ipc / base_ipc - 1.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (ratios, IPC ratios)."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def confidence(values: List[float]) -> Tuple[float, float]:
    """(mean, half-range) of a small sample — the spread annotation used
    by the multi-seed bench."""
    if not values:
        raise ValueError("no values")
    mean = sum(values) / len(values)
    half_range = (max(values) - min(values)) / 2
    return mean, half_range


def mean_speedup(ratios: Iterable[float]) -> float:
    """Average speedup over a suite, computed as a geomean of ratios.

    ``ratios`` are test/base IPC ratios; the result is expressed as a
    relative change (0.05 == +5%), matching how the paper reports suite
    averages.
    """
    return geometric_mean(ratios) - 1.0


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render an aligned plain-text table (the benches print these)."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_percent(value: float, digits: int = 1) -> str:
    """Format a ratio as a signed percentage string."""
    return f"{value * 100:+.{digits}f}%"


def cpi_stack_table(slots: Dict[str, int], commit_width: int,
                    committed: int, title: str = "CPI stack") -> str:
    """Render a CPI stall-attribution breakdown (see :mod:`repro.obs.cpi`).

    ``slots`` maps cause -> commit-slot cycles; rows show each cause's
    share of all commit slots and its cycles-per-instruction
    contribution.  The contributions sum to the run CPI because the
    slot buckets sum to ``cycles x commit_width``.
    """
    total = sum(slots.values())
    rows = []
    for cause, count in slots.items():
        share = count / total if total else 0.0
        cpi = (count / commit_width / committed) if committed else 0.0
        rows.append([cause, count, f"{share * 100:5.1f}%", f"{cpi:.4f}"])
    rows.append(["total", total, "100.0%" if total else "  0.0%",
                 f"{(total / commit_width / committed) if committed else 0.0:.4f}"])
    return format_table(["cause", "slot-cycles", "share", "CPI"],
                        rows, title=title)


def summarise_by_suite(per_benchmark: Dict[str, float],
                       int_names: Sequence[str],
                       fp_names: Sequence[str]) -> Dict[str, float]:
    """Suite averages in the paper's style (Int.Avg / Fp.Avg)."""
    out: Dict[str, float] = {}
    int_vals = [1.0 + per_benchmark[n] for n in int_names if n in per_benchmark]
    fp_vals = [1.0 + per_benchmark[n] for n in fp_names if n in per_benchmark]
    if int_vals:
        out["Int.Avg"] = geometric_mean(int_vals) - 1.0
    if fp_vals:
        out["Fp.Avg"] = geometric_mean(fp_vals) - 1.0
    return out
