"""Metrics registry: counters, gauges, histograms, Prometheus text.

Stdlib-only and deliberately tiny — the fleet needs maybe two dozen
series, not a client library.  The design rules:

* **Deterministic under concurrency** — every mutation takes the
  registry lock, and :meth:`MetricsRegistry.render` emits metrics and
  label sets in sorted order, so two scrapes of identical state are
  byte-identical (the telemetry parity tests depend on this).
* **Fixed bucket bounds** — histograms declare their buckets at
  registration; nothing adapts at runtime, so bucket series are stable
  across restarts and diffable across runs.
* **Read-through metrics** — a count a subsystem already keeps (worker
  pool, single-flight table, result cache) is not stored again: its
  counter or gauge takes a ``read`` function, and rendering calls it,
  so each count has exactly one store.

:func:`parse_prometheus_text` is the other half of the contract: the
tests and the CI smoke parse the server's own scrape with it, so the
exposition format is validated by construction, not by eyeball.
"""

from __future__ import annotations

import dataclasses
import re
import threading
from collections import OrderedDict
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Union)

LabelKey = Tuple[Tuple[str, str], ...]

#: What a read-through metric's ``read`` returns: the value of an
#: unlabelled metric, or a one-label metric's values by label value.
Reading = Union[float, Mapping[Any, float]]

#: Service-latency bucket bounds, milliseconds.  Spans the warm-hit SLO
#: (5 ms) on the low end and a slow cold simulation on the high end.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0)

#: Cache-probe bucket bounds, milliseconds — a probe is a file read,
#: so the interesting resolution is sub-millisecond.
PROBE_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 100.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\"", "\\\"") \
        .replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_text(key: LabelKey, extra: Optional[Tuple[str, str]]
                = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"'
                     for name, value in pairs)
    return "{" + inner + "}"


class _Metric:
    """Shared naming/label plumbing for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], lock: threading.Lock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"bad label name {label!r} on {name}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock

    def _key(self, labels: Mapping[str, object]) -> LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: labels {sorted(labels)} != declared "
                f"{sorted(self.labelnames)}")
        return tuple((name, str(labels[name]))
                     for name in self.labelnames)

    def render(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class _Sample(_Metric):
    """Counter and gauge storage: one number per label set, either
    stored here or read from the subsystem that owns it."""

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], lock: threading.Lock,
                 read: Optional[Callable[[], Reading]] = None) -> None:
        super().__init__(name, help_text, labelnames, lock)
        self._values: Dict[LabelKey, float] = {}
        self._read = read

    def _stored_key(self, labels: Mapping[str, object]) -> LabelKey:
        if self._read is not None:
            raise TypeError(f"{self.name} is read through; its owner "
                            "keeps the value")
        return self._key(labels)

    def _snapshot(self) -> Dict[LabelKey, float]:
        if self._read is None:
            with self._lock:
                return dict(self._values)
        reading = self._read()
        if isinstance(reading, Mapping):
            return {self._key(dict(zip(self.labelnames, [label]))): value
                    for label, value in reading.items()}
        return {self._key({}): reading}

    def value(self, **labels: object) -> float:
        return self._snapshot().get(self._key(labels), 0.0)

    def render(self) -> List[str]:
        return [f"{self.name}{_label_text(key)} {_format_value(value)}"
                for key, value in sorted(self._snapshot().items())]


class Counter(_Sample):
    """Monotonically non-decreasing totals."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        key = self._stored_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Sample):
    """A value that goes up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._stored_key(labels)
        with self._lock:
            self._values[key] = float(value)


class Histogram(_Metric):
    """Cumulative-bucket histogram with fixed bounds."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], lock: threading.Lock,
                 buckets: Sequence[float]) -> None:
        super().__init__(name, help_text, labelnames, lock)
        bounds = sorted(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError(f"{self.name}: histogram needs buckets")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * len(self.bounds)
                self._counts[key] = counts
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        with self._lock:
            return self._totals.get(self._key(labels), 0)

    def render(self) -> List[str]:
        lines: List[str] = []
        with self._lock:
            items = sorted(self._counts.items())
            sums = dict(self._sums)
            totals = dict(self._totals)
        for key, counts in items:
            for bound, count in zip(self.bounds, counts):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_text(key, ('le', _format_value(bound)))} "
                    f"{count}")
            lines.append(
                f"{self.name}_bucket{_label_text(key, ('le', '+Inf'))} "
                f"{totals.get(key, 0)}")
            lines.append(f"{self.name}_sum{_label_text(key)} "
                         f"{_format_value(round(sums.get(key, 0.0), 6))}")
            lines.append(f"{self.name}_count{_label_text(key)} "
                         f"{totals.get(key, 0)}")
        return lines


class MetricsRegistry:
    """Owns every metric; renders the Prometheus text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"{metric.name} already registered as "
                    f"{existing.kind}")
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = (),
                read: Optional[Callable[[], Reading]] = None) -> Counter:
        """A counter; with ``read``, its values are read from their
        owner at each render instead of stored here."""
        metric = self._register(
            Counter(name, help_text, labelnames, self._lock, read))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = (),
              read: Optional[Callable[[], Reading]] = None) -> Gauge:
        """A gauge; ``read`` as for :meth:`counter`."""
        metric = self._register(
            Gauge(name, help_text, labelnames, self._lock, read))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help_text: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS_MS,
                  ) -> Histogram:
        metric = self._register(
            Histogram(name, help_text, labelnames, self._lock, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def render(self) -> str:
        """The ``GET /metrics`` body: sorted, escaped, reparseable."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            lines.append(f"# HELP {name} {_escape(metric.help_text)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


# -- scrape parsing (the validating half of the contract) -----------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[-+]?(?:[0-9.eE+-]+|Inf|NaN))$")
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@dataclasses.dataclass
class ParsedScrape:
    """A decoded ``/metrics`` body."""

    #: metric family -> declared TYPE.
    types: Dict[str, str]
    #: full sample key (``name{a="b"}``) -> value.
    samples: Dict[str, float]

    def series(self, prefix: str) -> Dict[str, float]:
        """Samples whose name starts with ``prefix``."""
        return {key: value for key, value in self.samples.items()
                if key.split("{")[0].startswith(prefix)}


def parse_prometheus_text(text: str) -> ParsedScrape:
    """Parse (and thereby validate) a text exposition body.

    Raises :class:`ValueError` naming the first malformed line —
    used by the tests and the CI smoke as the format gate.
    """
    types: Dict[str, str] = {}
    samples: Dict[str, float] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary",
                    "untyped"):
                raise ValueError(f"line {number}: bad TYPE line {raw!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP "):
            if len(line.split(None, 3)) < 3:
                raise ValueError(f"line {number}: bad HELP line {raw!r}")
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {number}: bad sample line {raw!r}")
        labels = match.group("labels") or ""
        if labels:
            stripped = labels[1:-1].rstrip(",")
            consumed = ",".join(
                f'{name}="{value}"'
                for name, value in _LABEL_PAIR_RE.findall(stripped))
            if consumed != stripped:
                raise ValueError(
                    f"line {number}: bad label syntax {raw!r}")
        key = match.group("name") + labels
        if key in samples:
            raise ValueError(f"line {number}: duplicate sample {key}")
        value_text = match.group("value")
        if value_text.endswith("Inf"):
            value = float("-inf") if value_text.startswith("-") \
                else float("inf")
        else:
            value = float(value_text)
        samples[key] = value
    return ParsedScrape(types=types, samples=samples)
