"""Structured JSON logging with trace/job/cell correlation ids.

Replaces the serve stack's ad-hoc prints: every record is one flat
dict — ``seq``, ``ts_ms`` (milliseconds since the ring was created),
``level``, ``event``, plus the correlation ids (``trace``/``job``/
``cell``) and free-form fields.  Records land in a bounded in-memory
ring (``GET /logs?job=...`` reads it back); optionally each record is
also echoed to a stream as one JSON line, which is what ``repro
serve`` does to stdout.

The ring is deliberately lossy-at-the-tail: when full, the oldest
record is dropped and ``dropped`` counts it.  Telemetry must never be
the thing that runs the server out of memory.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, TextIO

JsonDict = Dict[str, Any]

LEVELS = ("debug", "info", "warning", "error")


class LogRing:
    """Bounded, thread-safe ring of structured log records."""

    def __init__(self, capacity: int = 2048,
                 echo: Optional[TextIO] = None) -> None:
        self.capacity = max(1, capacity)
        self._rows: Deque[JsonDict] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._origin_s = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        self._seq = 0
        self.echo = echo
        #: Records pushed out of the ring by newer ones.
        self.dropped = 0
        #: Records emitted, by level.
        self.counts: Dict[str, int] = {}

    def log(self, level: str, event: str, *,
            trace: Optional[str] = None, job: Optional[str] = None,
            cell: Optional[int] = None, **fields: object) -> JsonDict:
        """Append one record; returns it (handy for tests)."""
        if level not in LEVELS:
            level = "info"
        now_ms = round(
            (time.perf_counter() - self._origin_s) * 1000.0,  # sim-lint: ignore[SIM-D004]
            3)
        with self._lock:
            self._seq += 1
            record: JsonDict = {"seq": self._seq, "ts_ms": now_ms,
                                "level": level, "event": event,
                                "trace": trace, "job": job, "cell": cell}
            for name, value in fields.items():
                if name not in record:
                    record[name] = value
            if len(self._rows) == self.capacity:
                self.dropped += 1
            self._rows.append(record)
            self.counts[level] = self.counts.get(level, 0) + 1
        if self.echo is not None:
            try:
                self.echo.write(json.dumps(record) + "\n")
                self.echo.flush()
            except (OSError, ValueError):
                pass  # a closed stdout must not take the server down
        return record

    def rows(self, *, job: Optional[str] = None,
             level: Optional[str] = None,
             limit: int = 0) -> List[JsonDict]:
        """Matching records, oldest first: ``level`` keeps that level and
        the ones above it in :data:`LEVELS`, ``limit`` the newest."""
        levels = LEVELS if level is None else LEVELS[LEVELS.index(level):]
        with self._lock:
            rows = [dict(row) for row in self._rows
                    if (job is None or row.get("job") == job)
                    and row["level"] in levels]
        if limit > 0:
            rows = rows[-limit:]
        return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)
