"""Work-stealing worker-process pool behind the job server.

Cells shard across long-lived worker processes by cache digest (cheap
affinity: a job resubmitted while its cells are still warm in a
worker's page cache lands on the same workers), and an idle worker
**steals** from the tail of the longest backlog, so one job full of
slow cells cannot strand the rest of the fleet.  The stealing decision
lives entirely in the coordinating (asyncio) process — workers are
dumb loops pulling one task at a time — which keeps the policy
deterministic, observable (``steals`` counter) and unit-testable
without processes.

Crash containment is the contract the server's availability rests on:
a worker that dies mid-cell (segfault, OOM kill, ``os._exit``) fails
*only* the cell it was computing — its future gets
:class:`WorkerCrash` — and a replacement worker is spawned; queued
cells and every other job continue.  An exception *inside* a cell
(bad config, validation error) is returned as a value and fails just
that cell, without costing a worker.

Workers use the ``spawn`` start method: the coordinator runs an event
loop plus a queue-reader thread, and forking a threaded process is a
deadlock lottery.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Called (in the event loop) the moment a task is handed to a worker:
#: ``(worker_id, stolen)``.  The serving layer uses it to split a
#: cell's latency into queue-wait and worker-execution spans.
DispatchFn = Callable[[int, bool], None]

from repro.harness.engine import Cell, CellResult, code_version

#: Benchmark name that makes a worker die abruptly — the fault hook the
#: crash-containment tests use.  The spec grammar can never produce it
#: (it is not a valid benchmark), so it is unreachable from the API.
CRASH_BENCHMARK = "__serve-crash__"


class WorkerCrash(RuntimeError):
    """The worker computing this cell died before returning a result."""


class CellFailed(RuntimeError):
    """The cell itself raised inside a (healthy) worker."""


def _worker_main(worker_id: int, task_queue: Any, result_queue: Any,
                 cache_dir: Optional[str], version: str) -> None:
    """Worker body: pull (task_id, cell), run it cache-first, ship the
    picklable CellResult (or the error text) back.

    ``version`` is the coordinator's :func:`code_version`.  Every cell
    is keyed under it, so a worker spawned after a source edit still
    stores where the coordinator probes."""
    from repro.harness import engine as harness
    harness._code_version = version
    cache = harness.ResultCache(Path(cache_dir)) if cache_dir else None
    engine = harness.SweepEngine(jobs=1, cache=cache)
    while True:
        item = task_queue.get()
        if item is None:
            return
        task_id, cell = item
        if cell.benchmark == CRASH_BENCHMARK:
            os._exit(13)
        try:
            outcome = engine.run_cell(cell)
        except BaseException as error:  # noqa: BLE001 — shipped, not hidden
            result_queue.put((task_id, worker_id, False,
                              f"{type(error).__name__}: {error}"))
        else:
            result_queue.put((task_id, worker_id, True, outcome))


class _Task:
    __slots__ = ("task_id", "cell", "future", "home", "digest",
                 "on_dispatch", "dispatched_s")

    def __init__(self, task_id: int, cell: Cell,
                 future: "asyncio.Future[CellResult]", home: int,
                 digest: str,
                 on_dispatch: Optional[DispatchFn] = None) -> None:
        self.task_id = task_id
        self.cell = cell
        self.future = future
        self.home = home
        self.digest = digest
        self.on_dispatch = on_dispatch
        #: perf_counter() when the task was handed to a worker.
        self.dispatched_s: Optional[float] = None


class WorkerPool:
    """Digest-sharded worker processes with parent-side work stealing.

    Lifecycle: ``await start()`` once an event loop is running, then
    ``await submit(cell)`` freely; ``await close()`` tears the fleet
    down.  At most one task is in flight per worker — backlog lives in
    the coordinator where it can still be stolen.
    """

    def __init__(self, workers: int = 2,
                 cache_dir: Optional[Path] = None) -> None:
        self.workers = max(1, workers)
        self._cache_dir = str(cache_dir) if cache_dir is not None else None
        import multiprocessing
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: List[Optional[Any]] = [None] * self.workers
        self._task_queues: List[Any] = [None] * self.workers
        self._result_queue: Any = None
        self._backlog: List[Deque[_Task]] = [deque()
                                             for _ in range(self.workers)]
        self._inflight: Dict[int, _Task] = {}
        self._ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._reader: Optional[threading.Thread] = None
        self._monitor: Optional["asyncio.Task[None]"] = None
        self._closed = False
        #: Tasks taken from another worker's backlog.
        self.steals = 0
        # Per-worker counts (indexed by worker id; survives respawns —
        # a respawned worker keeps its slot's history): cells finished,
        # cells failed (in-cell error or worker crash), respawns after
        # a crash.
        self.worker_done: List[int] = [0] * self.workers
        self.worker_failed: List[int] = [0] * self.workers
        self.worker_respawns: List[int] = [0] * self.workers
        self.worker_busy_s: List[float] = [0.0] * self.workers

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._result_queue = self._ctx.Queue()
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        self._reader = threading.Thread(target=self._drain_results,
                                        name="repro-serve-results",
                                        daemon=True)
        self._reader.start()
        self._monitor = self._loop.create_task(self._watch_workers())

    def _spawn(self, worker_id: int) -> None:
        queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, queue, self._result_queue, self._cache_dir,
                  code_version()),
            name=f"repro-serve-worker-{worker_id}", daemon=True)
        process.start()
        self._task_queues[worker_id] = queue
        self._procs[worker_id] = process

    async def close(self) -> None:
        self._closed = True
        if self._monitor is not None:
            self._monitor.cancel()
        for queue in self._task_queues:
            if queue is not None:
                try:
                    queue.put(None)
                except (OSError, ValueError):
                    pass
        for process in self._procs:
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
        if self._result_queue is not None:
            try:
                self._result_queue.put(None)  # unblock the reader thread
            except (OSError, ValueError):
                pass
        if self._reader is not None:
            self._reader.join(timeout=2.0)

    # -- submission and dispatch ------------------------------------------

    async def submit(self, cell: Cell,
                     on_dispatch: Optional[DispatchFn] = None,
                     ) -> CellResult:
        """Queue one cell; resolves when a worker finishes it.

        ``on_dispatch`` (if given) fires in the event loop the moment
        the task leaves the backlog for a worker — the queue-wait /
        execution boundary.  Raises :class:`WorkerCrash` if the
        assigned worker dies mid-computation, :class:`CellFailed` if
        the cell itself raised.
        """
        if self._loop is None:
            raise RuntimeError("WorkerPool.start() has not run")
        digest = cell.digest()
        home = int(digest[:8], 16) % self.workers
        task = _Task(next(self._ids), cell,
                     self._loop.create_future(), home, digest,
                     on_dispatch=on_dispatch)
        self._backlog[home].append(task)
        self._pump()
        return await task.future

    def pending(self) -> int:
        return sum(len(backlog) for backlog in self._backlog) \
            + len(self._inflight)

    def backlogs(self) -> List[int]:
        """Queued (not yet dispatched) tasks per worker."""
        return [len(backlog) for backlog in self._backlog]

    def worker_rows(self) -> List[Dict[str, object]]:
        """Per-worker state for ``/stats`` and the per-worker metrics."""
        rows: List[Dict[str, object]] = []
        for worker_id in range(self.workers):
            process = self._procs[worker_id]
            task = self._inflight.get(worker_id)
            busy_s = self.worker_busy_s[worker_id]
            if task is not None and task.dispatched_s is not None:
                now_s = time.perf_counter()  # sim-lint: ignore[SIM-D004]
                busy_s += now_s - task.dispatched_s
            rows.append({
                "id": worker_id,
                "alive": bool(process is not None and process.is_alive()),
                "state": "busy" if task is not None else "idle",
                "digest": task.digest[:12] if task is not None else None,
                "benchmark": (task.cell.benchmark
                              if task is not None else None),
                "label": task.cell.label if task is not None else None,
                "done": self.worker_done[worker_id],
                "failed": self.worker_failed[worker_id],
                "respawns": self.worker_respawns[worker_id],
                "busy_s": round(busy_s, 6),
                "backlog": len(self._backlog[worker_id]),
            })
        return rows

    def _pump(self) -> None:
        """Hand every idle worker its next task (own queue first, then
        steal from the tail of the longest backlog)."""
        for worker_id in range(self.workers):
            if worker_id in self._inflight \
                    or self._procs[worker_id] is None:
                continue
            task = self._next_task(worker_id)
            if task is None:
                continue
            self._inflight[worker_id] = task
            task.dispatched_s = \
                time.perf_counter()  # sim-lint: ignore[SIM-D004]
            self._task_queues[worker_id].put((task.task_id, task.cell))
            if task.on_dispatch is not None:
                task.on_dispatch(worker_id, worker_id != task.home)

    def _next_task(self, worker_id: int) -> Optional[_Task]:
        own = self._backlog[worker_id]
        if own:
            return own.popleft()
        victim = -1
        longest = 0
        for other in range(self.workers):
            if other != worker_id and len(self._backlog[other]) > longest:
                victim, longest = other, len(self._backlog[other])
        if victim < 0:
            return None
        self.steals += 1
        # Steal from the tail: the victim keeps draining its own head,
        # so a stolen task is the one it would have reached last.
        return self._backlog[victim].pop()

    # -- results and crash containment ------------------------------------

    def _drain_results(self) -> None:
        """Reader-thread body: block on the result queue, hop each item
        onto the event loop."""
        while True:
            try:
                item = self._result_queue.get()
            except (OSError, EOFError, ValueError):
                return
            if item is None:
                return
            assert self._loop is not None
            self._loop.call_soon_threadsafe(self._on_result, item)

    def _on_result(self, item: Tuple[int, int, bool, object]) -> None:
        task_id, worker_id, ok, payload = item
        task = self._inflight.get(worker_id)
        if task is None or task.task_id != task_id:
            # A result from a worker we already declared dead; the cell
            # was failed when the crash was detected — drop the ghost
            # without touching whatever is live on that worker now.
            self._pump()
            return
        del self._inflight[worker_id]
        if task.dispatched_s is not None:
            self.worker_busy_s[worker_id] += \
                time.perf_counter() - task.dispatched_s  # sim-lint: ignore[SIM-D004]
        if not task.future.done():
            if ok:
                self.worker_done[worker_id] += 1
                task.future.set_result(payload)
            else:
                self.worker_failed[worker_id] += 1
                task.future.set_exception(CellFailed(str(payload)))
        self._pump()

    async def _watch_workers(self) -> None:
        """Detect dead workers, fail their in-flight cell, respawn."""
        while not self._closed:
            await asyncio.sleep(0.05)
            for worker_id in range(self.workers):
                process = self._procs[worker_id]
                if process is None or process.is_alive():
                    continue
                exitcode = process.exitcode
                task = self._inflight.pop(worker_id, None)
                if task is not None:
                    self.worker_failed[worker_id] += 1
                    if task.dispatched_s is not None:
                        self.worker_busy_s[worker_id] += \
                            time.perf_counter() - task.dispatched_s  # sim-lint: ignore[SIM-D004]
                    if not task.future.done():
                        task.future.set_exception(WorkerCrash(
                            f"worker {worker_id} died (exit {exitcode}) "
                            f"while computing {task.cell.benchmark} x "
                            f"{task.cell.label or 'cell'} "
                            f"seed {task.cell.seed}"))
                self.worker_respawns[worker_id] += 1
                self._spawn(worker_id)
                self._pump()
