"""Pipeline tracing: per-instruction stage timelines.

Every :class:`~repro.pipeline.dyninst.DynInst` carries its own stage
cycles — dispatch, issue, complete, and the cycle it left the ROB by
commit or squash (:meth:`DynInst.stages`).  :func:`draw` turns any run
of instructions into the classic pipetrace diagram — one row per
instruction, one column per cycle — which makes LSQ behaviour (port
retries, store-set waits, violation squashes) directly visible.

Attach a :class:`PipelineTracer` to a :class:`~repro.pipeline.processor
.Processor` before running and it keeps the first ``limit`` dispatched
instructions of the run:

>>> processor = Processor(base_machine())
>>> processor.tracer = PipelineTracer(limit=200)
>>> processor.run(trace)
>>> print(processor.tracer.render(0, 40))
"""

from __future__ import annotations

from typing import List, Sequence

from repro.pipeline.dyninst import DynInst

#: Stage glyphs in the rendered diagram.
GLYPHS = {
    "dispatch": "D",
    "issue": "I",
    "complete": "C",
    "commit": "R",       # retire
    "squash": "x",
}


def draw(insts: Sequence[DynInst], start: int, end: int) -> str:
    """Pipetrace of ``insts`` (in dispatch order) over cycles
    ``start..end``; stages outside that span are left out."""
    span = end - start + 1
    lines = [f"cycles {start}..{end} "
             f"(D=dispatch I=issue C=complete R=retire x=squash)"]
    for inst in insts:
        strip = [" "] * span
        for name, cycle in inst.stages():
            offset = cycle - start
            if 0 <= offset < span:
                strip[offset] = GLYPHS[name]
        lines.append(f"{inst.seq:5d} {inst.inst.op.name:9s} "
                     f"{''.join(strip)}")
    return "\n".join(lines)


class PipelineTracer:
    """Keeps the first ``limit`` instructions a run dispatches.

    The processor hands each instruction over as it dispatches; the
    tracer keeps a reference, and the instruction records its own
    later stages.
    """

    def __init__(self, limit: int = 512) -> None:
        self.limit = limit
        #: The kept instructions, in dispatch (= sequence) order.
        self.insts: List[DynInst] = []

    def add(self, inst: DynInst) -> None:
        """Called by the processor as ``inst`` dispatches."""
        if len(self.insts) < self.limit:
            self.insts.append(inst)

    def render_recent(self, count: int = 64) -> str:
        """Pipetrace of the youngest ``count`` kept instructions."""
        if not self.insts:
            return "(no recorded instructions)"
        return self._render(self.insts[-count:])

    def render(self, first_seq: int, last_seq: int,
               max_width: int = 100) -> str:
        """Pipetrace diagram for instructions in ``[first_seq, last_seq]``."""
        return self._render([inst for inst in self.insts
                             if first_seq <= inst.seq <= last_seq],
                            max_width)

    @staticmethod
    def _render(rows: List[DynInst], max_width: int = 100) -> str:
        """``rows`` from the first one's dispatch (the earliest stage of
        any) to the last stage drawn, at most ``max_width`` cycles."""
        if not rows:
            return "(no recorded instructions in range)"
        start = rows[0].dispatch_cycle
        end = max(cycle for inst in rows for __, cycle in inst.stages())
        return draw(rows, start, min(end, start + max_width - 1))
