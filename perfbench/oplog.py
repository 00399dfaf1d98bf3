"""Timed operations: the unit every latency and failure metric counts.

Operations are timed in CPU time of the benchmark's thread.  The workloads
are single-threaded and do no I/O, so on an idle machine this equals wall
time; on a shared host it leaves out the time other tenants hold the CPU,
which is not a property of the program.  Each CPU time is also scaled to the
reference host speed (see `perfbench.hostspeed`); the metrics use the scaled
times.  Wall time is kept alongside."""

from __future__ import annotations

import time
from dataclasses import dataclass

from icecomp.compiler import CompileError
from icecomp.simulator import SimulatorError

from perfbench.hostspeed import HostClock

# Errors that fail one operation and let the run go on.  RuntimeError is
# what fault propagation raises when it runs out of its branch budget.
OP_ERRORS = (RuntimeError, CompileError, SimulatorError)


@dataclass
class Op:
    kind: str
    seconds: float = 0.0        # CPU time scaled to the reference speed
    cpu_seconds: float = 0.0    # CPU time of the thread
    wall_seconds: float = 0.0
    samples: tuple[int, int] = (0, 0)   # host-clock samples taken during it
    items: int = 0          # work units completed: compiles, shots, verdicts
    failed: bool = False
    error: str = ""


class OpLog:
    """Times each operation and records whether it failed.

    With a tracer, spans are recorded only inside the timed call, so output
    checks between operations stay out of the trace."""

    def __init__(self, clock: HostClock, tracer=None):
        self.ops: list[Op] = []
        self.clock = clock
        self.tracer = tracer

    def timed(self, kind: str, items: int, fn, *args, **kwargs):
        op = Op(kind, items=items)
        self.ops.append(op)
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.ops) - 1
            tracer.enabled = True
        t0 = time.perf_counter()
        c0, first = self.clock.reading()
        try:
            return fn(*args, **kwargs)
        except OP_ERRORS as exc:
            op.failed = True
            op.items = 0
            op.error = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            c1, last = self.clock.reading()
            op.cpu_seconds = c1 - c0
            op.samples = (first, last)
            op.wall_seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False

    def scale(self) -> None:
        """Scale every op's time; call when the clock has stopped."""
        for op in self.ops:
            op.seconds = op.cpu_seconds * self.clock.scale(*op.samples)
