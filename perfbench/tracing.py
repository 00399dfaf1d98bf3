"""Span tracing by wrapping the program's public functions at run time.

Nothing under ``src/`` changes: `Tracer.install` replaces each traced
function in every loaded ``icecomp`` namespace that binds it (a function
imported by name, such as ``layered_schedule`` into ``simulator``, lives in
several), or on its class for a method, and `Tracer.uninstall` puts the
originals back.

Each call of a traced function while the tracer is enabled records one span:
its name, start, end, parent span and the id of the benchmark operation it
belongs to.  Spans are kept in flat arrays (a sampling pass makes tens of
thousands of them) and reduced after each pass to calls, errors and self
time per name.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

# (span name, module, attribute path) of every traced function; a dotted
# attribute path names a method.
TRACED = (
    ("compiler.compile_cooptimized", "icecomp.compiler", "compile_cooptimized"),
    ("compiler.compile_baseline", "icecomp.compiler", "compile_baseline"),
    ("compiler._build_task", "icecomp.compiler", "_build_task"),
    ("compiler._emit", "icecomp.compiler", "_emit"),
    ("compiler.expand", "icecomp.compiler", "expand"),
    ("compiler.heuristic_cost", "icecomp.compiler", "heuristic_cost"),
    ("compiler.build_uncompiled_graph", "icecomp.compiler",
     "build_uncompiled_graph"),
    ("compiler.build_executable_graph", "icecomp.compiler",
     "build_executable_graph"),
    ("compiler._matchings", "icecomp.compiler", "_matchings"),
    ("circuit.layered_schedule", "icecomp.circuit", "layered_schedule"),
    ("circuit.validate", "icecomp.circuit", "PhysicalCircuit.validate"),
    ("gadgets.build_gadget", "icecomp.gadgets", "build_gadget"),
    ("faults.propagate_pauli", "icecomp.faults", "propagate_pauli"),
    ("faults.classify_terminal", "icecomp.faults", "classify_terminal"),
    ("simulator.sample_shots", "icecomp.simulator", "sample_shots"),
    ("simulator.sample_logical_shots", "icecomp.simulator",
     "sample_logical_shots"),
    ("simulator.exact_bit_distribution", "icecomp.simulator",
     "exact_bit_distribution"),
    ("simulator.StateVector.__init__", "icecomp.simulator",
     "StateVector.__init__"),
    *(("simulator.StateVector." + m, "icecomp.simulator", "StateVector." + m)
      for m in ("apply_x", "apply_z", "apply_y", "apply_h", "apply_cx",
                "apply_rzz", "apply_rxx", "apply_rx", "apply_pauli",
                "measure")),
    ("maxcut.generate_instance", "icecomp.maxcut", "generate_instance"),
    ("maxcut.build_qaoa", "icecomp.maxcut", "build_qaoa"),
    ("maxcut.brute_force_optimum", "icecomp.maxcut", "brute_force_optimum"),
)

KERNELS = tuple(name for name, _, _ in TRACED
                if name.startswith("simulator.StateVector.")
                and not name.endswith("__init__"))

# Spans whose result length is summed, for per-call means of the output.
_RESULT_LEN = ("faults.propagate_pauli", "simulator.sample_shots")


@dataclass
class SpanTotals:
    """Per-name reduction of the recorded spans."""

    calls: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    result_len: dict[str, int] = field(default_factory=dict)
    # spans named key[1] whose parent span is named key[0]
    child_calls: dict[tuple[str, str], int] = field(default_factory=dict)

    def scaled_add(self, other: "SpanTotals", factor: float) -> None:
        for mine, theirs in ((self.calls, other.calls),
                             (self.errors, other.errors),
                             (self.self_s, other.self_s),
                             (self.result_len, other.result_len),
                             (self.child_calls, other.child_calls)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value * factor


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


class Tracer:
    """Records spans of the traced functions while `enabled` is set."""

    def __init__(self, clock: Callable[[], float] = time.thread_time):
        self.clock = clock
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.ops = array("l")
        self.failed = array("b")
        self.result_len = array("l")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.failed.append(0)
        self.result_len.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, failed: bool = False, result_len: int = 0) -> None:
        self.end[idx] = self.clock()
        self.failed[idx] = failed
        self.result_len[idx] = result_len
        self._stack.pop()

    def clear(self) -> None:
        for arr in (self.start, self.end, self.parent, self.name, self.ops,
                    self.failed, self.result_len):
            del arr[:]

    def totals(self) -> SpanTotals:
        out = SpanTotals()
        own = self_times(self.start, self.end, self.parent)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            out.calls[name] = out.calls.get(name, 0) + 1
            out.self_s[name] = out.self_s.get(name, 0.0) + own[i]
            if self.failed[i]:
                out.errors[name] = out.errors.get(name, 0) + 1
            out.result_len[name] = (out.result_len.get(name, 0)
                                    + self.result_len[i])
            p = self.parent[i]
            if p >= 0:
                key = (self.names[self.name[p]], name)
                out.child_calls[key] = out.child_calls.get(key, 0) + 1
        return out

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        count_result = name in _RESULT_LEN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx, result_len=len(result) if count_result else 0)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in each loaded ``icecomp`` namespace
        that binds it."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "icecomp" or n.startswith("icecomp.")]
        for name, module_name, attr in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = self._wrap(name, original)
            if path:
                self._patch(owner, leaf, traced)
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
