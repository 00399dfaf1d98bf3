"""Runs one workload: set-up, measured passes, output checks and metrics.

A run does a fixed number of passes, ``max(2, round(seconds /
nominal_pass_s))``, where ``nominal_pass_s`` is the pass time measured when
the benchmark was written (2-CPU x86 host, Python 3.11, numpy 2.4).  So a
given ``--seconds`` measures the same work on every commit: counts repeat
exactly for a seed, the tail percentile is taken over the same number of
operations, and a faster commit simply finishes sooner.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import networkx
import numpy

from perfbench.hostspeed import HostClock
from perfbench.oplog import OpLog
from perfbench.tracing import KERNELS, SpanTotals, Tracer
from perfbench.workloads import WORKLOADS, Outputs

SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NOMINAL_PASS_S = {"compile": 5.0, "sample": 3.2, "certify": 2.5}
TAIL_BEYOND = 10     # ops that must lie beyond the reported tail percentile

# name -> (unit, better); the order is the print order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "work_per_s": ("1/s", "higher"),
    "ok_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "depth_2q_coopt": ("layers", "lower"),
    "depth_2q_baseline": ("layers", "lower"),
    "twoq_gates_coopt": ("gates", "lower"),
}

# op_tail_ms is an end-to-end latency, but it is reported with the traced
# run and carries no bound: at this commit the certify tail is set by a few
# branch-budget blow-ups and its run-to-run spread is about 0.45
PER_LAYER = {
    "op_tail_ms": ("ms", "lower"),
    "compiler.cooptimize_s": ("s", "lower"),
    "compiler.baseline_s": ("s", "lower"),
    "compiler.task_s": ("s", "lower"),
    "compiler.emit_s": ("s", "lower"),
    "compiler.expand_calls": ("count", "lower"),
    "compiler.nodes_expanded": ("count", "lower"),
    "compiler.budget_exhausted_frac": ("ratio", "lower"),
    "compiler.search_layers": ("layers", "lower"),
    "compiler.heuristic_calls": ("count", "lower"),
    "compiler.heuristic_s": ("s", "lower"),
    "compiler.exe_graph_s": ("s", "lower"),
    "compiler.matching_calls": ("count", "lower"),
    "compiler.matching_s": ("s", "lower"),
    "circuit.schedule_calls": ("count", "lower"),
    "circuit.schedule_s": ("s", "lower"),
    "circuit.validate_s": ("s", "lower"),
    "gadgets.build_calls": ("count", "lower"),
    "gadgets.build_s": ("s", "lower"),
    "faults.propagate_calls": ("count", "lower"),
    "faults.propagate_s": ("s", "lower"),
    "faults.branches_mean": ("count", "lower"),
    "faults.budget_exceeded": ("count", "lower"),
    "faults.classify_s": ("s", "lower"),
    "simulator.ideal_s": ("s", "lower"),
    "simulator.trajectory_shots": ("count", "lower"),
    "simulator.fastpath_frac": ("ratio", "higher"),
    "simulator.kernel_calls": ("count", "lower"),
    "simulator.kernel_s": ("s", "lower"),
    "simulator.logical_s": ("s", "lower"),
    "simulator.psr": ("ratio", "higher"),
    "simulator.ar": ("ratio", "higher"),
    "maxcut.instance_s": ("s", "lower"),
    "maxcut.build_qaoa_s": ("s", "lower"),
    "maxcut.brute_force_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    manifest: dict
    problems: list[str] = field(default_factory=list)
    # (kind, scaled ms, CPU ms, failed, first and last host sample) of
    # every untraced operation, and the host samples in ms
    ops: list[tuple] = field(default_factory=list)
    host_samples_ms: list[float] = field(default_factory=list)

    def line(self) -> dict:
        """The result object the benchmark prints last."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": self.units[k]}
                            for k, v in self.metrics.items()}}


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    return max(2, round(seconds / nominal_pass_s))


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """(q, value) of the highest whole percentile q with at least `beyond`
    values above it, by nearest rank; never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    q = max(50, math.floor(100 * (n - beyond) / n))
    return q, ordered[math.ceil(q * n / 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from its git files, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def quality_metrics(out: Outputs) -> dict[str, float]:
    return {
        "depth_2q_coopt": _mean([m["depth_2q"] for m in out.coopt]),
        "depth_2q_baseline": _mean([m["depth_2q"] for m in out.baseline]),
        "twoq_gates_coopt": _mean([m["twoq_gates"] for m in out.coopt]),
    }


def layer_metrics(t: SpanTotals, out: Outputs) -> dict[str, float]:
    """Per-layer metrics from span totals (self times, calls) and from the
    workload's outputs (search meta of its co-compiles, sampling quality)."""
    def calls(*names):
        return sum(t.calls.get(n, 0) for n in names)

    def self_s(*names):
        return sum(t.self_s.get(n, 0.0) for n in names)

    propagated = calls("faults.propagate_pauli") \
        - t.errors.get("faults.propagate_pauli", 0)
    shots = t.result_len.get("simulator.sample_shots", 0)
    trajectories = t.child_calls.get(
        ("simulator.sample_shots", "simulator.StateVector.__init__"), 0)
    coopt = out.coopt
    return {
        "compiler.cooptimize_s": self_s("compiler.compile_cooptimized"),
        "compiler.baseline_s": self_s("compiler.compile_baseline"),
        "compiler.task_s": self_s("compiler._build_task"),
        "compiler.emit_s": self_s("compiler._emit"),
        "compiler.expand_calls": calls("compiler.expand"),
        "compiler.nodes_expanded": _mean([m["expanded_nodes"] for m in coopt]),
        "compiler.budget_exhausted_frac":
            _mean([float(m["budget_exhausted"]) for m in coopt]),
        "compiler.search_layers": _mean([m["search_layers"] for m in coopt]),
        "compiler.heuristic_calls": calls("compiler.build_uncompiled_graph"),
        "compiler.heuristic_s": self_s("compiler.heuristic_cost",
                                       "compiler.build_uncompiled_graph"),
        "compiler.exe_graph_s": self_s("compiler.build_executable_graph"),
        "compiler.matching_calls": calls("compiler._matchings"),
        "compiler.matching_s": self_s("compiler._matchings"),
        "circuit.schedule_calls": calls("circuit.layered_schedule"),
        "circuit.schedule_s": self_s("circuit.layered_schedule"),
        "circuit.validate_s": self_s("circuit.validate"),
        "gadgets.build_calls": calls("gadgets.build_gadget"),
        "gadgets.build_s": self_s("gadgets.build_gadget"),
        "faults.propagate_calls": calls("faults.propagate_pauli"),
        "faults.propagate_s": self_s("faults.propagate_pauli"),
        "faults.branches_mean":
            t.result_len.get("faults.propagate_pauli", 0) / propagated
            if propagated else 0.0,
        "faults.budget_exceeded": t.errors.get("faults.propagate_pauli", 0),
        "faults.classify_s": self_s("faults.classify_terminal"),
        "simulator.ideal_s": self_s("simulator.exact_bit_distribution"),
        "simulator.trajectory_shots": trajectories,
        "simulator.fastpath_frac": (shots - trajectories) / shots if shots else 0.0,
        "simulator.kernel_calls": calls(*KERNELS),
        "simulator.kernel_s": self_s(*KERNELS),
        "simulator.logical_s": self_s("simulator.sample_logical_shots"),
        "simulator.psr": out.accepted / out.sampled if out.sampled else 0.0,
        "simulator.ar": out.cut_sum / out.accepted / out.f_max
            if out.accepted else 0.0,
        "maxcut.instance_s": self_s("maxcut.generate_instance"),
        "maxcut.build_qaoa_s": self_s("maxcut.build_qaoa"),
        "maxcut.brute_force_s": self_s("maxcut.brute_force_optimum"),
    }


def _passes(workload, state, passes: int, log: OpLog,
            tracer: Tracer | None = None) -> SpanTotals:
    """Run the measured passes; with a tracer, return span totals per pass."""
    totals = SpanTotals()
    for j in range(passes):
        workload.run_pass(state, j, log)
        if tracer is not None:
            totals.scaled_add(tracer.totals(), 1.0 / passes)
            tracer.clear()
    return totals


def _end_to_end(log: OpLog, out: Outputs, setup_times: list[float],
                import_s: float) -> dict[str, float]:
    latencies = [op.seconds for op in log.ops]
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "work_per_s": sum(op.items for op in log.ops) / sum(latencies),
        "ok_frac": 1.0 - sum(op.failed for op in log.ops) / len(log.ops),
        "peak_rss_mb": peak_rss_mb(),
        **quality_metrics(out),
    }


def _traced(workload, seed: int, passes: int, untraced: OpLog
            ) -> tuple[dict[str, float], list[str]]:
    """Set up once and run the passes again with the tracer installed;
    returns the per-layer metrics and the output problems of that run."""
    clock = untraced.clock
    # span times leave out the host-clock samples, which are not the program
    tracer = Tracer(clock=clock.cpu)
    tracer.install()
    log = OpLog(clock, tracer)
    try:
        with clock:
            tracer.enabled = True
            state = workload.setup(seed, passes)
            tracer.enabled = False
            totals = tracer.totals()
            tracer.clear()
            totals.scaled_add(_passes(workload, state, passes, log, tracer),
                              1.0)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    log.scale()
    workload.finish(state, log)
    before = sum(op.seconds for op in untraced.ops)
    after = sum(op.seconds for op in log.ops)
    metrics = {"op_tail_ms": 1000.0 * tail_percentile(
        [op.seconds for op in untraced.ops])[1]}
    metrics.update(layer_metrics(totals, state["out"]))
    metrics["trace.overhead_s"] = (after - before) / passes
    metrics["trace.overhead_frac"] = (after - before) / before
    return metrics, state["out"].problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", import_s: float = 0.0,
                 root: Path | None = None) -> RunResult:
    workload = WORKLOADS[name](size)
    passes = pass_count(seconds, NOMINAL_PASS_S[name])
    # set-up and import times are scaled to the reference speed like the
    # operations; the import ended just before the first sample
    clock = HostClock()
    log = OpLog(clock)
    setups = []
    with clock:
        for _ in range(SETUP_REPEATS):
            c0, first = clock.reading()
            state = workload.setup(seed, passes)
            c1, last = clock.reading()
            setups.append((c1 - c0, first, last))
        _passes(workload, state, passes, log)
    log.scale()
    setup_cpu = [cpu for cpu, _, _ in setups]
    setup_times = [cpu * clock.scale(a, b) for cpu, a, b in setups]
    import_scaled = import_s * clock.scale(0, 1)
    workload.finish(state, log)
    problems = list(state["out"].problems)
    if trace:
        metrics, traced_problems = _traced(workload, seed, passes, log)
        problems += traced_problems
        units = {k: PER_LAYER[k][0] for k in metrics}
    else:
        metrics = _end_to_end(log, state["out"], setup_times, import_scaled)
        units = {k: END_TO_END[k][0] for k in metrics}

    ops = log.ops
    failed = [op for op in ops if op.failed]
    manifest = {
        "workload": name, "seed": seed, "seconds": seconds, "size": size,
        "trace": trace, "passes": passes, "setup_repeats": SETUP_REPEATS,
        "import_cpu_s": import_s, "setup_cpu_s_each": setup_cpu,
        "import_s": import_scaled, "setup_s_each": setup_times,
        "ops": dict(Counter(op.kind for op in ops)),
        "ops_total": len(ops),
        "host_samples": len(clock.samples),
        "host_sample_ms": statistics.median(clock.samples) * 1000.0,
        "op_s": sum(op.seconds for op in ops),
        "op_cpu_s": sum(op.cpu_seconds for op in ops),
        "op_wall_s": sum(op.wall_seconds for op in ops),
        "op_tail_percentile": tail_percentile([op.seconds for op in ops])[0],
        "failures": dict(Counter(op.error.split(":")[0] for op in failed)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(root) if root else "unknown",
    }
    return RunResult(not problems, len(ops), len(failed), metrics, units,
                     manifest, problems,
                     [(op.kind, 1000.0 * op.seconds, 1000.0 * op.cpu_seconds,
                       op.failed, *op.samples) for op in ops],
                     [1000.0 * x for x in clock.samples])
