"""Tests of the benchmark itself: tiny smoke runs, span arithmetic and
determinism.  Run with ``python -m pytest perfbench/tests``."""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.harness import END_TO_END, PER_LAYER, run_workload
from perfbench.hostspeed import REFERENCE_S, WINDOW, HostClock
from perfbench.tracing import Tracer, self_times

import icecomp.circuit
import icecomp.compiler
import icecomp.simulator

WORKLOADS = ("compile", "sample", "certify")


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_untraced(name):
    res = run_workload(name, seed=0, seconds=0.0, trace=False, size="tiny")
    assert res.correct, res.problems
    assert res.attempted >= 1
    assert list(res.metrics) == list(END_TO_END)
    assert all(v > 0 for v in res.metrics.values()), res.metrics
    line = res.line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["op_p50_ms"]["unit"] == "ms"


def _repeatable(res):
    """Metrics that must repeat exactly for one seed: everything but times."""
    return {k: v for k, v in res.metrics.items()
            if PER_LAYER[k][0] not in ("s", "ms") and not k.startswith("trace.")}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_for_a_seed_and_change_with_another(name):
    first = run_workload(name, seed=0, seconds=0.0, trace=True, size="tiny")
    again = run_workload(name, seed=0, seconds=0.0, trace=True, size="tiny")
    other = run_workload(name, seed=1, seconds=0.0, trace=True, size="tiny")
    assert first.correct and again.correct and other.correct
    assert list(first.metrics) == list(PER_LAYER)
    assert _repeatable(first) == _repeatable(again)
    assert _repeatable(first) != _repeatable(other)


def test_quality_repeats_for_a_seed():
    runs = [run_workload("compile", seed=s, seconds=0.0, trace=False,
                         size="tiny") for s in (3, 3)]
    keys = ("depth_2q_coopt", "depth_2q_baseline", "twoq_gates_coopt", "ok_frac")
    assert [runs[0].metrics[k] for k in keys] == [runs[1].metrics[k] for k in keys]


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] has children a [1,4] and b [3,6], which overlap on [3,4];
    # a has child c [2,3]; d [7,12] sticks out past root's end
    starts = [0.0, 1.0, 3.0, 2.0, 7.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    assert self_times(starts, ends, parents) == [2.0, 2.0, 3.0, 1.0, 5.0]


def test_tracer_totals_from_a_fake_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    root = tr.open("outer")          # t=0
    child = tr.open("inner")         # t=1
    tr.close(child)                  # t=2
    child = tr.open("inner")         # t=3
    tr.close(child, failed=True)     # t=4
    tr.close(root)                   # t=5
    t = tr.totals()
    assert t.calls == {"outer": 1, "inner": 2}
    assert t.self_s == {"outer": 3.0, "inner": 2.0}
    assert t.errors == {"inner": 1}
    assert t.child_calls == {("outer", "inner"): 2}


def test_install_patches_every_binding_and_uninstall_restores():
    original = icecomp.circuit.layered_schedule
    assert icecomp.simulator.layered_schedule is original
    tr = Tracer()
    tr.install()
    try:
        wrapped = icecomp.circuit.layered_schedule
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert icecomp.simulator.layered_schedule is wrapped
        assert icecomp.compiler.layered_schedule is wrapped
        assert icecomp.simulator.StateVector.apply_rzz.__wrapped__
    finally:
        tr.uninstall()
    assert icecomp.circuit.layered_schedule is original
    assert icecomp.simulator.layered_schedule is original
    assert not hasattr(icecomp.simulator.StateVector.apply_rzz, "__wrapped__")


def test_host_clock_scale_uses_the_samples_around_the_work():
    clock = HostClock()
    clock.samples = [0.004, 0.012, 0.006, 0.010, 0.005, 0.009, 0.008,
                     0.007, 0.003, 0.011, 0.002, 0.001]
    assert WINDOW == 4
    # work during samples 5 and 6: those and four on each side, 1 .. 10
    assert clock.scale(5, 7) == pytest.approx(REFERENCE_S / 0.0075)
    # work between samples 5 and 6, with none during it: 2 .. 9
    assert clock.scale(6, 6) == pytest.approx(REFERENCE_S / 0.0075)
    # work before the first sample, and after the last
    assert clock.scale(0, 0) == pytest.approx(REFERENCE_S / 0.008)
    assert clock.scale(12, 12) == pytest.approx(REFERENCE_S / 0.0025)


def test_host_clock_samples_on_its_timer_and_leaves_them_out():
    clock = HostClock(interval_s=0.05)
    with clock:
        c0, first = clock.reading()
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.4:
            pass
        c1, last = clock.reading()
    assert last - first >= 3
    assert len(clock.samples) == last + 1
    # the busy loop ran 0.4 s of CPU time in all, samples included
    assert c1 - c0 == pytest.approx(0.4 - clock.sampling_s + clock.samples[0]
                                    + clock.samples[-1], abs=0.02)


def test_tail_percentile_leaves_ten_beyond():
    assert harness.tail_percentile(list(range(1, 37))) == (72, 26)
    assert harness.tail_percentile(list(range(1, 28))) == (62, 17)
    assert harness.tail_percentile(list(range(1, 6))) == (50, 3)


def test_fails_without_the_program(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
