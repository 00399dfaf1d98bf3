import hashlib
import importlib.util
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from icecomp.bench import MODES, compile_mode
from icecomp.compiler import write_encoded
from icecomp.faults import check_gadget_ft, context_for_gadget, fault_reports
from icecomp.gadgets import GadgetKind, build_gadget
from icecomp.maxcut import (GraphKind, build_qaoa, generate_instance,
                            ramp_params)
from icecomp.circuit import GateKind
from icecomp.simulator import (NoiseModel, _trailing_start,
                               exact_bit_distribution,
                               exact_logical_distribution,
                               sample_logical_shots, sample_shots)

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
_spec = importlib.util.spec_from_file_location(
    "encoded_digest", _PATH.with_name("encoded_digest.py"))
encoded_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(encoded_digest)
_spec = importlib.util.spec_from_file_location(
    "verdict_digest", _PATH.with_name("verdict_digest.py"))
verdict_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_digest)
_spec = importlib.util.spec_from_file_location(
    "record_digest", _PATH.with_name("record_digest.py"))
record_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_digest)


def test_encoded_digest_folds_each_compile():
    graphs = [generate_instance(GraphKind.REGULAR_3, 6, seed=0),
              generate_instance(GraphKind.ERDOS_RENYI, 6, density=0.5,
                                seed=1)]
    got = encoded_digest.digest(graphs, "resynth+z2")
    assert encoded_digest.digest(graphs, "resynth+z2") == got
    h = hashlib.sha256()
    for g in graphs:
        enc = compile_mode(g, ramp_params(10), "resynth+z2", 3, 200)
        h.update(write_encoded(enc).encode())
        h.update(repr(sorted(enc.meta.items())).encode())
    assert got == h.hexdigest()
    # criterion 4's 160 instances and six more of the compile workload
    assert len(encoded_digest.instances()) == 166


def test_verdict_digest_folds_each_summary_and_report():
    cases = [(GadgetKind.INIT_OLD, 4, None),
             (GadgetKind.FINAL_NEW, 4, (5, 0, 4, 1, 3, 2))]
    got = verdict_digest.digest(cases)
    assert verdict_digest.digest(cases) == got
    h = hashlib.sha256()
    for kind, k, order in cases:
        s = check_gadget_ft(build_gadget(kind, k, order))
        assert s.passed and not s.escapes
        h.update(repr((kind.value, k, order, s.total,
                       [(c.value, n) for c, n in s.counts.items()],
                       [])).encode())
    assert got == h.hexdigest()
    assert verdict_digest.digest(cases[::-1]) != got
    # a gadget with escapes folds each escape's report
    gadget = build_gadget(GadgetKind.INIT_OLD, 4)
    gadget.fragment.gates.pop(-4)       # the check's first coupling
    summary = check_gadget_ft(gadget)
    assert summary.escapes
    ctx = context_for_gadget(gadget)
    h = hashlib.sha256()
    for rep in fault_reports(gadget.fragment, ctx):
        loc = rep.location
        fault = loc.flip_bit if loc.pauli is None \
            else (loc.pauli.xmask, loc.pauli.zmask)
        h.update(repr((loc.gate_index, fault, rep.classification.value,
                       rep.terminal.xmask, rep.terminal.zmask,
                       sorted(rep.flipped_bits),
                       sorted(rep.flipped_rotations))).encode())
    assert verdict_digest.report_digest([(gadget.fragment, ctx)]) == \
        h.hexdigest()
    # every kind at each size it is defined at, in 1 + ORDERS orders
    cases = verdict_digest.gadget_cases()
    assert len(cases) == (6 * 4 - 1) * (1 + verdict_digest.ORDERS)
    assert len(set(cases)) == len(cases)


def test_record_digest_folds_each_record():
    g = generate_instance(GraphKind.REGULAR_3, 6, seed=0)
    enc = compile_mode(g, ramp_params(1), "resynth+z2", 1, 200)
    encoded = sample_shots(enc.circuit, NoiseModel(scale=4.0), 60, 3,
                           checks=enc.checks, decode=enc.decode)
    unencoded = sample_logical_shots(build_qaoa(g, ramp_params(1)),
                                     NoiseModel(scale=4.0), 60, 3)
    runs = [encoded, unencoded]
    got = record_digest.digest(runs)
    assert record_digest.digest(runs) == got
    h = hashlib.sha256()
    for records in runs:
        for r in records:
            h.update(repr((r.bits, r.check_values, r.accepted,
                           r.logical)).encode())
    assert got == h.hexdigest()
    assert record_digest.digest([encoded[::-1], unencoded]) != got
    # criterion 7's circuits: every mode at s=1 and 2, 1,000 shots each
    circuits = record_digest.criterion_7()
    assert len(circuits) == 2 * len(MODES)
    assert {len(c.decode) for c in circuits} == {record_digest.K}
    assert record_digest.SHOTS == 1000
    assert record_digest.NOISE == NoiseModel(scale=1.0)
    # the dense line: per circuit, no fault, then one Pauli after every
    # STRIDE-th gate before the trailing block that is not a barrier
    got = record_digest.dense_digest([enc])
    assert record_digest.dense_digest([enc]) == got
    gates = enc.circuit.gates
    injects = record_digest.faults(enc)
    assert injects[0] == ()
    sites = [gi for ((gi, pauli),) in injects[1:]]
    assert sites[0] == 0 and len(sites) > 3
    for a, b in zip(sites, sites[1:]):
        between = [g for g in gates[a:b] if g.kind is not GateKind.BARRIER]
        assert len(between) == record_digest.STRIDE
    assert sites[-1] < _trailing_start(gates)
    assert [(p.xmask | p.zmask).bit_count()
            for ((_, p),) in injects[1:]] == [1] * len(sites)
    h = hashlib.sha256()
    for inject in injects:
        acc, logical = exact_logical_distribution(
            enc.circuit, enc.checks, enc.decode, inject)
        h.update(repr((list(exact_bit_distribution(enc.circuit,
                                                   inject).items()),
                       acc, list(logical.items()))).encode())
    assert got == h.hexdigest()
    assert record_digest.dense_digest([enc, enc]) != got


def test_summarize_counts_wins_by_direction():
    specs = [{"name": "work_per_s", "better": "higher", "bound": 0.25},
             {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]
    pairs = [{"workload": "compile",
              "before": {"work_per_s": b, "op_p50_ms": 10.0},
              "after": {"work_per_s": a, "op_p50_ms": m}}
             for b, a, m in ((1.0, 2.0, 9.0), (1.2, 2.1, 10.0),
                             (1.1, 1.0, 11.0), (1.3, 2.2, 8.0))]
    out = bench_pairs.summarize(pairs, specs)["compile"]
    assert out["pairs"] == 4
    work = out["metrics"]["work_per_s"]
    assert work["after_wins"] == 3
    assert work["before_median"] == pytest.approx(1.15)
    assert work["after_median"] == pytest.approx(2.05)
    assert work["gap_exceeds_before_iqr"]
    assert work["after_vs_before"] == pytest.approx(2.05 / 1.15)
    assert work["verdict"] == "within_bound"   # 3 wins of 4 is no gain
    p50 = out["metrics"]["op_p50_ms"]
    assert (p50["after_wins"], p50["ties"]) == (2, 1)
    assert p50["before_iqr"] == 0.0
    assert p50["verdict"] == "within_bound"


BEFORE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


@pytest.mark.parametrize("better, after, bound, expected", [
    # 9 of 10 pairs won, median gap 2.0 against a before IQR of 0.25
    ("higher", [12.0] * 9 + [9.0], 0.25, "gain"),
    ("lower", [8.0] * 9 + [11.0], 0.25, "gain"),
    # 8 of 10 won: no gain, and 20% better is within a 25% bound
    ("higher", [12.0] * 8 + [9.0] * 2, 0.25, "within_bound"),
    # every pair won, but by less than the before IQR
    ("higher", [b + 0.01 for b in BEFORE], 0.25, "within_bound"),
    # the median worse by 30% against a 25% bound, in either direction
    ("higher", [7.0] * 10, 0.25, "worse"),
    ("lower", [13.0] * 10, 0.25, "worse"),
    # worse by 2%, inside the 25% bound
    ("higher", [9.8] * 10, 0.25, "within_bound"),
    ("lower", [10.2] * 10, 0.25, "within_bound"),
    # a before IQR of 0.25 (2.5%) is wider than a 1% bound, and the after
    # runs do not all beat the before runs
    ("higher", [9.95] * 10, 0.01, "unresolved"),
    ("lower", [10.0] * 10, 0.01, "unresolved"),
])
def test_verdict(better, after, bound, expected):
    assert bench_pairs.verdict(BEFORE, after, better, bound) == expected


def test_verdict_wide_spread_resolved_when_every_run_beats():
    # the before IQR (2.5) is wider than the bound; every after run reads
    # better than every before run, a gain only when the median gap
    # exceeds that IQR
    before = [1.0, 2.0, 3.0, 4.0]
    assert bench_pairs.verdict(before, [5.5, 5.6, 5.7, 5.8], "higher",
                               0.1) == "gain"
    assert bench_pairs.verdict(before, [4.1, 4.2, 4.3, 4.4], "higher",
                               0.1) == "within_bound"
    assert bench_pairs.verdict(before, [1.0, 2.0, 3.0, 4.0], "higher",
                               0.1) == "unresolved"


def test_main_records_invocation_and_benchmark_run_length(
        tmp_path, monkeypatch):
    for side in ("before", "after"):
        (tmp_path / side).mkdir()
    (tmp_path / "after" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "end_to_end": [{"name": "work_per_s", "better": "higher",
                        "bound": 0.25}]}))
    calls = []

    def fake_run(root, workload, seed, seconds, out):
        calls.append((root.name, seed, seconds))
        metrics = {"work_per_s": float(root.name == "after")}
        return f"run {root.name}", metrics, {}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.chdir(tmp_path)
    argv = ["--before", "before", "--after", "after", "--workload",
            "compile", "--seeds", "5", "6", "--runs-dir", "runs",
            "--out", "B.json"]
    assert bench_pairs.main(argv) == 0
    assert calls == [("before", 5, 7), ("after", 5, 7),
                     ("after", 6, 7), ("before", 6, 7)]
    doc = json.loads((tmp_path / "B.json").read_text())
    assert doc["tool_commands"] == [shlex.join(
        ["python3", sys.argv[0], *argv])]
    assert doc["summary"]["compile"]["metrics"]["work_per_s"][
        "after_wins"] == 2


def test_main_keeps_the_pairs_before_a_failed_run(tmp_path, monkeypatch):
    for side in ("before", "after"):
        (tmp_path / side).mkdir()
    (tmp_path / "after" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "end_to_end": [{"name": "work_per_s", "better": "higher",
                        "bound": 0.25}]}))
    calls = []

    def fake_run(root, workload, seed, seconds, out):
        calls.append(root.name)
        if len(calls) == 3:
            raise SystemExit("perfbench/run.py exited 1")
        return f"run {root.name}", {"work_per_s": 1.0}, {}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--before", "before", "--after", "after",
                          "--workload", "sample", "--seeds", "5", "6", "7",
                          "--runs-dir", "runs", "--out", "B.json"])
    doc = json.loads((tmp_path / "B.json").read_text())
    assert [p["seed"] for p in doc["pairs"]] == [5]
    assert doc["summary"]["sample"]["pairs"] == 1


def test_main_keeps_each_op_kind_from_the_run_files(tmp_path, monkeypatch):
    # a fake perfbench/run.py: each side's --out file holds its metrics and
    # an ops list whose rows start (kind, scaled ms, CPU ms); the after side
    # runs every op kind in half the time
    for side in ("before", "after"):
        (tmp_path / side).mkdir()
    (tmp_path / "after" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "end_to_end": [{"name": "work_per_s", "better": "higher",
                        "bound": 0.25}]}))

    def fake_subprocess_run(cmd, cwd, **kwargs):
        scale = 0.5 if Path(cwd).name == "after" else 1.0
        ops = [["gadget", scale * ms, scale * ms * 0.9, False, 0, 1]
               for ms in (1.0, 2.0, 4.0)]
        ops += [["fault/baseline", scale * 0.2, scale * 0.1, False, 1, 2]]
        Path(cmd[-1]).write_text(json.dumps({
            "metrics": {"work_per_s": {"value": 1 / scale, "unit": "1/s"}},
            "ops": ops}))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--before", "before", "--after", "after",
                             "--workload", "certify", "--seeds", "5", "6",
                             "--runs-dir", "runs", "--out", "B.json"]) == 0
    doc = json.loads((tmp_path / "B.json").read_text())
    assert doc["pairs"][0]["op_kinds"]["before"] == {
        "fault/baseline": {"count": 1, "median_ms": 0.2,
                           "median_cpu_ms": 0.1},
        "gadget": {"count": 3, "median_ms": 2.0,
                   "median_cpu_ms": pytest.approx(1.8)}}
    assert doc["pairs"][1]["op_kinds"]["after"]["gadget"] == {
        "count": 3, "median_ms": 1.0, "median_cpu_ms": pytest.approx(0.9)}
    kinds = doc["summary"]["certify"]["op_kinds"]
    assert list(kinds) == ["fault/baseline", "gadget"]
    assert kinds["gadget"] == {
        "before_median_ms": 2.0, "after_median_ms": 1.0,
        "median_ms_after_vs_before": 0.5,
        "before_median_cpu_ms": pytest.approx(1.8),
        "after_median_cpu_ms": pytest.approx(0.9),
        "median_cpu_ms_after_vs_before": pytest.approx(0.5)}
    assert "verdict" not in kinds["gadget"]
