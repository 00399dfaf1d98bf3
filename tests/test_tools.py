import importlib.util
import json
import shlex
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_counts_wins_by_direction():
    specs = [{"name": "work_per_s", "better": "higher"},
             {"name": "op_p50_ms", "better": "lower"}]
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
    p50 = out["metrics"]["op_p50_ms"]
    assert (p50["after_wins"], p50["ties"]) == (2, 1)
    assert p50["before_iqr"] == 0.0


def test_main_records_invocation_and_benchmark_run_length(
        tmp_path, monkeypatch):
    for side in ("before", "after"):
        (tmp_path / side).mkdir()
    (tmp_path / "after" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "end_to_end": [{"name": "work_per_s", "better": "higher"}]}))
    calls = []

    def fake_run(root, workload, seed, seconds, out):
        calls.append((root.name, seed, seconds))
        return f"run {root.name}", {"work_per_s": float(root.name == "after")}

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
