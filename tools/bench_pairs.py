"""Run the benchmark on two checkouts in alternating pairs; write a BENCH file.

    python3 tools/bench_pairs.py --before PARENT_DIR --after CHANGE_DIR \\
        --labels parent change --workload compile --seeds 101 102 103 \\
        --runs-dir runs/ --out BENCH_x.json [--append]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0
--out FILE`` once in each checkout, with T the ``run_seconds`` of the after
checkout's ``BENCHMARK.json``, the before checkout first in even pairs
and the after checkout first in odd ones, so slow drift of the host does not
favour one side.  Each checkout imports its own ``src/``.  The BENCH file
keeps, per pair, the end-to-end metrics of both runs and the commands, and
per workload and metric the medians and their ratio, the before quartiles,
how many pairs the after side won (by the direction ``BENCHMARK.json``
gives) and a verdict against the metric's ``bound`` (see `verdict`).  Per
pair and side it also keeps each op kind's count and median scaled and CPU
ms from the run's ``ops`` list, and the summary gives per workload and op
kind the before and after medians of those and their ratio, with no
verdict, so that a change can be read op kind by op kind.  A
pair's commands are recorded as run from the root of the labelled checkout,
with the ``--out`` file named as kept under ``--runs-dir``.
``tool_commands`` keeps each invocation of this tool word for word, so give
it paths relative to where it runs.  ``--append`` adds pairs to an existing
BENCH file.  The file is rewritten, with its summary, after every pair, so
a run that stops early keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path


def _run(root: Path, workload: str, seed: int, seconds: float,
         out: Path) -> tuple[str, dict, dict]:
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--out"]
    proc = subprocess.run([sys.executable, *args, str(out.resolve())],
                          cwd=root, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(args)} in {root} exited "
                         f"{proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return (" ".join(["python3", *args, out.name]), metrics,
            op_kinds(result["ops"]))


def op_kinds(ops: list) -> dict:
    """Per op kind of a run's ``ops`` list, whose rows start (kind, scaled
    ms, CPU ms): the count and the median scaled and CPU ms."""
    by_kind: dict = {}
    for kind, ms, cpu_ms, *_ in ops:
        by_kind.setdefault(kind, []).append((ms, cpu_ms))
    return {kind: {"count": len(times),
                   "median_ms": statistics.median(t[0] for t in times),
                   "median_cpu_ms": statistics.median(t[1] for t in times)}
            for kind, times in sorted(by_kind.items())}


def _iqr(xs: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q3 - q1


def _wins(before: list[float], after: list[float], sign: int) -> int:
    return sum(sign * (a - b) > 0 for a, b in zip(after, before))


def verdict(before: list[float], after: list[float], better: str,
            bound: float) -> str:
    """One metric's verdict over paired runs, `bound` a fraction of the
    before median:

    * ``gain``: the after side wins at least 9 of 10 pairs (ties count for
      neither) and its median is better by more than the before IQR;
    * ``worse``: the after median is worse by more than the bound;
    * ``unresolved``: the before IQR is wider than the bound, and not every
      after run is better than every before run;
    * ``within_bound``: anything else.
    """
    sign = 1 if better == "higher" else -1
    med_b, med_a = statistics.median(before), statistics.median(after)
    gap = sign * (med_a - med_b)   # > 0: the after median is better
    if 10 * _wins(before, after, sign) >= 9 * len(before) and \
            gap > _iqr(before):
        return "gain"
    if gap < -bound * abs(med_b):
        return "worse"
    all_better = min(sign * a for a in after) > max(sign * b for b in before)
    if _iqr(before) > bound * abs(med_b) and not all_better:
        return "unresolved"
    return "within_bound"


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: medians and their ratio, before quartiles,
    after wins and the verdict against the metric's bound."""
    out: dict = {}
    for workload in sorted({p["workload"] for p in pairs}):
        rows = [p for p in pairs if p["workload"] == workload]
        per_metric = {}
        for spec in end_to_end:
            name = spec["name"]
            before = [p["before"][name] for p in rows]
            after = [p["after"][name] for p in rows]
            sign = 1 if spec["better"] == "higher" else -1
            med_b, med_a = statistics.median(before), statistics.median(after)
            per_metric[name] = {
                "before_median": med_b,
                "after_median": med_a,
                "after_vs_before": med_a / med_b if med_b else None,
                "before_iqr": _iqr(before),
                "after_wins": _wins(before, after, sign),
                "ties": sum(a == b for a, b in zip(after, before)),
                "gap_exceeds_before_iqr": abs(med_a - med_b) > _iqr(before),
                "verdict": verdict(before, after, spec["better"],
                                   spec["bound"]),
            }
        out[workload] = {"pairs": len(rows), "metrics": per_metric,
                         "op_kinds": _summarize_op_kinds(rows)}
    return out


def _summarize_op_kinds(rows: list[dict]) -> dict:
    """Per op kind: the medians over pairs of each side's median scaled and
    CPU ms, and their after/before ratios; no verdict.  Pairs written
    before op kinds were kept count for neither side."""
    runs = {side: [p["op_kinds"][side] for p in rows if "op_kinds" in p]
            for side in ("before", "after")}
    out: dict = {}
    for kind in sorted({k for side in runs.values() for run in side
                        for k in run}):
        entry: dict = {}
        for field in ("median_ms", "median_cpu_ms"):
            for side, side_runs in runs.items():
                xs = [run[kind][field] for run in side_runs if kind in run]
                entry[f"{side}_{field}"] = statistics.median(xs) if xs \
                    else None
            b, a = entry[f"before_{field}"], entry[f"after_{field}"]
            entry[f"{field}_after_vs_before"] = a / b if a and b else None
        out[kind] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True, type=Path)
    ap.add_argument("--after", required=True, type=Path)
    ap.add_argument("--labels", nargs=2, default=["before", "after"],
                    help="names of the two checkouts in the BENCH file")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--runs-dir", required=True, type=Path,
                    help="where each run's --out file is kept")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args(argv)

    with open(args.after / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    doc = {"checkouts": dict(zip(("before", "after"), args.labels)),
           "pairs": []}
    if args.append and args.out.exists():
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("tool_commands", []).append(shlex.join(
        ["python3", sys.argv[0], *(sys.argv[1:] if argv is None else argv)]))
    args.runs_dir.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        i = len(doc["pairs"])
        sides = ("before", "after") if i % 2 == 0 else ("after", "before")
        pair = {"workload": args.workload, "seed": seed,
                "order": list(sides), "commands": {}}
        for side in sides:
            root = getattr(args, side)
            out = args.runs_dir / f"{args.workload}-{seed}-{side}.json"
            cmd, metrics, kinds = _run(root, args.workload, seed,
                                       bench["run_seconds"], out)
            pair["commands"][side] = cmd
            pair[side] = metrics
            pair.setdefault("op_kinds", {})[side] = kinds
        doc["pairs"].append(pair)
        # written after every pair, so a run that fails keeps those before
        doc["summary"] = summarize(doc["pairs"], bench["end_to_end"])
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(json.dumps({k: pair[k] for k in ("workload", "seed", "order")}),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
