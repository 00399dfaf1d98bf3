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
per workload and metric the medians, the before quartiles and how many pairs
the after side won (by the direction ``BENCHMARK.json`` gives).  A pair's
commands are recorded as run from the root of the labelled checkout, with
the ``--out`` file named as kept under ``--runs-dir``.  ``tool_commands``
keeps each invocation of this tool word for word, so give it paths relative
to where it runs.  ``--append`` adds pairs to an existing BENCH file.
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
         out: Path) -> tuple[str, dict]:
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
    return " ".join(["python3", *args, out.name]), metrics


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: medians, before quartiles, after wins."""
    out: dict = {}
    for workload in sorted({p["workload"] for p in pairs}):
        rows = [p for p in pairs if p["workload"] == workload]
        per_metric = {}
        for spec in end_to_end:
            name = spec["name"]
            before = [p["before"][name] for p in rows]
            after = [p["after"][name] for p in rows]
            sign = 1 if spec["better"] == "higher" else -1
            q1, _, q3 = (statistics.quantiles(before, n=4)
                         if len(before) > 1 else (before[0],) * 3)
            per_metric[name] = {
                "before_median": statistics.median(before),
                "after_median": statistics.median(after),
                "before_iqr": q3 - q1,
                "after_wins": sum(sign * (a - b) > 0
                                  for a, b in zip(after, before)),
                "ties": sum(a == b for a, b in zip(after, before)),
                "gap_exceeds_before_iqr":
                    abs(statistics.median(after) - statistics.median(before))
                    > q3 - q1,
            }
        out[workload] = {"pairs": len(rows), "metrics": per_metric}
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
            cmd, metrics = _run(root, args.workload, seed,
                                bench["run_seconds"], out)
            pair["commands"][side] = cmd
            pair[side] = metrics
        doc["pairs"].append(pair)
        print(json.dumps({k: pair[k] for k in ("workload", "seed", "order")}),
              flush=True)
    doc["summary"] = summarize(doc["pairs"], bench["end_to_end"])
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
