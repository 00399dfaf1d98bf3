"""Benchmark entry point.

    python3 perfbench/run.py --workload compile --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the program is imported from ``src/``.  One
workload prints its metrics by name and unit, a manifest line, and last the
result object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  ``--workload all`` runs every workload, each in its own
process, and prints all their metrics.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("compile", "sample", "certify")


def _pin_threads() -> None:
    # every workload is single-threaded; numpy reads these at import
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result, with every "
                    "operation's latency, as JSON here")
    return ap.parse_args(argv)


def _print_metrics(label: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{label:8s} {name:32s} {m['value']:14.6g} {m['unit']}")


def run_one(args) -> int:
    if not (ROOT / "src" / "icecomp" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.thread_time()
    from perfbench import harness
    import_s = time.thread_time() - t0

    res = harness.run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), import_s=import_s, root=ROOT)
    line = res.line()
    for problem in res.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    _print_metrics(args.workload, line["metrics"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({**line, "manifest": res.manifest,
                       "problems": res.problems, "ops": res.ops,
                       "host_samples_ms": res.host_samples_ms}, fh)
            fh.write("\n")
    print("manifest " + json.dumps(res.manifest, sort_keys=True))
    print(json.dumps(line))
    return 0 if res.correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            status = status or proc.returncode or 1
            if not lines:
                continue
        results[name] = json.loads(lines[-1])
        _print_metrics(name, results[name]["metrics"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
