"""Command-line front end.

Subcommands: gen, compile, verify-ft, simulate, bench-depth, bench-qaoa,
bench-energy, report.  Output directory defaults to $ICECOMP_OUTDIR (falling
back to the working directory) and is made only once a command's inputs
check out and it opens its outputs; every bench run writes a manifest next
to its CSV.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import sys
import time

from .bench import (FIGURES, SweepSpec, default_outdir, emit_plotdata,
                    mode_config, read_rows, run_depth_sweep,
                    run_energy_bench, run_qaoa_bench, write_manifest,
                    write_rows)
from .compiler import (CompileConfig, GadgetSet, compile_baseline,
                       compile_cooptimized, read_encoded, write_encoded)
from .faults import check_gadget_ft, context_for_gadget, fault_reports
from .gadgets import GadgetKind, IcebergLayout, build_gadget
from .maxcut import (GraphKind, cut_value, generate_instance, ramp_params,
                     read_graph, read_params, write_graph, write_params)
from .simulator import (DEFAULT_QUBIT_CAP, NoiseModel, SimulatorError,
                        post_selection_rate, read_noise, sample_shots,
                        write_noise)


def _int_at_least(lo: int):
    """An argparse type: an int no smaller than `lo`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}, got {value}")
        return value
    parse.__name__ = "int"     # argparse names the type on a bad literal
    return parse


def _fail(command: str, exc: Exception | str) -> int:
    print(f"icecomp {command}: error: {exc}", file=sys.stderr)
    return 2


def _read(path: str, parse):
    """`parse` of the text of the file at `path`.  A file that cannot be read
    or parsed raises ValueError; a parse error is prefixed with the path."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:      # its message names the path
        raise ValueError(exc) from None
    except ValueError as exc:   # not text, or the parser's format error
        raise ValueError(f"{path}: {exc}") from None


def _open_outputs(args, *paths: str | None) -> None:
    """Open every output path (None skipped) for appending, before any
    output is written, so that a path that cannot be written fails first.
    `--out-dir` is created here, when there is an output to open.  Raise
    ValueError naming the path, after removing the files and the directory
    this call made; the writes that follow truncate each file."""
    paths = [path for path in paths if path]
    made_dir = bool(paths) and not os.path.isdir(args.out_dir)
    made = []
    try:
        if made_dir:
            os.makedirs(args.out_dir)
        for path in paths:
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                made.append(path)
    except OSError as exc:      # its message names the path
        for path in made:
            os.remove(path)
        if made_dir and os.path.isdir(args.out_dir):
            os.rmdir(args.out_dir)
        raise ValueError(exc) from None


def _out(args, name):
    path = getattr(args, name, None)
    if path is None:
        return None
    if os.path.dirname(path):
        return path
    return os.path.join(args.out_dir, path)


def cmd_gen(args) -> int:
    kind = GraphKind.REGULAR_3 if args.kind == "regular3" else GraphKind.ERDOS_RENYI
    try:
        g = generate_instance(kind, args.k, density=args.density,
                              seed=args.seed)
        _open_outputs(args, _out(args, "out"), _out(args, "params_out"))
    except ValueError as exc:   # a size or density the family rejects, or
        return _fail("gen", exc)    # an output path that cannot be written
    with open(_out(args, "out"), "w") as fh:
        fh.write(write_graph(g))
    if args.params_out:
        with open(_out(args, "params_out"), "w") as fh:
            fh.write(write_params(ramp_params(args.p)))
    print(f"graph: {g.num_vertices} vertices, {g.num_edges} edges -> {args.out}")
    return 0


def cmd_compile(args) -> int:
    cfg = CompileConfig(
        num_syndromes=args.syndromes,
        gadget_set=GadgetSet(args.gadgets),
        use_z2=args.z2,
        resynthesize=args.resynth,
        queue_cap=args.queue_cap,
    )
    try:    # a bad input file, or a k or flag this compile cannot take
        graph = _read(args.graph, read_graph)
        params = _read(args.params, read_params) if args.params \
            else ramp_params(args.p)
        cfg.check(graph)
        _open_outputs(args, _out(args, "out"), _out(args, "report"))
    except ValueError as exc:
        return _fail("compile", exc)
    t0 = time.perf_counter()
    if args.mode == "baseline":
        enc = compile_baseline(graph, params, cfg)
    else:
        enc = compile_cooptimized(graph, params, cfg)
    wall = time.perf_counter() - t0
    with open(_out(args, "out"), "w") as fh:
        fh.write(write_encoded(enc))
    k = graph.num_vertices
    print(f"mode={args.mode} 2Q gates={enc.meta['twoq_gates']} "
          f"2Q depth={enc.meta['depth_2q']} "
          f"area={(k + 2) * enc.meta['depth_2q']} wall={wall:.2f}s")
    if args.report:
        path = _out(args, "report")
        new = os.path.getsize(path) == 0
        with open(path, "a", newline="") as fh:
            w = csv.writer(fh)
            if new:
                w.writerow(["instance", "k", "p", "s", "mode", "twoq_gates",
                            "depth_2q", "area", "wall_s"])
            w.writerow([os.path.basename(args.graph), k, params.p,
                        args.syndromes, args.mode, enc.meta["twoq_gates"],
                        enc.meta["depth_2q"], (k + 2) * enc.meta["depth_2q"],
                        round(wall, 3)])
    return 0


def cmd_verify_ft(args) -> int:
    kind = GadgetKind(args.gadget)
    rng = random.Random(args.seed)
    n = args.k + 2
    orders = [None]
    for _ in range(args.perms):
        orders.append(tuple(rng.sample(range(n), n)))
    try:
        gadgets = [(order, build_gadget(kind, args.k, order))
                   for order in orders]
        _open_outputs(args, _out(args, "csv"))
    except ValueError as exc:   # a k this gadget kind cannot take
        return _fail("verify-ft", exc)  # (GadgetError), or an unwritable CSV
    rows = []
    failures = 0
    for order, gadget in gadgets:
        summary = check_gadget_ft(gadget)
        tag = "PASS" if summary.passed else "FAIL"
        if not summary.passed:
            failures += 1
        label = "default" if order is None else ",".join(map(str, order))
        print(f"{kind.value} k={args.k} order={label}: {tag} "
              f"({summary.total} faults, {summary.num_logical} logical escapes)")
        if args.csv:
            for rep in fault_reports(gadget.fragment,
                                     context_for_gadget(gadget)):
                loc = rep.location
                rows.append([label, loc.gate_index,
                             loc.describe(gadget.fragment),
                             rep.classification.value])
    if args.csv:
        with open(_out(args, "csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["order", "gate_index", "fault", "classification"])
            w.writerows(rows)
    return 1 if failures else 0


def cmd_simulate(args) -> int:
    try:
        circuit, checks, decode = _read(args.circuit, read_encoded)
        noise = _read(args.noise, read_noise) if args.noise else NoiseModel()
        graph = _read(args.graph, read_graph) if args.graph else None
        if graph is not None and graph.num_vertices != len(decode):
            raise ValueError(
                f"{args.graph} has {graph.num_vertices} vertices, but "
                f"{args.circuit} has {len(decode)} 'logical' lines")
        # a zero-shot call checks the circuit, the cap and the check and
        # decode clbits, so an unwritable output fails before any shot
        sample_shots(circuit, noise, 0, args.seed, checks=checks,
                     decode=decode or None)
        _open_outputs(args, _out(args, "out"))
    except (ValueError, SimulatorError) as exc:   # bad file, or over the cap
        return _fail("simulate", exc)
    records = sample_shots(circuit, noise, args.shots, args.seed,
                           checks=checks, decode=decode or None)
    with open(_out(args, "out"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["shot", "accepted", "decoded", "energy"])
        for i, rec in enumerate(records):
            energy = ""
            if rec.accepted and graph is not None and rec.logical is not None:
                energy = -cut_value(graph, rec.logical)
            w.writerow([i, int(rec.accepted),
                        "" if rec.logical is None else rec.logical, energy])
    print(f"shots={args.shots} post-selection rate="
          f"{post_selection_rate(records):.4f} -> {args.out}")
    return 0


def _spec_from_args(args) -> SweepSpec:
    kind = GraphKind.REGULAR_3 if args.family == "regular3" \
        else GraphKind.ERDOS_RENYI
    noise = _read(args.noise, read_noise) if getattr(args, "noise", None) \
        else NoiseModel()
    return SweepSpec(
        family=kind,
        sizes=tuple(args.sizes),
        densities=tuple(args.densities or ()),
        seeds=tuple(range(args.num_seeds)),
        p=args.p,
        syndromes=tuple(args.syndromes),
        modes=tuple(args.modes),
        shots=getattr(args, "shots", 10_000),
        noise=noise,
        queue_cap=args.queue_cap,
    )


def _run_bench(args, runner, name) -> int:
    try:
        # reject every instance the family cannot generate, every compile
        # the compiler would reject, every circuit too wide to simulate and
        # every noise scale, before the first compile
        spec = _spec_from_args(args)
        for k, _, _, graph in spec.instances():
            for mode in spec.modes:
                for s in spec.syndromes:
                    try:
                        mode_config(mode, s, spec.queue_cap).check(graph)
                    except ValueError as exc:
                        raise ValueError(f"k={k}, {mode}, s={s}: {exc}") \
                            from None
        if name != "depth":
            for k in spec.sizes:
                n = IcebergLayout(k).num_qubits
                if n > DEFAULT_QUBIT_CAP:
                    raise ValueError(
                        f"k={k}: {n} qubits exceeds the dense-simulation "
                        f"cap {DEFAULT_QUBIT_CAP}")
        if name == "energy":
            for scale in args.scales:
                NoiseModel(scale=scale)
            spec.noise_scales = tuple(args.scales)
        out = _out(args, "out")
        _open_outputs(args, out, out + ".manifest.json")
    except ValueError as exc:
        return _fail(args.command, exc)
    rows = runner(spec)
    write_rows(rows, out)
    write_manifest(out + ".manifest.json", name, {
        "family": spec.family.value, "sizes": spec.sizes,
        "densities": spec.densities, "seeds": spec.seeds, "p": spec.p,
        "syndromes": spec.syndromes, "modes": spec.modes,
        "shots": spec.shots, "noise": write_noise(spec.noise),
        "noise_scales": spec.noise_scales, "queue_cap": spec.queue_cap,
    })
    print(f"{len(rows)} rows -> {out}")
    return 0


def cmd_report(args) -> int:
    try:
        text = emit_plotdata(read_rows(args.csv), args.figure)
    except (OSError, csv.Error) as exc:     # an unreadable CSV
        return _fail("report", exc)
    except ValueError as exc:               # no rows for the figure
        return _fail("report", f"{args.csv}: {exc}")
    out = _out(args, "out")
    try:
        _open_outputs(args, out)
    except ValueError as exc:
        return _fail("report", exc)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"plot data -> {out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="icecomp",
        description="Iceberg-code QAOA co-compiler, verifier, and benchmarks",
    )
    ap.add_argument("--out-dir", default=default_outdir(),
                    help="output directory (default: $ICECOMP_OUTDIR or .)")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a MaxCut instance")
    g.add_argument("--kind", choices=("regular3", "er"), default="regular3")
    g.add_argument("--k", type=_int_at_least(2), required=True)
    g.add_argument("--density", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--p", type=_int_at_least(0), default=3)
    g.add_argument("--out", required=True)
    g.add_argument("--params-out")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("compile", help="compile an encoded circuit")
    c.add_argument("--graph", required=True)
    c.add_argument("--params")
    c.add_argument("--p", type=_int_at_least(0), default=3)
    c.add_argument("--syndromes", type=_int_at_least(0), default=3)
    c.add_argument("--gadgets", choices=("old", "new"), default="new")
    c.add_argument("--mode", choices=("baseline", "coopt"), default="coopt")
    c.add_argument("--z2", action="store_true")
    c.add_argument("--resynth", action="store_true")
    c.add_argument("--queue-cap", type=_int_at_least(0), default=2000)
    c.add_argument("--out", required=True)
    c.add_argument("--report")
    c.set_defaults(func=cmd_compile)

    v = sub.add_parser("verify-ft", help="exhaustive single-fault check")
    v.add_argument("--gadget", required=True,
                   choices=[k.value for k in GadgetKind])
    v.add_argument("--k", type=_int_at_least(2), default=6)
    v.add_argument("--perms", type=_int_at_least(0), default=0,
                   help="additional random implicit orders to verify")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--csv")
    v.set_defaults(func=cmd_verify_ft)

    s = sub.add_parser("simulate", help="noisy trajectory sampling")
    s.add_argument("--circuit", required=True)
    s.add_argument("--noise")
    s.add_argument("--graph")
    s.add_argument("--shots", type=_int_at_least(1), default=1000)
    s.add_argument("--seed", type=_int_at_least(0), default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    def bench_common(b, qaoa=False):
        b.add_argument("--family", choices=("regular3", "er"),
                       default="regular3")
        b.add_argument("--sizes", type=_int_at_least(2), nargs="+",
                       required=True)
        b.add_argument("--densities", type=float, nargs="*")
        b.add_argument("--num-seeds", type=_int_at_least(1), default=10)
        b.add_argument("--p", type=_int_at_least(0), default=10)
        b.add_argument("--syndromes", type=_int_at_least(0), nargs="+",
                       default=[3])
        b.add_argument("--modes", nargs="+",
                       default=["baseline", "resynth", "resynth+z2"])
        b.add_argument("--queue-cap", type=_int_at_least(0), default=400)
        b.add_argument("--out", required=True)
        if qaoa:
            b.add_argument("--shots", type=_int_at_least(1), default=10_000)
            b.add_argument("--noise")

    bd = sub.add_parser("bench-depth", help="compile-only depth sweep")
    bench_common(bd)
    bd.set_defaults(func=lambda a: _run_bench(a, run_depth_sweep, "depth"))

    bq = sub.add_parser("bench-qaoa", help="noisy QAOA quality sweep")
    bench_common(bq, qaoa=True)
    bq.set_defaults(func=lambda a: _run_bench(a, run_qaoa_bench, "qaoa"))

    be = sub.add_parser("bench-energy", help="energy-distribution TV sweep")
    bench_common(be, qaoa=True)
    be.add_argument("--scales", type=float, nargs="+",
                    default=[0.0, 0.25, 0.5, 1.0])
    be.set_defaults(func=lambda a: _run_bench(a, run_energy_bench, "energy"))

    r = sub.add_parser("report", help="emit tidy plot data from a bench CSV")
    r.add_argument("--csv", required=True)
    r.add_argument("--figure", required=True, choices=sorted(FIGURES))
    r.add_argument("--out")
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "compile" and args.mode == "baseline" \
            and (args.z2 or args.resynth):
        ap.error("compile --mode baseline takes neither --z2 nor --resynth")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
