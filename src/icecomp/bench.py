"""Benchmark sweeps: compilation depth, QAOA quality under noise, and
energy-distribution distances, all emitted as schema-stable CSV rows plus
tidy plot-data files.

Every run writes a manifest recording the full configuration and seeds, so
any CSV can be regenerated exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .compiler import (CompileConfig, EncodedCircuit, GadgetSet,
                       compile_baseline, compile_cooptimized)
from .maxcut import (GraphKind, ProblemGraph, QaoaParams, approximation_ratio,
                     brute_force_optimum, build_qaoa, cut_value,
                     generate_instance, ramp_params, success_probability)
from .simulator import (NoiseModel, ShotRecord, accepted_distribution,
                        energy_distribution, post_selection_rate,
                        postprocess_truncate, sample_logical_shots,
                        sample_shots, total_variation, unencoded_distribution)

REPORT_COLUMNS = [
    "bench", "family", "k", "p", "s", "density", "seed", "mode", "gadget_set",
    "twoq_gates", "depth_2q", "area", "h_source", "compile_s",
    "shots", "noise_scale", "psr", "psr_se", "ar", "ar_se", "succ", "succ_se",
    "ar_exact", "tv", "tv_se", "tv_trunc", "variant",
]

MODES = ("baseline", "coopt", "resynth", "resynth+z2")
BOOTSTRAP_ROUNDS = 60   # resamples behind tv_bootstrap_se


def default_outdir() -> str:
    return os.environ.get("ICECOMP_OUTDIR", ".")


@dataclass
class SweepSpec:
    family: GraphKind = GraphKind.REGULAR_3
    sizes: tuple[int, ...] = (14, 18, 22, 26, 30, 34)
    densities: tuple[float, ...] = ()
    seeds: tuple[int, ...] = tuple(range(10))
    p: int = 10
    syndromes: tuple[int, ...] = (3,)
    modes: tuple[str, ...] = ("baseline", "resynth", "resynth+z2")
    shots: int = 10_000
    noise: NoiseModel = field(default_factory=NoiseModel)
    noise_scales: tuple[float, ...] = (1.0,)
    queue_cap: int = 400

    def __post_init__(self):
        # a 3-regular instance has no density: sweeping one would compile
        # each graph once per density and label its rows with all of them
        if self.family is GraphKind.REGULAR_3 and self.densities:
            raise ValueError("a 3-regular sweep takes no densities")

    def angles(self) -> QaoaParams:
        return ramp_params(self.p)

    def instances(self) -> Iterable[tuple[int, float | None, int, ProblemGraph]]:
        densities: Sequence[float | None] = self.densities or (None,)
        for k in self.sizes:
            for d in densities:
                for seed in self.seeds:
                    yield k, d, seed, generate_instance(
                        self.family, k, density=d, seed=seed)


def mode_config(mode: str, s: int, queue_cap: int) -> CompileConfig:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; valid: {MODES}")
    if mode == "baseline":
        return CompileConfig(num_syndromes=s, gadget_set=GadgetSet.OLD)
    return CompileConfig(
        num_syndromes=s, gadget_set=GadgetSet.NEW,
        use_z2=(mode == "resynth+z2"),
        resynthesize=(mode in ("resynth", "resynth+z2")),
        queue_cap=queue_cap,
    )


def compile_mode(graph: ProblemGraph, params: QaoaParams, mode: str, s: int,
                 queue_cap: int) -> EncodedCircuit:
    cfg = mode_config(mode, s, queue_cap)
    if mode == "baseline":
        return compile_baseline(graph, params, cfg)
    return compile_cooptimized(graph, params, cfg)


def _row(**kw) -> dict:
    row = {c: "" for c in REPORT_COLUMNS}
    for key, value in kw.items():
        if key not in row:
            raise KeyError(f"unknown report column {key}")
        row[key] = value
    return row


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def run_depth_sweep(spec: SweepSpec) -> list[dict]:
    rows = []
    for k, d, seed, graph in spec.instances():
        for mode in spec.modes:
            for s in spec.syndromes:
                t0 = time.perf_counter()
                enc = compile_mode(graph, spec.angles(), mode, s, spec.queue_cap)
                dt = time.perf_counter() - t0
                rows.append(_row(
                    bench="depth", family=spec.family.value, k=k, p=spec.p,
                    s=s, density="" if d is None else d, seed=seed, mode=mode,
                    gadget_set=enc.config.gadget_set.value,
                    twoq_gates=enc.meta["twoq_gates"],
                    depth_2q=enc.meta["depth_2q"],
                    area=(k + 2) * enc.meta["depth_2q"],
                    h_source=enc.meta.get("h_source", ""),
                    compile_s=round(dt, 4),
                ))
    return rows


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def ar_with_se(records: Sequence[ShotRecord], graph: ProblemGraph,
               f_max: float) -> tuple[float, float]:
    cuts = [cut_value(graph, r.logical) for r in records if r.accepted]
    if not cuts:
        return float("nan"), float("nan")
    mean, se = _mean_se(cuts)
    return mean / f_max, se / f_max


def proportion_se(p: float, n: int) -> float:
    if n == 0:
        return float("nan")
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def tv_bootstrap_se(records_energies: Sequence[float],
                    ref: Mapping[float, float], seed: int = 0) -> float:
    if not records_energies:
        return float("nan")
    rng = np.random.default_rng(seed)
    arr = np.asarray(records_energies)
    tvs = []
    for _ in range(BOOTSTRAP_ROUNDS):
        sample = rng.choice(arr, size=len(arr), replace=True)
        dist: dict[float, float] = {}
        for e in sample:
            dist[float(e)] = dist.get(float(e), 0.0) + 1.0 / len(sample)
        tvs.append(total_variation(dist, ref))
    return float(np.std(tvs, ddof=1))


def run_qaoa_bench(spec: SweepSpec) -> list[dict]:
    rows = []
    for k, d, seed, graph in spec.instances():
        f_max = brute_force_optimum(graph)
        exact = unencoded_distribution(build_qaoa(graph, spec.angles()))
        ar_exact = approximation_ratio(exact, graph, f_max)
        for s in spec.syndromes:
            for mode in spec.modes:
                enc = compile_mode(graph, spec.angles(), mode, s, spec.queue_cap)
                recs = sample_shots(enc.circuit, spec.noise, spec.shots,
                                    seed=seed, checks=enc.checks,
                                    decode=enc.decode)
                psr = post_selection_rate(recs)
                n_acc = sum(1 for r in recs if r.accepted)
                ar, ar_se = ar_with_se(recs, graph, f_max)
                succ = success_probability(accepted_distribution(recs),
                                           graph, f_max)
                rows.append(_row(
                    bench="qaoa", family=spec.family.value, k=k, p=spec.p,
                    s=s, density="" if d is None else d, seed=seed, mode=mode,
                    gadget_set=enc.config.gadget_set.value,
                    twoq_gates=enc.meta["twoq_gates"],
                    depth_2q=enc.meta["depth_2q"],
                    area=(k + 2) * enc.meta["depth_2q"],
                    shots=spec.shots, noise_scale=spec.noise.scale,
                    psr=psr, psr_se=proportion_se(psr, spec.shots),
                    ar=ar, ar_se=ar_se,
                    succ=succ, succ_se=proportion_se(succ, n_acc),
                    ar_exact=ar_exact,
                ))
    return rows


def run_energy_bench(spec: SweepSpec) -> list[dict]:
    """Noise-scale sweep of TV(noisy, noiseless) energy distributions, with
    and without low-energy truncation, for encoded and unencoded runs."""
    rows = []
    for k, d, seed, graph in spec.instances():
        params = spec.angles()
        lc = build_qaoa(graph, params)
        exact_energy = energy_distribution(unencoded_distribution(lc), graph)
        cutoff = max(exact_energy)
        s = spec.syndromes[0]
        enc_mode = "resynth+z2" if "resynth+z2" in spec.modes else spec.modes[-1]
        enc = compile_mode(graph, params, enc_mode, s, spec.queue_cap)
        for scale in spec.noise_scales:
            noise = replace(spec.noise, scale=scale)
            for variant, sampler in (
                ("encoded", lambda: sample_shots(
                    enc.circuit, noise, spec.shots, seed=seed,
                    checks=enc.checks, decode=enc.decode)),
                ("unencoded", lambda: sample_logical_shots(
                    lc, noise, spec.shots, seed=seed)),
            ):
                recs = sampler()
                kept = [r.logical for r in recs if r.accepted]
                energies = [-cut_value(graph, x) for x in kept]
                dist = energy_distribution(recs, graph)
                tv = total_variation(dist, exact_energy)
                trunc = postprocess_truncate(dist, cutoff)
                tv_trunc = total_variation(trunc.dist, exact_energy)
                rows.append(_row(
                    bench="energy", family=spec.family.value, k=k, p=spec.p,
                    s=s, density="" if d is None else d, seed=seed,
                    mode=enc_mode if variant == "encoded" else "unencoded",
                    variant=variant, shots=spec.shots, noise_scale=scale,
                    psr=(len(kept) / len(recs)) if recs else "",
                    tv=tv, tv_se=tv_bootstrap_se(energies, exact_energy,
                                                 seed=seed),
                    tv_trunc=tv_trunc,
                ))
    return rows


# ---------------------------------------------------------------------------
# CSV and plot data
# ---------------------------------------------------------------------------

def write_rows(rows: Sequence[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow(row)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_manifest(path: str, command: str, config: Mapping) -> None:
    doc = {
        "tool": "icecomp",
        "version": __version__,
        "command": command,
        "config": config,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


FIGURES = {
    "depth-vs-k": ("depth", "k"),
    "depth-vs-density": ("depth", "density"),
    "ar-vs-p": ("qaoa", "p"),
    "ar-vs-syndromes": ("qaoa", "s"),
    "psr-vs-k": ("qaoa", "k"),
    "tv-vs-noise": ("energy", "noise_scale"),
}


def _x_order(x) -> tuple:
    """Sort key of an x value: numerically when it parses as a number."""
    try:
        return (0, float(x))
    except (TypeError, ValueError):
        return (1, str(x))


def emit_plotdata(rows: Sequence[Mapping], figure_id: str) -> str:
    """Tidy long-format plot data: one line per (x, mode) group with
    mean/min/max, ready for any plotting tool."""
    if figure_id not in FIGURES:
        raise ValueError(
            f"unknown figure id {figure_id!r}; valid: {sorted(FIGURES)}"
        )
    if not rows:
        raise ValueError("no rows to plot")
    bench, xcol = FIGURES[figure_id]
    metric = {"depth": "depth_2q", "qaoa": "ar", "energy": "tv"}[bench]
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if row.get("bench") != bench or row.get(metric) in ("", None):
            continue
        key = (row.get(xcol, ""), row.get("mode", ""), row.get("variant", ""))
        groups.setdefault(key, []).append(float(row[metric]))
    if not groups:
        raise ValueError(f"no rows for figure {figure_id!r}")
    out = io.StringIO()
    print(f"# figure {figure_id}: columns x mode variant n mean min max",
          file=out)
    for (x, mode, variant), vals in sorted(
            groups.items(),
            key=lambda kv: (_x_order(kv[0][0]), str(kv[0][1:]))):
        mean = sum(vals) / len(vals)
        print(f"{x} {mode or '-'} {variant or '-'} {len(vals)} "
              f"{mean:.6g} {min(vals):.6g} {max(vals):.6g}", file=out)
    return out.getvalue()
