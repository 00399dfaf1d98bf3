"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import statistics

import pytest

from icecomp.bench import ar_with_se
from icecomp.circuit import GateKind, two_qubit_depth
from icecomp.compiler import (CompileConfig, GadgetSet, SearchNode,
                              _build_task, compile_baseline,
                              compile_cooptimized, heuristic_cost,
                              source_node)
from icecomp.faults import (FaultClass, check_gadget_ft,
                            classify_rotation_faults, context_for_gadget,
                            enumerate_fault_locations, run_fault)
from icecomp.gadgets import (GadgetKind, IcebergLayout, build_gadget,
                             gadget_cost_table)
from icecomp.maxcut import (GraphKind, QaoaParams, brute_force_optimum,
                            build_qaoa, cut_value, generate_instance,
                            ramp_params)
from icecomp.simulator import (NoiseModel, accepted_distribution,
                               energy_distribution,
                               exact_logical_distribution,
                               post_selection_rate, postprocess_truncate,
                               sample_logical_shots, sample_shots,
                               total_variation, unencoded_distribution)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{name}]: {status}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)


# -------------------------------------------------------------------------
# 1. Gadget cost formulas, exact
# -------------------------------------------------------------------------

def test_criterion_1_gadget_formulas():
    bad = []
    for k in (2, 4, 6, 10, 22):
        table = gadget_cost_table(k)
        for kind in GadgetKind:
            if kind is GadgetKind.SYNDROME_NEW and (k + 2) % 4 != 0:
                continue
            g = build_gadget(kind, k)
            got = (two_qubit_depth(g.fragment), g.two_qubit_gate_count())
            if got != table[kind]:
                bad.append((k, kind.value, got, table[kind]))
    report(1, "gadget formula exactness", not bad, f"mismatches: {bad}")
    assert not bad


# -------------------------------------------------------------------------
# 2. Physical gate-count identities
# -------------------------------------------------------------------------

def test_criterion_2_gate_count_identities():
    params = ramp_params(10)
    results = {}
    for k, want_alg, want_total in ((22, 330, 744), (34, 510, 1140)):
        g = generate_instance(GraphKind.REGULAR_3, k, seed=0)
        enc = compile_baseline(g, params, CompileConfig(
            num_syndromes=3, gadget_set=GadgetSet.NEW))
        alg = sum(1 for x in enc.circuit.gates if x.kind is GateKind.RZZ)
        results[k] = (alg, enc.meta["twoq_gates"], want_alg, want_total)
    ok = all(a == wa and t == wt for a, t, wa, wt in results.values())
    report(2, "gate-count identities", ok,
           "; ".join(f"k={k}: {a} alg / {t} total (want {wa}/{wt})"
                     for k, (a, t, wa, wt) in results.items()))
    assert ok


# -------------------------------------------------------------------------
# 3. Fault-tolerance certification
# -------------------------------------------------------------------------

def test_criterion_3_fault_tolerance():
    rng = random.Random(20250809)
    failures = []
    checked = 0
    for kind in (GadgetKind.INIT_NEW, GadgetKind.SYNDROME_NEW,
                 GadgetKind.FINAL_NEW):
        k = 6 if kind is GadgetKind.SYNDROME_NEW else 4
        n = k + 2
        orders = [None] + [tuple(rng.sample(range(n), n)) for _ in range(20)]
        for order in orders:
            summary = check_gadget_ft(build_gadget(kind, k, order))
            checked += summary.total
            if not summary.passed:
                failures.append((kind.value, order, summary.num_logical))
    rotation_ok = True
    for use_bottom in (False, True):
        lay = IcebergLayout(6)
        for i in lay.logical:
            part = classify_rotation_faults(lay, i, use_bottom=use_bottom)
            escaping = {lbl for lbl, esc in part.items() if esc}
            if escaping != {"XX", "YY", "ZZ"}:
                rotation_ok = False
                failures.append(("rotation", i, escaping))
    ok = not failures and rotation_ok
    report(3, "fault-tolerance certification", ok,
           f"{checked} single faults over 63 gadget instances; "
           f"failures: {failures}")
    assert ok


# -------------------------------------------------------------------------
# 4. Depth reductions at full desk scale
# -------------------------------------------------------------------------

QUEUE_CAP = 200


def _compile_modes(graph, params, s=3):
    base = compile_baseline(graph, params, CompileConfig(
        num_syndromes=s, gadget_set=GadgetSet.OLD))
    z2 = compile_cooptimized(graph, params, CompileConfig(
        num_syndromes=s, gadget_set=GadgetSet.NEW, use_z2=True,
        resynthesize=True, queue_cap=QUEUE_CAP))
    rs = compile_cooptimized(graph, params, CompileConfig(
        num_syndromes=s, gadget_set=GadgetSet.NEW, use_z2=False,
        resynthesize=True, queue_cap=QUEUE_CAP))
    return base, rs, z2


def test_criterion_4_depth_reduction():
    params = ramp_params(10)
    seeds = range(10)
    sizes = (14, 18, 22, 26, 30, 34)

    red_z2, red_rs = [], []
    for k in sizes:
        for seed in seeds:
            g = generate_instance(GraphKind.REGULAR_3, k, seed=seed)
            base, rs, z2 = _compile_modes(g, params)
            d0 = base.meta["depth_2q"]
            red_z2.append(1 - z2.meta["depth_2q"] / d0)
            red_rs.append(1 - rs.meta["depth_2q"] / d0)
    mean_z2 = statistics.mean(red_z2)
    mean_rs = statistics.mean(red_rs)

    red_er = []
    for k in sizes:
        for seed in seeds:
            g = generate_instance(GraphKind.ERDOS_RENYI, k, density=0.2,
                                  seed=seed)
            base, _, z2 = _compile_modes(g, params)
            red_er.append(1 - z2.meta["depth_2q"] / base.meta["depth_2q"])
    mean_er = statistics.mean(red_er)

    density_means = []
    for d in (0.1, 0.2, 0.4, 0.6, 0.8):
        reds = []
        for seed in seeds:
            g = generate_instance(GraphKind.ERDOS_RENYI, 22, density=d,
                                  seed=seed)
            base, _, z2 = _compile_modes(g, params)
            reds.append(1 - z2.meta["depth_2q"] / base.meta["depth_2q"])
        density_means.append(statistics.mean(reds))
    monotone = all(a >= b - 1e-9 for a, b in
                   zip(density_means, density_means[1:]))

    ok = mean_z2 >= 0.45 and mean_rs >= 0.25 and mean_er >= 0.35 and monotone
    report(4, "depth reduction", ok,
           f"3-regular: z2 {mean_z2:.1%} (>=45%), resynth {mean_rs:.1%} "
           f"(>=25%); ER d=0.2 z2 {mean_er:.1%} (>=35%); density sweep "
           + " -> ".join(f"{m:.1%}" for m in density_means))
    assert mean_z2 >= 0.45
    assert mean_rs >= 0.25
    assert mean_er >= 0.35
    assert monotone


# -------------------------------------------------------------------------
# 5. Baseline depth plateau
# -------------------------------------------------------------------------

def test_criterion_5_baseline_plateau():
    params = ramp_params(10)
    lo, hi = 340 * 0.9, 340 * 1.1
    outliers = []
    values = {}
    for d in (0.1, 0.2, 0.4, 0.6, 0.8):
        depths = []
        for seed in range(3):
            g = generate_instance(GraphKind.ERDOS_RENYI, 22, density=d,
                                  seed=seed)
            enc = compile_baseline(g, params, CompileConfig(
                num_syndromes=3, gadget_set=GadgetSet.NEW))
            depths.append(enc.meta["depth_2q"])
        values[d] = depths
        for v in depths:
            if not lo <= v <= hi:
                outliers.append((d, v))
    ok = not outliers
    report(5, "baseline depth plateau", ok,
           f"band [{lo:.0f}, {hi:.0f}]; depths {values}; outliers {outliers}")
    assert ok, (
        "Plateau exceeded at high density. The baseline fences its gadgets "
        "(111 2Q layers) with full-width barriers and splits the QAOA gates "
        "into s+1 chunks by gate count. Under any commutation rule a chunk "
        "needs at least as many layers as it has gates on one qubit: the "
        "66-gate mixer chain on the top qubit of an MI-PH-MI-PH-MI chunk, "
        "or 3*deg_max+2 gates on the max-degree data qubit of a "
        "PH-MI-PH-MI-PH chunk. At d=0.8 these bounds sum to 361-373, "
        "within 1-13 layers of the band's top, and the chunk scheduler "
        "lands 82-88 layers above them. Letting same-anchor mixer gates "
        "reorder changes one of the 15 depths, by 2 layers, so the "
        "per-qubit component order is not the cause. PAPER.md does not say "
        "which baseline (fences, split points, gadget set) the ~340 "
        "plateau describes."
    )


# -------------------------------------------------------------------------
# 6. Logical-equivalence oracle
# -------------------------------------------------------------------------

def test_criterion_6_logical_equivalence():
    rng = random.Random(77)
    worst_tv = 0.0
    worst_acc = 0.0
    cases = 0
    for k in (4, 6):
        g = generate_instance(GraphKind.REGULAR_3, k, seed=2)
        for p in (1, 2):
            params = QaoaParams(
                tuple(rng.uniform(-1.3, 1.3) for _ in range(p)),
                tuple(rng.uniform(-1.3, 1.3) for _ in range(p)),
            )
            ref = unencoded_distribution(build_qaoa(g, params))
            for gs in (GadgetSet.OLD, GadgetSet.NEW):
                s = 1 if (gs is GadgetSet.OLD or (k + 2) % 4 == 0) else 0
                for mode in ("baseline", "plain", "resynth", "resynth+z2"):
                    cfg = CompileConfig(
                        num_syndromes=s, gadget_set=gs,
                        use_z2=(mode == "resynth+z2"),
                        resynthesize=(mode in ("resynth", "resynth+z2")),
                        queue_cap=80,
                    )
                    enc = compile_baseline(g, params, cfg) \
                        if mode == "baseline" \
                        else compile_cooptimized(g, params, cfg)
                    acc, dist = exact_logical_distribution(
                        enc.circuit, enc.checks, enc.decode)
                    worst_tv = max(worst_tv, total_variation(dist, ref))
                    worst_acc = max(worst_acc, abs(1.0 - acc))
                    cases += 1
    ok = worst_tv <= 1e-6 and worst_acc <= 1e-9
    report(6, "logical equivalence", ok,
           f"{cases} cases; worst TV {worst_tv:.2e}, "
           f"worst |1-acceptance| {worst_acc:.2e}")
    assert ok


# -------------------------------------------------------------------------
# 7. Noise-trend properties (synthetic model; trends only)
# -------------------------------------------------------------------------

SHOTS = 10_000


def test_criterion_7_noise_trends():
    k = 10
    g = generate_instance(GraphKind.REGULAR_3, k, seed=0)
    params = ramp_params(3)
    f_max = brute_force_optimum(g)
    noise = NoiseModel()

    ordering_ok = True
    ar_ok = True
    details = []
    for s in (1, 2):
        base, rs, z2 = _compile_modes(g, params, s=s)
        triple = []
        for enc in (base, rs, z2):
            recs = sample_shots(enc.circuit, noise, SHOTS, seed=0,
                                checks=enc.checks, decode=enc.decode)
            psr = post_selection_rate(recs)
            ar, se = ar_with_se(recs, g, f_max)
            triple.append(((k + 2) * enc.meta["depth_2q"], psr, ar, se))
        by_area = sorted(triple)
        for (a1, p1, _, _), (a2, p2, _, _) in zip(by_area, by_area[1:]):
            if a2 > a1 and not p2 < p1:
                ordering_ok = False
        base_ar, base_se = triple[0][2], triple[0][3]
        z2_ar = triple[2][2]
        if not z2_ar >= base_ar - base_se:
            ar_ok = False
        details.append(
            f"s={s}: areas {[t[0] for t in triple]}, "
            f"psr {[round(t[1], 4) for t in triple]}, "
            f"ar {[round(t[2], 4) for t in triple]}"
        )

    # deterministic injection of detected faults must always reject
    enc = _compile_modes(g, params, s=1)[2]
    ctx_checks = enc.checks
    rng = random.Random(5)
    locs = enumerate_fault_locations(enc.circuit)
    from icecomp.faults import VerifyContext
    ctx = VerifyContext(enc.layout, enc.checks, enc.decode,
                        harmless="outcomes", trailing_checks=False)
    detected = []
    rng.shuffle(locs)
    for loc in locs:
        if loc.flip_bit is not None:
            continue
        rep = run_fault(enc.circuit, loc, ctx)
        if rep.always_detected:
            detected.append(loc)
        if len(detected) == 20:
            break
    reject_ok = True
    for loc in detected:
        recs = sample_shots(enc.circuit, NoiseModel(scale=0.0), 40, seed=3,
                            checks=enc.checks, decode=enc.decode,
                            inject=[(loc.gate_index, loc.pauli)])
        if post_selection_rate(recs) != 0.0:
            reject_ok = False

    ok = ordering_ok and ar_ok and reject_ok
    report(7, "noise trends", ok,
           "; ".join(details) + f"; detected-fault rejections: "
           f"{len(detected)} faults, all rejected: {reject_ok}")
    assert ordering_ok, "post-selection must fall as space-time area grows"
    assert ar_ok, "co-optimized AR must match baseline within one SE"
    assert reject_ok


# -------------------------------------------------------------------------
# 8. Energy-distribution benchmarking
# -------------------------------------------------------------------------

def test_criterion_8_energy_distribution():
    k = 10
    g = generate_instance(GraphKind.REGULAR_3, k, seed=0)
    params = ramp_params(3)
    lc = build_qaoa(g, params)
    exact_energy = energy_distribution(unencoded_distribution(lc), g)
    cutoff = max(exact_energy)
    enc = compile_cooptimized(g, params, CompileConfig(
        num_syndromes=2, gadget_set=GadgetSet.NEW, use_z2=True,
        resynthesize=True, queue_cap=QUEUE_CAP))

    shots = 6000
    rows = []
    for scale in (0.0, 0.25, 0.5, 1.0):
        noise = NoiseModel(scale=scale)
        recs = sample_shots(enc.circuit, noise, shots, seed=1,
                            checks=enc.checks, decode=enc.decode)
        dist = energy_distribution(recs, g)
        tv = total_variation(dist, exact_energy)
        tv_trunc = total_variation(
            postprocess_truncate(dist, cutoff).dist, exact_energy)
        n_acc = sum(1 for r in recs if r.accepted)
        se = math.sqrt(max(tv * (1 - tv), 1e-9) / max(n_acc, 1))
        rows.append((scale, tv, tv_trunc, se))

    monotone = all(
        rows[i][1] <= rows[i + 1][1] + 2 * (rows[i][3] + rows[i + 1][3])
        for i in range(len(rows) - 1)
    )
    trunc_ok = all(tv_trunc <= tv + 1e-12 for _, tv, tv_trunc, _ in rows)
    ok = monotone and trunc_ok
    report(8, "energy distribution", ok,
           "; ".join(f"scale {s}: TV {tv:.4f} -> trunc {tt:.4f}"
                     for s, tv, tt, _ in rows))
    assert monotone, "TV must shrink as the noise scale shrinks"
    assert trunc_ok, "truncation must never increase TV"


# -------------------------------------------------------------------------
# 9. Heuristic sanity
# -------------------------------------------------------------------------

def test_criterion_9_heuristic():
    rng = random.Random(99)
    violations = []
    for trial in range(100):
        k = rng.choice((4, 6, 8, 10))
        if rng.random() < 0.5:
            g = generate_instance(GraphKind.REGULAR_3, k, seed=trial)
        else:
            g = generate_instance(GraphKind.ERDOS_RENYI, k,
                                  density=rng.choice((0.3, 0.5, 0.7)),
                                  seed=trial)
        s = 1 if (k + 2) % 4 == 0 else 0
        cfg = CompileConfig(num_syndromes=s, gadget_set=GadgetSet.NEW,
                            use_z2=bool(rng.getrandbits(1)),
                            resynthesize=True, queue_cap=50)
        enc = compile_cooptimized(g, ramp_params(rng.choice((1, 2, 3))), cfg)
        if enc.meta["h_source"] > enc.meta["search_layers"]:
            violations.append((k, trial))

    # reference uncompiled-graph state pinned at 14: one pending syndrome
    # plus two phase/mixer rounds on a 6-vertex cubic instance, top-anchored
    g6 = generate_instance(GraphKind.REGULAR_3, 6, seed=0)
    task = _build_task(g6, ramp_params(2), CompileConfig(
        num_syndromes=1, gadget_set=GadgetSet.NEW, use_z2=False,
        resynthesize=True))
    node = source_node(task)
    prog = list(node.progress)
    prog[0] = frozenset()
    h_ref = heuristic_cost(SearchNode(task, tuple(prog), 0, 0, None, ()))

    ok = not violations and h_ref == 14
    report(9, "heuristic sanity", ok,
           f"100 instances, violations {violations}; reference H = {h_ref}")
    assert not violations
    assert h_ref == 14
