"""The three workloads, one per layer the next changes rewrite.

* ``compile`` stresses ``compiler`` (co-compiler search, heuristic,
  matching, emission) and the baseline's chunk scheduler.  The sparse
  3-regular instances are dominated by mixer chains; the dense
  Erdos-Renyi one by phase gates with large matchings, so a change to the
  matching or the heuristic shows on one kind and not the other.
* ``sample`` stresses ``simulator``: post-selected trajectories, the
  noise-free fast path, a deeper (baseline) circuit and unencoded
  sampling, so a trajectory speed-up that slows any of the other three
  shows.
* ``certify`` stresses ``faults``: exhaustive gadget certification, where
  propagation stays narrow, and single faults in whole compiled circuits,
  which branch at every anticommuting rotation and today run out of the
  branch budget on about a third of the faults.

Each workload uses the other layers only in set-up.  The workload seed
picks the instances (seed ``seed`` of their family in the first pass), the
gadget orders and the fault samples; the sampling seeds follow a fixed rule
of their own.  Outputs are checked outside the timed calls; a failed check
is recorded in ``Outputs.problems``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from icecomp import bench, compiler, faults, gadgets, maxcut, simulator
from icecomp.circuit import GateKind
from icecomp.gadgets import GadgetKind
from icecomp.maxcut import GraphKind

from perfbench.oplog import OpLog

QUEUE_CAP = 200   # the criterion-4 search budget


@dataclass
class Outputs:
    """What a workload produced that the metrics are computed from."""

    problems: list[str] = field(default_factory=list)
    coopt: list[dict] = field(default_factory=list)      # meta of co-compiles
    baseline: list[dict] = field(default_factory=list)   # meta of baselines
    accepted: int = 0        # resynth+z2 scale-1.0 shots kept
    sampled: int = 0         # resynth+z2 scale-1.0 shots drawn
    cut_sum: float = 0.0     # cut values of the kept shots
    f_max: float = 0.0

    def compiled(self, enc: compiler.EncodedCircuit) -> None:
        (self.baseline if enc.mode == "baseline" else self.coopt).append(enc.meta)


def _compile_setup(out: Outputs, graph, params, s: int, modes) -> dict:
    encs = {mode: bench.compile_mode(graph, params, mode, s, QUEUE_CAP)
            for mode in modes}
    for enc in encs.values():
        out.compiled(enc)
    return encs


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def _rotation_multiset(lc: maxcut.LogicalCircuit) -> Counter:
    out: Counter = Counter()
    for layer in lc.phase_layers:
        out.update(("zz", g.u, g.v, g.angle) for g in layer)
    for layer in lc.mixer_layers:
        out.update(("x", g.qubit, g.angle) for g in layer)
    return out


def check_rotations(enc: compiler.EncodedCircuit, expected: Counter) -> str:
    """The RZZ and RXX gates of `enc` must be exactly the logical rotations:
    RZZ(u+1, v+1) for ZZ(u, v), RXX(anchor, q+1) for X(q)."""
    anchors = {enc.layout.t}
    if enc.config.use_z2:
        anchors.add(enc.layout.b)
    got: Counter = Counter()
    for g in enc.circuit.gates:
        if g.kind is GateKind.RZZ:
            a, b = sorted(g.qubits)
            got[("zz", a - 1, b - 1, g.angle)] += 1
        elif g.kind is GateKind.RXX:
            a, q = g.qubits
            if a not in anchors:
                return f"RXX {g.qubits} not anchored on {sorted(anchors)}"
            got[("x", q - 1, g.angle)] += 1
    if got != expected:
        return (f"rotation multiset differs: {sum((got - expected).values())} "
                f"extra, {sum((expected - got).values())} missing")
    return ""


def check_round_trip(enc: compiler.EncodedCircuit) -> str:
    circ, checks, decode = compiler.read_encoded(compiler.write_encoded(enc))
    src = enc.circuit
    if (circ.gates != src.gates or circ.num_qubits != src.num_qubits
            or circ.num_clbits != src.num_clbits):
        return "write_encoded/read_encoded changed the circuit"
    if checks != enc.checks or decode != enc.decode:
        return "write_encoded/read_encoded changed the checks or decode map"
    return ""


class CompileWorkload:
    name = "compile"
    # 9 compiles per pass, each an operation
    sizes = {
        "full": dict(instances=((GraphKind.REGULAR_3, 22, None),
                                (GraphKind.REGULAR_3, 34, None),
                                (GraphKind.ERDOS_RENYI, 22, 0.8)),
                     p=10, s=3),
        "tiny": dict(instances=((GraphKind.REGULAR_3, 6, None),
                                (GraphKind.ERDOS_RENYI, 6, 0.8)),
                     p=1, s=1),
    }
    modes = ("baseline", "resynth", "resynth+z2")

    def __init__(self, size: str = "full"):
        self.cfg = self.sizes[size]

    def setup(self, seed: int, passes: int):
        cfg = self.cfg
        params = maxcut.ramp_params(cfg["p"])
        # pass j compiles instance seed + 1000 j of each family, so a run
        # averages over several instances per family
        instances = []
        for j in range(passes):
            graphs = []
            for kind, k, density in cfg["instances"]:
                g = maxcut.generate_instance(kind, k, density=density,
                                             seed=seed + 1000 * j)
                lc = maxcut.build_qaoa(g, params)
                graphs.append((f"{kind.value}-{k}", g, _rotation_multiset(lc)))
            instances.append(graphs)
        return {"params": params, "instances": instances, "first": {},
                "out": Outputs()}

    def _compile(self, state, graph, mode):
        return bench.compile_mode(graph, state["params"], mode,
                                  self.cfg["s"], QUEUE_CAP)

    def run_pass(self, state, j: int, log: OpLog) -> None:
        out: Outputs = state["out"]
        for label, graph, expected in state["instances"][j]:
            for mode in self.modes:
                key = f"{label}/{mode}"
                enc = log.timed(key, 1, self._compile, state, graph, mode)
                if enc is None:
                    continue
                out.compiled(enc)
                for problem in (check_rotations(enc, expected),
                                check_round_trip(enc)):
                    if problem:
                        out.problems.append(f"{key} (pass {j}): {problem}")
                if j == 0 and label == state["instances"][0][0][0]:
                    state["first"][mode] = enc

    def finish(self, state, log: OpLog) -> None:
        """Compiling again gives the same depth and gate list."""
        _, graph, _ = state["instances"][0][0]
        for mode, enc in state["first"].items():
            again = self._compile(state, graph, mode)
            if (again.meta["depth_2q"], again.circuit.gates) != \
                    (enc.meta["depth_2q"], enc.circuit.gates):
                state["out"].problems.append(
                    f"{mode}: compiling again gave another circuit")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

class SampleWorkload:
    name = "sample"
    sizes = {
        "full": dict(k=10, p=3, s=2, shots=100),
        "tiny": dict(k=6, p=1, s=1, shots=10),
    }
    # (label, circuit, noise scale) of each sampling call in one pass; the
    # two resynth+z2 scale-1.0 calls give the post-selection rate and AR
    calls = (("resynth+z2@1.0", "resynth+z2", 1.0),
             ("resynth+z2@1.0", "resynth+z2", 1.0),
             ("resynth+z2@0.25", "resynth+z2", 0.25),
             ("baseline@1.0", "baseline", 1.0),
             ("unencoded@1.0", "unencoded", 1.0))

    def __init__(self, size: str = "full"):
        self.cfg = self.sizes[size]

    def setup(self, seed: int, passes: int):
        cfg = self.cfg
        out = Outputs()
        graph = maxcut.generate_instance(GraphKind.REGULAR_3, cfg["k"], seed=seed)
        params = maxcut.ramp_params(cfg["p"])
        encs = _compile_setup(out, graph, params, cfg["s"],
                              ("resynth+z2", "baseline"))
        out.f_max = maxcut.brute_force_optimum(graph)
        return {"graph": graph, "encs": encs,
                "lc": maxcut.build_qaoa(graph, params), "out": out}

    def run_pass(self, state, j: int, log: OpLog) -> None:
        out: Outputs = state["out"]
        shots = self.cfg["shots"]
        k = state["graph"].num_vertices
        for c, (label, target, scale) in enumerate(self.calls):
            noise = simulator.NoiseModel(scale=scale)
            # the same sampling seeds for every workload seed (common random
            # numbers): the workload seed picks the instance, and runs on
            # different instances then differ by the instance, not by how
            # many shots happened to need a trajectory
            seed = j * len(self.calls) + c
            if target == "unencoded":
                recs = log.timed(label, shots, simulator.sample_logical_shots,
                                 state["lc"], noise, shots, seed)
            else:
                enc = state["encs"][target]
                recs = log.timed(label, shots, simulator.sample_shots,
                                 enc.circuit, noise, shots, seed,
                                 checks=enc.checks, decode=enc.decode)
            if recs is None:
                continue
            if len(recs) != shots:
                out.problems.append(f"{label}: {len(recs)} records for {shots} shots")
            kept = [r.logical for r in recs if r.accepted]
            if any(x is None or not 0 <= x < 1 << k for x in kept):
                out.problems.append(f"{label}: decoded logical out of range")
                continue
            if label == "resynth+z2@1.0":
                out.sampled += len(recs)
                out.accepted += len(kept)
                out.cut_sum += sum(maxcut.cut_value(state["graph"], x)
                                   for x in kept)

    def finish(self, state, log: OpLog) -> None:
        silent = simulator.NoiseModel(scale=0.0)
        for mode, enc in state["encs"].items():
            recs = simulator.sample_shots(enc.circuit, silent, 50, 0,
                                          checks=enc.checks, decode=enc.decode)
            if not all(r.accepted for r in recs):
                state["out"].problems.append(
                    f"{mode}: a noise-free shot was rejected")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

class CertifyWorkload:
    name = "certify"
    sizes = {
        # the criterion-3 gadget set, every gadget kind at k=22, and the
        # whole-circuit faults of one k=10 compile per mode
        "full": dict(gadgets=((GadgetKind.INIT_NEW, 4), (GadgetKind.SYNDROME_NEW, 6),
                              (GadgetKind.FINAL_NEW, 4)),
                     orders=20, all_kinds_k=22, k=10, p=3, s=1,
                     faults=30, oracle=4),
        "tiny": dict(gadgets=((GadgetKind.INIT_NEW, 4), (GadgetKind.SYNDROME_NEW, 6)),
                     orders=1, all_kinds_k=6, k=6, p=1, s=1,
                     faults=6, oracle=2),
    }

    def __init__(self, size: str = "full"):
        self.cfg = self.sizes[size]

    def setup(self, seed: int, passes: int):
        cfg = self.cfg
        out = Outputs()
        params = maxcut.ramp_params(cfg["p"])
        # pass j draws its faults from the circuits of instance seed + 1000 j:
        # what a fault costs depends on the circuit, so a run averages over
        # several instances
        circuits = []
        for j in range(passes):
            graph = maxcut.generate_instance(GraphKind.REGULAR_3, cfg["k"],
                                             seed=seed + 1000 * j)
            encs = _compile_setup(out, graph, params, cfg["s"],
                                  ("resynth+z2", "baseline"))
            circuits.append([])
            for mode, enc in encs.items():
                ctx = faults.VerifyContext(enc.layout, enc.checks, enc.decode,
                                           harmless="outcomes",
                                           trailing_checks=False)
                locs = [loc for loc in faults.enumerate_fault_locations(enc.circuit)
                        if loc.flip_bit is None]
                sample = _stratified(locs, cfg["faults"],
                                     random.Random(f"{seed}/{j}/{mode}"))
                circuits[j].append((mode, enc, ctx, sample))
        return {"seed": seed, "circuits": circuits, "out": out}

    def _gadget_cases(self, seed: int, j: int):
        rng = random.Random(f"{seed}/gadgets/{j}")
        for kind, k in self.cfg["gadgets"]:
            n = k + 2
            yield kind, k, None
            for _ in range(self.cfg["orders"]):
                yield kind, k, tuple(rng.sample(range(n), n))
        for kind in GadgetKind:
            yield kind, self.cfg["all_kinds_k"], None

    def run_pass(self, state, j: int, log: OpLog) -> None:
        out: Outputs = state["out"]
        for kind, k, order in self._gadget_cases(state["seed"], j):
            summary = log.timed("gadget", 0, _certify_gadget, kind, k, order)
            if summary is None:
                continue
            log.ops[-1].items = summary.total
            if not summary.passed:
                out.problems.append(f"{kind.value} k={k} order={order}: "
                                    f"{summary.num_logical} logical escapes")
        for mode, enc, ctx, locs in state["circuits"][j]:
            oracle = []
            for loc in locs:
                rep = log.timed(f"fault/{mode}", 1, faults.run_fault,
                                enc.circuit, loc, ctx)
                if rep is not None and len(oracle) < self.cfg["oracle"]:
                    oracle.append((len(log.ops) - 1, loc, rep))
            for idx, loc, rep in oracle:
                _oracle_check(log, idx, enc, loc, rep)

    def finish(self, state, log: OpLog) -> None:
        lay = gadgets.IcebergLayout(self.cfg["all_kinds_k"])
        for use_bottom in (False, True):
            for i in lay.logical:
                part = faults.classify_rotation_faults(lay, i, use_bottom=use_bottom)
                escaping = {lbl for lbl, esc in part.items() if esc}
                if escaping != {"XX", "YY", "ZZ"}:
                    state["out"].problems.append(
                        f"rotation on {i} (bottom={use_bottom}) lets "
                        f"{sorted(escaping)} escape")


def _stratified(items: list, n: int, rng: random.Random) -> list:
    """One random item from each of n equal slices of `items`, shuffled.

    How far a fault propagates, and so what it costs and whether it runs
    out of the branch budget, depends on where in the circuit it sits;
    one fault per slice keeps that mix the same from sample to sample."""
    width = len(items) / n
    out = [items[int(i * width + rng.random() * width)] for i in range(n)]
    rng.shuffle(out)
    return out


def _certify_gadget(kind: GadgetKind, k: int, order):
    return faults.check_gadget_ft(gadgets.build_gadget(kind, k, order))


def _oracle_check(log: OpLog, idx: int, enc, loc, rep) -> None:
    """Compare a fault's detection verdict with the exact acceptance of the
    circuit with that fault injected; a disagreement fails the operation."""
    acc, _ = simulator.exact_logical_distribution(
        enc.circuit, enc.checks, enc.decode,
        inject=[(loc.gate_index, loc.pauli)])
    never = not any(b.classification is faults.FaultClass.DETECTED_BY_CHECK
                    for b in rep.branches)
    if (rep.always_detected and acc > 1e-9) or (never and acc < 1e-9):
        op = log.ops[idx]
        op.failed = True
        op.items = 0
        op.error = (f"verdict {rep.classification.value} disagrees with "
                    f"exact acceptance {acc:.3g}")


WORKLOADS = {w.name: w for w in (CompileWorkload, SampleWorkload,
                                 CertifyWorkload)}
