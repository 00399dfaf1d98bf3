import dataclasses
import hashlib
import math

import numpy as np
import pytest

from icecomp.circuit import ComponentRole, GateKind, PhysicalCircuit, \
    layered_schedule
from icecomp.compiler import CompileConfig, GadgetSet, compile_baseline, \
    compile_cooptimized
from icecomp.bench import MODES, compile_mode
from icecomp.faults import PauliString
from icecomp.gadgets import ParityCheck
from icecomp.maxcut import (GraphKind, QaoaParams, build_qaoa, cut_value,
                            generate_instance, make_graph, ramp_params)
from icecomp.simulator import (NoiseFormatError, NoiseModel, ShotRecord,
                               StateVector, accepted_distribution,
                               energy_distribution, exact_bit_distribution,
                               exact_logical_distribution,
                               logical_exact_distribution, make_record,
                               post_selection_rate, postprocess_truncate,
                               read_noise, sample_shots, sample_logical_shots,
                               total_variation, write_noise, SimulatorError,
                               _ShotPlan, _frame_tables)


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_ONE_QUBIT = {"x": _X, "y": _X @ _Z, "z": _Z, "h": _H}   # y: Z then X


def _dense(n, ops):
    """kron of the 2x2 matrices in `ops` (qubit -> matrix, identity
    elsewhere); qubit 0 is the last factor, so bit i of the index is qubit
    i."""
    out = np.eye(1)
    for q in reversed(range(n)):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    sv = StateVector(n)
    sv.amp = amp / np.linalg.norm(amp)
    return sv


class TestStateVector:
    def test_bell_amplitudes(self):
        sv = StateVector(2)
        sv.apply_h(0)
        sv.apply_cx(0, 1)
        assert np.allclose(sv.amp, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_norm_preserved_by_gates(self):
        sv = StateVector(4)
        for q in range(4):
            sv.apply_h(q)
        sv.apply_rzz(0, 2, 0.7)
        sv.apply_rxx(1, 3, 1.1)
        sv.apply_rx(2, 0.4)
        sv.apply_cx(3, 0)
        sv.apply_y(1)
        assert sv.norm() == pytest.approx(1.0, abs=1e-10)

    def test_rzz_phases(self):
        sv = StateVector(2)
        sv.apply_x(1)               # |10> in (q1 q0) order -> index 2
        sv.apply_rzz(0, 1, 0.5)
        assert sv.amp[2] == pytest.approx(np.exp(1j * 0.5))

    def test_qubit_cap(self):
        with pytest.raises(SimulatorError):
            StateVector(17)

    def test_measure_collapse(self):
        sv = StateVector(1)
        sv.apply_h(0)
        rng = np.random.default_rng(0)
        v = sv.measure(0, rng)
        assert sv.prob_one(0) == pytest.approx(float(v))

    # every kernel against its np.kron matrix on a random 5-qubit state
    N, THETA = 5, 0.83

    def _check_dense(self, seed, apply, matrix):
        sv = _random_state(self.N, seed)
        want = matrix @ sv.amp
        apply(sv)
        assert np.allclose(sv.amp, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["x", "y", "z", "h", "rx"])
    def test_one_qubit_kernel_matches_dense(self, name):
        n, c, s = self.N, math.cos(self.THETA), math.sin(self.THETA)
        for q in range(n):
            if name == "rx":
                matrix = c * np.eye(1 << n) - 1j * s * _dense(n, {q: _X})
                apply = lambda sv: sv.apply_rx(q, self.THETA)
            else:
                matrix = _dense(n, {q: _ONE_QUBIT[name]})
                apply = lambda sv: getattr(sv, "apply_" + name)(q)
            self._check_dense(q, apply, matrix)

    @pytest.mark.parametrize("name", ["cx", "rzz", "rxx"])
    def test_two_qubit_kernel_matches_dense(self, name):
        n, c, s = self.N, math.cos(self.THETA), math.sin(self.THETA)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                if name == "cx":
                    matrix = _dense(n, {a: _P0}) + _dense(n, {a: _P1, b: _X})
                    apply = lambda sv: sv.apply_cx(a, b)
                else:
                    pauli = _Z if name == "rzz" else _X
                    matrix = c * np.eye(1 << n) \
                        - 1j * s * _dense(n, {a: pauli, b: pauli})
                    apply = lambda sv: getattr(sv, "apply_" + name)(
                        a, b, self.THETA)
                self._check_dense(a * n + b, apply, matrix)


class TestExactDistributions:
    def test_all_angles_zero_uniform(self):
        g = generate_instance(GraphKind.REGULAR_3, 4, seed=0)
        lc = build_qaoa(g, QaoaParams((0.0,), (0.0,)))
        dist = logical_exact_distribution(lc)
        assert len(dist) == 16
        for p in dist.values():
            assert p == pytest.approx(1 / 16)

    def test_exact_bit_distribution_bell(self):
        c = PhysicalCircuit(2, 2)
        c.begin_component(0, ComponentRole.INIT)
        c.h(0)
        c.cx(0, 1)
        c.mz(0, 0)
        c.mz(1, 1)
        dist = exact_bit_distribution(c)
        assert dist == {(0, 0): pytest.approx(0.5), (1, 1): pytest.approx(0.5)}

    def test_mid_circuit_branching(self):
        c = PhysicalCircuit(1, 2)
        c.begin_component(0, ComponentRole.INIT)
        c.h(0)
        c.mz(0, 0)
        c.h(0)
        c.mz(0, 1)
        dist = exact_bit_distribution(c)
        assert len(dist) == 4
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_clbit_written_twice_last_write_wins(self):
        # qubit 1 is free before qubit 0's measurement, but its write to
        # clbit 0 comes last in the gate list, so it runs last and wins
        c = _written_twice_circuit()
        assert layered_schedule(c).layers == [[0], [1], [2]]
        assert exact_bit_distribution(c) == {(0,): 1.0}

    def test_encoded_noiseless_equivalence_small(self):
        g = generate_instance(GraphKind.REGULAR_3, 4, seed=1)
        params = QaoaParams((0.4,), (0.9,))
        enc = compile_baseline(g, params, CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.OLD))
        acc, dist = exact_logical_distribution(enc.circuit, enc.checks,
                                               enc.decode)
        ref = logical_exact_distribution(build_qaoa(g, params))
        assert acc == pytest.approx(1.0, abs=1e-9)
        assert total_variation(dist, ref) <= 1e-9


class TestShots:
    def setup_method(self):
        self.graph = generate_instance(GraphKind.REGULAR_3, 6, seed=2)
        self.params = ramp_params(1)
        self.enc = compile_cooptimized(self.graph, self.params, CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.NEW, use_z2=True,
            resynthesize=True, queue_cap=50))

    def test_noiseless_all_accepted(self):
        recs = sample_shots(self.enc.circuit, NoiseModel(scale=0.0), 200, 7,
                            checks=self.enc.checks, decode=self.enc.decode)
        assert post_selection_rate(recs) == 1.0

    def test_noiseless_matches_exact(self):
        recs = sample_shots(self.enc.circuit, NoiseModel(scale=0.0), 4000, 7,
                            checks=self.enc.checks, decode=self.enc.decode)
        ref = logical_exact_distribution(build_qaoa(self.graph, self.params))
        emp = accepted_distribution(recs)
        assert total_variation(emp, ref) < 0.08

    def test_seeded_determinism(self):
        a = sample_shots(self.enc.circuit, NoiseModel(), 150, 42,
                         checks=self.enc.checks, decode=self.enc.decode)
        b = sample_shots(self.enc.circuit, NoiseModel(), 150, 42,
                         checks=self.enc.checks, decode=self.enc.decode)
        assert a == b
        c = sample_shots(self.enc.circuit, NoiseModel(), 150, 43,
                         checks=self.enc.checks, decode=self.enc.decode)
        assert a != c

    def test_injected_detected_fault_always_rejects(self):
        # X on the top qubit right after the init gadget's first CNOT: the
        # propagation verifier classifies it detected; every shot rejects
        circ = self.enc.circuit
        first_cx = next(i for i, g in enumerate(circ.gates)
                        if g.is_two_qubit)
        target = circ.gates[first_cx].qubits[0]
        recs = sample_shots(circ, NoiseModel(scale=0.0), 60, 3,
                            checks=self.enc.checks, decode=self.enc.decode,
                            inject=[(first_cx, PauliString.from_ops(
                                [(target, "X")]))])
        assert post_selection_rate(recs) == 0.0

    @staticmethod
    def _barrier_circuit():
        circ = PhysicalCircuit(2, 2)
        circ.h(0)
        circ.barrier()
        circ.cx(0, 1)
        circ.mz(0, 0)
        circ.mz(1, 1)
        return circ

    @staticmethod
    def _off_gate_circuit():
        circ = PhysicalCircuit(3, 3)
        circ.h(0)
        circ.h(0)
        circ.cx(1, 2)
        for q in range(3):
            circ.mz(q, q)
        return circ

    @pytest.mark.parametrize("circuit, gi", [
        pytest.param("_barrier_circuit", gi, id=str(gi))
        for gi in (1, 3, 4, 5, -1)] + [
        # X on qubit 1 after gate 1 (an H on qubit 0): the CNOT on qubit 1
        # comes later in the gate list but sits in the first schedule
        # layer, so the two simulators would place the X differently
        pytest.param("_off_gate_circuit", 1, id="off-gate-qubit")])
    def test_inject_outside_fault_locations_rejected(self, circuit, gi):
        # gate 1 of the barrier circuit is a barrier, 3 and 4 are the
        # trailing measurements, 5 and -1 index no gate; both simulators
        # reject all of them alike
        circ = getattr(self, circuit)()
        inject = [(gi, PauliString.from_ops([(1, "X")]))]
        with pytest.raises(ValueError, match=f"inject after gate {gi}"):
            exact_bit_distribution(circ, inject=inject)
        with pytest.raises(ValueError, match=f"inject after gate {gi}"):
            sample_shots(circ, NoiseModel(scale=0.0), 4, 0, inject=inject)
        if circuit == "_barrier_circuit":
            # the same X after the CNOT is a fault location, and both agree
            ok = [(2, PauliString.from_ops([(1, "X")]))]
            assert set(exact_bit_distribution(circ, inject=ok)) == \
                {(0, 1), (1, 0)}
            assert {r.bits for r in sample_shots(
                circ, NoiseModel(scale=0.0), 40, 0, inject=ok)} == \
                {(0, 1), (1, 0)}

    def test_circuit_changed_between_calls(self):
        # the ideal distribution is cached by the circuit's gates, not by
        # the (mutable) circuit object
        circ = PhysicalCircuit(1, 1)
        circ.x(0)
        silent = NoiseModel(scale=0.0)
        assert {r.bits for r in sample_shots(circ, silent, 20, 0)} == {(0,)}
        circ.mz(0, 0)
        assert {r.bits for r in sample_shots(circ, silent, 20, 0)} == {(1,)}

    def test_deeper_circuit_lower_acceptance(self):
        base = compile_baseline(self.graph, self.params, CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.OLD))
        noise = NoiseModel(scale=4.0)
        shots = 1500
        r_deep = sample_shots(base.circuit, noise, shots, 11,
                              checks=base.checks, decode=base.decode)
        r_shallow = sample_shots(self.enc.circuit, noise, shots, 11,
                                 checks=self.enc.checks, decode=self.enc.decode)
        assert base.meta["depth_2q"] > self.enc.meta["depth_2q"]
        assert post_selection_rate(r_deep) < post_selection_rate(r_shallow)

    def test_unencoded_reference_sampling(self):
        lc = build_qaoa(self.graph, self.params)
        recs = sample_logical_shots(lc, NoiseModel(scale=0.0), 3000, 5)
        ref = logical_exact_distribution(lc)
        emp = accepted_distribution(recs)
        assert total_variation(emp, ref) < 0.08


# ---------------------------------------------------------------------------
# Reference samplers: every noisy shot replays its whole trajectory from
# |0...0>, one shot at a time.  sample_shots and sample_logical_shots start
# trajectories from a shared noiseless sweep and must give equal records.
# ---------------------------------------------------------------------------

def _ref_rng(seed, shot):
    return np.random.default_rng(np.random.SeedSequence((seed, shot)))


def _ref_random_pauli(state, qubits, rng):
    code = int(rng.integers(1, 4 ** len(qubits)))
    for q in qubits:
        p = code % 4
        code //= 4
        if p == 1:
            state.apply_x(q)
        elif p == 2:
            state.apply_y(q)
        elif p == 3:
            state.apply_z(q)


def _ref_apply(state, g, rng):
    kind = g.kind
    if kind is GateKind.CNOT:
        state.apply_cx(*g.qubits)
    elif kind is GateKind.RZZ:
        state.apply_rzz(g.qubits[0], g.qubits[1], g.angle)
    elif kind is GateKind.RXX:
        state.apply_rxx(g.qubits[0], g.qubits[1], g.angle)
    elif kind is GateKind.H:
        state.apply_h(g.qubits[0])
    elif kind is GateKind.X:
        state.apply_x(g.qubits[0])
    elif kind is GateKind.Z:
        state.apply_z(g.qubits[0])
    elif kind is GateKind.RESET:
        state.reset(g.qubits[0], rng)


def reference_sample_shots(circuit, noise, shots, seed, checks=(),
                           decode=None, inject=()):
    eff = noise.effective()
    sched = layered_schedule(circuit)
    inject_map = {}
    for gi, pauli in inject:
        inject_map.setdefault(gi, []).append(pauli)
    layer_plan = []
    n_2q = n_1q = n_meas = n_idle = 0
    for layer_gates in sched.layers:
        touched = {q for gi in layer_gates for q in circuit.gates[gi].qubits}
        has_2q = any(circuit.gates[gi].is_two_qubit for gi in layer_gates)
        idle = [q for q in range(circuit.num_qubits) if q not in touched] \
            if has_2q else []
        sites = []
        for gi in layer_gates:
            g = circuit.gates[gi]
            if g.is_two_qubit:
                sites.append(("2q", n_2q))
                n_2q += 1
            elif g.kind in (GateKind.H, GateKind.X, GateKind.Z):
                sites.append(("1q", n_1q))
                n_1q += 1
            elif g.kind in (GateKind.MEASURE_Z, GateKind.MEASURE_X):
                sites.append(("meas", n_meas))
                n_meas += 1
            else:
                sites.append((None, 0))
        layer_plan.append((layer_gates, sites, idle, n_idle))
        n_idle += len(idle)
    ideal = sorted(exact_bit_distribution(circuit).items())
    ideal_bits = [b for b, _ in ideal]
    ideal_cum = np.cumsum([p for _, p in ideal])

    records = []
    for shot in range(shots):
        rng = _ref_rng(seed, shot)
        e2 = rng.random(n_2q) < eff.p2 if n_2q else ()
        e1 = rng.random(n_1q) < eff.p1 if n_1q else ()
        em = rng.random(n_meas) < eff.p_meas if n_meas else ()
        ei = rng.random(n_idle) < eff.p_idle if n_idle else ()
        if not (np.any(e2) or np.any(e1) or np.any(ei)) and not inject_map:
            pick = int(np.searchsorted(ideal_cum, rng.random()))
            bits = list(ideal_bits[min(pick, len(ideal_bits) - 1)])
            # the readout flip of each clbit's last measurement: the last
            # write wins
            flip = {}
            mi = 0
            for layer_gates, sites, idle, _ in layer_plan:
                for gi, (cat, _) in zip(layer_gates, sites):
                    if cat == "meas":
                        flip[circuit.gates[gi].clbit] = em[mi]
                        mi += 1
            for c, f in flip.items():
                bits[c] ^= int(f)
            records.append(make_record(bits, checks, decode))
            continue
        state = StateVector(circuit.num_qubits)
        bits = [0] * circuit.num_clbits
        for layer_gates, sites, idle, idle_base in layer_plan:
            for gi, (cat, si) in zip(layer_gates, sites):
                g = circuit.gates[gi]
                if cat == "meas":
                    if g.kind is GateKind.MEASURE_X:
                        state.apply_h(g.qubits[0])
                    v = state.measure(g.qubits[0], rng)
                    if em[si]:
                        v ^= 1
                    bits[g.clbit] = v
                else:
                    _ref_apply(state, g, rng)
                    if cat == "2q" and e2[si]:
                        _ref_random_pauli(state, g.qubits, rng)
                    elif cat == "1q" and e1[si]:
                        _ref_random_pauli(state, g.qubits, rng)
                for pauli in inject_map.get(gi, ()):
                    state.apply_pauli(pauli)
            for off, q in enumerate(idle):
                if ei[idle_base + off]:
                    _ref_random_pauli(state, (q,), rng)
        records.append(make_record(bits, checks, decode))
    return records


def _ref_phase_layers(gates, k):
    frontier = [0] * k
    layers = []
    for g in gates:
        layer = max(frontier[g.u], frontier[g.v])
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(g)
        frontier[g.u] = frontier[g.v] = layer + 1
    return layers


def reference_sample_logical_shots(lc, noise, shots, seed):
    eff = noise.effective()
    records = []
    phase_layers = [_ref_phase_layers(gates, lc.k) for gates in lc.phase_layers]
    for shot in range(shots):
        rng = _ref_rng(seed, shot)
        state = StateVector(lc.k)
        for q in range(lc.k):
            state.apply_h(q)
        for layers, mixer in zip(phase_layers, lc.mixer_layers):
            for layer in layers:
                touched = set()
                for g in layer:
                    state.apply_rzz(g.u, g.v, g.angle)
                    touched.update((g.u, g.v))
                    if eff.p2 > 0 and rng.random() < eff.p2:
                        _ref_random_pauli(state, (g.u, g.v), rng)
                if eff.p_idle > 0:
                    for q in range(lc.k):
                        if q not in touched and rng.random() < eff.p_idle:
                            _ref_random_pauli(state, (q,), rng)
            for m in mixer:
                state.apply_rx(m.qubit, m.angle)
                if eff.p1 > 0 and rng.random() < eff.p1:
                    _ref_random_pauli(state, (m.qubit,), rng)
        bits = []
        for q in range(lc.k):
            v = state.measure(q, rng)
            if eff.p_meas > 0 and rng.random() < eff.p_meas:
                v ^= 1
            bits.append(v)
        logical = sum(b << i for i, b in enumerate(bits))
        records.append(ShotRecord(tuple(bits), (), True, logical))
    return records


def _mid_measure_circuit():
    # random mid-circuit outcomes (mz, then mx) and a reset in the sweep's
    # path, so shots whose draws disagree with the sweep replay from layer
    # 0; the trailing mz on qubit 3 is scheduled before the last gates, so
    # the horizon cuts the sweep short of them
    c = PhysicalCircuit(4, 5)
    c.begin_component(0, ComponentRole.INIT)
    c.h(0)
    c.cx(0, 1)
    c.mz(0, 0)
    c.rzz(1, 2, 0.3)
    c.mx(1, 1)
    c.reset(0)
    c.h(2)
    c.cx(2, 3)
    c.rxx(0, 2, 0.7)
    c.cx(2, 1)
    c.rzz(0, 1, 0.2)
    c.h(2)
    c.mz(3, 4)
    c.mz(0, 2)
    c.mz(1, 3)
    return c


def _written_twice_circuit():
    """x(0), then qubits 0 and 1 measured into clbit 0, in that order."""
    c = PhysicalCircuit(2, 1)
    c.x(0)
    c.mz(0, 0)
    c.mz(1, 0)
    return c


def _without_rejected_bits(records):
    """The records with the bits of rejected shots left out: sample_shots
    decides a rejected shot from its Pauli frame and draws its bits from the
    ideal distribution, so only its check values are the trajectory's."""
    return [r if r.accepted else dataclasses.replace(r, bits=None)
            for r in records]


def _frame_guard(circuit, checks):
    plan = _ShotPlan(circuit, NoiseModel().effective(), ())
    return _frame_tables(circuit, plan).guard(checks)


class TestBitIdentity:
    """Records equal (==) to a whole-trajectory replay of every shot, but
    for the bits of shots rejected on their Pauli frame."""

    graph = generate_instance(GraphKind.REGULAR_3, 6, seed=2)
    params = ramp_params(1)

    @pytest.fixture(scope="class")
    def circuits(self):
        z2 = compile_cooptimized(self.graph, self.params, CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.NEW, use_z2=True,
            resynthesize=True, queue_cap=50))
        base = compile_baseline(self.graph, self.params, CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.OLD))
        return {"resynth+z2": z2, "baseline": base}

    @pytest.mark.parametrize("mode", ["resynth+z2", "baseline"])
    @pytest.mark.parametrize("scale", [0.0, 1.0, 4.0])
    def test_encoded(self, circuits, mode, scale):
        enc = circuits[mode]
        args = (enc.circuit, NoiseModel(scale=scale), 80, 17)
        kw = dict(checks=enc.checks, decode=enc.decode)
        assert _without_rejected_bits(sample_shots(*args, **kw)) == \
            _without_rejected_bits(reference_sample_shots(*args, **kw))

    def test_injected(self, circuits):
        enc = circuits["resynth+z2"]
        circ = enc.circuit
        mid = [i for i, g in enumerate(circ.gates) if g.is_two_qubit][5]
        inject = [(mid, PauliString.from_ops([(circ.gates[mid].qubits[0], "Y")]))]
        args = (circ, NoiseModel(scale=1.0), 40, 5)
        kw = dict(checks=enc.checks, decode=enc.decode, inject=inject)
        assert _without_rejected_bits(sample_shots(*args, **kw)) == \
            _without_rejected_bits(reference_sample_shots(*args, **kw))

    def test_random_mid_circuit_measurement(self):
        # no checks: no shot is decided on its frame, and every record is
        # the trajectory's, bits included
        circ = _mid_measure_circuit()
        args = (circ, NoiseModel(scale=40.0), 400, 3)
        assert sample_shots(*args) == reference_sample_shots(*args)

    def test_rotation_flipping_a_check(self):
        # RXX(0.4) undoes RXX(-0.4), so the check on bit 0 is deterministic;
        # but their generator X0X1 flips it.  A Y0 between them flips bit 0
        # on its frame, yet it also flips the second rotation's sign, and
        # the shot keeps the check with probability sin^2(0.8).  The guard
        # is off, and every record is the trajectory's.
        circ = PhysicalCircuit(2, 2)
        circ.rxx(0, 1, -0.4)
        circ.rxx(0, 1, 0.4)
        circ.mz(0, 0)
        circ.mz(1, 1)
        checks = (ParityCheck(frozenset({0})),)
        assert _frame_guard(circ, checks) is None
        args = (circ, NoiseModel(scale=100.0), 400, 3)
        recs = sample_shots(*args, checks=checks)
        assert recs == reference_sample_shots(*args, checks=checks)
        assert 0 < post_selection_rate(recs) < 1

    def test_clbit_measured_twice(self):
        # an X on qubit 0 after the CNOT flips the first outcome, which the
        # frame counts, but the second measurement overwrites clbit 0 and
        # the check keeps its value.  The guard is off, and every record is
        # the trajectory's.
        circ = PhysicalCircuit(2, 1)
        circ.cx(0, 1)
        circ.mz(0, 0)
        circ.x(0)
        circ.mz(1, 0)
        checks = (ParityCheck(frozenset({0})),)
        assert _frame_guard(circ, checks) is None
        args = (circ, NoiseModel(scale=100.0), 400, 3)
        assert sample_shots(*args, checks=checks) == \
            reference_sample_shots(*args, checks=checks)

    def test_clbit_written_twice_readout_only(self):
        # readout noise only: every shot takes the fault-free fast path,
        # which applies the readout flip of the last write alone, as a
        # trajectory does (forced here by a Z that leaves |1> as it is)
        circ = _written_twice_circuit()
        noise = NoiseModel(p2=0.0, p1=0.0, p_idle=0.0, p_meas=0.3)
        inject = [(0, PauliString.from_ops([(0, "Z")]))]
        fast = sample_shots(circ, noise, 4000, 5)
        assert fast == reference_sample_shots(circ, noise, 4000, 5)
        traj = sample_shots(circ, noise, 4000, 5, inject=inject)
        assert traj == reference_sample_shots(circ, noise, 4000, 5,
                                              inject=inject)
        se = math.sqrt(0.3 * 0.7 / 4000)
        for recs in (fast, traj):
            assert abs(np.mean([r.bits[0] for r in recs]) - 0.3) < 4 * se

    @pytest.mark.parametrize("k, p, s", [(6, 1, 1), (10, 3, 2)])
    def test_guard_holds_for_every_mode(self, k, p, s):
        g = generate_instance(GraphKind.REGULAR_3, k, seed=0)
        for mode in MODES:
            enc = compile_mode(g, ramp_params(p), mode, s, 100)
            assert _frame_guard(enc.circuit, enc.checks) is not None, mode

    @pytest.mark.parametrize("noise", [
        NoiseModel(scale=0.0), NoiseModel(scale=1.0), NoiseModel(scale=30.0),
        NoiseModel(p1=0.0, p_idle=0.0, scale=30.0)])
    def test_unencoded(self, noise):
        lc = build_qaoa(self.graph, self.params)
        assert sample_logical_shots(lc, noise, 150, 9) == \
            reference_sample_logical_shots(lc, noise, 150, 9)

    def test_negative_shots_rejected(self, circuits):
        enc = circuits["resynth+z2"]
        with pytest.raises(ValueError, match="shots"):
            sample_shots(enc.circuit, NoiseModel(), -1, 0)
        with pytest.raises(ValueError, match="shots"):
            sample_logical_shots(build_qaoa(self.graph, self.params),
                                 NoiseModel(), -1, 0)
        assert sample_shots(enc.circuit, NoiseModel(), 0, 0) == []


class TestRecordGolden:
    """sha256 of the records of criterion 7's s=1 resynth+z2 circuit
    (3-regular k=10 seed 0, p=3, queue_cap 200) and of its unencoded
    circuit: 1,000 shots, seed 0, noise scale 1.0.  A change that moves any
    draw or any amplitude's rounding shows here; it must update these, and
    say why.  VERDICTS digests the same encoded records without the bits of
    rejected shots: every verdict, check value and accepted record."""

    ENCODED = ("519bf32a98a704f6eb367bcf3598ca28"
               "e3ebb7f898387cfea843c7b7408e9f35")
    VERDICTS = ("41415e6679e2e8e57577f454a3c0e669"
                "28b09ed4aec78dacc6522fde031fc316")
    UNENCODED = ("473488e281d68447f28d12db5c494c9c"
                 "3ff4dbf22ab7a6efb58266ebf90d080c")

    graph = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
    params = ramp_params(3)

    @staticmethod
    def _digest(records, rejected_bits=True):
        h = hashlib.sha256()
        for r in records:
            bits = r.bits if r.accepted or rejected_bits else None
            h.update(f"{bits} {r.check_values} {r.accepted} "
                     f"{r.logical}\n".encode())
        return h.hexdigest()

    @pytest.fixture(scope="class")
    def encoded_records(self):
        enc = compile_cooptimized(self.graph, self.params, CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.NEW, queue_cap=200,
            resynthesize=True, use_z2=True))
        return sample_shots(enc.circuit, NoiseModel(scale=1.0), 1000, 0,
                            checks=enc.checks, decode=enc.decode)

    def test_encoded(self, encoded_records):
        assert self._digest(encoded_records) == self.ENCODED

    def test_encoded_verdicts(self, encoded_records):
        assert self._digest(encoded_records, rejected_bits=False) == \
            self.VERDICTS

    def test_unencoded(self):
        lc = build_qaoa(self.graph, self.params)
        recs = sample_logical_shots(lc, NoiseModel(scale=1.0), 1000, 0)
        assert self._digest(recs) == self.UNENCODED


class TestEnergyTools:
    def test_point_mass(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        dist = energy_distribution({0b0101: 1.0}, g)
        assert dist == {-4: 1.0}

    def test_uniform_c4(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        uniform = {x: 1 / 16 for x in range(16)}
        dist = energy_distribution(uniform, g)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[-4] == pytest.approx(2 / 16)
        assert dist[0] == pytest.approx(2 / 16)

    def test_truncate_two_point(self):
        result = postprocess_truncate({-4.0: 0.5, 0.0: 0.5}, cutoff=-1.0)
        assert result.applied
        assert result.dist == {-4.0: pytest.approx(1.0)}

    def test_truncate_noop_below_cutoff(self):
        d = {-2.0: 0.4, -1.0: 0.6}
        result = postprocess_truncate(d, cutoff=0.0)
        assert result.applied and result.dist == pytest.approx(d)

    def test_truncate_everything_removed(self):
        d = {3.0: 1.0}
        result = postprocess_truncate(d, cutoff=0.0)
        assert not result.applied
        assert result.dist == d

    def test_truncation_never_increases_tv_when_reference_survives(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            support = list(range(-6, 3))
            p = rng.dirichlet(np.ones(len(support)))
            q = rng.dirichlet(np.ones(5))
            ref = {float(e): float(v) for e, v in zip(support[:5], q)}
            noisy = {float(e): float(v) for e, v in zip(support, p)}
            cutoff = max(ref)
            before = total_variation(noisy, ref)
            after = total_variation(postprocess_truncate(noisy, cutoff).dist,
                                    ref)
            assert after <= before + 1e-12

    def test_total_variation_basics(self):
        assert total_variation({0: 1.0}, {0: 1.0}) == 0.0
        assert total_variation({0: 1.0}, {1: 1.0}) == 1.0
        assert total_variation({0: 0.5, 1: 0.5}, {0: 1.0}) == pytest.approx(0.5)


class TestNoiseModel:
    def test_file_roundtrip(self):
        m = NoiseModel(p2=2e-3, p1=1e-5, p_idle=4e-4, p_meas=2e-3, scale=0.5)
        assert read_noise(write_noise(m)) == m

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p2=1.5)
        with pytest.raises(ValueError):
            NoiseModel(scale=-1.0)

    @pytest.mark.parametrize("text, line, what", [
        ("p2 0.1 0.2\n", 1, "name value"),
        ("p2 0.001\n\np3 0.1\n", 3, "unknown"),
        ("# comment\np2\n", 2, "name value"),
        ("p2 abc\n", 1, "convert"),
        ("p2 1.5\n", 1, "p2 must be"),
        ("p2 0.1\np2 0.2\n", 2, "twice"),
    ])
    def test_malformed_file(self, text, line, what):
        with pytest.raises(NoiseFormatError, match=f"line {line}: .*{what}"):
            read_noise(text)
        assert issubclass(NoiseFormatError, ValueError)

    def test_scaling_clips(self):
        m = NoiseModel(p2=0.5, scale=4.0)
        assert m.effective().p2 == 1.0

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_rejected(self, scale):
        # inf would make effective() give every rate, zero ones too, 1.0
        with pytest.raises(ValueError, match="scale must be finite"):
            NoiseModel(p1=0.0, p_idle=0.0, scale=scale)
        with pytest.raises(NoiseFormatError, match="line 2: scale: "):
            read_noise(f"p2 0.001\nscale {scale}\n")
