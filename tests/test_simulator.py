import bisect
import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest

from icecomp.circuit import (CircuitError, ComponentRole, Gate, GateKind,
                             PhysicalCircuit, layered_schedule)
from icecomp.compiler import CompileConfig, GadgetSet, compile_baseline, \
    compile_cooptimized
from icecomp.bench import MODES, compile_mode
from icecomp.faults import PauliString, _Sweep, _combine, _mask, \
    propagate_pauli
from icecomp.gadgets import ParityCheck
from icecomp.maxcut import (GraphKind, QaoaParams, build_qaoa, cut_value,
                            generate_instance, make_graph, ramp_params)
from icecomp.simulator import (NoiseFormatError, NoiseModel, ShotRecord,
                               StateVector, accepted_distribution,
                               decode_bits, energy_distribution,
                               exact_bit_distribution,
                               exact_logical_distribution, make_record,
                               post_selection_rate, postprocess_truncate,
                               read_noise, sample_shots, sample_logical_shots,
                               total_variation, unencoded_distribution,
                               write_noise, SimulatorError, _ShotPlan,
                               BRANCH_TOL, _LogicalModel, _Readout,
                               _apply_gate, _apply_random_pauli,
                               _logical_entries, _logical_ops,
                               _logical_plan, _logical_steps,
                               _model_ops, _plan,
                               _Streams, _bit_tuple, _shot_plan,
                               _trailing_start, _word)
from icecomp import simulator


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

    @pytest.mark.parametrize("rows", [1, 3, 13])
    def test_stacked_kernels_are_one_row_kernels(self, rows):
        # RZZ and RX on a stack of states, some rows negated, give each row
        # the bits the kernel gives it alone at its own angle, signed zeros
        # included: the logical model's pass rests on this
        n = 7
        rng = np.random.default_rng(rows)
        stack = StateVector(n)
        stack.amp = np.array([_random_state(n, rows + r).amp
                              for r in range(rows)])
        for _ in range(60):
            negated = rng.random(rows) < 0.4
            theta = float(rng.normal())
            if rng.random() < 0.5:
                qubits = tuple(rng.choice(n, 2, replace=False).tolist())
                apply = lambda sv, *args: sv.apply_rzz(*qubits, *args)
            else:
                qubits = (int(rng.integers(n)),)
                apply = lambda sv, *args: sv.apply_rx(*qubits, *args)
            want = []
            for r in range(rows):
                one = StateVector(n)
                one.amp = stack.amp[r].copy()
                apply(one, -theta if negated[r] else theta)
                want.append(one.amp)
            apply(stack, theta, negated)
            assert (stack.amp.view(np.uint64) ==
                    np.array(want).view(np.uint64)).all(), qubits


class TestExactDistributions:
    def test_all_angles_zero_uniform(self):
        g = generate_instance(GraphKind.REGULAR_3, 4, seed=0)
        lc = build_qaoa(g, QaoaParams((0.0,), (0.0,)))
        dist = unencoded_distribution(lc)
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
        ref = unencoded_distribution(build_qaoa(g, params))
        assert acc == pytest.approx(1.0, abs=1e-9)
        assert total_variation(dist, ref) <= 1e-9

    def test_z_gate(self):
        # H Z H is X: the exact distribution and a noiseless sample both
        # read 1
        c = PhysicalCircuit(1, 1)
        c.h(0)
        c.z(0)
        c.h(0)
        c.mz(0, 0)
        dist = exact_bit_distribution(c)
        assert dist.get((1,), 0.0) == pytest.approx(1.0, abs=1e-12)
        assert {r.bits for r in sample_shots(c, NoiseModel(scale=0.0),
                                             20, 0)} == {(1,)}

    def test_logical_distribution_needs_decode(self):
        c = PhysicalCircuit(2, 2)
        c.mz(0, 0)
        c.mz(1, 1)
        checks = (ParityCheck(frozenset({0, 1})),)
        with pytest.raises(ValueError, match="decode map"):
            exact_logical_distribution(c, checks, None)
        assert exact_logical_distribution(
            c, checks, {1: frozenset({0})}) == (1.0, {0: 1.0})


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
        ref = unencoded_distribution(build_qaoa(self.graph, self.params))
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

    def test_cached_circuit_still_validated(self):
        # the plan is cached by the gates alone, so a circuit with the same
        # gates but a component map that leaves out a gate's component must
        # still fail validation
        circ = self.enc.circuit
        kw = dict(checks=self.enc.checks, decode=self.enc.decode)
        sample_shots(circ, NoiseModel(), 20, 0, **kw)
        dropped = circ.gates[-1].component
        bad = dataclasses.replace(circ, components={
            c: role for c, role in circ.components.items() if c != dropped})
        with pytest.raises(CircuitError,
                           match=f"undeclared component {dropped}"):
            sample_shots(bad, NoiseModel(), 20, 0, **kw)

    def test_cached_plan_not_validated_again(self, monkeypatch):
        # the plan's key holds all that validate() reads, so only the call
        # that builds the plan validates the circuit
        calls = []
        validate = PhysicalCircuit.validate

        def counted(circ):
            calls.append(circ)
            validate(circ)

        monkeypatch.setattr(PhysicalCircuit, "validate", counted)
        _plan.cache_clear()
        args = (self.enc.circuit, NoiseModel(scale=4.0), 20, 0)
        kw = dict(checks=self.enc.checks, decode=self.enc.decode)
        recs = sample_shots(*args, **kw)
        assert calls
        calls.clear()
        assert sample_shots(*args, **kw) == recs
        assert calls == []

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
        ref = unencoded_distribution(lc)
        emp = accepted_distribution(recs)
        assert total_variation(emp, ref) < 0.08


# ---------------------------------------------------------------------------
# Reference samplers: every shot runs its whole trajectory, one shot at a
# time, from |0...0> (encoded) or |+>^k (unencoded).  sample_shots and
# sample_logical_shots decide shots on their Pauli frame and must give equal
# records.
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


def _ref_layer_plan(circuit):
    """Per schedule layer: its gates, each gate's noise site (family and
    index within it), its idle qubits and the index of its first idle
    site; and the size of each family, 2Q, 1Q, measurement and idle."""
    sched = layered_schedule(circuit)
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
    return layer_plan, (n_2q, n_1q, n_meas, n_idle)


def _ref_events(rng, eff, sizes):
    """A shot's event vectors, one per family, drawn in family order."""
    n_2q, n_1q, n_meas, n_idle = sizes
    e2 = rng.random(n_2q) < eff.p2 if n_2q else ()
    e1 = rng.random(n_1q) < eff.p1 if n_1q else ()
    em = rng.random(n_meas) < eff.p_meas if n_meas else ()
    ei = rng.random(n_idle) < eff.p_idle if n_idle else ()
    return e2, e1, em, ei


def _ref_readout_flips(circuit, layer_plan, em):
    """The readout event of each clbit's last measurement: the last write
    wins."""
    flip = {}
    for layer_gates, sites, _, _ in layer_plan:
        for gi, (cat, si) in zip(layer_gates, sites):
            if cat == "meas":
                flip[circuit.gates[gi].clbit] = int(em[si])
    return flip


def reference_sample_shots(circuit, noise, shots, seed, checks=(),
                           decode=None, inject=()):
    """Every shot from its trajectory."""
    eff = noise.effective()
    inject_map = {}
    for gi, pauli in inject:
        inject_map.setdefault(gi, []).append(pauli)
    layer_plan, sizes = _ref_layer_plan(circuit)

    records = []
    for shot in range(shots):
        rng = _ref_rng(seed, shot)
        e2, e1, em, ei = _ref_events(rng, eff, sizes)
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


def reference_frame_records(circuit, noise, shots, seed, checks=(),
                            decode=None, inject=()):
    """Per shot, (the record the Pauli frame rule gives it, whether its
    frame flips a rotation).  The shot replays reference_sample_shots'
    draws: its event vectors, then, in traversal order, the uniforms of the
    measurements and resets before each fired site and that site's Pauli
    code.  Its frame is that of propagate_pauli of each fired Pauli (an idle
    one after its qubit's last gate, or -1) and of each injection.  Its next
    uniform picks an entry from the sorted cumulative of the exact
    distribution of the circuit with the frame's rotations negated; the
    record is that entry with the frame's clbit flips and each clbit's
    last-write readout flip applied."""
    eff = noise.effective()
    layer_plan, sizes = _ref_layer_plan(circuit)
    # in traversal order: None per measurement or reset, else a noise site
    # (family, index, gate index its Pauli acts after, qubits)
    walk = []
    last = [-1] * circuit.num_qubits
    for layer_gates, sites, idle, idle_base in layer_plan:
        for gi, (cat, si) in zip(layer_gates, sites):
            g = circuit.gates[gi]
            if cat in ("2q", "1q"):
                walk.append((cat, si, gi, g.qubits))
            elif cat == "meas" or g.kind is GateKind.RESET:
                walk.append(None)
            for q in g.qubits:
                last[q] = gi
        walk += [("idle", idle_base + off, last[q], (q,))
                 for off, q in enumerate(idle)]
    tables = {}

    def table(rots):
        if rots not in tables:
            negated = dataclasses.replace(circuit, gates=[
                dataclasses.replace(g, angle=-g.angle) if gi in rots else g
                for gi, g in enumerate(circuit.gates)])
            dist = sorted(exact_bit_distribution(negated).items())
            tables[rots] = ([b for b, _ in dist],
                            np.cumsum([p for _, p in dist]))
        return tables[rots]

    out = []
    for shot in range(shots):
        rng = _ref_rng(seed, shot)
        e2, e1, em, ei = _ref_events(rng, eff, sizes)
        events = {"2q": e2, "1q": e1, "idle": ei}
        paulis = list(inject)
        pending = 0
        for site in walk:
            if site is None:
                pending += 1
                continue
            family, si, gi, qubits = site
            if not events[family][si]:
                continue
            for _ in range(pending):
                rng.random()
            pending = 0
            code = int(rng.integers(1, 4 ** len(qubits)))
            paulis.append((gi, PauliString.from_ops(
                (q, "IXYZ"[code >> 2 * j & 3]) for j, q in enumerate(qubits)
                if code >> 2 * j & 3)))
        clbits, rots = set(), set()
        for gi, pauli in paulis:
            _, flips, flipped = propagate_pauli(circuit, gi, pauli)
            clbits ^= flips
            rots ^= flipped
        words, cum = table(frozenset(rots))
        bits = list(words[min(int(np.searchsorted(cum, rng.random())),
                              len(words) - 1)])
        for c in clbits:
            bits[c] ^= 1
        for c, f in _ref_readout_flips(circuit, layer_plan, em).items():
            bits[c] ^= f
        out.append((make_record(bits, checks, decode), bool(rots)))
    return out


def assert_matches_references(recs, circuit, noise, shots, seed, checks=(),
                              decode=None, inject=()):
    """sample_shots' records `recs` of these arguments against both
    references.  Without a certificate (no frame guard) every record is
    its trajectory's.  With one, the reading has a logical model, every
    verdict (check values, accepted) is its trajectory's, and an accepted
    shot, or a rejected one whose frame flips no rotation, is
    reference_frame_records'.  Returns how many accepted shots the frame
    decided whose frame flips a rotation."""
    args = (circuit, noise, shots, seed)
    kw = dict(checks=checks, decode=decode, inject=inject)
    traj = reference_sample_shots(*args, **kw)
    reading = _shot_plan(circuit).reading(checks, decode)
    if reading.guard is None:
        assert reading.model is None
        assert recs == traj
        return 0
    assert reading.model is not None
    held = 0
    frame = reference_frame_records(*args, **kw)
    for i, (r, t, (f, flips_rotation)) in enumerate(
            zip(recs, traj, frame, strict=True)):
        assert (r.check_values, r.accepted) == \
            (t.check_values, t.accepted), i
        if t.accepted or not flips_rotation:
            assert r == f, i
            held += t.accepted and flips_rotation
        else:
            assert r.logical is None, i
    return held


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
    """The unencoded stream as a StateVector trajectory.  Its steps are the
    ASAP phase layers (an idle slot for each qubit a layer leaves
    untouched) and then the mixer, numbered per family: RZZ steps, RX
    steps and idle slots.  A shot draws its event vectors (_ref_events over
    those families and one readout per qubit), runs the circuit from
    |+>^k, and after each fired step, in step order, draws a Pauli code and
    applies its Pauli to the state, keeping the X mask it applied.  Its
    next uniform picks y from the final probabilities read through that
    mask; its logical is y XOR the mask XOR its fired readouts."""
    eff = noise.effective()
    k = lc.k
    steps = []      # (family, index within it, qubits, angle)
    count = {"2q": 0, "1q": 0, "idle": 0}

    def step(family, qubits, angle=None):
        steps.append((family, count[family], qubits, angle))
        count[family] += 1

    for gates, mixer in zip(lc.phase_layers, lc.mixer_layers):
        for layer in _ref_phase_layers(gates, k):
            touched = set()
            for g in layer:
                step("2q", (g.u, g.v), g.angle)
                touched.update((g.u, g.v))
            for q in range(k):
                if q not in touched:
                    step("idle", (q,))
        for m in mixer:
            step("1q", (m.qubit,), m.angle)
    sizes = (count["2q"], count["1q"], k, count["idle"])
    index = np.arange(1 << k)
    records = []
    for shot in range(shots):
        rng = _ref_rng(seed, shot)
        e2, e1, em, ei = _ref_events(rng, eff, sizes)
        events = {"2q": e2, "1q": e1, "idle": ei}
        state = StateVector(k)
        for q in range(k):
            state.apply_h(q)
        xmask = 0
        for family, si, qubits, angle in steps:
            if family == "2q":
                state.apply_rzz(*qubits, angle)
            elif family == "1q":
                state.apply_rx(qubits[0], angle)
            if not events[family][si]:
                continue
            code = int(rng.integers(1, 4 ** len(qubits)))
            for j, q in enumerate(qubits):
                letter = "IXYZ"[code >> 2 * j & 3]
                if letter in "XY":
                    xmask ^= 1 << q
                if letter != "I":
                    getattr(state, "apply_" + letter.lower())(q)
        cum = np.cumsum(state.probabilities()[index ^ xmask])
        y = min(int(np.searchsorted(cum, rng.random())), len(cum) - 1)
        logical = y ^ xmask ^ sum(int(f) << q for q, f in enumerate(em))
        records.append(ShotRecord(tuple(logical >> q & 1 for q in range(k)),
                                  (), True, logical))
    return records


def _mid_measure_circuit():
    # random mid-circuit outcomes (mz, then mx) and a reset of the measured
    # qubit, so a trajectory's state depends on its own draws before its
    # first event; the trailing mz on qubit 3 is scheduled before the last
    # gates, so a trajectory runs the gates out of list order
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


def _frame_guard(circuit, checks, decode=None):
    return _shot_plan(circuit).reading(checks, decode).guard


def _count_states(monkeypatch):
    """The qubit count of every StateVector built or copied from now on."""
    built = []
    init, copy = StateVector.__init__, StateVector.copy

    def counted_init(self, n):
        built.append(n)
        init(self, n)

    def counted_copy(self):
        built.append(self.n)
        return copy(self)

    monkeypatch.setattr(StateVector, "__init__", counted_init)
    monkeypatch.setattr(StateVector, "copy", counted_copy)
    return built


def _count_trajectories(monkeypatch):
    """How many shots run a whole dense trajectory from now on, in a
    list."""
    ran = [0]
    trajectory = _ShotPlan.trajectory

    def counted(self, *args):
        ran[0] += 1
        return trajectory(self, *args)

    monkeypatch.setattr(_ShotPlan, "trajectory", counted)
    return ran


def _not_iceberg_rzz():
    # the RZZ acts on qubit 0, so the circuit has no logical model
    c = PhysicalCircuit(3, 3)
    c.h(0)
    c.cx(0, 1)
    c.rzz(0, 1, 0.9)
    c.h(0)
    c.h(1)
    c.mz(0, 0)
    c.mz(1, 1)
    c.mz(2, 2)
    return c


def _not_iceberg_start():
    # RXX(0, 1) has the model's form (X_0 under decode {1: c1}), but the
    # circuit starts in |00>, not in the code state of |+>: the certificate
    # refuses it, and the model's distribution misses the ideal marginal
    c = PhysicalCircuit(3, 3)
    c.cx(0, 1)
    c.rxx(0, 1, 0.7)
    c.mz(0, 0)
    c.mz(1, 1)
    c.mz(2, 2)
    return c


class TestBitIdentity:
    """Records equal (==) to a whole-trajectory replay of every shot, and,
    for the shots the Pauli frame decides, to the frame rule's record
    (assert_matches_references)."""

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
        assert_matches_references(sample_shots(*args, **kw), *args, **kw)

    @pytest.mark.parametrize("mode", ["resynth+z2", "baseline"])
    def test_encoded_heavy_readout_noise(self, circuits, mode):
        # accepted shots whose readout flips keep every check, two on one
        # check, many of them with a frame that flips a rotation too
        enc = circuits[mode]
        args = (enc.circuit, NoiseModel(p_meas=0.05, scale=4.0), 200, 23)
        kw = dict(checks=enc.checks, decode=enc.decode)
        assert assert_matches_references(
            sample_shots(*args, **kw), *args, **kw) > 0

    def test_injected(self, circuits):
        enc = circuits["resynth+z2"]
        circ = enc.circuit
        mid = [i for i, g in enumerate(circ.gates) if g.is_two_qubit][5]
        inject = [(mid, PauliString.from_ops([(circ.gates[mid].qubits[0], "Y")]))]
        args = (circ, NoiseModel(scale=1.0), 40, 5)
        kw = dict(checks=enc.checks, decode=enc.decode, inject=inject)
        assert_matches_references(sample_shots(*args, **kw), *args, **kw)

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
        # readout noise only, and no decode map, so no certificate: every
        # shot runs its trajectory, which applies the readout flip of the
        # last write alone, with or without an injected Z that leaves |1>
        # as it is
        circ = _written_twice_circuit()
        noise = NoiseModel(p2=0.0, p1=0.0, p_idle=0.0, p_meas=0.3)
        inject = [(0, PauliString.from_ops([(0, "Z")]))]
        plain = sample_shots(circ, noise, 4000, 5)
        assert plain == reference_sample_shots(circ, noise, 4000, 5)
        traj = sample_shots(circ, noise, 4000, 5, inject=inject)
        assert traj == reference_sample_shots(circ, noise, 4000, 5,
                                              inject=inject)
        se = math.sqrt(0.3 * 0.7 / 4000)
        for recs in (plain, traj):
            assert abs(np.mean([r.bits[0] for r in recs]) - 0.3) < 4 * se

    def test_random_reset(self, monkeypatch):
        # a Bell pair whose half on qubit 0 is reset: qubit 1 keeps the
        # reset's outcome, which no clbit records, and the CX copies it to
        # qubit 2.  The check c0 ^ c1 is deterministic, but a random reset
        # (and a call with no decode map) has no stabilizer certificate, so
        # there is no guard: every shot runs its trajectory
        circ = PhysicalCircuit(3, 2)
        circ.h(0)
        circ.cx(0, 1)
        circ.reset(0)
        circ.cx(1, 2)
        circ.mz(1, 0)
        circ.mz(2, 1)
        checks = (ParityCheck(frozenset({0, 1})),)
        assert _frame_guard(circ, checks) is None
        args = (circ, NoiseModel(scale=100.0), 400, 3)
        ran = _count_trajectories(monkeypatch)
        recs = sample_shots(*args, checks=checks)
        assert ran[0] == 400
        assert recs == reference_sample_shots(*args, checks=checks)
        assert 0 < post_selection_rate(recs) < 1

    def test_x_measured_qubit_reused(self, monkeypatch):
        # an X measurement is H, then a Z measurement: it leaves qubit 0 in
        # |0>, and the CX copies that to c1, the check.  A Z on qubit 0
        # before it flips c0 and, through the CX, c1 and c2, as the frame
        # rule (tests/test_faults.py) and every trajectory have it.  With no
        # decode map there is no certificate: the injected and the noisy
        # shots run their trajectories, and every record is the
        # trajectory's
        circ = PhysicalCircuit(2, 3)
        circ.h(0)
        circ.mx(0, 0)
        circ.cx(0, 1)
        circ.mz(1, 1)
        circ.mz(0, 2)
        checks = (ParityCheck(frozenset({1})),)
        assert _frame_guard(circ, checks) is None
        z0 = [(0, PauliString.from_ops([(0, "Z")]))]
        assert exact_bit_distribution(circ, z0) == \
            {(1, 1, 1): pytest.approx(1.0, abs=1e-15)}
        assert propagate_pauli(circ, 0, z0[0][1])[1] == {0, 1, 2}
        ran = _count_trajectories(monkeypatch)
        for noise, shots, inject in ((NoiseModel(scale=0.0), 50, z0),
                                     (NoiseModel(scale=300.0), 2000, ())):
            args = (circ, noise, shots, 1)
            kw = dict(checks=checks, inject=inject)
            assert sample_shots(*args, **kw) == \
                reference_sample_shots(*args, **kw)
        assert ran[0] > 0

    def test_frame_decided_shots(self, monkeypatch):
        # at noise scale 4 most shots have a Pauli event; the accepted ones
        # pick a word of the certified table, from the distribution of a
        # k-qubit logical state when their frame flips a rotation, so no
        # state of the circuit's k+4 qubits is built
        g = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
        enc = compile_mode(g, ramp_params(3), "resynth+z2", 2, 100)
        args = (enc.circuit, NoiseModel(scale=4.0), 300, 11)
        kw = dict(checks=enc.checks, decode=enc.decode)
        built = _count_states(monkeypatch)
        recs = sample_shots(*args, **kw)
        assert enc.circuit.num_qubits not in built
        assert len(enc.decode) in built
        assert assert_matches_references(recs, *args, **kw) > 0

    @pytest.mark.parametrize("k, p, s", [(6, 1, 1), (10, 3, 2)])
    def test_guard_holds_for_every_mode(self, k, p, s):
        g = generate_instance(GraphKind.REGULAR_3, k, seed=0)
        for mode in MODES:
            enc = compile_mode(g, ramp_params(p), mode, s, 100)
            assert _frame_guard(enc.circuit, enc.checks,
                                enc.decode) is not None, mode

    @pytest.mark.parametrize("noise", [
        NoiseModel(scale=0.0), NoiseModel(scale=1.0), NoiseModel(scale=30.0),
        NoiseModel(p1=0.0, p_idle=0.0, scale=30.0)])
    def test_unencoded(self, noise):
        lc = build_qaoa(self.graph, self.params)
        assert sample_logical_shots(lc, noise, 150, 9) == \
            reference_sample_logical_shots(lc, noise, 150, 9)

    @pytest.mark.parametrize("noise", [
        NoiseModel(scale=1.0), NoiseModel(scale=4.0), NoiseModel(scale=10.0),
        NoiseModel(p_meas=0.0, scale=10.0)])
    def test_unencoded_criterion_7_instance(self, noise):
        # criterion 7's and 8's unencoded circuit: 3-regular k=10 seed 0, p=3
        lc = build_qaoa(generate_instance(GraphKind.REGULAR_3, 10, seed=0),
                        ramp_params(3))
        assert sample_logical_shots(lc, noise, 300, 13) == \
            reference_sample_logical_shots(lc, noise, 300, 13)

    def test_negative_shots_rejected(self, circuits):
        enc = circuits["resynth+z2"]
        lc = build_qaoa(self.graph, self.params)
        with pytest.raises(ValueError, match="shots"):
            sample_shots(enc.circuit, NoiseModel(), -1, 0)
        with pytest.raises(ValueError, match="shots"):
            sample_logical_shots(lc, NoiseModel(), -1, 0)
        for shots in (True, False, 2.5, "3", None):
            with pytest.raises(ValueError, match="shots"):
                sample_shots(enc.circuit, NoiseModel(), shots, 0)
            with pytest.raises(ValueError, match="shots"):
                sample_logical_shots(lc, NoiseModel(), shots, 0)
        assert sample_shots(enc.circuit, NoiseModel(), 0, 0) == []
        assert sample_shots(enc.circuit, NoiseModel(), np.int64(2), 0) == \
            sample_shots(enc.circuit, NoiseModel(), 2, 0)
        for seed in (-1, 1.5, "0", None, True):
            for shots in (0, 3):
                with pytest.raises(ValueError, match="seed"):
                    sample_shots(enc.circuit, NoiseModel(), shots, seed)
                with pytest.raises(ValueError, match="seed"):
                    sample_logical_shots(lc, NoiseModel(), shots, seed)
        assert sample_logical_shots(lc, NoiseModel(), 3, np.int64(4)) == \
            sample_logical_shots(lc, NoiseModel(), 3, 4)


def test_sample_shots_past_the_branch_budget(monkeypatch):
    # seven measurements of |+> branch 128 ways, past MAX_BRANCHES, where
    # the dense pass refuses; the circuit has no certificate, so every
    # shot runs its trajectory, with and without noise
    circ = PhysicalCircuit(2, 8)
    for b in range(7):
        circ.h(0)
        circ.mz(0, b)
    circ.cx(0, 1)
    circ.mz(1, 7)
    with pytest.raises(SimulatorError, match="branch budget"):
        exact_bit_distribution(circ)
    ran = _count_trajectories(monkeypatch)
    for scale in (0.0, 50.0):
        args = (circ, NoiseModel(scale=scale), 300, 7)
        recs = sample_shots(*args)
        assert recs == reference_sample_shots(*args)
        assert len({r.bits[:7] for r in recs}) > 100
        assert all(r.bits[6] == r.bits[7] for r in recs) == (scale == 0)
    assert ran[0] == 600


def test_uncertified_reading_runs_every_shot_as_its_trajectory(monkeypatch):
    # with no decode map there is no certificate: every shot runs its
    # trajectory, the noise-free ones too, and no dense table is built
    circ = _mid_measure_circuit()
    checks = (ParityCheck(frozenset({4})),)
    _plan.cache_clear()

    def refused(*args):
        raise AssertionError("the sampler built a dense table")

    for scale in (0.0, 1.0):
        args = (circ, NoiseModel(scale=scale), 200, 9)
        monkeypatch.setattr(simulator, "exact_bit_distribution", refused)
        ran = _count_trajectories(monkeypatch)
        recs = sample_shots(*args, checks=checks)
        assert ran[0] == 200
        monkeypatch.undo()
        assert recs == reference_sample_shots(*args, checks=checks)


class _PauliRecorder:
    """Stands in for a StateVector and a generator: records the Pauli that
    _apply_random_pauli applies when it draws `code`."""

    def __init__(self, code):
        self.code = code
        self.ops = []

    def integers(self, low, high):
        assert low <= self.code < high
        return self.code

    def apply_x(self, q):
        self.ops.append((q, "X"))

    def apply_y(self, q):
        self.ops.append((q, "Y"))

    def apply_z(self, q):
        self.ops.append((q, "Z"))


@pytest.mark.parametrize("mode", ["resynth+z2", "baseline"])
def test_plan_responses_follow_the_pauli_code_order(mode):
    # the plan's response for code c at a site is the frame of the Pauli
    # _apply_random_pauli applies on drawing c: the one order the simulator
    # and the fault layer share.  A gate's site sits right after the gate;
    # an idle site on q after layer l right after q's last gate before l,
    # or at the circuit start (-1) when q has none
    g = generate_instance(GraphKind.REGULAR_3, 6, seed=0)
    circ = compile_mode(g, ramp_params(1), mode, 1, 100).circuit
    plan = _shot_plan(circ)
    sweep = _Sweep(circ)

    def check(rs, start, qubits):
        assert len(rs) == 4 ** len(qubits) - 1
        for code in range(1, len(rs) + 1):
            rec = _PauliRecorder(code)
            _apply_random_pauli(rec, qubits, rec)
            term, flips, rots = propagate_pauli(
                circ, start, PauliString.from_ops(rec.ops))
            assert rs[code - 1] == (
                term.xmask | term.zmask << sweep.n
                | _mask(flips) << sweep.cl | _mask(rots) << sweep.rot)

    sites = idle_sites = 0
    last = [-1] * circ.num_qubits     # per qubit, its last gate so far
    sched = layered_schedule(circ).layers
    assert len(plan.layers) == len(sched)
    for layer, (ops, idle, base) in zip(sched, plan.layers):
        assert [gi for gi, _, _ in ops] == layer
        touched = {q for gi in layer for q in circ.gates[gi].qubits}
        if any(circ.gates[gi].is_two_qubit for gi in layer):
            assert idle == [q for q in range(circ.num_qubits)
                            if q not in touched]
        else:
            assert idle == []
        for gi, gate, si in ops:
            for q in gate.qubits:
                last[q] = gi
            if gate.kind in (GateKind.MEASURE_Z, GateKind.MEASURE_X,
                             GateKind.RESET):
                continue
            check(plan.responses[si], gi, gate.qubits)
            sites += 1
        for off, q in enumerate(idle):
            check(plan.responses[base + off], last[q], (q,))
            idle_sites += 1
    assert idle_sites > 0
    assert len(plan.slots) == sites + idle_sites
    assert sites == sum(1 for gate in circ.gates if gate.kind in (
        GateKind.H, GateKind.X, GateKind.Z, GateKind.CNOT, GateKind.RZZ,
        GateKind.RXX))


def test_unencoded_frame_rule():
    # a Pauli the sampler can draw after any step of the unencoded circuit
    # gives the state the logical model gives with the frame's rotations
    # negated, read through the frame's X flips
    lc = build_qaoa(generate_instance(GraphKind.REGULAR_3, 4, seed=0),
                    ramp_params(2))
    k = lc.k
    steps = _logical_steps(lc)
    model = _LogicalModel(k, _logical_ops(steps))
    entries = _logical_entries(steps, k)
    index = np.arange(1 << k)
    assert any(angle is None for _, angle in steps)     # idle slots too
    for i, (support, _) in enumerate(steps):
        for code in range(1, 4 ** len(support)):
            state = StateVector(k)
            for q in range(k):
                state.apply_h(q)
            for j, (qubits, angle) in enumerate(steps):
                if angle is not None and len(qubits) == 2:
                    state.apply_rzz(*qubits, angle)
                elif angle is not None:
                    state.apply_rx(qubits[0], angle)
                if j == i:
                    _apply_random_pauli(state, support, _PauliRecorder(code))
            frame = _combine(entries[i][::-1])[code - 1]
            rot = frame >> k
            probs = model.state(rot).probabilities() if rot else model.probs
            assert np.max(np.abs(probs[index ^ (frame & (1 << k) - 1)]
                                 - state.probabilities())) <= 1e-12, \
                (i, code)


@functools.lru_cache(maxsize=None)
def _criterion_7_circuit(mode, s):
    """Criterion 7's k=10, p=3 circuit of `mode` with s syndromes (queue
    cap 200)."""
    g = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
    return compile_mode(g, ramp_params(3), mode, s, 200)


class TestLogicalModel:
    """A certified reading's distribution with rotations negated (its
    `weights` of the logical model's state) against the dense distribution
    of the circuit with those rotations negated, on criterion 7's k=10,
    p=3 circuits (queue cap 200); and the readings that have no model."""

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_reweighting_matches_the_negated_circuit(self, mode, s):
        enc = _criterion_7_circuit(mode, s)
        circ = enc.circuit
        reading = _shot_plan(circ).reading(enc.checks, enc.decode)
        model = reading.model
        assert model is not None
        rotations = [gi for gi, g in enumerate(circ.gates)
                     if g.kind in (GateKind.RZZ, GateKind.RXX)]
        rng = np.random.default_rng(s)
        for size in (1, 3, 5):
            flipped = set(rng.choice(rotations, size, replace=False).tolist())
            negated = dataclasses.replace(circ, gates=[
                dataclasses.replace(g, angle=-g.angle) if gi in flipped else g
                for gi, g in enumerate(circ.gates)])
            dense = {_word(b): p for b, p in
                     exact_bit_distribution(negated).items()}
            weights = dict(zip(reading.words, reading.weights(
                model.state(_mask(flipped)).probabilities())))
            assert max(abs(dense.get(b, 0.0) - weights.get(b, 0.0))
                       for b in dense.keys() | weights.keys()) <= 1e-15

    def test_no_dense_state_in_any_mode(self, monkeypatch):
        g = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
        built = _count_states(monkeypatch)
        for mode in MODES:
            enc = compile_mode(g, ramp_params(3), mode, 2, 100)
            args = (enc.circuit, NoiseModel(scale=4.0), 150, 5)
            kw = dict(checks=enc.checks, decode=enc.decode)
            assert _shot_plan(enc.circuit).reading(
                enc.checks, enc.decode).model is not None
            built.clear()
            recs = sample_shots(*args, **kw)
            assert enc.circuit.num_qubits not in built, mode
            assert len(enc.decode) in built, mode
            assert assert_matches_references(recs, *args, **kw) > 0, mode

    @pytest.mark.parametrize("build, decode", [
        pytest.param(build, decode, id=build.__name__ + suffix)
        for decode, suffix in (({1: frozenset({1})}, ""), (None, "-no-decode"))
        for build in (_not_iceberg_rzz, _not_iceberg_start)])
    def test_rotation_flips_without_a_logical_model(self, build, decode,
                                                    monkeypatch):
        # the dense guard oracle holds (the check on c2 is deterministic
        # and no rotation generator touches it), but the circuit has no
        # logical model (or no decode to build one from), so no
        # certificate: the reading has no guard, every shot runs its
        # trajectory, and every record is the trajectory's
        circ = build()
        checks = (ParityCheck(frozenset({2})),)
        assert _dense_guard(circ, checks) is not None
        reading = _shot_plan(circ).reading(checks, decode)
        assert reading.guard is None and reading.model is None
        args = (circ, NoiseModel(scale=100.0), 400, 3)
        kw = dict(checks=checks, decode=decode)
        ran = _count_trajectories(monkeypatch)
        recs = sample_shots(*args, **kw)
        assert ran[0] == 400
        assert recs == reference_sample_shots(*args, **kw)


def test_table_decoded_once_per_checks_and_decode(monkeypatch):
    # the guard, the logical model, the table and its logicals of a
    # (checks, decode) pair come from one certificate and one affine table,
    # whatever the order of `decode`
    enc = _criterion_7_circuit("resynth+z2", 2)
    calls = [0]
    affine_table = simulator._affine_table

    def counted(*args):
        calls[0] += 1
        return affine_table(*args)

    monkeypatch.setattr(simulator, "_affine_table", counted)
    _plan.cache_clear()
    args = (enc.circuit, NoiseModel(scale=4.0), 200, 1)
    recs = sample_shots(*args, checks=enc.checks, decode=enc.decode)
    assert calls[0] == 1
    reading = _shot_plan(enc.circuit).reading(enc.checks, enc.decode)
    assert reading.guard is not None and reading.model is not None
    reordered = dict(reversed(enc.decode.items()))
    assert list(reordered) != list(enc.decode)
    assert sample_shots(*args, checks=enc.checks, decode=reordered) == recs
    assert calls[0] == 1


def _x_between_rotations(circuit):
    """`circuit` with an X on data qubit 1 right after its first rotation
    there, before the next one."""
    gates = circuit.gates
    gi = next(i for i, g in enumerate(gates)
              if g.kind.rotation and 1 in g.qubits)
    assert any(g.kind.rotation and 1 in g.qubits for g in gates[gi + 1:])
    x = Gate(GateKind.X, (1,), component=gates[gi].component)
    return dataclasses.replace(circuit,
                               gates=[*gates[:gi + 1], x, *gates[gi + 1:]])


def _mutant(name):
    """(circuit, checks, decode) of criterion 7's s=1 circuit with one
    fault: resynth+z2 with an X on data qubit 1 between two of its rotations,
    with logical 1 read from logical 2's data clbit, or with the last CNOT
    of its final gadget deleted; or resynth (no z2) with its first mixer
    RXX(t, q) moved to RXX(b, q)."""
    enc = _criterion_7_circuit("resynth" if name == "rxx_on_b" else
                               "resynth+z2", 1)
    circ, decode, gates = enc.circuit, dict(enc.decode), enc.circuit.gates
    if name == "x_between_rotations":
        gates = _x_between_rotations(circ).gates
    elif name == "decode_clbit_moved":
        shared = decode[1] & decode[2]
        decode[1] = shared | (decode[2] - shared)
    elif name == "final_cnot_deleted":
        final = {c for c, role in circ.components.items()
                 if role is ComponentRole.FINAL_MEAS}
        gi = max(i for i, g in enumerate(gates)
                 if g.component in final and g.kind is GateKind.CNOT)
        gates = gates[:gi] + gates[gi + 1:]
    else:
        k = len(decode)
        gi = next(i for i, g in enumerate(gates)
                  if g.kind is GateKind.RXX and 0 in g.qubits)
        gates = [*gates[:gi], dataclasses.replace(
            gates[gi], qubits=(k + 1, gates[gi].qubits[1])), *gates[gi + 1:]]
    return dataclasses.replace(circ, gates=list(gates)), enc.checks, decode


def _assert_same_outcomes(reading, dense):
    """A certified reading's table against the dense outcomes `dense`
    (exact_bit_distribution's): its words in the order sorted() gives their
    bit tuples, every dense word among them, `cum` the cumulative of their
    P_L(x)/2, and each P_L(x)/2 within 1e-15 of the dense probability, or
    of 0 for a word the dense pass drops (it keeps masses above 1e-15)."""
    rows = [_bit_tuple(w, reading.plan.num_clbits) for w in reading.words]
    assert rows == sorted(rows)
    probs = (reading.model.probs[reading.xs] * 0.5).tolist()
    assert reading.cum.tolist() == np.cumsum(probs).tolist()
    mine = dict(zip(reading.words, probs))
    theirs = {_word(b): p for b, p in dense.items()}
    assert theirs.keys() <= mine.keys()
    assert max(abs(p - theirs.get(w, 0.0)) for w, p in mine.items()) <= 1e-15


class TestCertifiedTable:
    """The table from the stabilizer certificate (stabilizer module)
    against the dense pass, on criterion 7's circuits and their mutants."""

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_equals_the_dense_table(self, mode, s, monkeypatch):
        # a first call on a fresh plan cache builds no state wider than k
        # and no dense table; the dense table then has the same outcomes,
        # and the dense model oracle holds with the reading's own model:
        # its P_L is the dense marginal to 1e-12
        enc = _criterion_7_circuit(mode, s)
        k = len(enc.decode)
        dense = []
        bit_distribution = simulator.exact_bit_distribution
        monkeypatch.setattr(simulator, "exact_bit_distribution",
                            lambda *args: dense.append(args)
                            or bit_distribution(*args))
        _plan.cache_clear()
        built = _count_states(monkeypatch)
        sample_shots(enc.circuit, NoiseModel(scale=4.0), 100, 3,
                     checks=enc.checks, decode=enc.decode)
        assert max(built) == k and dense == []
        monkeypatch.undo()
        reading = _shot_plan(enc.circuit).reading(enc.checks, enc.decode)
        dense = exact_bit_distribution(enc.circuit)
        _assert_same_outcomes(reading, dense)
        xs = dict(zip(reading.words, reading.xs.tolist()))
        oracle = _dense_model(enc.circuit, enc.decode)
        assert oracle is not None
        assert oracle.xs.tolist() == [xs[_word(b)] for b in sorted(dense)]
        assert (oracle.probs == reading.model.probs).all()

    @pytest.mark.parametrize("name", ["x_between_rotations",
                                      "decode_clbit_moved",
                                      "final_cnot_deleted"])
    def test_mutant_falls_back(self, name, monkeypatch):
        # the certificate is refused: the reading has no guard and no
        # model, and every shot runs its trajectory
        circ, checks, decode = _mutant(name)
        _plan.cache_clear()
        reading = _shot_plan(circ).reading(checks, decode)
        assert reading.guard is None and reading.model is None
        args = (circ, NoiseModel(scale=2.0), 60, 7)
        kw = dict(checks=checks, decode=decode)
        ran = _count_trajectories(monkeypatch)
        recs = sample_shots(*args, **kw)
        assert ran[0] == 60
        assert recs == reference_sample_shots(*args, **kw)

    @pytest.mark.parametrize("mode", ["baseline", "resynth+z2"])
    def test_random_mutants(self, mode):
        # an X or Z inserted, a gate that is not a rotation deleted, or two
        # neighbours swapped in a k=6 circuit: the certificate holds exactly
        # where the dense guard oracle holds and the dense model oracle
        # passes, and then its guard is the oracle's and its table has the
        # dense outcomes; a reading has a guard and a model exactly where it
        # is certified
        g = generate_instance(GraphKind.REGULAR_3, 6, seed=1)
        enc = compile_mode(g, ramp_params(2), mode, 1, 100)
        gates, circ = enc.circuit.gates, enc.circuit
        rng = np.random.default_rng(7)
        tail = _trailing_start(gates)
        kept = refused = 0
        for _ in range(60):
            i = int(rng.integers(tail - 1))
            how = rng.integers(3)
            if how == 0:
                kind = (GateKind.X, GateKind.Z)[rng.integers(2)]
                new = [*gates[:i + 1], Gate(kind, (int(rng.integers(
                    circ.num_qubits)),), component=gates[i].component),
                    *gates[i + 1:]]
            elif how == 1 and not gates[i].kind.rotation:
                new = gates[:i] + gates[i + 1:]
            else:
                new = [*gates[:i], gates[i + 1], gates[i], *gates[i + 2:]]
            mutant = dataclasses.replace(circ, gates=new)
            if mutant._first_invalid_gate() is not None:
                continue
            reading = _shot_plan(mutant).reading(enc.checks, enc.decode)
            guard = _dense_guard(mutant, enc.checks)
            certified = reading.guard is not None
            assert certified == (guard is not None and _dense_model(
                mutant, enc.decode) is not None)
            assert (reading.model is not None) == certified
            if certified:
                kept += 1
                assert reading.guard == guard
                _assert_same_outcomes(reading, exact_bit_distribution(mutant))
            else:
                refused += 1
        assert kept and refused

    def test_rxx_on_b_without_z2(self):
        # X_b X_q is Xbar_q = X_t X_q times X_t X_b, which lies in F: it is
        # S_x times Xbar^k, which fixes the code state and commutes with
        # every logical rotation.  So the move keeps the noiseless outcomes,
        # z2 or not, and the certificate and the dense table agree
        circ, checks, decode = _mutant("rxx_on_b")
        reading = _shot_plan(circ).reading(checks, decode)
        assert reading.guard is not None
        _assert_same_outcomes(reading, exact_bit_distribution(circ))
        assert _dense_model(circ, decode) is not None

    def test_k14_above_the_dense_cap(self, monkeypatch):
        # 18 qubits: the certified table needs only the 14-qubit model,
        # whose P_L is the unencoded circuit's distribution
        g = generate_instance(GraphKind.REGULAR_3, 14, seed=0)
        enc = compile_mode(g, ramp_params(2), "resynth+z2", 1, 200)
        assert enc.circuit.num_qubits == 18
        kw = dict(checks=enc.checks, decode=enc.decode)
        built = _count_states(monkeypatch)
        assert all(r.accepted for r in sample_shots(
            enc.circuit, NoiseModel(scale=0.0), 300, 1, **kw))
        recs = sample_shots(enc.circuit, NoiseModel(scale=2.0), 300, 1, **kw)
        assert max(built) == 14
        assert 0 < post_selection_rate(recs) < 1
        model = _shot_plan(enc.circuit).reading(**kw).model
        exact = unencoded_distribution(build_qaoa(g, ramp_params(2)))
        assert np.max(np.abs(model.probs - [
            exact.get(x, 0.0) for x in range(1 << 14)])) <= 1e-12
        with pytest.raises(SimulatorError, match="18 qubits exceeds the "
                           "dense-simulation cap 16: the circuit has no "
                           "stabilizer certificate"):
            sample_shots(_x_between_rotations(enc.circuit), NoiseModel(), 10,
                         0, **kw)


def test_logical_model_built_on_first_use(monkeypatch):
    # a reading's logical model, whose noiseless P_L its table is built
    # from, is built once, by the first call that reads the circuit under
    # its (checks, decode): a zero-shot call (the one `icecomp simulate`
    # makes to check its inputs) builds it, and later calls, noiseless or
    # noisy, reuse it
    enc = _criterion_7_circuit("resynth+z2", 2)
    built = []
    init = _LogicalModel.__init__

    def counted(self, k, ops):
        built.append(k)
        init(self, k, ops)

    monkeypatch.setattr(_LogicalModel, "__init__", counted)
    _plan.cache_clear()
    for noise, shots in ((NoiseModel(), 0), (NoiseModel(scale=0.0), 200),
                         (NoiseModel(scale=4.0), 200)):
        sample_shots(enc.circuit, noise, shots, 1, checks=enc.checks,
                     decode=enc.decode)
        assert built == [len(enc.decode)]
    assert _shot_plan(enc.circuit).reading(
        enc.checks, enc.decode).model is not None


@pytest.mark.parametrize("mode", ["baseline", "resynth", "resynth+z2"])
@pytest.mark.parametrize("k", [22, 34])
def test_site_table_at_paper_scale(k, mode, monkeypatch):
    # the abstract's circuits: a plan's sites come from the circuit alone,
    # with no state built, while sampling them needs the k-qubit logical
    # model, above the cap
    g = generate_instance(GraphKind.REGULAR_3, k, seed=0)
    enc = compile_mode(g, ramp_params(10), mode, 3, 200)
    circ = enc.circuit
    built = _count_states(monkeypatch)
    plan = _ShotPlan(circ)
    assert built == []
    idle = 0
    for layer in layered_schedule(circ).layers:
        if any(circ.gates[gi].is_two_qubit for gi in layer):
            idle += circ.num_qubits - len(
                {q for gi in layer for q in circ.gates[gi].qubits})
    assert plan.family_sizes["p2"] == circ.two_qubit_gate_count()
    assert plan.family_sizes["p_meas"] == sum(
        1 for gate in circ.gates if gate.kind.measurement)
    assert plan.family_sizes["p_idle"] == idle
    with pytest.raises(SimulatorError, match="dense-simulation cap"):
        sample_shots(circ, NoiseModel(), 1, 0, checks=enc.checks,
                     decode=enc.decode)


def test_too_wide_for_a_plan(monkeypatch):
    # a circuit above the cap raises before its plan is built, so it takes
    # no plan slot and its site table is not built on every call
    g = generate_instance(GraphKind.REGULAR_3, 22, seed=0)
    enc = compile_mode(g, ramp_params(10), "resynth+z2", 3, 200)
    built = []
    init = _ShotPlan.__init__

    def counted(self, circuit):
        built.append(circuit.num_qubits)
        init(self, circuit)

    monkeypatch.setattr(_ShotPlan, "__init__", counted)
    _plan.cache_clear()
    for _ in range(2):
        with pytest.raises(SimulatorError, match="dense-simulation cap"):
            sample_shots(enc.circuit, NoiseModel(), 1, 0, checks=enc.checks,
                         decode=enc.decode)
    assert built == []
    assert _plan.cache_info().currsize == 0


def test_logical_plan_cached_by_content(monkeypatch):
    # an unencoded circuit's steps and model are built once per content, in
    # the plans' LRU, and unencoded_distribution reads the same model
    lc = build_qaoa(generate_instance(GraphKind.REGULAR_3, 6, seed=1),
                    ramp_params(2))
    calls = [0]
    steps = simulator._logical_steps

    def counted(lc):
        calls[0] += 1
        return steps(lc)

    monkeypatch.setattr(simulator, "_logical_steps", counted)
    _plan.cache_clear()
    recs = sample_logical_shots(lc, NoiseModel(scale=10.0), 50, 3)
    copy = dataclasses.replace(
        lc, phase_layers=[list(layer) for layer in lc.phase_layers],
        mixer_layers=[list(layer) for layer in lc.mixer_layers])
    assert sample_logical_shots(copy, NoiseModel(scale=10.0), 50, 3) == recs
    dist = unencoded_distribution(lc)
    assert calls[0] == 1 and _plan.cache_info().currsize == 1
    plan = _logical_plan(lc)
    assert dist == {x: float(p) for x, p in enumerate(plan.model.probs)
                    if p > 1e-15}
    copy.mixer_layers[0] = copy.mixer_layers[0][::-1]
    sample_logical_shots(copy, NoiseModel(), 5, 3)
    assert calls[0] == 2 and _plan.cache_info().currsize == 2


def _stacked_rows(reading, rots):
    """reading.model.states(rots) as one amplitude row and one row of the
    reading's `weights` per mask, and the number of blocks."""
    amps, weights, blocks = [None] * len(rots), [None] * len(rots), 0
    for rows, state in reading.model.states(rots):
        blocks += 1
        w = reading.weights(state.probabilities())
        for j, row in enumerate(rows):
            amps[row] = state.amp[j].copy()
            weights[row] = w[j]
    return amps, weights, blocks


@pytest.mark.parametrize("which", ["resynth+z2", "unencoded"])
def test_stacked_pass_equals_one_row_passes(which):
    # every row of one stacked pass, each resuming from the checkpoint of
    # its own first negated rotation or an earlier one, split into blocks
    # under the amplitude budget, equals its own one-row pass
    if which == "unencoded":
        reading = _logical_plan(build_qaoa(
            generate_instance(GraphKind.REGULAR_3, 10, seed=0),
            ramp_params(3)))
    else:
        enc = _criterion_7_circuit(which, 2)
        reading = _shot_plan(enc.circuit).reading(enc.checks, enc.decode)
    model = reading.model
    keys = [key for key, _, _ in model.ops]
    rng = np.random.default_rng(4)
    rots = [sum(1 << int(key) for key in rng.choice(
        keys[lo:], size, replace=False))
        for lo in range(0, len(keys), 5) for size in (1, 3)]
    rots += [sum(1 << int(key) for key in rng.choice(keys, 4, replace=False))
             for _ in range(80 - len(rots))]
    starts = {(bisect.bisect_left(keys, (rot & -rot).bit_length() - 1)
               // model.stride) for rot in rots}
    assert len(starts) >= 5
    per_block = simulator._PASS_AMPS >> model.k
    assert len(rots) > per_block
    amps, weights, blocks = _stacked_rows(reading, rots)
    assert blocks == -(-len(rots) // per_block)
    for rot, amp, w in zip(rots, amps, weights):
        state = model.state(rot)
        assert (state.amp == amp).all()
        assert (reading.weights(state.probabilities()) == w).all()


# ---------------------------------------------------------------------------
# The noiseless outcomes built one entry at a time, as the simulator once
# built them: the oracle of exact_bit_distribution; and the dense checks the
# stabilizer certificate replaced, as oracles of the certificate
# ---------------------------------------------------------------------------

def _dense_model(circuit, decode):
    """The reference oracle of the certificate: the logical model of the
    circuit's rotations (_model_ops) checked against its dense table alone.
    None unless every reset is deterministic (a random reset leaves a
    mixture that no one logical state stands for), every logical x has an
    entry and the model's P_L is the table's decoded marginal to 1e-12;
    else the model, with each entry's logical (`xs`) and that marginal,
    the entries in the order sorted() gives their bit tuples."""
    ops = _model_ops(_shot_plan(circuit), decode)
    if ops is None or not reference_bit_distribution(circuit)[1]:
        return None
    k = len(decode)
    dense = sorted(exact_bit_distribution(circuit).items())
    readout = _Readout((), decode, circuit.num_clbits)
    xs = np.array([readout.decode_word(_word(b))[2] for b, _ in dense],
                  dtype=np.intp)
    marginal = np.bincount(xs, weights=[p for _, p in dense],
                           minlength=1 << k)
    if not marginal.all():
        return None
    model = _LogicalModel(k, ops)
    if np.max(np.abs(model.probs - marginal)) > 1e-12:
        return None
    model.xs, model.marginal = xs, marginal
    return model


def reference_bit_distribution(circuit):
    """(exact_bit_distribution as a dict filled one entry at a time, whether
    every reset is deterministic), of a circuit."""
    gates = circuit.gates
    resets_fixed = True
    tail_start = _trailing_start(gates)
    branches = [(1.0, StateVector(circuit.num_qubits),
                 [0] * circuit.num_clbits)]
    for gi in range(tail_start):
        g = gates[gi]
        if g.kind in (GateKind.MEASURE_Z, GateKind.MEASURE_X, GateKind.RESET):
            new_branches = []
            for weight, state, bits in branches:
                if g.kind is GateKind.MEASURE_X:
                    state.apply_h(g.qubits[0])
                p1 = state.prob_one(g.qubits[0])
                outcomes = []
                if p1 < 1.0 - BRANCH_TOL:
                    outcomes.append(0)
                if p1 > BRANCH_TOL:
                    outcomes.append(1)
                if g.kind is GateKind.RESET and len(outcomes) > 1:
                    resets_fixed = False
                for v in outcomes:
                    st = state.copy() if len(outcomes) > 1 else state
                    p = st.collapse(g.qubits[0], v, p1)
                    nb = bits if g.kind is GateKind.RESET else list(bits)
                    if g.kind is GateKind.RESET:
                        if v == 1:
                            st.apply_x(g.qubits[0])
                    else:
                        nb[g.clbit] = v
                    new_branches.append((weight * p, st, nb))
            branches = new_branches
        else:
            for _, state, _ in branches:
                _apply_gate(state, g)

    tail = [g for g in gates[tail_start:] if g.kind is not GateKind.BARRIER]
    dist = {}
    for weight, state, bits in branches:
        for g in tail:
            if g.kind is GateKind.MEASURE_X:
                state.apply_h(g.qubits[0])
        probs = state.probabilities()
        idx = np.arange(len(probs))
        sig = np.zeros(len(probs), dtype=np.int64)
        last = {g.clbit: g.qubits[0] for g in tail}
        for pos, q in enumerate(last.values()):
            sig |= (((idx >> q) & 1) << pos).astype(np.int64)
        order = list(last)
        mass = np.bincount(sig, weights=probs, minlength=1)
        for s, pm in enumerate(mass):
            if pm <= 1e-15:
                continue
            nb = list(bits)
            for bitpos, clbit in enumerate(order):
                nb[clbit] = (s >> bitpos) & 1
            key = tuple(nb)
            dist[key] = dist.get(key, 0.0) + weight * pm
    return dist, resets_fixed


def _dense_guard(circuit, checks, dist=None):
    """The frame guard as the dense table once gave it, from the dict of
    noiseless outcomes `dist` (reference_bit_distribution's, by default):
    None unless each clbit is measured at most once, every check has one
    value over the noiseless outcomes, and no rotation generator (Z_aZ_b
    after an RZZ, X_aX_b after an RXX), taken as a fault right after its
    own gate (propagate_pauli), flips a check parity; else per check its
    clbit mask and the flip parity under which it keeps its expected
    value.  It holds wherever the certificate does (TestCertifiedTable)."""
    clbits = [g.clbit for g in circuit.gates if g.kind.measurement]
    if len(set(clbits)) < len(clbits):
        return None
    if dist is None:
        dist, _ = reference_bit_distribution(circuit)
    readout = _Readout(checks, None, circuit.num_clbits)
    values = {readout.decode_word(_word(b))[0] for b in dist}
    if len(values) != 1:
        return None
    masks = [_mask(c.bits) for c in checks]
    for gi, g in enumerate(circuit.gates):
        if g.kind.rotation:
            letter = "Z" if g.kind is GateKind.RZZ else "X"
            _, flips, _ = propagate_pauli(circuit, gi, PauliString.from_ops(
                (q, letter) for q in g.qubits))
            if any((_mask(flips) & m).bit_count() & 1 for m in masks):
                return None
    (ideal_values,) = values
    return tuple((m, v ^ c.expected)
                 for m, v, c in zip(masks, ideal_values, checks))


def reference_tables(circuit, checks, decode):
    """Everything the sampler and exact_* derive from the noiseless
    outcomes, from the dict, one entry at a time: its words, floats and
    records in sorted order, the dense guard, each entry's logical and the
    post-selected logical distribution."""
    dist, _ = reference_bit_distribution(circuit)
    ideal = sorted(dist.items())
    bits_list = [b for b, _ in ideal]
    out = {"dist": list(dist.items()),
           "words": [_word(b) for b in bits_list],
           "probs": [p for _, p in ideal],
           "records": [make_record(b, checks, decode) for b in bits_list],
           "guard": _dense_guard(circuit, checks, dist)}

    readout = _Readout((), decode, circuit.num_clbits)
    out["xs"] = [readout.decode_word(_word(b))[2] for b in bits_list]

    readout = _Readout(checks, decode, circuit.num_clbits)
    acc = 0.0
    logical = {}
    for bits, p in dist.items():
        _, accepted, x = readout.decode_word(_word(bits))
        if accepted:
            acc += p
            logical[x] = logical.get(x, 0.0) + p
    if acc > 0:
        logical = {x: p / acc for x, p in logical.items()}
    out["logical"] = (acc, list(logical.items()))
    return out


def _merging_reset_circuit():
    # four random resets: 16 branches, each with all four tail outcomes of
    # qubits 4 and 0, so each entry sums 16 unequal branch probabilities
    c = PhysicalCircuit(5, 2)
    for q, theta in enumerate((0.3, 0.7, 1.1, 0.5)):
        c.rxx(q, 4, theta)
        c.reset(q)
    c.h(4)
    c.rxx(0, 4, 0.9)
    c.mz(4, 0)
    c.mz(0, 1)
    return c


def _wide_circuit():
    # 70 clbits, so a word and an outcome-table key take two limbs each: a
    # random mid-circuit outcome in c5 (copied to c66 and c68 at the end), a
    # random one in c67, and 66 deterministic mid-circuit ones
    c = PhysicalCircuit(4, 70)
    c.h(1)
    c.mz(1, 5)
    c.cx(1, 2)
    for b in range(70):
        if b not in (5, 66, 67, 68):
            if b % 3 == 0:
                c.x(0)
            c.mz(0, b)
    c.h(3)
    c.mz(2, 66)
    c.mz(3, 67)
    c.mz(1, 68)
    return c


def _branching_circuit(width):
    # `width` clbits: two random resets whose four branches each reach all
    # four trailing outcomes of qubits 3 and 1 (clbits 1 and 2), random
    # mid-circuit outcomes of qubit 2 in clbits 62, 63 and 64 and the top
    # one, where there are, and deterministic ones of qubit 0 in the rest
    c = PhysicalCircuit(4, width)
    for q, theta in ((0, 0.3), (1, 0.7)):
        c.rxx(q, 3, theta)
        c.reset(q)
    for b in (0, *range(3, width)):
        if b in (62, 63, 64, width - 1):
            c.h(2)
            c.mz(2, b)
        else:
            if b % 3 == 0:
                c.x(0)
            c.mz(0, b)
    c.h(3)
    c.rxx(1, 3, 0.9)
    c.mz(3, 1)
    c.mz(1, 2)
    return c


class TestIdealTableOracle:
    """exact_bit_distribution against the dict built one entry at a time
    (reference_bit_distribution): the same keys in the same order, the
    same floats summed in the same order, and the same exact logical
    distribution.  A reading the certificate refuses has no table, no
    guard and no model, and its readout gives the dict's records.  A
    certified reading has the dense outcomes (_assert_same_outcomes) and
    the dict's guard, logicals and records.  The dense model oracle
    (_dense_model) has the same logical model inputs, and passes exactly
    where the certificate holds."""

    @staticmethod
    def check(circuit, checks, decode, has_model):
        ref = reference_tables(circuit, checks, decode)
        _plan.cache_clear()
        plan = _shot_plan(circuit)
        dense = exact_bit_distribution(circuit)
        assert list(dense.items()) == ref["dist"]
        reading = plan.reading(checks, decode)
        assert (reading.guard is not None) == has_model
        assert (reading.model is not None) == has_model
        if has_model:
            _assert_same_outcomes(reading, dense)
            assert reading.guard == ref["guard"]
            entry = {w: i for i, w in enumerate(reading.words)}
            rows = [entry[w] for w in ref["words"]]
            assert reading.xs[rows].tolist() == ref["xs"]
            assert [reading.record(i, 0) for i in rows] == ref["records"]
        else:
            assert reading.words is None and reading.cum is None
            assert [reading.readout.record(_bit_tuple(w, circuit.num_clbits))
                    for w in ref["words"]] == ref["records"]
        model = _dense_model(circuit, decode)
        assert (model is not None) == has_model
        if model is not None:
            assert model.xs.tolist() == ref["xs"]
            marginal = np.bincount(ref["xs"], weights=ref["probs"],
                                   minlength=1 << len(decode))
            assert model.marginal.tolist() == marginal.tolist()
        acc, logical = exact_logical_distribution(circuit, checks, decode)
        assert (acc, list(logical.items())) == ref["logical"]

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_criterion_7_circuits(self, mode, s):
        enc = _criterion_7_circuit(mode, s)
        self.check(enc.circuit, enc.checks, enc.decode, True)

    def test_k12_baseline(self):
        g = generate_instance(GraphKind.REGULAR_3, 12, seed=0)
        enc = compile_mode(g, ramp_params(3), "baseline", 2, 100)
        assert enc.circuit.num_qubits == 16
        self.check(enc.circuit, enc.checks, enc.decode, True)

    def test_mid_circuit_branches(self):
        checks = (ParityCheck(frozenset({0, 1})),)
        self.check(_mid_measure_circuit(), checks,
                   {1: frozenset({2}), 2: frozenset({3, 4})}, False)

    def test_branches_merging_after_random_resets(self):
        circ = _merging_reset_circuit()
        dist = reference_bit_distribution(circ)[0]
        assert len(dist) == 4 and not reference_bit_distribution(circ)[1]
        self.check(circ, (ParityCheck(frozenset({1})),),
                   {1: frozenset({0})}, False)

    def test_words_wider_than_64_bits(self):
        # logical 70 puts the decoded logical above 2^63
        self.check(_wide_circuit(), (ParityCheck(frozenset({5, 66})),),
                   {1: frozenset({67}), 2: frozenset({5, 68}),
                    70: frozenset({3, 67})}, False)

    def test_qubit_measured_twice_at_the_end(self):
        # Z, then X on qubit 0 from |0>: the first outcome is 0 and the
        # second random, as every trajectory has them, not read off one
        # state as a joint readout would, which gives (0, 0) and (1, 1)
        circ = PhysicalCircuit(1, 2)
        circ.mz(0, 0)
        circ.mx(0, 1)
        dist = exact_bit_distribution(circ)
        assert list(dist) == [(0, 0), (0, 1)]
        assert list(dist.values()) == pytest.approx([0.5, 0.5], abs=1e-15)
        self.check(circ, (), {1: frozenset({1})}, False)
        assert {r.bits for r in sample_shots(
            circ, NoiseModel(scale=0.0), 50, 3)} == {(0, 0), (0, 1)}

    @pytest.mark.parametrize("width", [63, 64, 65, 130])
    def test_branches_merging_around_64_clbits(self, width):
        # random outcomes in the clbits on both sides of bit 64 and in the
        # top one, and four reset branches that each reach every trailing
        # outcome: the entries merge as the dict's, in the same order, and
        # a logical above bit 63 decodes as the dict's
        circ = _branching_circuit(width)
        dist, _ = reference_bit_distribution(circ)
        assert len(dist) == 4 << len({62, 63, 64, width - 1} &
                                     set(range(width)))
        top = min(width - 1, 64)
        self.check(circ, (ParityCheck(frozenset({1, top})),),
                   {1: frozenset({2}), 65: frozenset({62, width - 1})},
                   False)

    @pytest.mark.parametrize("build, checks, decode", [
        (_merging_reset_circuit, (ParityCheck(frozenset({1})),),
         {1: frozenset({0})}),
        (_wide_circuit, (ParityCheck(frozenset({5, 66})),),
         {1: frozenset({67}), 2: frozenset({5, 68})}),
    ])
    def test_shots_match_the_trajectories(self, build, checks, decode):
        args = (build(), NoiseModel(scale=30.0), 300, 4)
        kw = dict(checks=checks, decode=decode)
        assert_matches_references(sample_shots(*args, **kw), *args, **kw)


@pytest.mark.parametrize("call", [
    lambda d: sample_shots(_wide_circuit(), NoiseModel(), 5, 0, decode=d),
    lambda d: make_record([0] * 70, (), d),
    lambda d: exact_logical_distribution(_wide_circuit(), (), d),
])
def test_decode_index_below_1_rejected(call):
    with pytest.raises(ValueError, match=r"decode indices \[-1, 0\] are below 1"):
        call({0: frozenset({1}), 1: frozenset({2}), -1: frozenset({3})})


def _one_clbit_circuit():
    c = PhysicalCircuit(2, 1)
    c.h(0)
    c.mz(0, 0)
    return c


@pytest.mark.parametrize("call", [
    lambda ch, d: sample_shots(_one_clbit_circuit(), NoiseModel(), 5, 0,
                               checks=ch, decode=d),
    lambda ch, d: exact_logical_distribution(_one_clbit_circuit(), ch, d),
    lambda ch, d: make_record([0], ch, d),
    lambda ch, d: decode_bits([0], ch, d),
], ids=["sample_shots", "exact_logical_distribution", "make_record",
        "decode_bits"])
@pytest.mark.parametrize("checks, decode, msg", [
    ((ParityCheck(frozenset({5}), 1),), {1: frozenset({0})},
     r"check clbits \[5\] are out of range: there are 1 clbits"),
    ((ParityCheck(frozenset({0})),), {1: frozenset({7}), 2: frozenset({0, 9})},
     r"decode clbits \[7, 9\] are out of range: there are 1 clbits"),
], ids=["check", "decode"])
def test_clbit_out_of_range_rejected(call, checks, decode, msg):
    # a check or decode clbit the circuit lacks would read as 0 in every shot
    with pytest.raises(ValueError, match=msg):
        call(checks, decode)


@pytest.mark.parametrize("seed", [0, 1, (1 << 32) - 1, 1 << 32,
                                  (1 << 64) + 5, (1 << 100) + 9,
                                  np.int64(77), 17, 1 << 40])
def test_call_streams_are_the_default_rng_streams(seed):
    # one sampling call's streams, seeded in blocks of shots by one
    # vectorized pass, are numpy's per-shot streams, and pointing the
    # call's generator at a shot again starts its stream again.  A seed of
    # four or more words hashes its words past the pool's four in turn.
    # A call's first block may start at any shot: shots 3 and 999 seed
    # blocks of their own that start off a multiple of _SEED_BLOCK
    def ref_stream(shot):
        return np.random.default_rng(np.random.SeedSequence((seed, shot)))

    streams = _Streams(seed, 257)
    for shot in range(257):
        ref = ref_stream(shot)
        rng = streams.at(shot)
        assert rng.random(1000).tolist() == ref.random(1000).tolist()
        assert [int(rng.integers(1, 16)) for _ in range(20)] == \
            [int(ref.integers(1, 16)) for _ in range(20)]
        if shot % 64 == 0:
            again = ref_stream(shot).random(3).tolist()
            assert streams.at(shot).random(3).tolist() == again
    for shot in (3, 999):
        rng, ref = _Streams(seed, shot + 1).at(shot), ref_stream(shot)
        assert rng.random(1000).tolist() == ref.random(1000).tolist()
        assert [int(rng.integers(1, 16)) for _ in range(50)] == \
            [int(ref.integers(1, 16)) for _ in range(50)]


def test_record_matches_bit_sums():
    # check values and decoded logicals from clbit masks, against the sums
    # over each check's and each logical's bits
    checks = (ParityCheck(frozenset({0, 3})), ParityCheck(frozenset({1}), 1),
              ParityCheck(frozenset({2, 4, 5})))
    decode = {1: frozenset({4}), 2: frozenset({0, 5}),
              3: frozenset({1, 2, 3})}
    rng = np.random.default_rng(3)
    for _ in range(200):
        bits = rng.integers(0, 2, 6).tolist()
        values = tuple(sum(bits[b] for b in c.bits) % 2 for c in checks)
        accepted = all(v == c.expected for v, c in zip(values, checks))
        logical = sum(1 << (i - 1) for i, bs in decode.items()
                      if sum(bits[b] for b in bs) % 2) if accepted else None
        assert make_record(bits, checks, decode) == \
            ShotRecord(tuple(bits), values, accepted, logical)
        assert make_record(bits, checks, None) == \
            ShotRecord(tuple(bits), values, accepted, None)


class TestRecordGolden:
    """sha256 of the records of criterion 7's s=1 resynth+z2 circuit
    (3-regular k=10 seed 0, p=3, queue_cap 200) and of its unencoded
    circuit: 1,000 shots, seed 0, noise scale 1.0.  A change that moves any
    draw or any amplitude's rounding shows here; it must update these, and
    say why.  VERDICTS digests the same encoded records without the bits of
    rejected shots: every verdict, check value and accepted record.  DENSE
    digests the dense oracle on the encoded circuit: the items of
    exact_bit_distribution and exact_logical_distribution with no fault,
    then with one Pauli after every 16th gate before the trailing block."""

    ENCODED = ("79cafb78e9293bd48f5d3d13fc795168"
               "259100c28e91982fad06f8a8bf4625de")
    VERDICTS = ("c1b181e910bac1c64d36772ac1cc954f"
                "cd2aed2c938c08b195529bf0ebfd4850")
    UNENCODED = ("7fc6ce2ca1cda0bd894cefbda5e605b5"
                 "6b727b051aad3ec2b3a6e4f96308ce6c")
    DENSE = ("6d170fe9d076db14158e5a89534a8032"
             "eab6002eb129209f69c1012ab7182ca9")

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
    def encoded(self):
        return compile_cooptimized(self.graph, self.params, CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.NEW, queue_cap=200,
            resynthesize=True, use_z2=True))

    @pytest.fixture(scope="class")
    def encoded_records(self, encoded):
        return sample_shots(encoded.circuit, NoiseModel(scale=1.0), 1000, 0,
                            checks=encoded.checks, decode=encoded.decode)

    def test_encoded(self, encoded_records):
        assert self._digest(encoded_records) == self.ENCODED

    def test_encoded_verdicts(self, encoded_records):
        assert self._digest(encoded_records, rejected_bits=False) == \
            self.VERDICTS

    def test_unencoded(self):
        lc = build_qaoa(self.graph, self.params)
        recs = sample_logical_shots(lc, NoiseModel(scale=1.0), 1000, 0)
        assert self._digest(recs) == self.UNENCODED

    def test_dense(self, encoded):
        circ, gates = encoded.circuit, encoded.circuit.gates
        sites = [gi for gi in range(_trailing_start(gates))
                 if gates[gi].kind is not GateKind.BARRIER][::16]
        h = hashlib.sha256()
        for inject in [()] + [[(gi, PauliString.from_ops(
                [(gates[gi].qubits[-1], "XYZ"[n % 3])]))]
                for n, gi in enumerate(sites)]:
            acc, logical = exact_logical_distribution(
                circ, encoded.checks, encoded.decode, inject)
            h.update(f"{list(exact_bit_distribution(circ, inject).items())} "
                     f"{acc!r} {list(logical.items())}\n".encode())
        assert h.hexdigest() == self.DENSE


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
