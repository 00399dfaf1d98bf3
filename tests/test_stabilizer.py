"""The stabilizer certificate's parts against dense linear algebra, its
refusals on small Iceberg circuits built to need them, and where it holds:
on the paper's circuits, and on every shot of a certified reading."""

import functools

import numpy as np
import pytest

from icecomp.bench import MODES, compile_mode
from icecomp.circuit import Gate, GateKind, PhysicalCircuit
from icecomp.compiler import CompileConfig, GadgetSet, compile_baseline
from icecomp.gadgets import ParityCheck
from icecomp.maxcut import GraphKind, generate_instance, ramp_params
from icecomp.simulator import (NoiseModel, StateVector, _apply_gate,
                               _model_ops, _ShotPlan, _trailing_start,
                               exact_bit_distribution, sample_shots)
from icecomp.stabilizer import CliffordRun, _Tableau
from test_simulator import (_assert_same_outcomes, _count_trajectories,
                            _dense_guard, _dense_model,
                            assert_matches_references, reference_sample_shots)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


def _pauli(p, n):
    """The dense matrix of the Pauli p = (e, x, z): i^e X^x Z^z, qubit q
    bit q of the index."""
    e, x, z = p
    xs = zs = np.eye(1)
    for q in reversed(range(n)):
        xs = np.kron(xs, _X if x >> q & 1 else np.eye(2))
        zs = np.kron(zs, _Z if z >> q & 1 else np.eye(2))
    return 1j ** e * xs @ zs


def _unitary(gates, n):
    """The dense matrix of the unitary gates, the first applied first."""
    cols = []
    for i in range(1 << n):
        state = StateVector(n)
        state.amp = np.zeros(1 << n, dtype=complex)
        state.amp[i] = 1.0
        for g in gates:
            _apply_gate(state, g)
        cols.append(state.amp)
    return np.array(cols).T


def _random_clifford(rng, n, count, rotations=False):
    kinds = [GateKind.H, GateKind.X, GateKind.Z, GateKind.CNOT]
    if rotations:
        kinds += [GateKind.RZZ, GateKind.RXX]
    gates = []
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        if kind.arity == 2:
            qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        else:
            qubits = (int(rng.integers(n)),)
        gates.append(Gate(kind, qubits,
                          angle=0.3 if kind.rotation else None))
    return gates


@pytest.mark.parametrize("seed", range(6))
def test_generators_are_the_signed_conjugates(seed):
    # Q_j = U P_j U^dagger, U the Cliffords after rotation j, phase included
    rng = np.random.default_rng(seed)
    n = 4
    gates = _random_clifford(rng, n, 40, rotations=True)
    run = CliffordRun(gates, n, len(gates))
    assert run.ok
    cliffords = [g for g in gates if not g.kind.rotation]
    for gi, q in run.generators.items():
        g = gates[gi]
        letter = 1 if g.kind is GateKind.RZZ else 0    # Z or X
        p = (0, 0, 0)
        for b in g.qubits:
            p = (0, p[1] | (1 - letter) << b, p[2] | letter << b)
        u = _unitary([h for h in gates[gi + 1:] if not h.kind.rotation], n)
        assert np.allclose(u @ _pauli(p, n) @ u.conj().T, _pauli(q, n),
                           atol=1e-12), gi
    assert len(run.generators) == len(gates) - len(cliffords)


@pytest.mark.parametrize("seed", range(6))
def test_tableau_stabilizes_the_dense_state(seed):
    # every stabilizer row fixes the state, and a Z measurement is
    # deterministic exactly when the dense state says so, with its value
    rng = np.random.default_rng(seed)
    n = 4
    gates = _random_clifford(rng, n, 30)
    t = _Tableau(n)
    state = StateVector(n)
    for g in gates:
        _apply_gate(state, g)
        if g.kind is GateKind.CNOT:
            t.cx(*g.qubits)
        else:
            {GateKind.H: t.h, GateKind.X: t.pauli_x,
             GateKind.Z: t.pauli_z}[g.kind](g.qubits[0])
    for r in range(n):
        row = t.product(1 << n + r)
        assert np.allclose(_pauli(row, n) @ state.amp, state.amp)
    for q in range(n):
        p1 = state.prob_one(q)
        m, flipped = t.copy().measure(q)
        if flipped:
            assert abs(p1 - 0.5) < 1e-12 and flipped >> q & 1
        else:
            assert abs(p1 - m) < 1e-12


# A k=2 Iceberg circuit: t = 0, data 1 and 2, b = 3, an ancilla 4, and the
# logical |++> as the X-basis GHZ state; clbit q reads qubit q at the end
_CHECKS = (ParityCheck(frozenset({0, 1, 2, 3})),)
_DECODE = {1: frozenset({1, 3}), 2: frozenset({2, 3})}


def _toy(*middle):
    """The k=2 circuit with the gates `middle` after its first RZZ."""
    c = PhysicalCircuit(5, 5)
    c.h(0)
    for q in (1, 2, 3):
        c.cx(0, q)
    for q in range(4):
        c.h(q)
    c.rzz(1, 2, 0.37)
    c.gates += middle
    c.rxx(0, 1, 0.61)
    c.rxx(3, 2, 0.23)
    for q in range(4):
        c.mz(q, q)
    return c


def _ancilla(*ops):
    return [Gate(kind, qubits, clbit=4 if kind.measurement else None)
            for kind, qubits in ops]


@pytest.mark.parametrize("middle, certified", [
    ((), True),
    # CNOT(4, 1) twice around a second RZZ with the ancilla in |0>: no-ops
    (_ancilla((GateKind.CNOT, (4, 1))) + [Gate(GateKind.RZZ, (1, 2), 0.2)]
     + _ancilla((GateKind.CNOT, (4, 1)), (GateKind.RESET, (4,))), True),
    # with the ancilla in |1> they negate that RZZ: the reset's sign
    (_ancilla((GateKind.X, (4,)), (GateKind.CNOT, (4, 1)))
     + [Gate(GateKind.RZZ, (1, 2), 0.2)]
     + _ancilla((GateKind.CNOT, (4, 1)), (GateKind.RESET, (4,))), False),
    # Xbar_1 = X_0 X_1 measured into c4 after the RZZ, which anticommutes
    # with it: the measurement's marker
    (_ancilla((GateKind.H, (4,)), (GateKind.CNOT, (4, 0)),
              (GateKind.CNOT, (4, 1)), (GateKind.H, (4,)),
              (GateKind.MEASURE_Z, (4,)), (GateKind.RESET, (4,))), False),
], ids=["plain", "ancilla-0", "reset-sign", "marker"])
def test_toy_circuits(middle, certified):
    # certified, with a guard and a model, exactly where the dense guard
    # and model oracles pass, and then with the dense table's outcomes
    circuit = _toy(*middle)
    plan = _ShotPlan(circuit)
    reading = plan.reading(_CHECKS, _DECODE)
    assert (reading.guard is not None) == certified
    assert (reading.model is not None) == certified
    assert (_dense_guard(circuit, _CHECKS) is not None
            and _dense_model(circuit, _DECODE) is not None) == certified
    if certified:
        assert reading.guard == _dense_guard(circuit, _CHECKS)
        _assert_same_outcomes(reading, exact_bit_distribution(circuit))


def test_random_ancilla_measurement_has_no_model(monkeypatch):
    # a random mid-circuit measurement of the ancilla, which touches no
    # logical: the dense guard and model oracles pass, but part (i) refuses
    # a random outcome, so the reading has no guard and no model, and every
    # shot runs its trajectory
    circuit = _toy(*_ancilla((GateKind.H, (4,)), (GateKind.MEASURE_Z, (4,))))
    plan = _ShotPlan(circuit)
    reading = plan.reading(_CHECKS, _DECODE)
    assert reading.guard is None and reading.model is None
    assert _dense_guard(circuit, _CHECKS) is not None
    assert _dense_model(circuit, _DECODE) is not None
    args = (circuit, NoiseModel(scale=40.0), 300, 2)
    kw = dict(checks=_CHECKS, decode=_DECODE)
    ran = _count_trajectories(monkeypatch)
    recs = sample_shots(*args, **kw)
    assert ran[0] == 300
    assert recs == reference_sample_shots(*args, **kw)


@pytest.mark.parametrize("middle, checks", [
    # the ancilla, left in |0> by a CNOT it controls, measured mid-circuit
    # into c0, which the trailing readout of qubit 0 writes again: an X on
    # the ancilla flips only the overwritten outcome
    ([Gate(GateKind.CNOT, (4, 1)), Gate(GateKind.MEASURE_Z, (4,), clbit=0)],
     _CHECKS),
    ((), ()),
], ids=["clbit-written-twice", "no-checks"])
def test_frame_decides_every_certified_shot(middle, checks, monkeypatch):
    # a certified reading has a guard, () without checks, and a model, so
    # no shot runs its trajectory: every verdict is the trajectory's, and
    # every accepted record the frame rule's
    circuit = _toy(*middle)
    reading = _ShotPlan(circuit).reading(checks, _DECODE)
    assert reading.guard is not None and reading.model is not None
    args = (circuit, NoiseModel(scale=40.0), 400, 5)
    kw = dict(checks=checks, decode=_DECODE)
    ran = _count_trajectories(monkeypatch)
    recs = sample_shots(*args, **kw)
    assert ran[0] == 0
    assert assert_matches_references(recs, *args, **kw) > 0


@functools.lru_cache(maxsize=None)
def _paper_circuit(instance, mode):
    """The abstract's circuits (3-regular, seed 0, k=22 and 34) and the
    dense ER k=22 d=0.8, seed 0: p=10, s=3, queue cap 200, in a bench mode
    or with NEW gadgets in the baseline compiler ("baseline-new")."""
    kind, k = instance
    density = 0.8 if kind is GraphKind.ERDOS_RENYI else None
    g = generate_instance(kind, k, density, seed=0)
    if mode == "baseline-new":
        return compile_baseline(g, ramp_params(10), CompileConfig(
            num_syndromes=3, gadget_set=GadgetSet.NEW))
    return compile_mode(g, ramp_params(10), mode, 3, 200)


@pytest.mark.parametrize("mode", [*MODES, "baseline-new"])
@pytest.mark.parametrize("instance", [
    (GraphKind.REGULAR_3, 22), (GraphKind.REGULAR_3, 34),
    (GraphKind.ERDOS_RENYI, 22)], ids=["regular3-22", "regular3-34", "er-22"])
def test_certificate_holds_at_paper_scale(instance, mode):
    # the sampler decides a shot by its frame only under the certificate,
    # so it must hold on the circuits the paper's numbers come from
    enc = _paper_circuit(instance, mode)
    gates, decode = enc.circuit.gates, enc.decode
    run = CliffordRun(gates, enc.circuit.num_qubits, _trailing_start(gates))
    cert = run.certify(_model_ops(enc.circuit, decode), decode, enc.checks)
    assert cert is not None
    assert len(cert[1]) == len(decode) + 1


def test_f_commutes_with_every_rotation():
    # Xbar_2 = X_0 X_2 and S_x fix the toy's start, but Xbar_2 anticommutes
    # with the RZZ(1, 2): only S_x lies in F, and only with its sign
    gates = _toy().gates
    run = CliffordRun(gates, 5, len(gates) - 4)
    assert run.ok
    s_x = (0, 0b1111, 0)
    assert run._in_f(s_x)
    assert not run._in_f((2, 0b1111, 0))
    assert run.tableau.anticommuting(0b0101, 0) & run.tableau.stab == 0
    assert not run._in_f((0, 0b0101, 0))
