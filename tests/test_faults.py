import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from icecomp import faults
from icecomp.circuit import ComponentRole, Gate, GateKind, PhysicalCircuit
from icecomp.compiler import (CompileConfig, GadgetSet, compile_baseline,
                              compile_cooptimized)
from icecomp.faults import (FaultClass, FaultLocation, PauliString,
                            VerifyContext, check_gadget_ft,
                            classify_rotation_faults, classify_terminal,
                            context_for_gadget, enumerate_fault_locations,
                            _Sweep, _combine, _locations_at,
                            _two_qubit_paulis, fault_reports,
                            propagate_pauli, run_fault)
from icecomp.gadgets import GadgetKind, IcebergLayout, ParityCheck, build_gadget
from icecomp.maxcut import GraphKind, generate_instance, ramp_params
from icecomp.simulator import (_trailing_start, exact_bit_distribution,
                               exact_logical_distribution, total_variation)

P = PauliString.from_ops


def clifford_circuit(gates, n=4):
    c = PhysicalCircuit(n, 0)
    c.begin_component(0, ComponentRole.INIT)
    for kind, *qs in gates:
        getattr(c, kind)(*qs)
    return c


class TestPropagationRules:
    def test_x_through_cnot_control(self):
        c = clifford_circuit([("cx", 0, 1)])
        term, _, _ = propagate_pauli(c, -1, P([(0, "X")]))
        assert term == P([(0, "X"), (1, "X")])

    def test_z_through_cnot_target(self):
        c = clifford_circuit([("cx", 0, 1)])
        term, _, _ = propagate_pauli(c, -1, P([(1, "Z")]))
        assert term == P([(0, "Z"), (1, "Z")])

    def test_h_swaps_xz(self):
        c = clifford_circuit([("h", 0)])
        term, _, _ = propagate_pauli(c, -1, P([(0, "X")]))
        assert term == P([(0, "Z")])

    def test_commuting_rotation_passes(self):
        c = PhysicalCircuit(2, 0)
        c.begin_component(0, ComponentRole.PHASE_LAYER)
        c.rzz(0, 1, 0.3)
        assert propagate_pauli(c, -1, P([(0, "Z")])) == \
            (P([(0, "Z")]), frozenset(), frozenset())

    def test_frame_passes_anticommuting_rotation(self):
        c = PhysicalCircuit(2, 0)
        c.begin_component(0, ComponentRole.PHASE_LAYER)
        c.rzz(0, 1, 0.3)
        c.rzz(0, 1, 0.2)
        term, flips, rotations = propagate_pauli(c, 0, P([(0, "X")]))
        assert (term, flips, rotations) == (P([(0, "X")]), frozenset(),
                                            frozenset({1}))
        _, _, rotations = propagate_pauli(c, -1, P([(0, "Z")]))
        assert rotations == frozenset()

    def test_start_before_circuit_rejected(self):
        c = clifford_circuit([("cx", 0, 1), ("h", 2), ("cx", 2, 3)])
        for start, pauli, named in [(-2, P([(0, "X")]), "-2"),
                                    (3, P([(0, "X")]), "3"),
                                    (10, P([(0, "X")]), "10"),
                                    (0, P([(4, "X")]), "xmask=16"),
                                    (-1, P([(1, "Z"), (6, "Y")]),
                                     "zmask=66")]:
            with pytest.raises(ValueError, match=named):
                propagate_pauli(c, start, pauli)

    def test_measurement_flip_recorded(self):
        c = PhysicalCircuit(1, 1)
        c.begin_component(0, ComponentRole.FINAL_MEAS)
        c.mz(0, 0)
        _, flips, _ = propagate_pauli(c, -1, P([(0, "X")]))
        assert flips == frozenset({0})
        _, flips, _ = propagate_pauli(c, -1, P([(0, "Z")]))
        assert flips == frozenset()

    def test_clbit_outside_the_circuit_rejected(self):
        # the sweep packs rotations right above the circuit's clbits, so a
        # measurement into a clbit it does not declare must raise, as
        # validate() does, and not alias a rotation's bit
        c = PhysicalCircuit(2, 1)
        c.begin_component(0, ComponentRole.FINAL_MEAS)
        c.mz(0, 0)
        c.mx(1, 1)
        with pytest.raises(ValueError, match="classical bit out of range"):
            propagate_pauli(c, -1, P([(0, "X")]))
        c.num_clbits = 2
        assert propagate_pauli(c, -1, P([(1, "Z")]))[1] == frozenset({1})

    def test_homomorphism_on_random_cliffords(self):
        rng = random.Random(5)
        for _ in range(40):
            gates = []
            for _ in range(15):
                if rng.random() < 0.5:
                    a, b = rng.sample(range(4), 2)
                    gates.append(("cx", a, b))
                else:
                    gates.append(("h", rng.randrange(4)))
            c = clifford_circuit(gates)
            p = P([(rng.randrange(4), rng.choice("XYZ"))])
            q = P([(rng.randrange(4), rng.choice("XYZ"))])
            tp, _, _ = propagate_pauli(c, -1, p)
            tq, _, _ = propagate_pauli(c, -1, q)
            tpq, _, _ = propagate_pauli(c, -1, p * q)
            assert tpq == tp * tq


class TestRotationFaultPartition:
    @pytest.mark.parametrize("use_bottom", [False, True])
    @pytest.mark.parametrize("k", [4, 6, 10])
    def test_three_of_fifteen_escape(self, k, use_bottom):
        lay = IcebergLayout(k)
        for i in lay.logical:
            part = classify_rotation_faults(lay, i, use_bottom=use_bottom)
            escaping = {lbl for lbl, esc in part.items() if esc}
            assert escaping == {"XX", "YY", "ZZ"}
            assert len(part) == 15

    def test_single_x_detected(self):
        part = classify_rotation_faults(IcebergLayout(4), 1)
        assert part["XI"] is False and part["IX"] is False


class TestGadgetCertification:
    @pytest.mark.parametrize("kind", list(GadgetKind))
    def test_default_order_no_escapes(self, kind):
        k = 6 if kind is GadgetKind.SYNDROME_NEW else 4
        summary = check_gadget_ft(build_gadget(kind, k))
        assert summary.passed, summary.escapes[:3]
        assert summary.total > 0

    @pytest.mark.parametrize("kind", [GadgetKind.INIT_NEW,
                                      GadgetKind.SYNDROME_NEW,
                                      GadgetKind.FINAL_NEW])
    def test_random_permutations_no_escapes(self, kind):
        k = 6 if kind is GadgetKind.SYNDROME_NEW else 4
        n = k + 2
        rng = random.Random(17)
        for _ in range(6):
            order = tuple(rng.sample(range(n), n))
            summary = check_gadget_ft(build_gadget(kind, k, order))
            assert summary.passed, (kind, order, summary.escapes[:3])

    def test_negative_control_missing_check_escapes(self):
        summary = check_gadget_ft(_crippled_init_old())
        assert summary.num_logical > 0

    def test_x_before_syndrome_detected(self):
        gadget = build_gadget(GadgetKind.SYNDROME_NEW, 6)
        # X on the top qubit after the reset of the first ancilla, i.e.
        # before any coupling: anticommutes with the Z-type collector
        loc = FaultLocation(0, PauliString.from_ops([(0, "X")]))
        rep = run_fault(gadget.fragment, loc, context_for_gadget(gadget))
        assert rep.classification is FaultClass.DETECTED_BY_CHECK


def _crippled_init_old():
    """INIT_OLD k=4 without the verification ancilla's parity check, so its
    staircase faults escape as logical errors."""
    gadget = build_gadget(GadgetKind.INIT_OLD, 4)
    return type(gadget)(gadget.kind, gadget.layout, gadget.implicit_order,
                        gadget.fragment, checks=(), decode=None)


class TestClassifyTerminal:
    def setup_method(self):
        self.gadget = build_gadget(GadgetKind.SYNDROME_OLD, 4)
        self.ctx = context_for_gadget(self.gadget)

    def test_identity_is_stabilizer(self):
        cls = classify_terminal(PauliString(), frozenset(), self.ctx)
        assert cls is FaultClass.STABILIZER_EQUIVALENT

    def test_logical_x_pair_is_logical(self):
        pauli = P([(0, "X"), (2, "X")])   # X_t X_i commutes with both checks
        cls = classify_terminal(pauli, frozenset(), self.ctx)
        assert cls is FaultClass.LOGICAL_ERROR

    def test_single_x_detected_by_trailing_checks(self):
        cls = classify_terminal(P([(0, "X")]), frozenset(), self.ctx)
        assert cls is FaultClass.DETECTED_BY_CHECK

    def test_full_stabilizers_equivalent(self):
        full = (1 << 6) - 1
        for pauli in (PauliString(xmask=full), PauliString(zmask=full),
                      PauliString(xmask=full, zmask=full)):
            assert classify_terminal(pauli, frozenset(), self.ctx) \
                is FaultClass.STABILIZER_EQUIVALENT

    def test_check_flip_detected(self):
        cls = classify_terminal(PauliString(), frozenset({0}), self.ctx)
        assert cls is FaultClass.DETECTED_BY_CHECK


def _reference_verdict(x, z, flips, rotated, ctx):
    """The verdict rule written out case by case (module docstring of
    `icecomp.faults`): the reference the projection must reproduce.  `x`
    and `z` are the terminal masks, `flips` the flipped clbit mask, and
    `rotated` whether any rotation flipped."""
    checks = [sum(1 << b for b in c.bits) for c in ctx.checks]
    decode = [sum(1 << b for b in bits)
              for bits in (ctx.decode or {}).values()]
    for m in checks:
        if (flips & m).bit_count() & 1:
            return FaultClass.DETECTED_BY_CHECK
    if ctx.harmless == "outcomes":
        if rotated or any((flips & m).bit_count() & 1 for m in decode):
            return FaultClass.LOGICAL_ERROR
        return FaultClass.STABILIZER_EQUIVALENT
    full = (1 << ctx.layout.n) - 1
    x &= full
    z &= full
    # ideal trailing stabilizer checks catch odd-weight components
    if ctx.trailing_checks and (x.bit_count() & 1 or z.bit_count() & 1):
        return FaultClass.DETECTED_BY_CHECK
    if rotated:
        return FaultClass.LOGICAL_ERROR
    if ctx.harmless == "plus_state":
        # stabilizer group of |+...+>: even X-strings, optionally times S_z
        if z in (0, full) and x.bit_count() % 2 == 0:
            return FaultClass.STABILIZER_EQUIVALENT
        return FaultClass.LOGICAL_ERROR
    # bare code: {I, S_x, S_z, S_x S_z}
    if x in (0, full) and z in (0, full):
        return FaultClass.STABILIZER_EQUIVALENT
    return FaultClass.LOGICAL_ERROR


@st.composite
def _contexts(draw):
    """A VerifyContext over k in {2, 4, 6} with up to 8 clbits, random check
    and decode sets, any `harmless` and either `trailing_checks`."""
    k = draw(st.sampled_from([2, 4, 6]))
    clbits = draw(st.integers(0, 8))
    subsets = st.frozensets(st.integers(0, max(clbits - 1, 0)),
                            max_size=clbits)
    checks = tuple(ParityCheck(bits) for bits in
                   draw(st.lists(subsets, max_size=4)))
    decode = draw(st.none() | st.dictionaries(
        st.integers(1, k), subsets, max_size=k))
    harmless = draw(st.sampled_from(["code", "plus_state", "outcomes"]))
    return VerifyContext(IcebergLayout(k), checks, decode, harmless,
                         draw(st.booleans())), clbits


def _responses(n, clbits):
    """(x, z, flips, rotations) over n + 2 qubits, with two clbits past the
    context's and rotation masks that are often zero."""
    return st.tuples(st.integers(0, (1 << n + 2) - 1),
                     st.integers(0, (1 << n + 2) - 1),
                     st.integers(0, (1 << clbits + 2) - 1),
                     st.just(0) | st.integers(0, (1 << 12) - 1))


class TestProjectionOracle:
    """The projection sigma is XOR-linear, and its class equals the
    reference rule on random responses and on their XORs; the packed form
    the sweep uses agrees with it."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_projection_matches_reference(self, data):
        ctx, clbits = data.draw(_contexts())
        proj = ctx.projection
        n = ctx.layout.n + 2
        cl, rot = 2 * n, 2 * n + clbits + 2
        packed = proj.packed(n, cl, rot)
        a = data.draw(_responses(ctx.layout.n, clbits))
        b = data.draw(_responses(ctx.layout.n, clbits))
        ab = tuple(u ^ v for u, v in zip(a, b))
        assert proj.project(*ab) == proj.project(*a) ^ proj.project(*b)
        for x, z, flips, rotations in (a, b, ab):
            s = proj.project(x, z, flips, rotations)
            assert packed(x | z << n | flips << cl | rotations << rot) == s
            expected = _reference_verdict(x, z, flips, rotations != 0, ctx)
            assert proj.classify(s) is expected
            rotated = frozenset(i for i in range(12) if rotations >> i & 1)
            flipped = frozenset(c for c in range(clbits + 2) if flips >> c & 1)
            assert classify_terminal(PauliString(x, z), flipped, ctx,
                                     rotated) is expected


class TestEnumeration:
    def test_counts(self):
        c = PhysicalCircuit(3, 1)
        c.begin_component(0, ComponentRole.INIT)
        c.cx(0, 1)
        c.h(2)
        c.mz(2, 0)
        locs = enumerate_fault_locations(c)
        # 15 two-qubit Paulis + 3 single + 1 measurement flip
        assert len(locs) == 19


class TestWholeCircuitFaults:
    """`run_fault` on every kind of fault of a whole compiled circuit (k=10,
    p=3, s=1, resynth+z2), where many faults pass rotations they
    anticommute with, agrees with exact simulation of the injected fault."""

    def test_verdicts_match_exact_injection(self):
        g = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
        enc = compile_cooptimized(g, ramp_params(3), CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.NEW, use_z2=True,
            resynthesize=True, queue_cap=200))
        ctx = VerifyContext(enc.layout, enc.checks, enc.decode,
                            harmless="outcomes", trailing_checks=False)
        locs = [loc for loc in enumerate_fault_locations(enc.circuit)
                if loc.flip_bit is None]
        # Z0 Y5 after gate 47 ran out of the branch budget of the branching
        # propagation that preceded the frame pass
        sample = [FaultLocation(47, P([(0, "Z"), (5, "Y")]))] \
            + random.Random(11).sample(locs, 50)
        _, ref = exact_logical_distribution(enc.circuit, enc.checks,
                                            enc.decode)
        seen = set()
        for loc in sample:
            rep = run_fault(enc.circuit, loc, ctx)
            acc, dist = exact_logical_distribution(
                enc.circuit, enc.checks, enc.decode,
                inject=[(loc.gate_index, loc.pauli)])
            cls = rep.classification
            seen.add(cls)
            if cls is FaultClass.DETECTED_BY_CHECK:
                assert acc < 1e-12, (loc, acc)
            else:
                assert acc > 1 - 1e-9, (loc, cls, acc)
            if cls is FaultClass.STABILIZER_EQUIVALENT:
                assert total_variation(dist, ref) <= 1e-9, loc
        assert seen == set(FaultClass)


def _forward_frame(circuit, start, pauli):
    """Reference: push a Pauli inserted after gate `start` forward gate by
    gate, as (terminal, flipped clbits, flipped rotations).  A measurement
    sets whether its clbit is flipped: the last write is the one kept."""
    x, z = pauli.xmask, pauli.zmask
    flips, rotations = set(), set()
    for i in range(start + 1, len(circuit.gates)):
        g = circuit.gates[i]
        bits = [1 << q for q in g.qubits]
        if g.kind is GateKind.CNOT:
            c, t = bits
            x ^= t if x & c else 0
            z ^= c if z & t else 0
        elif g.kind is GateKind.H:
            q, = bits
            if bool(x & q) != bool(z & q):
                x, z = x ^ q, z ^ q
        elif g.kind in (GateKind.RZZ, GateKind.RXX):
            part = x if g.kind is GateKind.RZZ else z
            if sum(bool(part & b) for b in bits) % 2:
                rotations.add(i)
        elif g.kind is GateKind.MEASURE_Z:
            q, = bits
            flips.discard(g.clbit)
            if x & q:
                flips.add(g.clbit)
            z &= ~q
        elif g.kind is GateKind.MEASURE_X:
            # H, then a Z measurement: the qubit is left in the Z basis
            q, = bits
            flips.discard(g.clbit)
            if z & q:
                flips.add(g.clbit)
            x = x & ~q | z & q
            z &= ~q
        elif g.kind is GateKind.RESET:
            q, = bits
            x, z = x & ~q, z & ~q
    return PauliString(x, z), frozenset(flips), frozenset(rotations)


def _recount_cases(sizes):
    """The gadgets `check_gadget_ft` is recounted on: every kind at `sizes`,
    at k=22 and at the paper's largest size k=34, two random orders of
    each criterion-3 gadget, and a crippled INIT_OLD with escapes."""
    rng = random.Random(31)
    gadgets = [build_gadget(kind, k) for kind, k in sizes]
    gadgets += [build_gadget(kind, k) for k in (22, 34) for kind in GadgetKind]
    for kind, k in ((GadgetKind.INIT_NEW, 4), (GadgetKind.SYNDROME_NEW, 6),
                    (GadgetKind.FINAL_NEW, 4)):
        gadgets += [build_gadget(kind, k, tuple(rng.sample(range(k + 2),
                                                           k + 2)))
                    for _ in range(2)]
    gadgets.append(_crippled_init_old())
    defaults = {(kind, k): build_gadget(kind, k).implicit_order
                for kind in GadgetKind for k in (4, 6, 10, 22, 34)
                if (kind, k) != (GadgetKind.SYNDROME_NEW, 4)}

    def label(g):
        name = f"{g.kind.value}-{g.layout.k}-{len(g.checks)}checks"
        if g.implicit_order != defaults[g.kind, g.layout.k]:
            name += "-order" + ",".join(map(str, g.implicit_order))
        return name

    return [pytest.param(g, id=label(g)) for g in gadgets]


class TestOneSweep:
    """`fault_reports` and `check_gadget_ft` take every verdict from one
    backward sweep; each must equal `run_fault` on the faults one by one."""

    GADGETS = [(kind, k) for kind in GadgetKind for k in (4, 6, 10)
               if (kind, k) != (GadgetKind.SYNDROME_NEW, 4)]

    @pytest.mark.parametrize("kind, k", GADGETS)
    def test_gadget_reports(self, kind, k):
        gadget = build_gadget(kind, k)
        ctx = context_for_gadget(gadget)
        c = gadget.fragment
        assert fault_reports(c, ctx) == \
            [run_fault(c, loc, ctx) for loc in enumerate_fault_locations(c)]

    def test_random_circuits_match_forward_push(self):
        rng = random.Random(9)
        kinds = ("cx", "h", "x", "z", "rzz", "rxx", "mz", "mx", "reset",
                 "barrier")
        ctx = VerifyContext(IcebergLayout(2), (), None, harmless="outcomes",
                            trailing_checks=False)
        for _ in range(30):
            c = PhysicalCircuit(4, 3)
            c.begin_component(0, ComponentRole.PHASE_LAYER)
            for _ in range(25):
                kind = rng.choice(kinds)
                a, b = rng.sample(range(4), 2)
                if kind == "cx":
                    c.cx(a, b)
                elif kind in ("rzz", "rxx"):
                    getattr(c, kind)(a, b, 0.3)
                elif kind in ("mz", "mx"):
                    getattr(c, kind)(a, rng.randrange(3))
                elif kind == "barrier":
                    c.barrier((a, b))
                else:
                    getattr(c, kind)(a)
            start = rng.randrange(-1, len(c.gates))
            pauli = PauliString(rng.randrange(16), rng.randrange(16))
            assert propagate_pauli(c, start, pauli) == \
                _forward_frame(c, start, pauli)
            for rep in fault_reports(c, ctx):
                if rep.location.pauli is not None:
                    assert (rep.terminal, rep.flipped_bits,
                            rep.flipped_rotations) == _forward_frame(
                        c, rep.location.gate_index, rep.location.pauli)

    def test_random_circuits_match_exact_injection(self):
        # Clifford circuits with mid-circuit Z and X measurements, qubits
        # used again after they are measured, resets, and clbits written
        # twice: every single-qubit Pauli injected after a gate before the
        # trailing block gives the noiseless distribution with
        # propagate_pauli's flipped clbits XORed in
        rng = random.Random(33)
        kinds = ("cx", "h", "x", "z", "mz", "mx", "reset")
        rewritten = 0
        for _ in range(30):
            c = PhysicalCircuit(3, 6)
            c.begin_component(0, ComponentRole.PHASE_LAYER)
            measured = 0
            for _ in range(14):
                kind = rng.choice(kinds)
                a, b = rng.sample(range(3), 2)
                if kind == "cx":
                    c.cx(a, b)
                elif kind in ("mz", "mx") and measured < 6:
                    getattr(c, kind)(a, rng.randrange(6))
                    measured += 1
                elif kind not in ("mz", "mx"):
                    getattr(c, kind)(a)
            for q in range(3):
                getattr(c, rng.choice(("mz", "mx")))(q, 3 + q)
            clbits = [g.clbit for g in c.gates if g.kind.measurement]
            rewritten += len(set(clbits)) < len(clbits)
            noiseless = exact_bit_distribution(c)
            for gi in range(_trailing_start(c.gates)):
                for q in c.gates[gi].qubits:
                    for letter in "XYZ":
                        pauli = P([(q, letter)])
                        _, flips, _ = propagate_pauli(c, gi, pauli)
                        want = {tuple(v ^ (i in flips)
                                      for i, v in enumerate(bits)): p
                                for bits, p in noiseless.items()}
                        got = exact_bit_distribution(c, [(gi, pauli)])
                        assert got.keys() == want.keys(), (gi, letter, q)
                        assert max(abs(got[b] - want[b]) for b in got) \
                            <= 1e-12, (gi, letter, q)
        assert rewritten >= 20

    def test_clbit_written_twice(self):
        # the second measurement into c0 overwrites the first: an X on
        # qubit 0 before them, or a classical flip of the first, changes
        # nothing, as the exact distribution with the X injected shows
        c = PhysicalCircuit(2, 1)
        c.begin_component(0, ComponentRole.PHASE_LAYER)
        c.h(0)
        c.h(0)
        c.mz(0, 0)
        c.mz(1, 0)
        x0 = P([(0, "X")])
        assert propagate_pauli(c, 1, x0) == (x0, frozenset(), frozenset())
        assert exact_bit_distribution(c, [(1, x0)]) == \
            {(0,): pytest.approx(1.0, abs=1e-15)}
        ctx = VerifyContext(IcebergLayout(2), (), {1: frozenset({0})},
                            harmless="outcomes", trailing_checks=False)
        reports = fault_reports(c, ctx)
        assert reports == \
            [run_fault(c, loc, ctx) for loc in enumerate_fault_locations(c)]
        flipped = {(r.location.gate_index, r.location.flip_bit,
                    r.location.pauli): r.flipped_bits for r in reports}
        assert flipped[1, None, x0] == frozenset()
        assert flipped[2, 0, None] == frozenset()
        assert flipped[3, 0, None] == {0}

    @pytest.mark.parametrize("mode", ["baseline-old", "resynth",
                                      "resynth+z2"])
    def test_criterion_7_reports(self, mode):
        g = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
        if mode == "baseline-old":
            enc = compile_baseline(g, ramp_params(3), CompileConfig(
                num_syndromes=1, gadget_set=GadgetSet.OLD))
        else:
            enc = compile_cooptimized(g, ramp_params(3), CompileConfig(
                num_syndromes=1, gadget_set=GadgetSet.NEW, queue_cap=200,
                resynthesize=True, use_z2=mode == "resynth+z2"))
        ctx = VerifyContext(enc.layout, enc.checks, enc.decode,
                            harmless="outcomes", trailing_checks=False)
        c = enc.circuit
        reports = fault_reports(c, ctx)
        assert reports == \
            [run_fault(c, loc, ctx) for loc in enumerate_fault_locations(c)]
        assert any(rep.flipped_rotations for rep in reports)

    @pytest.mark.parametrize("gadget", _recount_cases(GADGETS))
    def test_summary_matches_recount(self, gadget):
        ctx = context_for_gadget(gadget)
        reports = [run_fault(gadget.fragment, loc, ctx)
                   for loc in enumerate_fault_locations(gadget.fragment)]
        counts = {}
        for rep in reports:
            counts[rep.classification] = counts.get(rep.classification, 0) + 1
        summary = check_gadget_ft(gadget)
        assert summary.total == len(reports)
        assert list(summary.counts.items()) == list(counts.items())
        assert summary.escapes == [rep for rep in reports if rep.is_logical]


def _random_circuit(rng, num_qubits, num_clbits, length):
    """A circuit of `length` gates drawn from every gate kind, rotations
    included, on `num_qubits` qubits and `num_clbits` clbits."""
    kinds = ("cx", "h", "x", "z", "rzz", "rxx", "mz", "mx", "reset",
             "barrier")
    c = PhysicalCircuit(num_qubits, num_clbits)
    c.begin_component(0, ComponentRole.PHASE_LAYER)
    for _ in range(length):
        kind = rng.choice(kinds)
        a, b = rng.sample(range(num_qubits), 2)
        if kind == "cx":
            c.cx(a, b)
        elif kind in ("rzz", "rxx"):
            getattr(c, kind)(a, b, 0.3)
        elif kind in ("mz", "mx"):
            getattr(c, kind)(a, rng.randrange(num_clbits))
        elif kind == "barrier":
            c.barrier((a, b))
        else:
            getattr(c, kind)(a)
    return c


class TestProjectedSweep:
    """The sweep with a projection carries sigma of every entry of the
    full sweep exactly, since each gate rule is an XOR, a swap or a
    zeroing (module docstring of `icecomp.faults`)."""

    @pytest.mark.parametrize("trailing", [False, True])
    @pytest.mark.parametrize("harmless", ["code", "plus_state", "outcomes"])
    def test_entries_are_the_projected_full_entries(self, harmless,
                                                    trailing):
        rng = random.Random(f"{harmless}/{trailing}")
        layout = IcebergLayout(4)
        for _ in range(25):
            # the layout's 6 data qubits and 2 ancillas
            c = _random_circuit(rng, 8, 5, 40)
            checks = tuple(ParityCheck(frozenset(rng.sample(range(5), w)))
                           for w in (1, 2, 3))
            decode = {i: frozenset(rng.sample(range(5), 2))
                      for i in layout.logical}
            ctx = VerifyContext(layout, checks, decode, harmless, trailing)
            full = _Sweep(c)
            sigma = ctx.projection.packed(full.n, full.cl, full.rot)
            projected = _Sweep(c, ctx.projection)
            assert projected.per_gate() == [[sigma(r) for r in per]
                                            for per in full.per_gate()]
            stop = rng.randrange(-1, len(c.gates))
            assert projected.run(stop) == tuple(
                [sigma(r) for r in entries] for entries in full.run(stop))

    def test_clbit_outside_the_circuit_raises_before_any_lookup(self):
        ctx = VerifyContext(IcebergLayout(2), (ParityCheck({0}),),
                            {1: frozenset({1})}, "outcomes", False)
        for clbit in (2, 5, -1, -2):
            c = PhysicalCircuit(4, 2)
            c.begin_component(0, ComponentRole.FINAL_MEAS)
            c.mz(0, 0)
            c.mx(1, 1)
            c.h(2)
            c.mz(3, 0)
            # a negative clbit cannot be built, so it is forced in: the
            # sweep must not read it as a clbit counted from the end
            gate = c.gates[3]
            object.__setattr__(gate, "clbit", clbit)
            for sweep in (_Sweep(c), _Sweep(c, ctx.projection)):
                with pytest.raises(ValueError,
                                   match="classical bit out of range"):
                    sweep.per_gate()
                with pytest.raises(ValueError,
                                   match="classical bit out of range"):
                    sweep.run()
            with pytest.raises(ValueError,
                               match="classical bit out of range"):
                propagate_pauli(c, -1, P([(3, "X")]))


def _verdict_digest(circuit, ctx):
    """sha256 over (gate index, Pauli masks or flipped bit, verdict,
    terminal masks, flipped bits, flipped rotations) of every fault."""
    verdicts = []
    for loc in enumerate_fault_locations(circuit):
        rep = run_fault(circuit, loc, ctx)
        fault = loc.flip_bit if loc.pauli is None \
            else (loc.pauli.xmask, loc.pauli.zmask)
        verdicts.append((loc.gate_index, fault, rep.classification.value,
                         (rep.terminal.xmask, rep.terminal.zmask),
                         sorted(rep.flipped_bits),
                         sorted(rep.flipped_rotations)))
    return hashlib.sha256(repr(verdicts).encode()).hexdigest()


class TestVerdictGolden:
    """Hashes of every fault verdict: the six gadget kinds at criterion 3's
    sizes, and criterion 7's s=1 circuits (3-regular k=10 seed 0, p=3,
    queue_cap 200).  A change to any verdict must update these, and say
    why."""

    GADGETS = {
        GadgetKind.INIT_OLD: "c0f37be027fd2adfffecd261c7af2b9d"
                             "c66b7b6d88e55958c386ed40ac651d3f",
        GadgetKind.INIT_NEW: "5fbbe2325f26d310047e1a9eb083202b"
                             "bbfc6ad554574a596b551d642a086f74",
        GadgetKind.SYNDROME_OLD: "a299f4d32983eae7dd41386d8261644c"
                                 "f4bfb31d171c1ca64799aff1d7399850",
        GadgetKind.SYNDROME_NEW: "e849af41f40dd470e9771bed3260b3db"
                                 "c67aece1b49df53a494c8af8880c7bde",
        GadgetKind.FINAL_OLD: "2aa97d43fbe2bf7287390d025b65da39"
                              "1c7b458c7ff03e79fab95a0ec5f4be97",
        GadgetKind.FINAL_NEW: "ff97c3a050264cbbbb8eae8485abf430"
                              "d1cf25cf60b3a0a9e4fc39337423f19c",
    }

    CRITERION_7 = {
        "baseline-old": "3573856703db07b0a731359ff4cafa8a"
                        "e642e0d577a432b958dbadb813776656",
        "resynth": "5887bfc0f5cb8e77ce24747d3a8b8cc3"
                   "d2baaf77675ed7ec227e049b1e2f5e96",
        "resynth+z2": "620a8e6e1d61a6433d846775e5457bfe"
                      "ea3b76147a60f70a4cd1510c865958fa",
    }

    @pytest.mark.parametrize("kind", list(GADGETS))
    def test_gadget_verdicts(self, kind):
        k = 6 if kind in (GadgetKind.SYNDROME_OLD,
                          GadgetKind.SYNDROME_NEW) else 4
        gadget = build_gadget(kind, k)
        assert _verdict_digest(gadget.fragment,
                               context_for_gadget(gadget)) == \
            self.GADGETS[kind]

    @pytest.mark.parametrize("mode", sorted(CRITERION_7))
    def test_criterion_7_verdicts(self, mode):
        g = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
        if mode == "baseline-old":
            enc = compile_baseline(g, ramp_params(3), CompileConfig(
                num_syndromes=1, gadget_set=GadgetSet.OLD))
        else:
            enc = compile_cooptimized(g, ramp_params(3), CompileConfig(
                num_syndromes=1, gadget_set=GadgetSet.NEW, queue_cap=200,
                resynthesize=True, use_z2=mode == "resynth+z2"))
        ctx = VerifyContext(enc.layout, enc.checks, enc.decode,
                            harmless="outcomes", trailing_checks=False)
        assert _verdict_digest(enc.circuit, ctx) == self.CRITERION_7[mode]


class TestFromOps:
    def test_letters(self):
        assert P([(0, "X"), (2, "Y"), (1, "Z")]) == PauliString(0b101, 0b110)
        assert P([]) == PauliString()
        with pytest.raises(ValueError, match="not a Pauli: I"):
            P([(0, "I")])

    @pytest.mark.parametrize("ops, qubit", [
        ([(0, "X"), (0, "X")], 0),
        ([(3, "Z"), (1, "X"), (3, "Z")], 3),
        ([(2, "Y"), (2, "X")], 2),
        ([(5, "X"), (4, "Z"), (5, "Y")], 5),
    ])
    def test_repeated_qubit_rejected(self, ops, qubit):
        with pytest.raises(ValueError, match=f"^qubit {qubit} given twice$"):
            P(ops)


class TestShortcuts:
    """The closed forms of the sweep equal what they shortcut."""

    @staticmethod
    def _product_order(entries):
        # every Pauli on the entries' qubits but the identity, each qubit's
        # letter in the order I, X, Y, Z, the first qubit's most significant
        letters = {"I": lambda x, z: 0, "X": lambda x, z: x,
                   "Y": lambda x, z: x ^ z, "Z": lambda x, z: z}
        out = []
        for word in itertools.product("IXYZ", repeat=len(entries)):
            r = 0
            for p, (x, z) in zip(word, entries):
                r ^= letters[p](x, z)
            out.append(r)
        return out[1:]

    def test_combine_is_the_product_order(self):
        rng = random.Random(35)
        for _ in range(300):
            for m in (1, 2):
                entries = [(rng.getrandbits(40), rng.getrandbits(40))
                           for _ in range(m)]
                assert _combine(entries) == self._product_order(entries)
        # on unit entries, the x masks below the z masks, each response is
        # its fault's Pauli, in the order of _locations_at
        for g, entries in ((Gate(GateKind.H, (0,)), [(1, 2)]),
                           (Gate(GateKind.CNOT, (0, 1)), [(1, 4), (2, 8)])):
            shift = len(entries)
            assert _combine(entries) == [
                loc.pauli.xmask | loc.pauli.zmask << shift
                for loc in _locations_at(0, g)]

    # syndrome_new needs k+2 divisible by 4
    @pytest.mark.parametrize("kind, k", [
        (kind, k) for kind in GadgetKind for k in (4, 6, 10, 22)
        if kind is not GadgetKind.SYNDROME_NEW or k % 4 == 2])
    def test_unit_images_are_the_projected_units(self, kind, k):
        gadget = build_gadget(kind, k)
        c = gadget.fragment
        for harmless, trailing in (("plus_state", True), ("code", True),
                                   ("outcomes", False)):
            ctx = VerifyContext(gadget.layout, gadget.checks, gadget.decode,
                                harmless, trailing)
            full = _Sweep(c)
            sigma = ctx.projection.packed(full.n, full.cl, full.rot)
            projected = _Sweep(c, ctx.projection)
            assert list(projected.unit_x) + list(projected.unit_z) \
                + list(projected.unit_cl) == \
                [sigma(1 << b) for b in range(full.rot)]
            assert projected.rot == ctx.projection.width


def _uncached_check(gadget):
    """`check_gadget_ft` as it ran before family contexts: the same body on
    a fresh context, projection and sweep."""
    circuit = gadget.fragment
    ctx = context_for_gadget(gadget)
    proj = ctx.projection
    det, log = proj.det, proj.log
    codes = [0 if s & det else 1 if s & log else 2
             for per in _Sweep(circuit, proj).per_gate() for s in per]
    classes = (FaultClass.DETECTED_BY_CHECK, FaultClass.LOGICAL_ERROR,
               FaultClass.STABILIZER_EQUIVALENT)
    counts = {}
    for c in codes:
        counts[classes[c]] = counts.get(classes[c], 0) + 1
    escapes = [r for r in fault_reports(circuit, ctx) if r.is_logical] \
        if 1 in codes else []
    return len(codes), list(counts.items()), escapes


def _variants(gadget):
    """Hand-made gadgets of `gadget`'s kind, k and fragment that differ from
    it in one way each, by name."""
    checks, decode = gadget.checks, gadget.decode
    first = checks[0]
    out = {
        "no-last-check": (checks[:-1], decode),
        "no-first-check": (checks[1:], decode),
        "flipped-expected": ((ParityCheck(first.bits, first.expected ^ 1),)
                             + checks[1:], decode),
        "set-bits": ((ParityCheck(set(first.bits), first.expected),)
                     + checks[1:], decode),
    }
    if decode:
        items = list(decode.items())
        (i, bits), (j, _) = items[0], items[1]
        moved = dict(decode)
        moved[i] = frozenset(bits - {i} | {j})      # bit i moved to bit j
        out["reversed-decode"] = (checks, dict(items[::-1]))
        out["moved-decode-bit"] = (checks, moved)
        out["set-decode"] = (checks, {**decode, i: set(bits)})
    return {name: type(gadget)(gadget.kind, gadget.layout,
                               gadget.implicit_order, gadget.fragment,
                               checks=c, decode=d)
            for name, (c, d) in out.items()}


def _summary_fields(summary):
    return summary.total, list(summary.counts.items()), summary.escapes


class TestFamilyContext:
    """`check_gadget_ft` takes its context from a per-family cache; every
    summary must equal the uncached check's, whatever came before."""

    KINDS_K = [(GadgetKind.INIT_OLD, 4), (GadgetKind.INIT_NEW, 4),
               (GadgetKind.SYNDROME_OLD, 4), (GadgetKind.SYNDROME_NEW, 6),
               (GadgetKind.FINAL_OLD, 4), (GadgetKind.FINAL_NEW, 6)]

    @pytest.mark.parametrize("kind, k", KINDS_K)
    def test_interleaved_variants_equal_uncached(self, kind, k):
        rng = random.Random(f"family/{kind.value}/{k}")
        escaped = 0
        for rounds in range(3):
            for name, variant in _variants(build_gadget(kind, k)).items():
                order = tuple(rng.sample(range(k + 2), k + 2))
                for gadget in (build_gadget(kind, k, order), variant,
                               build_gadget(kind, k), variant):
                    got = _summary_fields(check_gadget_ft(gadget))
                    assert got == _uncached_check(gadget), name
                    escaped += bool(got[2])
        assert escaped       # a dropped check lets some faults escape

    def test_one_context_per_family(self):
        a = build_gadget(GadgetKind.FINAL_NEW, 6)
        b = build_gadget(GadgetKind.FINAL_NEW, 6, (7, 6, 5, 4, 3, 2, 1, 0))
        assert faults._family_context(a) is faults._family_context(b)
        for variant in _variants(a).values():
            ctx, proj = faults._family_context(variant)
            assert ctx is not faults._family_context(a)[0]
            assert proj is ctx.projection
            assert ctx == context_for_gadget(variant)

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(faults, "_FAMILIES", {})
        gadget = build_gadget(GadgetKind.SYNDROME_OLD, 4)
        for e in range(3 * faults._MAX_FAMILIES):
            variant = type(gadget)(gadget.kind, gadget.layout,
                                   gadget.implicit_order, gadget.fragment,
                                   checks=(ParityCheck(frozenset({0}), e),))
            assert _summary_fields(check_gadget_ft(variant)) == \
                _uncached_check(variant)
            assert 0 < len(faults._FAMILIES) <= faults._MAX_FAMILIES

    def test_units_are_shared_and_left_unchanged(self):
        gadget = build_gadget(GadgetKind.SYNDROME_NEW, 6)
        _, proj = faults._family_context(gadget)
        c = gadget.fragment
        units = proj.units(c.num_qubits, c.num_clbits)
        before = [list(u) for u in units]
        for _ in range(2):
            check_gadget_ft(gadget)
        assert proj.units(c.num_qubits, c.num_clbits) is units
        assert [list(u) for u in units] == before


class TestLocationsFromMasks:
    def test_locations_equal_the_labelled_paulis(self):
        rng = random.Random(37)
        for i in range(200):
            a, b = rng.sample(range(40), 2)
            one = Gate(rng.choice((GateKind.H, GateKind.X, GateKind.RESET)),
                       (a,))
            two = Gate(GateKind.CNOT, (a, b)) if i % 2 else \
                Gate(GateKind.RZZ, (a, b), 0.5)
            assert _locations_at(i, one) == [
                FaultLocation(i, P([(a, p)])) for p in "XYZ"]
            assert _locations_at(i, two) == [
                FaultLocation(i, pauli) for _, pauli in _two_qubit_paulis(a, b)]
        assert _locations_at(3, Gate(GateKind.MEASURE_X, (2,), None, 5)) == \
            [FaultLocation(3, flip_bit=5)]
        assert _locations_at(3, Gate(GateKind.BARRIER, (0, 1, 2))) == []
