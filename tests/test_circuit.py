import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from icecomp.circuit import (CircuitError, ComponentRole, Gate, GateKind,
                             PhysicalCircuit, layered_schedule, read_circuit,
                             space_time_area, two_qubit_depth, write_circuit)
from icecomp.gadgets import init_old


def simple(num_qubits=4, num_clbits=2):
    c = PhysicalCircuit(num_qubits, num_clbits)
    c.begin_component(0, ComponentRole.PHASE_LAYER)
    return c


class TestGateValidation:
    def test_arity_mismatch(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.RZZ, (0,), angle=0.5)
        with pytest.raises(CircuitError):
            Gate(GateKind.H, (0, 1))

    def test_duplicate_qubit(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.RZZ, (0, 0), angle=0.5)

    def test_angle_rules(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.RZZ, (0, 1))
        with pytest.raises(CircuitError):
            Gate(GateKind.RZZ, (0, 1), angle=float("nan"))
        with pytest.raises(CircuitError):
            Gate(GateKind.CNOT, (0, 1), angle=0.3)

    def test_measure_needs_clbit(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.MEASURE_Z, (0,))


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("kind, qubits, angle, clbit, message", [
    # wrong arity
    (GateKind.RZZ, (0,), 0.5, None, "rzz takes 2 qubit(s), got (0,)"),
    (GateKind.CNOT, (0, 1, 2), None, None,
     "cx takes 2 qubit(s), got (0, 1, 2)"),
    (GateKind.H, (0, 1), None, None, "h takes 1 qubit(s), got (0, 1)"),
    (GateKind.MEASURE_X, (), None, 0, "mx takes 1 qubit(s), got ()"),
    # duplicate qubit, a barrier's too
    (GateKind.RXX, (3, 3), 0.5, None, "duplicate qubit in gate: (3, 3)"),
    (GateKind.BARRIER, (1, 2, 1), None, None,
     "duplicate qubit in gate: (1, 2, 1)"),
    # negative qubit
    (GateKind.X, (-1,), None, None, "negative qubit index: (-1,)"),
    (GateKind.BARRIER, (2, -3), None, None, "negative qubit index: (2, -3)"),
    # missing or non-finite angle
    (GateKind.RZZ, (0, 1), None, None, "rzz needs a finite angle"),
    (GateKind.RXX, (0, 1), _NAN, None, "rxx needs a finite angle"),
    (GateKind.RZZ, (0, 1), -_INF, None, "rzz needs a finite angle"),
    # angle on a non-rotation
    (GateKind.CNOT, (0, 1), 0.3, None, "cx takes no angle"),
    (GateKind.MEASURE_Z, (0,), 0.3, 0, "mz takes no angle"),
    (GateKind.BARRIER, (), 0.0, None, "barrier takes no angle"),
    # measurement without a clbit, or with a negative one
    (GateKind.MEASURE_Z, (0,), None, None,
     "measurement needs a classical target bit"),
    (GateKind.MEASURE_X, (0,), None, -1,
     "measurement needs a classical target bit"),
    # clbit on a non-measurement
    (GateKind.RESET, (0,), None, 0, "reset takes no classical bit"),
    (GateKind.RZZ, (0, 1), 0.5, 2, "rzz takes no classical bit"),
    (GateKind.BARRIER, (0,), None, 0, "barrier takes no classical bit"),
])
def test_malformed_gate_message(kind, qubits, angle, clbit, message):
    with pytest.raises(CircuitError) as err:
        Gate(kind, qubits, angle=angle, clbit=clbit)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", list(GateKind))
def test_well_formed_gate_of_every_kind(kind):
    if kind is GateKind.BARRIER:
        for qubits in ((), (4,), (0, 2, 5)):
            assert not Gate(kind, qubits).is_two_qubit
        return
    qubits = (0, 1)[:kind.arity]
    angle = 0.25 if kind.rotation else None
    clbit = 3 if kind.measurement else None
    g = Gate(kind, qubits, angle=angle, clbit=clbit)
    assert g.is_two_qubit == (kind.arity == 2)
    assert g.is_two_qubit == (kind in {GateKind.RZZ, GateKind.RXX,
                                       GateKind.CNOT})
    assert kind.rotation == (kind in {GateKind.RZZ, GateKind.RXX})
    assert kind.measurement == (kind in {GateKind.MEASURE_Z,
                                         GateKind.MEASURE_X})
    assert GateKind(kind.value) is kind


class TestLayering:
    def test_single_gate(self):
        c = simple()
        c.rzz(0, 1, 0.5)
        assert two_qubit_depth(c) == 1

    def test_disjoint_share_layer(self):
        c = simple()
        c.rzz(0, 1, 0.5)
        c.rzz(2, 3, 0.5)
        assert two_qubit_depth(c) == 1

    def test_shared_qubit_serializes(self):
        c = simple()
        c.rzz(0, 1, 0.5)
        c.rzz(1, 2, 0.5)
        assert two_qubit_depth(c) == 2

    def test_empty(self):
        assert two_qubit_depth(simple()) == 0

    def test_single_qubit_gates_do_not_count(self):
        c = simple()
        c.h(0)
        c.h(1)
        assert two_qubit_depth(c) == 0
        c.rzz(2, 3, 0.1)
        assert two_qubit_depth(c) == 1

    def test_barrier_fences_listed_qubits(self):
        c = simple()
        c.rzz(0, 1, 0.5)
        c.barrier((0, 1))
        c.rzz(0, 1, 0.5)     # fenced behind the first gate
        c.rzz(2, 3, 0.4)     # untouched by the fence: joins the first layer
        sched = layered_schedule(c)
        assert sched.gate_layer[3] == sched.gate_layer[0] == 0
        assert sched.gate_layer[2] == 1
        assert two_qubit_depth(c) == 2

    def test_full_barrier(self):
        c = simple()
        c.rzz(0, 1, 0.5)
        c.barrier()
        c.rzz(2, 3, 0.5)
        assert two_qubit_depth(c) == 2

    def test_component_order_violation_rejected(self):
        c = PhysicalCircuit(3, 0)
        c.begin_component(0, ComponentRole.PHASE_LAYER)
        c.begin_component(1, ComponentRole.MIXER_LAYER)
        c.rzz(0, 1, 0.5, component=1)
        c.rzz(0, 2, 0.5, component=0)  # earlier component after later, shared qubit
        with pytest.raises(CircuitError):
            layered_schedule(c)

    def test_concat_subadditive(self):
        a = simple()
        a.rzz(0, 1, 0.1)
        a.rzz(1, 2, 0.1)
        b = PhysicalCircuit(4, 2)
        b.begin_component(1, ComponentRole.MIXER_LAYER)
        b.rxx(0, 3, 0.2, component=1)
        b.rxx(0, 2, 0.2, component=1)
        da, db = two_qubit_depth(a), two_qubit_depth(b)
        a.extend(b)
        assert two_qubit_depth(a) <= da + db


class TestStarExample:
    """Old initialization plus one hub-heavy phase layer: reordering the
    implicit order turns depth 12 into 9."""

    def build(self, order, phase_order):
        g = init_old(6, order)
        c = PhysicalCircuit(10, 1)
        c.begin_component(0, ComponentRole.INIT)
        for gate in g.fragment.gates:
            c.add(gate)
        c.begin_component(1, ComponentRole.PHASE_LAYER)
        for i in phase_order:
            c.rzz(i, 6, 0.5, component=1)
        return c

    def test_default_order_depth_12(self):
        assert two_qubit_depth(self.build(None, (1, 2, 3, 4, 5))) == 12

    def test_reordered_depth_9(self):
        c = self.build((0, 6, 5, 4, 3, 2, 1, 7), (5, 4, 3, 2, 1))
        assert two_qubit_depth(c) == 9


class TestSpaceTimeArea:
    def test_reported_points(self):
        c = simple(num_qubits=24)
        prev = None
        for _ in range(397):
            c.rzz(0, 1, 0.1)
        assert space_time_area(c, 22) == 24 * 397 == 9528

    def test_second_point(self):
        c = PhysicalCircuit(20, 0)
        c.begin_component(0, ComponentRole.PHASE_LAYER)
        for _ in range(375):
            c.rzz(0, 1, 0.1)
        assert space_time_area(c, 18) == 7500

    def test_zero_depth(self):
        assert space_time_area(simple(), 2) == 0

    def test_odd_k_rejected(self):
        with pytest.raises(CircuitError):
            space_time_area(simple(), 3)


# every rule of Gate's constructor: (kind, qubits, angle, clbit, message,
# a circuit text line breaking it, or None where the parser rejects the
# line first)
_RULES = [
    (GateKind.CNOT, (0,), None, None, "cx takes 2 qubit(s), got (0,)", None),
    (GateKind.H, (0, 1), None, None, "h takes 1 qubit(s), got (0, 1)", None),
    (GateKind.RXX, (2, 2), 0.5, None, "duplicate qubit in gate: (2, 2)",
     "rxx 2 2 0.5"),
    (GateKind.BARRIER, (1, 0, 1), None, None,
     "duplicate qubit in gate: (1, 0, 1)", "barrier 1 0 1"),
    (GateKind.H, (-2,), None, None, "negative qubit index: (-2,)", "h -2"),
    (GateKind.CNOT, (0, -1), None, None, "negative qubit index: (0, -1)",
     "cx 0 -1"),
    (GateKind.BARRIER, (-1,), None, None, "negative qubit index: (-1,)",
     "barrier -1"),
    (GateKind.RZZ, (0, 1), None, None, "rzz needs a finite angle", None),
    (GateKind.RZZ, (0, 1), _NAN, None, "rzz needs a finite angle",
     "rzz 0 1 nan"),
    (GateKind.RXX, (0, 1), _INF, None, "rxx needs a finite angle",
     "rxx 0 1 inf"),
    (GateKind.RXX, (0, 1), -_INF, None, "rxx needs a finite angle",
     "rxx 0 1 -inf"),
    (GateKind.X, (0,), 0.1, None, "x takes no angle", None),
    (GateKind.MEASURE_X, (0,), None, None,
     "measurement needs a classical target bit", None),
    (GateKind.MEASURE_Z, (0,), None, -3,
     "measurement needs a classical target bit", "mz 0 -3"),
    (GateKind.CNOT, (0, 1), None, 0, "cx takes no classical bit", None),
    (GateKind.BARRIER, (), None, 1, "barrier takes no classical bit", None),
    (GateKind.CNOT, [0, 1], None, None,
     "gate qubits must be a tuple, got list [0, 1]", None),
    (GateKind.H, 0, None, None, "gate qubits must be a tuple, got int 0",
     None),
]


def _valid(kind):
    """A well-formed gate of `kind`."""
    return Gate(kind, (0, 1)[:kind.arity or 0],
                angle=0.25 if kind.rotation else None,
                clbit=0 if kind.measurement else None)


class TestGateRules:
    """Each rule of Gate's constructor, with its message, through the
    constructor, dataclasses.replace and read_circuit."""

    @pytest.mark.parametrize("kind, qubits, angle, clbit, message, line",
                             _RULES)
    def test_rule(self, kind, qubits, angle, clbit, message, line):
        with pytest.raises(CircuitError) as err:
            Gate(kind, qubits, angle=angle, clbit=clbit, component=2)
        assert str(err.value) == message
        with pytest.raises(CircuitError) as err:
            dataclasses.replace(_valid(kind), qubits=qubits, angle=angle,
                                clbit=clbit)
        assert str(err.value) == message
        if line is not None:
            with pytest.raises(CircuitError) as err:
                read_circuit(f"qubits 4 clbits 2\nh 0\n{line}\n")
            assert str(err.value) == f"line 3: {message}"

    @pytest.mark.parametrize("kind, qubits, angle, clbit, message", [
        (GateKind.H, (0, 0), 0.3, 1, "h takes 1 qubit(s), got (0, 0)"),
        (GateKind.RZZ, (1, 1), None, None, "duplicate qubit in gate: (1, 1)"),
        (GateKind.BARRIER, (-1, -1), None, None,
         "duplicate qubit in gate: (-1, -1)"),
        (GateKind.CNOT, (-1, 2), 0.5, None, "negative qubit index: (-1, 2)"),
        (GateKind.RXX, (0, 1), _NAN, 0, "rxx needs a finite angle"),
        (GateKind.MEASURE_Z, (0,), 0.5, None, "mz takes no angle"),
        (GateKind.RESET, (0,), 0.5, 1, "reset takes no angle"),
        (GateKind.H, [0, 0], 0.3, 1, "gate qubits must be a tuple, got list "
                                     "[0, 0]"),
    ])
    def test_first_rule_broken_is_reported(self, kind, qubits, angle, clbit,
                                           message):
        with pytest.raises(CircuitError) as err:
            Gate(kind, qubits, angle=angle, clbit=clbit)
        assert str(err.value) == message

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Gate)] == \
            ["kind", "qubits", "angle", "clbit", "component"]
        g = Gate(GateKind.MEASURE_X, (3,), clbit=1, component=4)
        assert (g.kind, g.qubits, g.angle, g.clbit, g.component) == \
            (GateKind.MEASURE_X, (3,), None, 1, 4)
        assert repr(g) == ("Gate(kind=<GateKind.MEASURE_X: 'mx'>, "
                           "qubits=(3,), angle=None, clbit=1, component=4)")
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.clbit = 2

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_pickle_round_trip(self, kind):
        g = dataclasses.replace(_valid(kind), component=3)
        h = hash(g)
        back = pickle.loads(pickle.dumps(g))
        # the hash is cached on first use, and a pickle drops it
        assert "_hash" in vars(g) and "_hash" not in vars(back)
        assert back == g and hash(back) == h
        assert dataclasses.replace(back) == g


class TestTextFormat:
    def test_gate_line_examples(self):
        c = read_circuit("rzz 0 1 0.5\ncx 3 0\n")
        assert c.gates[0].kind is GateKind.RZZ
        assert c.gates[0].qubits == (0, 1)
        assert c.gates[0].angle == 0.5
        assert c.gates[1].kind is GateKind.CNOT
        assert c.gates[1].qubits == (3, 0)

    def test_duplicate_qubit_is_parse_error(self):
        with pytest.raises(CircuitError, match="line 1"):
            read_circuit("rzz 0 0 0.5\n")

    def test_unknown_kind(self):
        with pytest.raises(CircuitError, match="unknown gate"):
            read_circuit("swap 0 1\n")

    def test_arity_error_with_line_number(self):
        with pytest.raises(CircuitError, match="line 2"):
            read_circuit("h 0\ncx 1\n")

    def test_comments_and_header(self):
        text = "# header comment\nqubits 5 clbits 2\nmz 4 1  # measure\n"
        c = read_circuit(text)
        assert c.num_qubits == 5 and c.num_clbits == 2
        assert c.gates[0].clbit == 1


def circuits(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    c = PhysicalCircuit(n, m)
    c.begin_component(0, ComponentRole.PHASE_LAYER)
    num = draw(st.integers(0, 12))
    for _ in range(num):
        kind = draw(st.sampled_from(
            [GateKind.RZZ, GateKind.RXX, GateKind.CNOT, GateKind.H,
             GateKind.X, GateKind.Z, GateKind.MEASURE_Z, GateKind.RESET]
        ))
        q = draw(st.integers(0, n - 1))
        if kind in (GateKind.RZZ, GateKind.RXX, GateKind.CNOT):
            q2 = draw(st.integers(0, n - 2))
            if q2 >= q:
                q2 += 1
            if kind is GateKind.CNOT:
                c.cx(q, q2)
            else:
                angle = draw(st.floats(-3.0, 3.0, allow_nan=False))
                c.add(Gate(kind, (q, q2), angle=angle))
        elif kind is GateKind.MEASURE_Z:
            c.mz(q, draw(st.integers(0, m - 1)))
        elif kind is GateKind.H:
            c.h(q)
        elif kind is GateKind.X:
            c.x(q)
        elif kind is GateKind.Z:
            c.z(q)
        else:
            c.reset(q)
    return c


@settings(max_examples=150, deadline=None)
@given(st.builds(lambda d: d, st.data()))
def test_roundtrip_identity(data):
    c = circuits(data.draw)
    c2 = read_circuit(write_circuit(c))
    assert c2.num_qubits == c.num_qubits
    assert c2.num_clbits == c.num_clbits
    assert c2.gates == c.gates
