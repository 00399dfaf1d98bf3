import random
from dataclasses import replace

import numpy as np
import pytest

from icecomp.circuit import ComponentRole, GateKind, PhysicalCircuit, \
    two_qubit_depth
from icecomp.gadgets import (Gadget, GadgetError, GadgetKind, IcebergLayout,
                             build_gadget, final_new, final_old,
                             gadget_cost_table, init_new, init_old,
                             permute_gadget, syndrome_lag_schedule,
                             syndrome_new, syndrome_old)
from icecomp.simulator import StateVector, exact_bit_distribution, decode_bits

ALL_KINDS = list(GadgetKind)


def valid(kind, k):
    return not (kind is GadgetKind.SYNDROME_NEW and (k + 2) % 4 != 0)


class TestLayout:
    def test_indices(self):
        lay = IcebergLayout(6)
        assert (lay.t, lay.b, lay.n) == (0, 7, 8)
        assert lay.ancilla0 == 8 and lay.ancilla1 == 9
        assert lay.logical == (1, 2, 3, 4, 5, 6)

    def test_k_validation(self):
        with pytest.raises(GadgetError):
            IcebergLayout(3)
        with pytest.raises(GadgetError):
            IcebergLayout(0)


class TestCostTable:
    @pytest.mark.parametrize("k", [2, 4, 6, 10, 22])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_depth_and_gates_exact(self, k, kind):
        if not valid(kind, k):
            with pytest.raises(GadgetError):
                build_gadget(kind, k)
            return
        g = build_gadget(kind, k)
        depth, gates = gadget_cost_table(k)[kind]
        assert two_qubit_depth(g.fragment) == depth
        assert g.two_qubit_gate_count() == gates

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_permutation_preserves_costs(self, kind):
        k = 6
        g = build_gadget(kind, k)
        rng = random.Random(3)
        for _ in range(4):
            perm = rng.sample(range(k + 2), k + 2)
            pg = permute_gadget(g, perm)
            assert two_qubit_depth(pg.fragment) == two_qubit_depth(g.fragment)
            assert pg.two_qubit_gate_count() == g.two_qubit_gate_count()

    def test_identity_permutation(self):
        g = init_new(6)
        assert permute_gadget(g, range(8)).fragment.gates == g.fragment.gates

    def test_odd_k_rejected(self):
        with pytest.raises(GadgetError):
            init_new(3)

    def test_syndrome_new_divisibility(self):
        with pytest.raises(GadgetError):
            syndrome_new(4)   # n = 6 not a multiple of 4
        syndrome_old(4)       # no constraint on the older gadget

    def test_reordered_init_frees_hub_early(self):
        from icecomp.circuit import layered_schedule
        g = init_new(6, (0, 6, 5, 4, 3, 2, 1, 7))
        sched = layered_schedule(g.fragment)
        last = {}
        for gi, gate in enumerate(g.fragment.gates):
            if gate.is_two_qubit:
                for q in gate.qubits:
                    last[q] = sched.gate_layer[gi]
        assert last[6] == min(last[q] for q in range(1, 7))


def ghz_plus_state(gadget: Gadget) -> StateVector:
    """Run an init fragment and return the post-selected state."""
    sv = StateVector(gadget.fragment.num_qubits)
    rng = np.random.default_rng(0)
    bits = {}
    for g in gadget.fragment.gates:
        if g.kind is GateKind.CNOT:
            sv.apply_cx(*g.qubits)
        elif g.kind is GateKind.H:
            sv.apply_h(g.qubits[0])
        elif g.kind is GateKind.RESET:
            sv.reset(g.qubits[0], rng)
        elif g.kind is GateKind.MEASURE_Z:
            v = sv.measure(g.qubits[0], rng)
            bits[g.clbit] = v
        else:
            raise AssertionError(g)
    assert all(v == 0 for v in bits.values())
    return sv


def pauli_expectation(sv: StateVector, xmask: int, zmask: int) -> float:
    work = sv.copy()
    for q in range(work.n):
        if (xmask >> q) & 1:
            work.apply_x(q)
        if (zmask >> q) & 1:
            work.apply_z(q)
    return float(np.real(np.vdot(sv.amp, work.amp)))


class TestPreparedState:
    @pytest.mark.parametrize("kind", [GadgetKind.INIT_OLD, GadgetKind.INIT_NEW])
    @pytest.mark.parametrize("order", [None, (3, 0, 5, 1, 4, 2)])
    def test_prepares_plus_logical_state(self, kind, order):
        k = 4
        g = build_gadget(kind, k, order)
        sv = ghz_plus_state(g)
        n = k + 2
        full = (1 << n) - 1
        assert pauli_expectation(sv, full, 0) == pytest.approx(1.0)   # S_x
        assert pauli_expectation(sv, 0, full) == pytest.approx(1.0)   # S_z
        for i in range(1, k + 1):
            xbar = 1 | (1 << i)
            assert pauli_expectation(sv, xbar, 0) == pytest.approx(1.0)

    def test_permutation_equivariance_of_state(self):
        a = ghz_plus_state(init_new(4))
        b = ghz_plus_state(init_new(4, (5, 2, 0, 4, 1, 3)))
        # GHZ symmetry: the physical state itself is identical
        assert np.allclose(a.amp, b.amp)


class TestZ2Rewrite:
    def test_bottom_anchor_equivalent_on_symmetric_state(self):
        k = 4
        sv = ghz_plus_state(init_new(k))
        theta = 0.83
        top = sv.copy()
        top.apply_rxx(0, 2, theta)
        bot = sv.copy()
        bot.apply_rxx(k + 1, 2, theta)
        fidelity = abs(np.vdot(top.amp, bot.amp))
        assert fidelity == pytest.approx(1.0, abs=1e-12)


class TestFinalDecode:
    @pytest.mark.parametrize("kind", [GadgetKind.FINAL_OLD, GadgetKind.FINAL_NEW])
    @pytest.mark.parametrize("order", [None, (1, 5, 3, 0, 2, 4)])
    def test_all_zero_logical_input(self, kind, order):
        # prepare logical |0...0> (the computational-basis GHZ state), then
        # measure: all checks pass and every logical bit decodes to zero
        k = 4
        lay = IcebergLayout(k)
        circ = PhysicalCircuit(lay.num_qubits, 0)
        circ.begin_component(0, ComponentRole.INIT)
        circ.h(0)
        for i in range(1, lay.n):
            circ.cx(i - 1, i)
        final = build_gadget(kind, k, order)
        circ.num_clbits = final.num_clbits
        circ.begin_component(1, ComponentRole.FINAL_MEAS)
        for g in final.fragment.gates:
            circ.add(replace(g, component=1))
        dist = exact_bit_distribution(circ)
        assert sum(dist.values()) == pytest.approx(1.0)
        for bits, prob in dist.items():
            values, accepted, logical = decode_bits(bits, final.checks,
                                                    final.decode)
            assert accepted
            assert logical == 0

    def test_decode_maps_pair_each_logical_with_bottom(self):
        g = final_new(6)
        lay = g.layout
        for i, bits in g.decode.items():
            assert bits == frozenset({i, lay.b})


# ---------------------------------------------------------------------------
# Shared gates: every fragment equals one built gate by gate
# ---------------------------------------------------------------------------

def _ref_init(k, order, new):
    """INIT_OLD (one staircase) or INIT_NEW (two branches), gate by gate."""
    n = k + 2
    c = PhysicalCircuit(k + 4, 1)
    c.begin_component(0, ComponentRole.INIT)
    for q in order[1:]:
        c.h(q)
    if new:
        a, b = order[:n // 2], order[::-1][:n // 2]
        c.cx(b[0], a[0])
        for d in range(1, n // 2):
            c.cx(a[d], a[d - 1])
            c.cx(b[d], b[d - 1])
        ends = a[-1], b[-1]
    else:
        for i in range(1, n):
            c.cx(order[i], order[i - 1])
        ends = order[-1], order[0]
    c.reset(n)
    c.h(n)
    c.cx(n, ends[0])
    c.cx(n, ends[1])
    c.h(n)
    c.mz(n, 0)
    return c


def _ref_syndrome(k, order, new):
    """SYNDROME_OLD (paired blocks) or SYNDROME_NEW (lag schedule)."""
    n = k + 2
    ax, az = n, n + 1
    c = PhysicalCircuit(k + 4, 2)
    c.begin_component(0, ComponentRole.SYNDROME)
    c.reset(ax)
    c.h(ax)
    c.reset(az)
    if new:
        c.x(az)
        for xs, zs in syndrome_lag_schedule(n):
            c.cx(ax, order[xs])
            c.cx(order[zs], az)
    else:
        for i in range(0, n, 2):
            u, v = order[i], order[i + 1]
            c.cx(ax, u)
            c.cx(u, az)
            if i in (0, n - 2):
                c.cx(v, az)
                c.cx(ax, v)
            else:
                c.cx(ax, v)
                c.cx(v, az)
    c.mx(ax, 0)
    c.mz(az, 1)
    return c


def _ref_final(k, order, new):
    """FINAL_OLD (collector and flag) or FINAL_NEW (one Z collector)."""
    n = k + 2
    a0, a1 = n, n + 1
    c = PhysicalCircuit(k + 4, n + (1 if new else 2))
    c.begin_component(0, ComponentRole.FINAL_MEAS)
    if new:
        c.reset(a0)
        c.cx(a0, order[0])
        for q in order:
            c.cx(q, a0)
        c.mz(a0, n)
    else:
        c.reset(a0)
        c.reset(a1)
        c.h(a0)
        c.cx(a0, order[0])
        c.cx(a0, a1)
        for q in order[1:-1]:
            c.cx(a0, q)
        c.cx(a0, a1)
        c.cx(a0, order[-1])
        c.mx(a0, n)
        c.mz(a1, n + 1)
    for q in range(n):
        c.mz(q, q)
    return c


_REFERENCE = {
    GadgetKind.INIT_OLD: (_ref_init, False),
    GadgetKind.INIT_NEW: (_ref_init, True),
    GadgetKind.SYNDROME_OLD: (_ref_syndrome, False),
    GadgetKind.SYNDROME_NEW: (_ref_syndrome, True),
    GadgetKind.FINAL_OLD: (_ref_final, False),
    GadgetKind.FINAL_NEW: (_ref_final, True),
}


def _fields(gates):
    return [(g.kind, g.qubits, g.angle, g.clbit, g.component) for g in gates]


class TestSharedGates:
    @pytest.mark.parametrize("k", [2, 4, 6, 10, 22])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fragment_equals_fresh_reference(self, kind, k):
        if not valid(kind, k):
            with pytest.raises(GadgetError, match="divisible by 4"):
                build_gadget(kind, k)
            return
        build, new = _REFERENCE[kind]
        rng = random.Random(f"{kind.value}/{k}")
        orders = [None] + [tuple(rng.sample(range(k + 2), k + 2))
                           for _ in range(20)]
        for order in orders:
            g = build_gadget(kind, k, order)
            ref = build(k, g.implicit_order, new)
            frag = g.fragment
            assert g.implicit_order == (order or tuple(range(k + 2)))
            assert (frag.num_qubits, frag.num_clbits, frag.components) == \
                (ref.num_qubits, ref.num_clbits, ref.components)
            assert _fields(frag.gates) == _fields(ref.gates)
            assert frag.gates == ref.gates
            assert [hash(x) for x in frag.gates] == \
                [hash(x) for x in ref.gates]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_builds_share_gates_but_no_gate_list(self, kind):
        first, second = build_gadget(kind, 6), build_gadget(kind, 6)
        assert first.fragment.gates is not second.fragment.gates
        assert all(a is b for a, b in zip(first.fragment.gates,
                                           second.fragment.gates))
        first.fragment.h(0)
        first.fragment.gates.pop(0)
        build, new = _REFERENCE[kind]
        ref = build(6, tuple(range(8)), new).gates
        assert _fields(build_gadget(kind, 6).fragment.gates) == _fields(ref)
        assert _fields(second.fragment.gates) == _fields(ref)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("k", [3, 5, 0, -2, 1])
    def test_bad_k_raises_after_good_builds(self, kind, k):
        build_gadget(kind, 4 if valid(kind, 4) else 6)
        with pytest.raises(GadgetError, match="k must be even and >= 2"):
            build_gadget(kind, k)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_float_k_raises_even_when_its_int_was_built(self, kind):
        for k in (4.0, 6.0):
            if valid(kind, int(k)):
                build_gadget(kind, int(k))
            with pytest.raises(TypeError, match="'float' object cannot be "
                               "interpreted as an integer"):
                build_gadget(kind, k)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_numpy_k_and_order_build_plain_ints(self, kind):
        # the shared gates must hold plain ints, whatever int type a build
        # was given first: a numpy int shifted past bit 63 would wrap
        k = np.int64(6)
        order = np.array([3, 1, 0, 2, 7, 5, 4, 6])
        for g in (build_gadget(kind, k), build_gadget(kind, k, order)):
            assert g.layout == IcebergLayout(6) and type(g.layout.k) is int
            assert all(type(q) is int for q in g.implicit_order)
            assert all(type(q) is int for x in g.fragment.gates
                       for q in x.qubits)
            assert all(x.clbit is None or type(x.clbit) is int
                       for x in g.fragment.gates)
        assert g.implicit_order == (3, 1, 0, 2, 7, 5, 4, 6)
