"""Fault-tolerant Iceberg gadget constructors and their classical maps.

The [[k+2, k, 2]] code puts k (even) logical qubits on n = k+2 data qubits
with the two global stabilizers S_z = Z...Z and S_x = X...X.  Data qubits
are indexed t = 0, logical 1..k, b = k+1; the (at most two) ancillas sit at
k+2 and k+3.  Logical operators follow the usual convention X_i = X_t X_i,
Z_i = Z_i Z_b.

Every gadget is a circuit fragment plus classical bookkeeping:

  * checks  -- parity checks over the fragment's classical bits; a shot is
               kept only if every check XORs to its expected value;
  * decode  -- for final-measurement gadgets, the bit sets whose XOR yields
               each logical Z-basis bit.

All constructors take an implicit qubit order (a permutation of the n data
qubits) over which the internal staircase/branch/pipeline structure is laid
out.  Changing the order never changes function, cost, or fault tolerance;
classical maps are keyed by measured qubit and need no adaptation.

Initialization prepares the logical |+...+> state (the X-basis GHZ state),
which is what QAOA consumes: the transversal Hadamard that turns the
Z-basis GHZ recipe into the X-basis one is pulled into qubit preparation.

A search certifies thousands of orders of one gadget family, so a build
makes no gate and no layout it has made before.  A `Gate` is frozen and
hashes its fields, so every fragment may hold the same one: the builders
append gates from per-kind tables of validated gates (`_Shared`, keyed by
qubits and clbit, component 0), and `_layout` builds one `IcebergLayout`
per k.  Each fragment keeps its own gate list.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

from .circuit import ComponentRole, Gate, GateKind, PhysicalCircuit


class GadgetError(ValueError):
    pass


@dataclass(frozen=True)
class IcebergLayout:
    """The qubits of the code at k: `n` data qubits, t = 0, the `logical`
    ones 1..k, b = k+1, the ancillas `ancilla0` and `ancilla1`, and
    `num_qubits` in all, set once as plain attributes, which the gadget
    builders read without rebuilding them."""

    k: int

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise GadgetError("k must be even and >= 2")
        n = self.k + 2
        self.__dict__.update(n=n, t=0, b=n - 1, data=tuple(range(n)),
                             logical=tuple(range(1, n - 1)), ancilla0=n,
                             ancilla1=n + 1, num_qubits=n + 2)

    def default_order(self) -> tuple[int, ...]:
        return self.data


class GadgetKind(Enum):
    INIT_OLD = "init_old"
    INIT_NEW = "init_new"
    SYNDROME_OLD = "syndrome_old"
    SYNDROME_NEW = "syndrome_new"
    FINAL_OLD = "final_old"
    FINAL_NEW = "final_new"


@dataclass(frozen=True)
class ParityCheck:
    bits: frozenset[int]
    expected: int = 0


@dataclass(frozen=True)
class Gadget:
    kind: GadgetKind
    layout: IcebergLayout
    implicit_order: tuple[int, ...]
    fragment: PhysicalCircuit
    checks: tuple[ParityCheck, ...]
    decode: dict[int, frozenset[int]] | None = None

    @property
    def num_clbits(self) -> int:
        return self.fragment.num_clbits

    def two_qubit_gate_count(self) -> int:
        return self.fragment.two_qubit_gate_count()


_ROLE = {
    GadgetKind.INIT_OLD: ComponentRole.INIT,
    GadgetKind.INIT_NEW: ComponentRole.INIT,
    GadgetKind.SYNDROME_OLD: ComponentRole.SYNDROME,
    GadgetKind.SYNDROME_NEW: ComponentRole.SYNDROME,
    GadgetKind.FINAL_OLD: ComponentRole.FINAL_MEAS,
    GadgetKind.FINAL_NEW: ComponentRole.FINAL_MEAS,
}


def gadget_role(kind: GadgetKind) -> ComponentRole:
    return _ROLE[kind]


def _normalize_order(layout: IcebergLayout, order) -> tuple[int, ...]:
    """The order as a tuple of ints; GadgetError unless it permutes the
    data qubits.  Each entry equals a data qubit, so `int` keeps its value,
    and the shared gates are keyed, and built, on plain ints."""
    if order is None:
        return layout.default_order()
    order = tuple(order)
    if sorted(order) != list(layout.data):
        raise GadgetError(
            f"implicit order must permute the {layout.n} data qubits, got {order}"
        )
    return tuple(map(int, order))


@lru_cache(maxsize=32, typed=True)
def _layout(k: int) -> IcebergLayout:
    """`IcebergLayout(k)` at k as a plain int, so that the shared gates
    hold plain ints, built once per k.  `typed`, so that 4.0 is not taken
    for 4 but raises TypeError ("'float' object cannot be interpreted as
    an integer"), as the layout's `range` did; a raised error is not
    cached."""
    return IcebergLayout(operator.index(k))


_MAX_SHARED = 1 << 14     # gates kept per table; past that, a miss is fresh


class _Shared(dict):
    """The fragment gates of one kind, by key: the gate's qubit, its
    (control, target) pair, or its (qubit, clbit) for a measurement.  A
    missing key builds, and so validates, its `Gate` (component 0) once per
    process; at most `_MAX_SHARED` are kept, and past that a miss returns a
    fresh gate.  One table per kind, so that no key holds an Enum member,
    whose hash runs in Python."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[..., Gate]):
        super().__init__()
        self.make = make

    def __missing__(self, key) -> Gate:
        gate = self.make(key)
        if len(self) < _MAX_SHARED:
            self[key] = gate
        return gate


_CX = _Shared(lambda ct: Gate(GateKind.CNOT, ct))
_H = _Shared(lambda q: Gate(GateKind.H, (q,)))
_X = _Shared(lambda q: Gate(GateKind.X, (q,)))
_RESET = _Shared(lambda q: Gate(GateKind.RESET, (q,)))
_MZ = _Shared(lambda qc: Gate(GateKind.MEASURE_Z, qc[:1], None, qc[1]))
_MX = _Shared(lambda qc: Gate(GateKind.MEASURE_X, qc[:1], None, qc[1]))


def _fragment(layout: IcebergLayout, num_clbits: int, role: ComponentRole
              ) -> tuple[PhysicalCircuit, list[Gate]]:
    """An empty fragment with one component, 0 in `role`, and its own gate
    list, which the builder fills."""
    gates: list[Gate] = []
    return PhysicalCircuit(layout.num_qubits, num_clbits, gates,
                           {0: role}), gates


# ---------------------------------------------------------------------------
# Initialization: logical |+...+> preparation
# ---------------------------------------------------------------------------

def init_old(k: int, implicit_order: Sequence[int] | None = None) -> Gadget:
    """Single-staircase GHZ preparation with one verification ancilla.

    2Q depth k+3, 2Q gates k+3.  The root qubit starts in |0>, the rest in
    |+>; a reversed CNOT staircase then grows the X-basis GHZ state, and an
    ancilla verifies the X parity of the staircase's two extremes (root and
    final qubit), which any mid-staircase phase fault flips.
    """
    layout = _layout(k)
    order = _normalize_order(layout, implicit_order)
    frag, gates = _fragment(layout, 1, ComponentRole.INIT)
    root, end = order[0], order[-1]
    gates += [_H[q] for q in order[1:]]
    gates += [_CX[order[i], order[i - 1]] for i in range(1, layout.n)]
    anc = layout.ancilla0
    gates += [_RESET[anc], _H[anc], _CX[anc, end], _CX[anc, root], _H[anc],
              _MZ[anc, 0]]
    return Gadget(GadgetKind.INIT_OLD, layout, order, frag,
                  checks=(ParityCheck(frozenset({0})),))


def init_new(k: int, implicit_order: Sequence[int] | None = None) -> Gadget:
    """Two-branch GHZ preparation with a branch-end parity check.

    2Q depth k/2+3, 2Q gates k+3.  The two branches grow in parallel from
    roots at the two extremes of the implicit order; a single ancilla
    measures the X parity of the two branch ends, catching the phase faults
    that a single staircase would let escape down one branch.
    """
    layout = _layout(k)
    order = _normalize_order(layout, implicit_order)
    n = layout.n
    half = n // 2
    branch_a = order[:half]
    branch_b = order[n - 1: half - 1: -1]  # root at order[-1]
    end_a, end_b = branch_a[-1], branch_b[-1]
    frag, gates = _fragment(layout, 1, ComponentRole.INIT)
    gates += [_H[q] for q in order[1:]]
    gates.append(_CX[branch_b[0], branch_a[0]])
    for d in range(1, half):
        gates += [_CX[branch_a[d], branch_a[d - 1]],
                  _CX[branch_b[d], branch_b[d - 1]]]
    anc = layout.ancilla0
    gates += [_RESET[anc], _H[anc], _CX[anc, end_a], _CX[anc, end_b],
              _H[anc], _MZ[anc, 0]]
    return Gadget(GadgetKind.INIT_NEW, layout, order, frag,
                  checks=(ParityCheck(frozenset({0})),))


# ---------------------------------------------------------------------------
# Syndrome measurement: S_x and S_z into two ancilla bits
# ---------------------------------------------------------------------------

def syndrome_old(k: int, implicit_order: Sequence[int] | None = None) -> Gadget:
    """Block-pipelined double extraction.  2Q depth k+6, 2Q gates 2k+4.

    Data qubits are processed in pairs; the first and last pair reverse the
    order of one qubit's two couplings, which is what makes every ancilla
    hook fault flip a check or leave an odd-weight (hence detectable)
    residue.
    """
    layout = _layout(k)
    order = _normalize_order(layout, implicit_order)
    ax, az = layout.ancilla0, layout.ancilla1
    frag, gates = _fragment(layout, 2, ComponentRole.SYNDROME)
    gates += [_RESET[ax], _H[ax], _RESET[az]]
    pairs = [(order[i], order[i + 1]) for i in range(0, layout.n, 2)]
    last = len(pairs) - 1
    for idx, (u, v) in enumerate(pairs):
        if idx in (0, last):
            gates += [_CX[ax, u], _CX[u, az], _CX[v, az], _CX[ax, v]]
        else:
            gates += [_CX[ax, u], _CX[u, az], _CX[ax, v], _CX[v, az]]
    gates += [_MX[ax, 0], _MZ[az, 1]]
    return Gadget(GadgetKind.SYNDROME_OLD, layout, order, frag,
                  checks=(ParityCheck(frozenset({0})), ParityCheck(frozenset({1}))))


def syndrome_lag_schedule(n: int) -> list[tuple[int, int]]:
    """Per layer, (slot coupled by the X collector, slot coupled by the Z
    collector) for the fault-tolerant depth-n syndrome pipeline.

    Layout: a lag-1 head pair, a lag-(n/2-2) middle block, a lag-1 tail
    pair.  Inside a lag-w block, w qubits take their X coupling first (and
    their Z coupling w layers later) while the other w do the reverse; the
    resulting flip parities make every single ancilla fault either flip a
    check bit or leave an odd-weight detectable residue.  The X-first count
    is n/2, so the ancillas disentangle only when n is a multiple of 4.
    """
    if n % 4 != 0:
        raise GadgetError("depth-(k+2) syndrome needs k+2 divisible by 4")
    m = n // 2 - 2
    sched = [(0, 1), (1, 0)]
    for i in range(m):
        sched.append((2 + i, 2 + m + i))
    for i in range(m):
        sched.append((2 + m + i, 2 + i))
    sched += [(n - 2, n - 1), (n - 1, n - 2)]
    return sched


def syndrome_new(k: int, implicit_order: Sequence[int] | None = None) -> Gadget:
    """Depth-optimal double extraction.  2Q depth k+2, 2Q gates 2k+4.

    Both ancillas act in every layer: the X collector couples one data
    qubit while the Z collector couples another, following the lag-block
    schedule.  The Z collector is prepared in |1> (reset then X) so that its
    preparation spans the same two layers as the X collector's
    reset-plus-Hadamard, keeping the two coupling pipelines aligned; its
    parity check therefore expects 1.  Valid only when k+2 is a multiple of
    4; otherwise the X-first coupling count is odd and the ancillas end up
    entangled.
    """
    layout = _layout(k)
    order = _normalize_order(layout, implicit_order)
    ax, az = layout.ancilla0, layout.ancilla1
    frag, gates = _fragment(layout, 2, ComponentRole.SYNDROME)
    gates += [_RESET[ax], _H[ax], _RESET[az], _X[az]]
    for x_slot, z_slot in syndrome_lag_schedule(layout.n):
        gates += [_CX[ax, order[x_slot]], _CX[order[z_slot], az]]
    gates += [_MX[ax, 0], _MZ[az, 1]]
    return Gadget(GadgetKind.SYNDROME_NEW, layout, order, frag,
                  checks=(ParityCheck(frozenset({0})),
                          ParityCheck(frozenset({1}), expected=1)))


# ---------------------------------------------------------------------------
# Final measurement: destructive Z-basis readout of all logical bits
# ---------------------------------------------------------------------------

def _final_common(layout: IcebergLayout):
    """Bit layout shared by both final gadgets: data qubit q -> bit q."""
    data_bits = frozenset(range(layout.n))
    decode = {
        i: frozenset({i, layout.b}) for i in layout.logical
    }
    return data_bits, decode


def final_old(k: int, implicit_order: Sequence[int] | None = None) -> Gadget:
    """Readout with an X-stabilizer collector and a flag ancilla.

    2Q depth k+4, 2Q gates k+4.  The collector measures S_x one last time
    while all data qubits are read in Z; coupling the flag before and after
    the data run catches collector hooks that would otherwise flip an even
    set of readout bits.
    """
    layout = _layout(k)
    order = _normalize_order(layout, implicit_order)
    a0, a1 = layout.ancilla0, layout.ancilla1
    n = layout.n
    frag, gates = _fragment(layout, n + 2, ComponentRole.FINAL_MEAS)
    gates += [_RESET[a0], _RESET[a1], _H[a0], _CX[a0, order[0]], _CX[a0, a1]]
    gates += [_CX[a0, q] for q in order[1:-1]]
    gates += [_CX[a0, a1], _CX[a0, order[-1]], _MX[a0, n], _MZ[a1, n + 1]]
    gates += [_MZ[q, q] for q in layout.data]
    data_bits, decode = _final_common(layout)
    checks = (
        ParityCheck(frozenset({n})),        # S_x
        ParityCheck(frozenset({n + 1})),    # flag
        ParityCheck(data_bits),             # S_z from the readout itself
    )
    return Gadget(GadgetKind.FINAL_OLD, layout, order, frag, checks, decode)


def final_new(k: int, implicit_order: Sequence[int] | None = None) -> Gadget:
    """Readout with a single Z-parity ancilla.  2Q depth k+3, 2Q gates k+3.

    The ancilla re-collects S_z, duplicating the parity the data readout
    already provides; any single fault either flips one of the two copies
    (or a readout bit) or deposits pure phase errors, which a Z-basis
    readout never sees.  The logical bits are therefore never exposed to an
    undetected single fault, and the second ancilla of the older gadget
    becomes unnecessary.  A leading collector-to-data coupling guards the
    ancilla's own preparation.
    """
    layout = _layout(k)
    order = _normalize_order(layout, implicit_order)
    a = layout.ancilla0
    n = layout.n
    frag, gates = _fragment(layout, n + 1, ComponentRole.FINAL_MEAS)
    gates += [_RESET[a], _CX[a, order[0]]]
    gates += [_CX[q, a] for q in order]
    gates.append(_MZ[a, n])
    gates += [_MZ[q, q] for q in layout.data]
    data_bits, decode = _final_common(layout)
    checks = (
        ParityCheck(frozenset({n})),        # S_z via the ancilla
        ParityCheck(data_bits),             # S_z from the readout itself
    )
    return Gadget(GadgetKind.FINAL_NEW, layout, order, frag, checks, decode)


_CONSTRUCTOR: dict[GadgetKind, Callable[..., Gadget]] = {
    GadgetKind.INIT_OLD: init_old,
    GadgetKind.INIT_NEW: init_new,
    GadgetKind.SYNDROME_OLD: syndrome_old,
    GadgetKind.SYNDROME_NEW: syndrome_new,
    GadgetKind.FINAL_OLD: final_old,
    GadgetKind.FINAL_NEW: final_new,
}


def build_gadget(kind: GadgetKind, k: int,
                 implicit_order: Sequence[int] | None = None) -> Gadget:
    return _CONSTRUCTOR[kind](k, implicit_order)


def permute_gadget(gadget: Gadget, perm: Sequence[int]) -> Gadget:
    """Rebuild a gadget with its data slots permuted (ancillas fixed).

    perm[i] is the slot of the old order that moves to slot i.  Check and
    decode maps are keyed by measured qubit, so they carry over untouched.
    """
    perm = tuple(perm)
    n = gadget.layout.n
    if sorted(perm) != list(range(n)):
        raise GadgetError(f"perm must permute {n} slots, got {perm}")
    new_order = tuple(gadget.implicit_order[p] for p in perm)
    return build_gadget(gadget.kind, gadget.layout.k, new_order)


def gadget_cost_table(k: int) -> dict[GadgetKind, tuple[int, int]]:
    """(2Q depth, 2Q gate count) formulas for each gadget kind."""
    return {
        GadgetKind.INIT_OLD: (k + 3, k + 3),
        GadgetKind.INIT_NEW: (k // 2 + 3, k + 3),
        GadgetKind.SYNDROME_OLD: (k + 6, 2 * k + 4),
        GadgetKind.SYNDROME_NEW: (k + 2, 2 * k + 4),
        GadgetKind.FINAL_OLD: (k + 4, k + 4),
        GadgetKind.FINAL_NEW: (k + 3, k + 3),
    }
