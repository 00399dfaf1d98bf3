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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .circuit import ComponentRole, PhysicalCircuit


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
    if order is None:
        return layout.default_order()
    order = tuple(order)
    if sorted(order) != list(layout.data):
        raise GadgetError(
            f"implicit order must permute the {layout.n} data qubits, got {order}"
        )
    return order


def _fragment(layout: IcebergLayout, num_clbits: int, role: ComponentRole
              ) -> PhysicalCircuit:
    frag = PhysicalCircuit(num_qubits=layout.num_qubits, num_clbits=num_clbits)
    frag.begin_component(0, role)
    return frag


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
    layout = IcebergLayout(k)
    order = _normalize_order(layout, implicit_order)
    frag = _fragment(layout, 1, ComponentRole.INIT)
    root, end = order[0], order[-1]
    for q in order[1:]:
        frag.h(q)
    for i in range(1, layout.n):
        frag.cx(order[i], order[i - 1])
    anc = layout.ancilla0
    frag.reset(anc)
    frag.h(anc)
    frag.cx(anc, end)
    frag.cx(anc, root)
    frag.h(anc)
    frag.mz(anc, 0)
    return Gadget(GadgetKind.INIT_OLD, layout, order, frag,
                  checks=(ParityCheck(frozenset({0})),))


def init_new(k: int, implicit_order: Sequence[int] | None = None) -> Gadget:
    """Two-branch GHZ preparation with a branch-end parity check.

    2Q depth k/2+3, 2Q gates k+3.  The two branches grow in parallel from
    roots at the two extremes of the implicit order; a single ancilla
    measures the X parity of the two branch ends, catching the phase faults
    that a single staircase would let escape down one branch.
    """
    layout = IcebergLayout(k)
    order = _normalize_order(layout, implicit_order)
    n = layout.n
    half = n // 2
    branch_a = list(order[:half])
    branch_b = list(order[n - 1: half - 1: -1])  # root at order[-1]
    end_a, end_b = branch_a[-1], branch_b[-1]
    frag = _fragment(layout, 1, ComponentRole.INIT)
    for q in order[1:]:
        frag.h(q)
    frag.cx(branch_b[0], branch_a[0])
    for d in range(1, half):
        frag.cx(branch_a[d], branch_a[d - 1])
        frag.cx(branch_b[d], branch_b[d - 1])
    anc = layout.ancilla0
    frag.reset(anc)
    frag.h(anc)
    frag.cx(anc, end_a)
    frag.cx(anc, end_b)
    frag.h(anc)
    frag.mz(anc, 0)
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
    layout = IcebergLayout(k)
    order = _normalize_order(layout, implicit_order)
    ax, az = layout.ancilla0, layout.ancilla1
    frag = _fragment(layout, 2, ComponentRole.SYNDROME)
    frag.reset(ax)
    frag.h(ax)
    frag.reset(az)
    pairs = [(order[i], order[i + 1]) for i in range(0, layout.n, 2)]
    last = len(pairs) - 1
    for idx, (u, v) in enumerate(pairs):
        if idx in (0, last):
            frag.cx(ax, u)
            frag.cx(u, az)
            frag.cx(v, az)
            frag.cx(ax, v)
        else:
            frag.cx(ax, u)
            frag.cx(u, az)
            frag.cx(ax, v)
            frag.cx(v, az)
    frag.mx(ax, 0)
    frag.mz(az, 1)
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
    layout = IcebergLayout(k)
    order = _normalize_order(layout, implicit_order)
    ax, az = layout.ancilla0, layout.ancilla1
    frag = _fragment(layout, 2, ComponentRole.SYNDROME)
    frag.reset(ax)
    frag.h(ax)
    frag.reset(az)
    frag.x(az)
    for x_slot, z_slot in syndrome_lag_schedule(layout.n):
        frag.cx(ax, order[x_slot])
        frag.cx(order[z_slot], az)
    frag.mx(ax, 0)
    frag.mz(az, 1)
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
    layout = IcebergLayout(k)
    order = _normalize_order(layout, implicit_order)
    a0, a1 = layout.ancilla0, layout.ancilla1
    n = layout.n
    frag = _fragment(layout, n + 2, ComponentRole.FINAL_MEAS)
    frag.reset(a0)
    frag.reset(a1)
    frag.h(a0)
    frag.cx(a0, order[0])
    frag.cx(a0, a1)
    for q in order[1:-1]:
        frag.cx(a0, q)
    frag.cx(a0, a1)
    frag.cx(a0, order[-1])
    frag.mx(a0, n)
    frag.mz(a1, n + 1)
    for q in layout.data:
        frag.mz(q, q)
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
    layout = IcebergLayout(k)
    order = _normalize_order(layout, implicit_order)
    a = layout.ancilla0
    n = layout.n
    frag = _fragment(layout, n + 1, ComponentRole.FINAL_MEAS)
    frag.reset(a)
    frag.cx(a, order[0])
    for q in order:
        frag.cx(q, a)
    frag.mz(a, n)
    for q in layout.data:
        frag.mz(q, q)
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
