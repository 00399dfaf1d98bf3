"""Exhaustive single-fault Pauli propagation and fault-tolerance checks.

Faults are Pauli errors placed after one gate (or a classical flip of one
measurement).  A fault's verdict rests on its Pauli frame at the circuit
end.  Through CNOT/H/X/Z the frame takes the Clifford action on Pauli
masks.  Every other unitary here is a Pauli rotation exp(-i theta P), and a
Pauli E that anticommutes with P passes it as exp(-i theta P) E =
E exp(+i theta P): E goes on unchanged and only that rotation's sign flips
(the Pauli-frame rule of Stim, Gidney, arXiv:2103.02202).  Measurements
record a classical flip whenever the frame anticommutes with the measured
operator; resets clear the frame on their qubit.  So the faulty circuit
gives the outcomes of the fault-free circuit with the flipped rotations
negated, with the flipped bits inverted.

Each of these rules is linear over GF(2).  A fault's response (its terminal
Pauli, its flipped bits and its flipped rotations, each a bit mask) is the
XOR of the responses of its X_q and Z_q factors.  So one backward sweep
gives every single-fault response of a circuit exactly.  Walking from the
last gate to the first, `_Sweep` keeps, for each qubit q, the responses
rx[q] and rz[q] of X_q and Z_q inserted at the current point, and each gate
updates only its own qubits' entries:

  * CNOT(c, t) maps X_c to X_c X_t and Z_t to Z_c Z_t: rx[c] ^= rx[t] and
    rz[t] ^= rz[c];
  * H swaps rx[q] and rz[q];
  * RZZ (RXX) toggles its rotation's bit on rx (rz) of both its qubits;
  * a Z measurement toggles its clbit on rx[q] and zeroes rz[q], whose
    Pauli it absorbs;
  * an X measurement is H, then a Z measurement, and leaves its qubit in
    the Z basis, as the trajectory, the dense pass and the stabilizer
    tableau run it: rz[q] becomes rx[q] with its clbit toggled, and rx[q]
    is zeroed.  Forward, a Pauli before it flips the clbit iff it has Z on
    q, and leaves X on q iff it had Z there;
  * a measurement whose clbit a later measurement writes toggles no clbit,
    since the later write is the one the outcome keeps; a classical flip
    of it flips nothing either;
  * a reset zeroes both entries; X, Z and barriers change nothing.

A fault after gate i is then the XOR of at most four entries at that point,
and costs O(1) int work.  `fault_reports` and `check_gadget_ft` take every
verdict of a circuit from one sweep; `propagate_pauli` runs the same sweep
from the end down to one fault's gate.  The simulator builds the responses
of its noise sites from the entries `_Sweep.entries` gives, and reads a
frame's flipped clbits and rotations with `_Sweep.unpack`, to reject noisy
shots and to decide accepted ones that flip no rotation.

The verdicts rest on two conditions of the circuit: every rotation
generator commutes with S_x and S_z, so negated rotations keep the state in
the code space; and the noiseless check bits are deterministic, so they
keep their values under any choice of rotation signs.  Then a fault is
detected iff the frame flips the parity of some check, and a detected fault
is rejected with certainty.  An undetected fault that flips the sign of any
rotation is a logical error under every context, since it changes an
encoded angle.  Otherwise the context decides:

  * init gadgets compare terminals against the stabilizer group of the
    prepared |+...+> state (phase flips of that state are what matter);
  * syndrome gadgets compare against the bare code stabilizers, with ideal
    trailing checks catching anything anticommuting with S_x or S_z;
  * final gadgets and whole circuits are judged purely on outcomes: a fault
    is harmless only if no check bit and no decoded logical bit flips.

Each test in that rule asks whether some GF(2)-linear function of the
response is nonzero, so a verdict reads one linear projection sigma of the
response (the detector/observable projection of Stim, arXiv:2103.02202),
which `VerifyContext.projection` builds once per context.  sigma keeps one
bit per check parity; in the "outcomes" context, one bit per decoded-bit
parity; in the other two, the x and z parities over the layout's data
qubits and the folded masks x ^ x_0 * full and z ^ z_0 * full, each zero
iff its mask is 0 or full; and, above all of these, the rotation mask.  A
fault is DETECTED if sigma meets the mask DET (the check bits, with both
parity bits under ideal trailing checks), else LOGICAL if sigma meets LOG
(the rotation bits, with the decode bits, the folded z and the x parity,
or the folded x and z, by context), else STABILIZER_EQUIVALENT.  Since
sigma is linear and every rule of the sweep is an XOR, a swap or a zeroing
of entries, sigma commutes with the sweep: started from the sigma-images of
X_q and Z_q, XORing in the sigma-image of each clbit flip and each rotation
bit, the sweep's entries are exactly the sigma-images of the full ones (the
detector sensitivities Stim tracks in place of whole frames).  So
`check_gadget_ft` sweeps in this detector space, on ints of sigma's width
plus one bit per rotation instead of 2n + clbits bits, and classifies a
gate's 3 or 15 faults with XORs of its 2 or 4 entries and two ANDs each.
`fault_reports`, `propagate_pauli` and the simulator sweep the full
responses.  `classify_terminal` applies the same sigma to an unpacked
frame; gadget fragments contain no rotations, so for them the frame is
plain Clifford propagation.

The context, sigma and the unit images depend on a gadget's kind, k,
checks and decode map, not on its implicit order, and a search certifies
many orders of one family.  So `check_gadget_ft` builds them once per
family and keeps them in a small bounded cache (`_family_context`), keyed
by all they read; a gadget whose maps cannot be hashed gets fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .circuit import ComponentRole, Gate, GateKind, PhysicalCircuit
from .gadgets import (Gadget, GadgetKind, IcebergLayout, ParityCheck,
                      gadget_role)


@dataclass(frozen=True)
class PauliString:
    xmask: int = 0
    zmask: int = 0

    @staticmethod
    def from_ops(ops: Iterable[tuple[int, str]]) -> "PauliString":
        """The Pauli with letter p on qubit q for each (q, p) of `ops`; a
        letter not X, Y or Z, or a qubit given twice, raises ValueError."""
        x = z = 0
        for q, p in ops:
            if p not in ("X", "Y", "Z"):
                raise ValueError(f"not a Pauli: {p}")
            if (x | z) >> q & 1:
                raise ValueError(f"qubit {q} given twice")
            if p != "Z":
                x |= 1 << q
            if p != "X":
                z |= 1 << q
        return PauliString(x, z)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return PauliString(self.xmask ^ other.xmask, self.zmask ^ other.zmask)

    def commutes(self, other: "PauliString") -> bool:
        overlap = (self.xmask & other.zmask).bit_count() \
            + (self.zmask & other.xmask).bit_count()
        return overlap % 2 == 0

    def label(self, num_qubits: int) -> str:
        out = []
        for q in range(num_qubits):
            x = (self.xmask >> q) & 1
            z = (self.zmask >> q) & 1
            out.append("IXZY"[x + 2 * z])
        return "".join(out)


class FaultClass(Enum):
    DETECTED_BY_CHECK = "detected"
    STABILIZER_EQUIVALENT = "stabilizer"
    LOGICAL_ERROR = "logical"


@dataclass(frozen=True)
class FaultLocation:
    gate_index: int
    pauli: PauliString | None = None   # None for a classical measurement flip
    flip_bit: int | None = None

    def describe(self, circuit: PhysicalCircuit) -> str:
        g = circuit.gates[self.gate_index]
        what = (f"flip c{self.flip_bit}" if self.flip_bit is not None
                else self.pauli.label(circuit.num_qubits))
        return f"after gate {self.gate_index} ({g.kind.value} {g.qubits}): {what}"


@dataclass(frozen=True)
class FaultReport:
    """The verdict on one fault, from its frame at the circuit end."""

    location: FaultLocation
    terminal: PauliString
    flipped_bits: frozenset[int]
    classification: FaultClass
    flipped_rotations: frozenset[int]

    @property
    def branches(self) -> tuple["FaultReport", ...]:
        """(self,): the frame pass gives one verdict per fault."""
        return (self,)

    @property
    def is_logical(self) -> bool:
        return self.classification is FaultClass.LOGICAL_ERROR

    @property
    def always_detected(self) -> bool:
        return self.classification is FaultClass.DETECTED_BY_CHECK


def propagate_pauli(circuit: PhysicalCircuit, start: int, pauli: PauliString
                    ) -> tuple[PauliString, frozenset[int], frozenset[int]]:
    """Push a Pauli inserted after gate index `start` to the circuit end as
    a Pauli frame, which passes every rotation unchanged and flips the sign
    of those it anticommutes with (module docstring).

    Returns (terminal Pauli, flipped classical bits, gate indices of the
    sign-flipped rotations).
    """
    if start < -1:       # would index the gate list from its end
        raise ValueError(f"fault position {start} is before the circuit")
    if start >= len(circuit.gates):
        raise ValueError(f"fault position {start} is past the last gate "
                         f"({len(circuit.gates) - 1})")
    if (pauli.xmask | pauli.zmask) >> circuit.num_qubits:
        raise ValueError(f"Pauli {pauli} acts outside the circuit's "
                         f"{circuit.num_qubits} qubits")
    sweep = _Sweep(circuit)
    rx, rz = sweep.run(start)
    r = 0
    for q in _bits(pauli.xmask):
        r ^= rx[q]
    for q in _bits(pauli.zmask):
        r ^= rz[q]
    x, z, flips, rotations = sweep.unpack(r)
    return PauliString(x, z), _bits(flips), _bits(rotations)


class _Sweep:
    """The backward sweep over one circuit (module docstring).

    A response packs its four masks into one int, so that one XOR combines
    two responses: the terminal x mask in bits [0, n), the terminal z mask
    in [n, 2n), clbit c at 2n + c, and the rotation of gate i at
    `rot` + i, above the circuit's `num_clbits` clbits.  `run` raises
    ValueError on a measurement into a clbit outside them.

    With a `projection`, the sweep keeps the sigma-images of the responses
    instead (module docstring): the units it starts from and XORs in, the
    responses of X_q, Z_q and of each clbit flip, are their images in
    closed form (`Projection.units`: a clbit's column, a terminal unit's
    parity and fold, or 0 where sigma reads no terminal), and the rotation
    of gate i sits at bit `rot` + i with `rot` sigma's width.  Every gate
    rule is an XOR, a swap or a zeroing, which commute with a GF(2)-linear
    map, so each entry is exactly sigma of the full entry.  `unpack` and
    `report` read full responses only.
    """

    def __init__(self, circuit: PhysicalCircuit,
                 projection: "Projection | None" = None):
        self.gates = circuit.gates
        self.n = n = circuit.num_qubits
        self.qubits = (1 << n) - 1
        self.cl = cl = 2 * n
        self.rot = rot = cl + circuit.num_clbits
        self.clbits = (1 << circuit.num_clbits) - 1
        # the responses of X_q and Z_q, and of a flip of each clbit
        if projection is None:
            units = _unit_bits(rot)
            self.unit_x, self.unit_z, self.unit_cl = (units[:n], units[n:cl],
                                                      units[cl:])
        else:
            self.unit_x, self.unit_z, self.unit_cl = projection.units(
                n, circuit.num_clbits)
            self.rot = projection.width

    def run(self, stop: int = -1, per_gate: list | None = None,
            record=None) -> tuple[list[int], list[int]]:
        """Sweep from the circuit end down to just after gate `stop` and
        return (rx, rz) there: rx[q] and rz[q] are the responses of X_q and
        Z_q inserted after gate `stop`.  With a `per_gate` list, also set
        per_gate[i] to record(gate i, rx, rz, written) of the entries after
        gate i, `written` the mask of the clbits that a measurement after
        gate i writes; `record` defaults to `responses`, the responses of
        the faults after gate i."""
        gates, rot = self.gates, self.rot
        record = record or self.responses
        # the kinds as locals: looking up an Enum member on its class costs
        # more than a gate's own update
        cnot, rzz, rxx, h, mz, mx, reset = (
            GateKind.CNOT, GateKind.RZZ, GateKind.RXX, GateKind.H,
            GateKind.MEASURE_Z, GateKind.MEASURE_X, GateKind.RESET)
        passive = (GateKind.X, GateKind.Z, GateKind.BARRIER)
        rx, rz = list(self.unit_x), list(self.unit_z)
        written = 0
        for i in range(len(gates) - 1, stop, -1):
            g = gates[i]
            if per_gate is not None:
                per_gate[i] = record(g, rx, rz, written)
            kind = g.kind
            if kind is cnot:
                c, t = g.qubits
                rx[c] ^= rx[t]
                rz[t] ^= rz[c]
            elif kind is rzz or kind is rxx:
                a, b = g.qubits
                r = rx if kind is rzz else rz
                r[a] ^= 1 << (rot + i)
                r[b] ^= 1 << (rot + i)
            elif kind is h:
                q = g.qubits[0]
                rx[q], rz[q] = rz[q], rx[q]
            elif kind is mz or kind is mx:
                q, flip = g.qubits[0], self.flip(g, written)
                written |= 1 << g.clbit
                if kind is mz:
                    rx[q] ^= flip
                    rz[q] = 0
                else:
                    rz[q] = rx[q] ^ flip
                    rx[q] = 0
            elif kind is reset:
                q = g.qubits[0]
                rx[q] = rz[q] = 0
            elif kind not in passive:
                raise NotImplementedError(kind)  # pragma: no cover
        return rx, rz

    def flip(self, g: Gate, written: int) -> int:
        """The response of a flip of measurement `g`'s clbit: none when a
        later measurement writes it (its bit in the mask `written`), which
        the outcome keeps.  ValueError if the circuit has no such clbit."""
        if not 0 <= g.clbit < len(self.unit_cl):
            raise ValueError(f"classical bit out of range in {g}: "
                             f"the circuit has {len(self.unit_cl)}")
        return 0 if written >> g.clbit & 1 else self.unit_cl[g.clbit]

    def per_gate(self) -> list[list[int]]:
        """The responses of every fault, by gate index (`responses`)."""
        per_gate: list[list[int]] = [[]] * len(self.gates)
        self.run(per_gate=per_gate)
        return per_gate

    def entries(self) -> tuple[list, list[tuple[int, int]]]:
        """(after, start): after[i] is [(rx[q], rz[q]) for each qubit q of
        gate i] right after gate i, and start[q] is (rx[q], rz[q]) at the
        circuit start."""
        after: list = [None] * len(self.gates)
        rx, rz = self.run(per_gate=after, record=lambda g, rx, rz, _: [
            (rx[q], rz[q]) for q in g.qubits])
        return after, list(zip(rx, rz))

    def responses(self, g: Gate, rx: list[int], rz: list[int],
                  written: int) -> list[int]:
        """Responses of the faults after gate `g`, in the order of
        `_locations_at`, from the entries after `g` and the mask `written`
        of the clbits that later measurements write."""
        kind = g.kind
        if kind.measurement:
            return [self.flip(g, written)]
        if kind.two_qubit:
            a, b = g.qubits
            return _combine(((rx[a], rz[a]), (rx[b], rz[b])))
        if kind.arity is None:      # a barrier
            return []
        q, = g.qubits
        return _combine(((rx[q], rz[q]),))

    def unpack(self, r: int) -> tuple[int, int, int, int]:
        """(terminal x mask, terminal z mask, flipped clbit mask, mask of
        the flipped rotations' gate indices) of a response."""
        return (r & self.qubits, (r >> self.n) & self.qubits,
                (r >> self.cl) & self.clbits, r >> self.rot)

    def report(self, loc: FaultLocation, r: int,
               cls: FaultClass) -> FaultReport:
        """The report on the fault `loc` with response `r` and verdict
        `cls`."""
        x, z, flips, rotations = self.unpack(r)
        return FaultReport(loc, PauliString(x, z), _bits(flips), cls,
                           _bits(rotations))


@lru_cache
def _unit_bits(count: int) -> tuple[int, ...]:
    """(1 << 0, ..., 1 << count - 1), built once per count."""
    return tuple(1 << b for b in range(count))


def _combine(entries: Sequence[tuple[int, int]]) -> list[int]:
    """The XORs of the (x, z) entries of one or two qubits that give the
    non-identity Paulis on them, each qubit's letter in the order I, X, Y,
    Z, the first qubit's most significant: X, Y, Z on one qubit, and IX,
    IY, ..., ZZ on two, as `_locations_at` orders a gate's faults.  Every
    fault site has one or two qubits, so both are written out."""
    if len(entries) == 1:
        (x, z), = entries
        return [x, x ^ z, z]
    (xa, za), (xb, zb) = entries
    ya, yb = xa ^ za, xb ^ zb
    return [xb, yb, zb,
            xa, xa ^ xb, xa ^ yb, xa ^ zb,
            ya, ya ^ xb, ya ^ yb, ya ^ zb,
            za, za ^ xb, za ^ yb, za ^ zb]


def _bits(mask: int) -> frozenset[int]:
    """The indices of the set bits of a non-negative int."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _mask(bits: Iterable[int]) -> int:
    """The int whose set bits are `bits`, counted with parity."""
    m = 0
    for b in bits:
        m ^= 1 << b
    return m


# ---------------------------------------------------------------------------
# Terminal classification
# ---------------------------------------------------------------------------

class Projection:
    """The projection sigma of a response onto the bits a verdict reads,
    and the masks DET and LOG that classify it (module docstring).

    Bits of sigma from 0 up: the check parities; then either the
    decoded-bit parities ("outcomes"), or the x parity, the z parity and
    the folded x and z masks without their always-zero bit 0; then the
    rotation mask.  LOG is negative, so that it meets every rotation bit.
    """

    def __init__(self, ctx: "VerifyContext"):
        parities = [c.bits for c in ctx.checks]
        self.nc = nc = len(parities)
        self.det = (1 << nc) - 1
        self.reads_terminal = ctx.harmless != "outcomes"
        self.n = n = ctx.layout.n
        if not self.reads_terminal:
            parities += (ctx.decode or {}).values()
            self.width = len(parities)
            self.log = self.det ^ -1
        else:
            self.width = nc + 2 * n
            folded_x = ((1 << n - 1) - 1) << nc + 2
            folded_z = folded_x << n - 1
            if ctx.trailing_checks:
                self.det |= 3 << nc
            self.log = -1 << self.width
            if ctx.harmless == "plus_state":
                self.log |= folded_z | 1 << nc
            else:
                self.log |= folded_x | folded_z
        # the sigma of each clbit that some parity reads, keyed by 1 << c
        self.columns = columns = {}
        for b, bits in enumerate(parities):
            for c in bits:
                columns[1 << c] = columns.get(1 << c, 0) ^ 1 << b
        self.used = sum(columns)
        self._units: dict[tuple[int, int], tuple[list, list, list]] = {}

    def packed(self, n: int, cl: int, rot: int) -> Callable[[int], int]:
        """sigma on a response packed as `_Sweep` packs it: the terminal x
        mask in bits [0, n), the z mask in [n, 2n), clbit c at cl + c and
        the rotation mask from bit `rot` up."""
        columns, width, reads_terminal = (self.columns, self.width,
                                          self.reads_terminal)
        used = self.used & (1 << rot - cl) - 1
        full, nc = (1 << self.n) - 1, self.nc
        data = full & (1 << n) - 1     # the data qubits the packing holds
        fold_x, fold_z = nc + 1, nc + self.n      # shifts taking bit 1 up

        def sigma(r: int) -> int:
            s = r >> rot << width
            flips = r >> cl & used
            while flips:
                low = flips & -flips
                s ^= columns[low]
                flips ^= low
            if reads_terminal:
                x = r & data
                z = r >> n & data
                s ^= ((x.bit_count() & 1) << nc
                      ^ (z.bit_count() & 1) << nc + 1
                      ^ ((x ^ -(x & 1)) & full) << fold_x
                      ^ ((z ^ -(z & 1)) & full) << fold_z)
            return s

        return sigma

    def units(self, n: int, clbits: int) -> tuple[list, list, list]:
        """sigma of X_q, of Z_q and of a flip of clbit c, for each of the
        `n` qubits and `clbits` clbits of a packing (`packed`), in closed
        form: X_q (Z_q) of a data qubit sets the x (z) parity and its folded
        mask, 1 << q, or every data bit but bit 0 for q = 0; X_q and Z_q of
        other qubits set nothing, and a flip of clbit c sets its column.
        Built once per (n, clbits); the lists are shared, and read only
        (`_Sweep.run` copies them before it writes)."""
        units = self._units.get((n, clbits))
        if units is None:
            m, nc = self.n, self.nc
            folds = [1 << q if q else (1 << m) - 2
                     for q in range(min(n, m))] if self.reads_terminal else []
            pad = [0] * (n - len(folds))
            units = self._units[n, clbits] = (
                [1 << nc | f << nc + 1 for f in folds] + pad,
                [2 << nc | f << nc + m for f in folds] + pad,
                [self.columns.get(1 << c, 0) for c in range(clbits)])
        return units

    @cached_property
    def _fields_sigma(self) -> Callable[[int], int]:
        """`packed` for the packing `project` puts its fields in."""
        cl = 2 * self.n
        return self.packed(self.n, cl, cl + self.used.bit_length())

    def project(self, x: int, z: int, flips: int, rotations: int) -> int:
        """sigma of the response with terminal x and z masks `x` and `z`,
        flipped clbit mask `flips` and flipped rotation mask `rotations`."""
        full, n, used = (1 << self.n) - 1, self.n, self.used
        return self._fields_sigma(x & full | (z & full) << n
                                  | (flips & used) << 2 * n
                                  | rotations << 2 * n + used.bit_length())

    def classify(self, s: int) -> FaultClass:
        """The verdict on a response whose projection is `s`."""
        if s & self.det:
            return FaultClass.DETECTED_BY_CHECK
        if s & self.log:
            return FaultClass.LOGICAL_ERROR
        return FaultClass.STABILIZER_EQUIVALENT


@dataclass(frozen=True)
class VerifyContext:
    """What counts as detected/harmless at the end of a fragment."""

    layout: IcebergLayout
    checks: tuple[ParityCheck, ...]
    decode: dict[int, frozenset[int]] | None
    harmless: str            # "code", "plus_state", or "outcomes"
    trailing_checks: bool    # ideal S_x/S_z measurement afterwards?

    @cached_property
    def projection(self) -> Projection:
        """sigma and its masks for this context (module docstring)."""
        return Projection(self)


# per gadget role: what a harmless fault leaves, and whether ideal checks
# follow the gadget
_ROLE_CONTEXT = {ComponentRole.INIT: ("plus_state", True),
                 ComponentRole.SYNDROME: ("code", True),
                 ComponentRole.FINAL_MEAS: ("outcomes", False)}


def context_for_gadget(gadget: Gadget) -> VerifyContext:
    harmless, trailing = _ROLE_CONTEXT[gadget_role(gadget.kind)]
    return VerifyContext(gadget.layout, gadget.checks, gadget.decode,
                         harmless, trailing)


def classify_terminal(terminal: PauliString, flips: frozenset[int],
                      ctx: VerifyContext,
                      rotations: frozenset[int] = frozenset()) -> FaultClass:
    """Verdict on a fault from its frame: the terminal Pauli, the flipped
    classical bits and the sign-flipped rotations (module docstring)."""
    proj = ctx.projection
    return proj.classify(proj.project(terminal.xmask, terminal.zmask,
                                      _mask(flips), _mask(rotations)))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

# the (x, z) bits of I, X, Y and Z on one qubit
_IXYZ = ((0, 0), (1, 0), (1, 1), (0, 1))


def _two_qubit_paulis(a: int, b: int):
    """(label, Pauli) for the 15 non-identity Paulis on qubits (a, b), the
    label's first letter acting on a: "IX", "IY", ..., "ZZ"."""
    for pa in "IXYZ":
        for pb in "IXYZ":
            if pa + pb != "II":
                yield pa + pb, PauliString.from_ops(
                    (q, p) for q, p in ((a, pa), (b, pb)) if p != "I")


def _locations_at(i: int, g: Gate) -> list[FaultLocation]:
    """The faults after gate `g` at index `i`, in enumeration order: a
    measurement's clbit flip, or the non-identity Paulis on the gate's
    qubits, each qubit's letter in the order I, X, Y, Z and the first
    qubit's most significant (X, Y, Z; IX, IY, ..., ZZ), built from their
    masks."""
    if g.kind is GateKind.BARRIER:
        return []
    if g.kind.measurement:
        return [FaultLocation(i, flip_bit=g.clbit)]
    qs = g.qubits
    if len(qs) == 1:
        m = 1 << qs[0]
        return [FaultLocation(i, PauliString(x * m, z * m))
                for x, z in _IXYZ[1:]]
    a, b = 1 << qs[0], 1 << qs[1]
    return [FaultLocation(i, PauliString(xa * a | xb * b, za * a | zb * b))
            for xa, za in _IXYZ for xb, zb in _IXYZ if xa | za | xb | zb]


def enumerate_fault_locations(circuit: PhysicalCircuit) -> list[FaultLocation]:
    return [loc for i, g in enumerate(circuit.gates)
            for loc in _locations_at(i, g)]


def run_fault(circuit: PhysicalCircuit, loc: FaultLocation,
              ctx: VerifyContext) -> FaultReport:
    if loc.flip_bit is not None:
        # a flip that a later measurement overwrites flips nothing
        overwritten = any(g.kind.measurement and g.clbit == loc.flip_bit
                          for g in circuit.gates[loc.gate_index + 1:])
        term, flips, rotations = PauliString(), frozenset(
            () if overwritten else {loc.flip_bit}), frozenset()
    else:
        term, flips, rotations = propagate_pauli(circuit, loc.gate_index,
                                                 loc.pauli)
    cls = classify_terminal(term, flips, ctx, rotations)
    return FaultReport(loc, term, flips, cls, rotations)


def fault_reports(circuit: PhysicalCircuit,
                  ctx: VerifyContext) -> list[FaultReport]:
    """`run_fault` of every fault of `enumerate_fault_locations`, in that
    order, from one backward sweep."""
    sweep = _Sweep(circuit)
    proj = ctx.projection
    sigma = proj.packed(sweep.n, sweep.cl, sweep.rot)
    return [sweep.report(loc, r, proj.classify(sigma(r)))
            for i, (g, rs) in enumerate(zip(circuit.gates, sweep.per_gate()))
            for loc, r in zip(_locations_at(i, g), rs)]


@dataclass
class FtSummary:
    gadget_kind: GadgetKind | None
    total: int = 0
    counts: dict[FaultClass, int] = field(default_factory=dict)
    escapes: list[FaultReport] = field(default_factory=list)

    @property
    def num_logical(self) -> int:
        return self.counts.get(FaultClass.LOGICAL_ERROR, 0)

    @property
    def passed(self) -> bool:
        return self.num_logical == 0


_BY_CODE = (FaultClass.DETECTED_BY_CHECK, FaultClass.LOGICAL_ERROR,
            FaultClass.STABILIZER_EQUIVALENT)


_MAX_FAMILIES = 64      # family contexts kept; when full, all are dropped
_FAMILIES: dict[tuple, tuple[VerifyContext, Projection]] = {}


def _family_context(gadget: Gadget) -> tuple[VerifyContext, Projection]:
    """`context_for_gadget(gadget)` and its projection, one per family: the
    orders of a kind at one k share the context, the projection and the
    unit images `Projection.units` keeps.  The key holds all that these
    read: the kind's role, k, the fragment's qubit and clbit counts, the
    checks, and the decode items in order.  A gadget whose checks or decode
    cannot be hashed (a `ParityCheck` over a `set`) gets a fresh context."""
    frag, decode = gadget.fragment, gadget.decode
    # the role as the (harmless, trailing) pair it sets, whose strs hash
    # at C speed
    key = (_ROLE_CONTEXT[gadget_role(gadget.kind)], gadget.layout.k,
           frag.num_qubits, frag.num_clbits, gadget.checks,
           None if decode is None else tuple(decode.items()))
    try:
        family = _FAMILIES.get(key)
    except TypeError:       # an unhashable check or decode set
        ctx = context_for_gadget(gadget)
        return ctx, ctx.projection
    if family is None:
        ctx = context_for_gadget(gadget)
        family = ctx, ctx.projection
        if len(_FAMILIES) >= _MAX_FAMILIES:
            _FAMILIES.clear()
        _FAMILIES[key] = family
    return family


def check_gadget_ft(gadget: Gadget) -> FtSummary:
    """Exhaustive single-fault enumeration over one gadget fragment, from
    one backward sweep in detector space: the sweep carries sigma-images of
    the responses (`_Sweep` with the context's projection), so each fault's
    projection is an XOR of a gate's 2 or 4 entries and its verdict two
    ANDs (module docstring).  The context, its projection and the sweep's
    unit images come once per family (`_family_context`), so a search over
    the orders of one kind and k builds them once.  A failing gadget's
    escapes are the logical reports of `fault_reports`."""
    circuit = gadget.fragment
    ctx, proj = _family_context(gadget)
    det, log = proj.det, proj.log
    # verdicts as indices into _BY_CODE, in enumeration order, as bytes so
    # that they are counted and found at C speed
    codes = bytes([0 if s & det else 1 if s & log else 2
                   for per in _Sweep(circuit, proj).per_gate() for s in per])
    summary = FtSummary(gadget.kind, len(codes), {
        _BY_CODE[c]: codes.count(c) for c in sorted(
            (c for c in range(3) if c in codes), key=codes.index)})
    if 1 in codes:
        summary.escapes = [r for r in fault_reports(circuit, ctx)
                           if r.is_logical]
    return summary


def classify_rotation_faults(layout: IcebergLayout, logical_index: int,
                             use_bottom: bool = False) -> dict[str, bool]:
    """For the 15 two-qubit Paulis after an encoded rotation on (anchor, i),
    map label -> True when the fault escapes detection (commutes with both
    stabilizers).  Exactly XX, YY, ZZ escape."""
    if not 1 <= logical_index <= layout.k:
        raise ValueError("logical index out of range")
    anchor = layout.b if use_bottom else layout.t
    full = (1 << layout.n) - 1
    s_x = PauliString(xmask=full)
    s_z = PauliString(zmask=full)
    return {label: pauli.commutes(s_x) and pauli.commutes(s_z)
            for label, pauli in _two_qubit_paulis(anchor, logical_index)}
