"""Exhaustive single-fault Pauli propagation and fault-tolerance checks.

Faults are Pauli errors placed after one gate (or a classical flip of one
measurement).  `run_fault` pushes a fault to the end of the circuit as a
Pauli frame, in one exact pass that never branches.  Through CNOT/H/X/Z the
frame takes the Clifford action on Pauli masks.  Every other unitary here is
a Pauli rotation exp(-i theta P), and a Pauli E that anticommutes with P
passes it as exp(-i theta P) E = E exp(+i theta P): E goes on unchanged and
only that rotation's sign flips (the Pauli-frame rule of Stim, Gidney,
arXiv:2103.02202).  Measurements record a classical flip whenever the frame
anticommutes with the measured operator; resets clear the frame on their
qubit.  So the faulty circuit gives the outcomes of the fault-free circuit
with the flipped rotations negated, with the flipped bits inverted.

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

Gadget fragments contain no rotations, so for them the frame pass is plain
Clifford propagation.  `propagate_pauli` is the one propagation pass, so
every fault gets one `FaultReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .circuit import Gate, GateKind, PhysicalCircuit
from .gadgets import Gadget, GadgetKind, IcebergLayout, ParityCheck


@dataclass(frozen=True)
class PauliString:
    xmask: int = 0
    zmask: int = 0

    @staticmethod
    def from_ops(ops: Iterable[tuple[int, str]]) -> "PauliString":
        x = z = 0
        for q, p in ops:
            if p in ("X", "Y"):
                x |= 1 << q
            if p in ("Z", "Y"):
                z |= 1 << q
            if p not in ("X", "Y", "Z"):
                raise ValueError(f"not a Pauli: {p}")
        return PauliString(x, z)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return PauliString(self.xmask ^ other.xmask, self.zmask ^ other.zmask)

    def commutes(self, other: "PauliString") -> bool:
        overlap = (self.xmask & other.zmask).bit_count() \
            + (self.zmask & other.xmask).bit_count()
        return overlap % 2 == 0

    def restricted(self, mask: int) -> "PauliString":
        return PauliString(self.xmask & mask, self.zmask & mask)

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
    x, z = pauli.xmask, pauli.zmask
    flips: set[int] = set()
    rotations: list[int] = []
    for i in range(start + 1, len(circuit.gates)):
        x, z, bit, anti = _step(circuit.gates[i], x, z)
        if bit is not None:
            flips ^= {bit}
        if anti:
            rotations.append(i)
    return PauliString(x, z), frozenset(flips), frozenset(rotations)


def _step(g: Gate, x: int, z: int) -> tuple[int, int, int | None, bool]:
    """Push the Pauli (x, z) through one gate.

    Returns (xmask, zmask, flipped clbit or None, whether the gate is a
    rotation that anticommutes with the Pauli).  The Pauli passes a
    rotation unchanged.
    """
    kind = g.kind
    if kind is GateKind.CNOT:
        c, t = g.qubits
        if (x >> c) & 1:
            x ^= 1 << t
        if (z >> t) & 1:
            z ^= 1 << c
        return x, z, None, False
    elif kind is GateKind.H:
        q = g.qubits[0]
        xb, zb = (x >> q) & 1, (z >> q) & 1
        x = (x & ~(1 << q)) | (zb << q)
        z = (z & ~(1 << q)) | (xb << q)
        return x, z, None, False
    elif kind in (GateKind.X, GateKind.Z, GateKind.BARRIER):
        return x, z, None, False
    elif kind is GateKind.RZZ or kind is GateKind.RXX:
        a, b = g.qubits
        # RZZ anticommutes with the X part on (a, b), RXX with the Z part
        part = x if kind is GateKind.RZZ else z
        return x, z, None, (part & (1 << a | 1 << b)).bit_count() % 2 == 1
    elif kind is GateKind.MEASURE_Z:
        q = g.qubits[0]
        flip = g.clbit if (x >> q) & 1 else None
        return x, z & ~(1 << q), flip, False
    elif kind is GateKind.MEASURE_X:
        q = g.qubits[0]
        flip = g.clbit if (z >> q) & 1 else None
        return x & ~(1 << q), z, flip, False
    elif kind is GateKind.RESET:
        q = g.qubits[0]
        return x & ~(1 << q), z & ~(1 << q), None, False
    else:  # pragma: no cover
        raise NotImplementedError(kind)


# ---------------------------------------------------------------------------
# Terminal classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyContext:
    """What counts as detected/harmless at the end of a fragment."""

    layout: IcebergLayout
    checks: tuple[ParityCheck, ...]
    decode: dict[int, frozenset[int]] | None
    harmless: str            # "code", "plus_state", or "outcomes"
    trailing_checks: bool    # ideal S_x/S_z measurement afterwards?


def context_for_gadget(gadget: Gadget) -> VerifyContext:
    kind = gadget.kind
    if kind in (GadgetKind.INIT_OLD, GadgetKind.INIT_NEW):
        harmless = "plus_state"
        trailing = True
    elif kind in (GadgetKind.SYNDROME_OLD, GadgetKind.SYNDROME_NEW):
        harmless = "code"
        trailing = True
    else:
        harmless = "outcomes"
        trailing = False
    return VerifyContext(gadget.layout, gadget.checks, gadget.decode,
                         harmless, trailing)


def classify_terminal(terminal: PauliString, flips: frozenset[int],
                      ctx: VerifyContext,
                      rotations: frozenset[int] = frozenset()) -> FaultClass:
    """Verdict on a fault from its frame: the terminal Pauli, the flipped
    classical bits and the sign-flipped rotations (module docstring)."""
    if any(sum(1 for b in c.bits if b in flips) % 2 == 1 for c in ctx.checks):
        return FaultClass.DETECTED_BY_CHECK
    if ctx.harmless == "outcomes":
        if rotations or (ctx.decode and any(
            sum(1 for b in bits if b in flips) % 2 == 1
            for bits in ctx.decode.values()
        )):
            return FaultClass.LOGICAL_ERROR
        return FaultClass.STABILIZER_EQUIVALENT
    full = (1 << ctx.layout.n) - 1
    data = terminal.restricted(full)
    # ideal trailing stabilizer checks catch odd-weight components
    if ctx.trailing_checks:
        if data.xmask.bit_count() % 2 == 1 or data.zmask.bit_count() % 2 == 1:
            return FaultClass.DETECTED_BY_CHECK
    if rotations:
        return FaultClass.LOGICAL_ERROR
    if ctx.harmless == "plus_state":
        # stabilizer group of |+...+>: even X-strings, optionally times S_z
        if data.zmask in (0, full) and data.xmask.bit_count() % 2 == 0:
            return FaultClass.STABILIZER_EQUIVALENT
        return FaultClass.LOGICAL_ERROR
    # bare code: {I, S_x, S_z, S_x S_z}
    if data.xmask in (0, full) and data.zmask in (0, full):
        return FaultClass.STABILIZER_EQUIVALENT
    return FaultClass.LOGICAL_ERROR


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

_SINGLE = ("X", "Y", "Z")


def _two_qubit_paulis(a: int, b: int):
    """(label, Pauli) for the 15 non-identity Paulis on qubits (a, b), the
    label's first letter acting on a: "IX", "IY", ..., "ZZ"."""
    for pa in "IXYZ":
        for pb in "IXYZ":
            if pa + pb != "II":
                yield pa + pb, PauliString.from_ops(
                    (q, p) for q, p in ((a, pa), (b, pb)) if p != "I")


def enumerate_fault_locations(circuit: PhysicalCircuit) -> list[FaultLocation]:
    locs: list[FaultLocation] = []
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.BARRIER:
            continue
        if g.kind in (GateKind.MEASURE_Z, GateKind.MEASURE_X):
            locs.append(FaultLocation(i, flip_bit=g.clbit))
            continue
        qs = g.qubits
        if len(qs) == 1:
            for p in _SINGLE:
                locs.append(FaultLocation(i, PauliString.from_ops([(qs[0], p)])))
        else:
            locs.extend(FaultLocation(i, pauli)
                        for _, pauli in _two_qubit_paulis(*qs))
    return locs


def run_fault(circuit: PhysicalCircuit, loc: FaultLocation,
              ctx: VerifyContext) -> FaultReport:
    if loc.flip_bit is not None:
        term, flips, rotations = \
            PauliString(), frozenset({loc.flip_bit}), frozenset()
    else:
        term, flips, rotations = propagate_pauli(circuit, loc.gate_index,
                                                 loc.pauli)
    cls = classify_terminal(term, flips, ctx, rotations)
    return FaultReport(loc, term, flips, cls, rotations)


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


def check_gadget_ft(gadget: Gadget) -> FtSummary:
    """Exhaustive single-fault enumeration over one gadget fragment."""
    ctx = context_for_gadget(gadget)
    summary = FtSummary(gadget.kind)
    for loc in enumerate_fault_locations(gadget.fragment):
        rep = run_fault(gadget.fragment, loc, ctx)
        summary.total += 1
        cls = rep.classification
        summary.counts[cls] = summary.counts.get(cls, 0) + 1
        if rep.is_logical:
            summary.escapes.append(rep)
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
