"""Circuit data model, ASAP layered scheduling, depth metrics, and text format.

The physical gate set is the one native to the encoded-QAOA pipeline:
two-qubit rotations RZZ/RXX (gate angle theta means exp(-i*theta*P@P)),
CNOT, the single-qubit Clifford dressing H/X/Z, measurements in the Z and X
bases, RESET, and BARRIER fences.  Circuits are flat ordered gate lists;
every gate carries the id of the circuit component (gadget or QAOA layer)
that owns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class GateKind(Enum):
    RZZ = "rzz"
    RXX = "rxx"
    CNOT = "cx"
    H = "h"
    X = "x"
    Z = "z"
    MEASURE_Z = "mz"
    MEASURE_X = "mx"
    RESET = "reset"
    BARRIER = "barrier"


TWO_QUBIT_KINDS = frozenset({GateKind.RZZ, GateKind.RXX, GateKind.CNOT})
ROTATION_KINDS = frozenset({GateKind.RZZ, GateKind.RXX})
MEASURE_KINDS = frozenset({GateKind.MEASURE_Z, GateKind.MEASURE_X})

_ARITY = {
    GateKind.RZZ: 2,
    GateKind.RXX: 2,
    GateKind.CNOT: 2,
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.Z: 1,
    GateKind.MEASURE_Z: 1,
    GateKind.MEASURE_X: 1,
    GateKind.RESET: 1,
}


class ComponentRole(Enum):
    INIT = "INIT"
    PHASE_LAYER = "PHASE_LAYER"
    MIXER_LAYER = "MIXER_LAYER"
    SYNDROME = "SYNDROME"
    FINAL_MEAS = "FINAL_MEAS"


class CircuitError(ValueError):
    """Raised for malformed gates, circuits, or circuit text."""


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    clbit: int | None = None
    component: int = 0

    def __post_init__(self):
        if self.kind is not GateKind.BARRIER:
            want = _ARITY[self.kind]
            if len(self.qubits) != want:
                raise CircuitError(
                    f"{self.kind.value} takes {want} qubit(s), got {self.qubits}"
                )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubit in gate: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index: {self.qubits}")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise CircuitError(f"{self.kind.value} needs a finite angle")
        elif self.angle is not None:
            raise CircuitError(f"{self.kind.value} takes no angle")
        if self.kind in MEASURE_KINDS:
            if self.clbit is None or self.clbit < 0:
                raise CircuitError("measurement needs a classical target bit")
        elif self.clbit is not None:
            raise CircuitError(f"{self.kind.value} takes no classical bit")

    @property
    def is_two_qubit(self) -> bool:
        return self.kind in TWO_QUBIT_KINDS


@dataclass
class PhysicalCircuit:
    """Ordered gate list over physical qubits with tagged components."""

    num_qubits: int
    num_clbits: int = 0
    gates: list[Gate] = field(default_factory=list)
    # component id -> role, in layout order
    components: dict[int, ComponentRole] = field(default_factory=dict)

    # -- construction helpers ------------------------------------------------

    def add(self, gate: Gate) -> None:
        self.gates.append(gate)

    def begin_component(self, cid: int, role: ComponentRole) -> None:
        if cid in self.components:
            raise CircuitError(f"component {cid} declared twice")
        self.components[cid] = role

    def rzz(self, a, b, theta, component=0):
        self.add(Gate(GateKind.RZZ, (a, b), angle=theta, component=component))

    def rxx(self, a, b, theta, component=0):
        self.add(Gate(GateKind.RXX, (a, b), angle=theta, component=component))

    def cx(self, c, t, component=0):
        self.add(Gate(GateKind.CNOT, (c, t), component=component))

    def h(self, q, component=0):
        self.add(Gate(GateKind.H, (q,), component=component))

    def x(self, q, component=0):
        self.add(Gate(GateKind.X, (q,), component=component))

    def z(self, q, component=0):
        self.add(Gate(GateKind.Z, (q,), component=component))

    def mz(self, q, c, component=0):
        self.add(Gate(GateKind.MEASURE_Z, (q,), clbit=c, component=component))

    def mx(self, q, c, component=0):
        self.add(Gate(GateKind.MEASURE_X, (q,), clbit=c, component=component))

    def reset(self, q, component=0):
        self.add(Gate(GateKind.RESET, (q,), component=component))

    def barrier(self, qubits=(), component=0):
        self.add(Gate(GateKind.BARRIER, tuple(qubits), component=component))

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        bad = self._first_invalid_gate()
        if bad is not None:
            raise CircuitError(bad[1])

    def _first_invalid_gate(self) -> tuple[int, str] | None:
        """(index, reason) of the first gate validate() would reject."""
        for i, g in enumerate(self.gates):
            if any(q >= self.num_qubits for q in g.qubits):
                return i, f"qubit index out of range in {g}"
            if g.clbit is not None and g.clbit >= self.num_clbits:
                return i, f"classical bit out of range in {g}"
            if g.component not in self.components and self.components:
                return i, f"gate tagged with undeclared component {g.component}"
        # cross-component dependency: per qubit, component order must be
        # non-decreasing along the gate list, else a later component's gate
        # would run before an earlier component finished on that qubit.
        order = {cid: i for i, cid in enumerate(self.components)}
        if order:
            last = [-1] * self.num_qubits
            for i, g in enumerate(self.gates):
                if g.kind is GateKind.BARRIER:
                    continue
                pos = order[g.component]
                for q in g.qubits:
                    if pos < last[q]:
                        return i, (f"component ordering violated on qubit "
                                   f"{q} by {g}")
                    last[q] = pos
        return None

    def two_qubit_gate_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)

    def extend(self, other: "PhysicalCircuit") -> None:
        """Append another circuit's gates (qubit/clbit spaces must agree)."""
        for cid, role in other.components.items():
            if cid not in self.components:
                self.components[cid] = role
        self.gates.extend(other.gates)
        self.num_qubits = max(self.num_qubits, other.num_qubits)
        self.num_clbits = max(self.num_clbits, other.num_clbits)


@dataclass
class LayerSchedule:
    layers: list[list[int]]          # gate indices per layer
    depth_2q: int
    gate_layer: dict[int, int]       # gate index -> layer index (0-based)


def layered_schedule(circuit: PhysicalCircuit) -> LayerSchedule:
    """Greedy ASAP layering.

    Each gate goes to the earliest layer after every previous gate that
    shares one of its qubits, after any barrier fence covering those qubits,
    and therefore (given a component-ordered gate list, which validate()
    enforces) after its cross-component dependencies.  A measurement also
    goes after every previous measurement into its clbit, so the last write
    in the gate list is the last one run.  Gates within one layer share no
    qubit.
    """
    circuit.validate()
    frontier = [0] * circuit.num_qubits   # next free layer per qubit, 1-based
    written: dict[int, int] = {}          # next layer that may write a clbit
    layers: list[list[int]] = []
    has_2q: list[bool] = []
    gate_layer: dict[int, int] = {}
    for idx, g in enumerate(circuit.gates):
        if g.kind is GateKind.BARRIER:
            fenced = g.qubits if g.qubits else range(circuit.num_qubits)
            fence = max((frontier[q] for q in fenced), default=0)
            for q in fenced:
                frontier[q] = fence
            continue
        layer = max(frontier[q] for q in g.qubits) if g.qubits else 0
        if g.clbit is not None:
            layer = max(layer, written.get(g.clbit, 0))
            written[g.clbit] = layer + 1
        while len(layers) <= layer:
            layers.append([])
            has_2q.append(False)
        layers[layer].append(idx)
        if g.is_two_qubit:
            has_2q[layer] = True
        gate_layer[idx] = layer
        for q in g.qubits:
            frontier[q] = layer + 1
    return LayerSchedule(
        layers=layers,
        depth_2q=sum(has_2q),
        gate_layer=gate_layer,
    )


def two_qubit_depth(circuit: PhysicalCircuit) -> int:
    """Number of schedule layers that contain at least one two-qubit gate."""
    return layered_schedule(circuit).depth_2q


def space_time_area(circuit: PhysicalCircuit, k: int) -> int:
    """(k+2) x 2Q-depth; the exposure proxy for idling/memory errors."""
    if k % 2 != 0:
        raise CircuitError("k must be even")
    return (k + 2) * two_qubit_depth(circuit)


# ---------------------------------------------------------------------------
# Text interchange format
# ---------------------------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in GateKind}
_ROLE_BY_NAME = {r.value: r for r in ComponentRole}


def write_circuit(circuit: PhysicalCircuit) -> str:
    lines = [f"qubits {circuit.num_qubits} clbits {circuit.num_clbits}"]
    current = None
    for g in circuit.gates:
        if g.component != current:
            role = circuit.components.get(g.component, ComponentRole.INIT)
            lines.append(f"component {g.component} {role.value}")
            current = g.component
        lines.append(_gate_line(g))
    return "\n".join(lines) + "\n"


def _gate_line(g: Gate) -> str:
    name = g.kind.value
    parts = [name] + [str(q) for q in g.qubits]
    if g.angle is not None:
        parts.append(repr(g.angle))
    if g.clbit is not None:
        parts.append(str(g.clbit))
    return " ".join(parts)


def read_circuit(text: str) -> PhysicalCircuit:
    circ = PhysicalCircuit(num_qubits=0, num_clbits=0)
    component = 0
    declared_header = False
    seen_components: dict[int, ComponentRole] = {}
    gate_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "qubits":
                if len(tok) != 4 or tok[2] != "clbits":
                    raise CircuitError("header is 'qubits N clbits M'")
                circ.num_qubits = int(tok[1])
                circ.num_clbits = int(tok[3])
                if circ.num_qubits < 0 or circ.num_clbits < 0:
                    raise CircuitError("negative qubit or clbit count")
                declared_header = True
            elif tok[0] == "component":
                if len(tok) != 3:
                    raise CircuitError("a component line is "
                                       "'component ID ROLE'")
                cid = int(tok[1])
                role = _ROLE_BY_NAME.get(tok[2])
                if role is None:
                    raise CircuitError(f"unknown component role {tok[2]!r}")
                if cid not in seen_components:
                    seen_components[cid] = role
                component = cid
            else:
                circ.add(_parse_gate(tok, component))
                gate_lines.append(lineno)
        except CircuitError as e:
            raise CircuitError(f"line {lineno}: {e}") from None
        except (ValueError, IndexError):
            raise CircuitError(f"line {lineno}: cannot parse {line!r}") from None
    circ.components = seen_components or {0: ComponentRole.INIT}
    if not declared_header:
        # infer sizes from content
        circ.num_qubits = 1 + max(
            (q for g in circ.gates for q in g.qubits), default=-1
        )
        circ.num_clbits = 1 + max(
            (g.clbit for g in circ.gates if g.clbit is not None), default=-1
        )
    bad = circ._first_invalid_gate()
    if bad is not None:
        raise CircuitError(f"line {gate_lines[bad[0]]}: {bad[1]}")
    return circ


def _parse_gate(tok: list[str], component: int) -> Gate:
    kind = _KIND_BY_NAME.get(tok[0])
    if kind is None:
        raise CircuitError(f"unknown gate kind {tok[0]!r}")
    args = tok[1:]
    if kind in ROTATION_KINDS:
        if len(args) != 3:
            raise CircuitError(f"{tok[0]} takes 2 qubits and an angle")
        return Gate(kind, (int(args[0]), int(args[1])), angle=float(args[2]),
                    component=component)
    if kind is GateKind.CNOT:
        if len(args) != 2:
            raise CircuitError("cx takes control and target")
        return Gate(kind, (int(args[0]), int(args[1])), component=component)
    if kind in MEASURE_KINDS:
        if len(args) != 2:
            raise CircuitError(f"{tok[0]} takes a qubit and a classical bit")
        return Gate(kind, (int(args[0]),), clbit=int(args[1]), component=component)
    if kind is GateKind.BARRIER:
        return Gate(kind, tuple(int(a) for a in args), component=component)
    if len(args) != 1:
        raise CircuitError(f"{tok[0]} takes one qubit")
    return Gate(kind, (int(args[0]),), component=component)
