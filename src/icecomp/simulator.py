"""Dense statevector simulation with mid-circuit measurement and Pauli noise.

Supports two inputs: PhysicalCircuit (encoded circuits, ancillas included)
and LogicalCircuit (the unencoded reference, whose mixer rotations are
plain single-qubit X rotations that the physical gate set does not carry).

Noise is a stochastic Pauli trajectory model: a uniformly random
non-identity Pauli on a gate's support with probability p1/p2 after each
gate, single-qubit depolarizing with probability p_idle on every idle qubit
after each two-qubit layer (this is what makes depth costly), and readout
flips with probability p_meas.  All rates scale with a global multiplier.

Sampling.  Shot i draws everything from its own generator, seeded by
(seed, i).  An encoded shot first draws whether each noise site fires.  A
shot on which no Pauli fires picks its bits from the exact noiseless
distribution (exact_bit_distribution) and applies its readout flips; a
clbit measured twice keeps its last write, and that measurement's flip.  Up
to its first Pauli event any other shot runs the noiseless circuit, so
sample_shots advances one noiseless sweep state layer by layer, and a shot
starts its trajectory from a copy of the sweep at the layer of its first
event.  The sweep collapses each mid-circuit measurement and reset onto
its likelier outcome.  A resumed shot draws for those earlier collapses as
StateVector.measure/reset would; if a draw disagrees, the shot's state is
not the sweep's, and the shot runs again from layer 0 with a fresh
generator.  The sweep stops at the horizon, the first layer holding a
trailing measurement, whose outcomes are random: shots whose first event
lies later start there.  Every such shot so makes the same draws and the
same floating-point operations, in the same order, as a trajectory run
from |0...0>, and its record is the same.  sample_logical_shots does the
same per gate step: a shot redraws the event tests before the step of its
first fired test, then runs that step and the rest from a copy of the
sweep taken before it.

Rejection from the Pauli frame.  A Pauli a noise site applies passes the
rest of the circuit as a Pauli frame (see the faults module): the shot
gives the outcomes of the noiseless circuit with the frame's rotations
negated and its clbits flipped.  One backward faults._Sweep pass per
circuit gives the response of every Pauli every site can apply.  So
before touching any state, sample_shots walks an event shot's fired sites
in traversal order and draws each one's Pauli code after the uniforms of
the measurements and resets before that site: these are the draws its
trajectory makes, so this is the trajectory's frame.  The checks are a
function of the frame alone when the guard holds: there are checks, each
clbit is measured at most once, the noiseless check values are
deterministic, and no rotation generator (Z_aZ_b after an RZZ, X_aX_b
after an RXX), taken as a fault right after its own gate, flips a check
parity.  By induction over the first sign-flipped rotation the checks are
then deterministic under every pattern of rotation signs.  Under the guard
a shot whose frame breaks a check is rejected without a trajectory.  Its
record holds accepted False, logical None and the exact check values (the
noiseless ones XOR the frame's flips, which the trajectory gives too).
Its bits are an ideal sample (the shot's next uniform into the ideal
distribution) with the frame's clbit flips and readout flips applied:
exact in distribution when no rotation flipped; otherwise only their
check parities are simulated.  Every other shot runs as above, and every
accepted record is the trajectory's, bit for bit.

The gate kernels work on the whole array at once, but each amplitude gets
the same IEEE operations in the same order as in a per-block update (see
StateVector), so the records do not depend on how a kernel walks the array.
prob_one keeps its per-half np.sum: np.sum adds pairwise in an order set
by the shape of the array it is given, so summing any other array would
move p1 in its last bits, and with it a measurement draw.

Qubit i is bit i of the state index (little-endian).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .circuit import (MEASURE_KINDS, Gate, GateKind, PhysicalCircuit,
                      layered_schedule)
from .gadgets import ParityCheck
from .faults import PauliString, _Sweep, _bits, _mask
from .maxcut import (LogicalCircuit, MixerGate, PhaseGate, ProblemGraph,
                     energy as bit_energy)

DEFAULT_QUBIT_CAP = 16
BRANCH_TOL = 1e-10      # exact_bit_distribution: branching threshold
MAX_BRANCHES = 64       # exact_bit_distribution: branch budget


class SimulatorError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Statevector core
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _parity_mask(n: int, a: int, b: int) -> np.ndarray:
    """Boolean array over the 2^n indices: bit a differs from bit b.  At
    most n(n-1)/2 masks of 2^n bytes each per n (7.7 MB at the cap)."""
    idx = np.arange(1 << n)
    mask = (((idx >> a) ^ (idx >> b)) & 1).astype(bool)
    mask.flags.writeable = False    # shared by every caller
    return mask


class StateVector:
    """Dense little-endian statevector with whole-array gate kernels.

    Each kernel makes a few passes over the whole array and gives every
    amplitude the same IEEE operations, in the same order, as a per-block
    update would: RXX and RX give x*c + (s*y), with y the partner amplitude
    read through a reversed view; RZZ multiplies by the phase of the
    amplitude's parity.  X and CX are permutations.  So the states, and
    every record drawn from them, do not depend on the kernels' form.
    prob_one is left as it was; see the module docstring."""

    def __init__(self, num_qubits: int):
        if num_qubits > DEFAULT_QUBIT_CAP:
            raise SimulatorError(
                f"{num_qubits} qubits exceeds the dense-simulation cap "
                f"{DEFAULT_QUBIT_CAP}"
            )
        self.n = num_qubits
        self.amp = np.zeros(1 << num_qubits, dtype=np.complex128)
        self.amp[0] = 1.0

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.n = self.n
        out.amp = self.amp.copy()
        return out

    def _axis1(self, q: int) -> np.ndarray:
        return self.amp.reshape(1 << (self.n - 1 - q), 2, 1 << q)

    def _axis2(self, qa: int, qb: int) -> np.ndarray:
        # axes: (high, bit_hi, mid, bit_lo, low)
        lo, hi = (qa, qb) if qa < qb else (qb, qa)
        return self.amp.reshape(
            1 << (self.n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo
        )

    # -- gates --------------------------------------------------------------

    def apply_x(self, q: int) -> None:
        self.amp = self._axis1(q)[:, ::-1, :].reshape(-1)

    def apply_z(self, q: int) -> None:
        v = self._axis1(q)
        v[:, 1, :] *= -1.0

    def apply_y(self, q: int) -> None:
        # up to a global phase: Z then X
        self.apply_z(q)
        self.apply_x(q)

    def apply_h(self, q: int) -> None:
        v = self._axis1(q)
        a = v[:, 0, :]
        b = v[:, 1, :]
        tmp = a.copy()
        a += b
        a *= _INV_SQRT2
        b *= -1.0
        b += tmp
        b *= _INV_SQRT2

    def apply_cx(self, c: int, t: int) -> None:
        v = self._axis2(c, t)
        if c > t:
            w = v[:, 1]
            w[...] = w[:, :, ::-1, :]
        else:
            w = v[:, :, :, 1]
            w[...] = w[:, ::-1, :, :]

    def apply_rzz(self, a: int, b: int, theta: float) -> None:
        even = complex(math.cos(theta), -math.sin(theta))
        odd = _parity_mask(self.n, min(a, b), max(a, b))
        # amplitude times phase, in this order: numpy's vector complex
        # multiply can round x*y and y*x differently in the last bit
        self.amp *= np.where(odd, even.conjugate(), even)

    def apply_rxx(self, a: int, b: int, theta: float) -> None:
        v = self._axis2(a, b)
        tmp = v[:, ::-1, :, ::-1, :] * (-1j * math.sin(theta))
        v *= math.cos(theta)
        v += tmp

    def apply_rx(self, q: int, theta: float) -> None:
        v = self._axis1(q)
        tmp = v[:, ::-1, :] * (-1j * math.sin(theta))
        v *= math.cos(theta)
        v += tmp

    def apply_pauli(self, pauli: PauliString) -> None:
        for q in range(self.n):
            x = (pauli.xmask >> q) & 1
            z = (pauli.zmask >> q) & 1
            if x and z:
                self.apply_y(q)
            elif x:
                self.apply_x(q)
            elif z:
                self.apply_z(q)

    # -- measurement and reset ------------------------------------------------

    def prob_one(self, q: int) -> float:
        a = self._axis1(q)[:, 1, :]
        return float(np.sum(a.real * a.real + a.imag * a.imag))

    def collapse(self, q: int, value: int, p1: float) -> float:
        """Project qubit q onto |value>, renormalize; returns branch prob.

        p1 is `prob_one(q)` of the current state, which every caller has
        already computed to pick `value`."""
        p = p1 if value == 1 else 1.0 - p1
        if p <= 0.0:
            raise SimulatorError("collapse onto zero-probability branch")
        v = self._axis1(q)
        v[:, 1 - value, :] = 0.0
        self.amp *= 1.0 / math.sqrt(p)
        return p

    def measure(self, q: int, rng: np.random.Generator) -> int:
        p1 = self.prob_one(q)
        value = 1 if rng.random() < p1 else 0
        self.collapse(q, value, p1)
        return value

    def reset(self, q: int, rng: np.random.Generator) -> None:
        p1 = self.prob_one(q)
        value = 1 if rng.random() < p1 else 0
        self.collapse(q, value, p1)
        if value == 1:
            self.apply_x(q)

    def norm(self) -> float:
        return float(np.sum(self.amp.real ** 2 + self.amp.imag ** 2))

    def probabilities(self) -> np.ndarray:
        return self.amp.real ** 2 + self.amp.imag ** 2


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    p2: float = 1.3e-3
    p1: float = 3e-5
    p_idle: float = 5e-4
    p_meas: float = 1e-3
    scale: float = 1.0

    def __post_init__(self):
        for name in ("p2", "p1", "p_idle", "p_meas"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.scale < math.inf:
            raise ValueError("scale must be finite and nonnegative")

    def effective(self) -> "NoiseModel":
        s = self.scale
        return NoiseModel(
            p2=min(1.0, self.p2 * s),
            p1=min(1.0, self.p1 * s),
            p_idle=min(1.0, self.p_idle * s),
            p_meas=min(1.0, self.p_meas * s),
            scale=1.0,
        )


def write_noise(model: NoiseModel) -> str:
    return (f"p2 {model.p2!r}\np1 {model.p1!r}\np_idle {model.p_idle!r}\n"
            f"p_meas {model.p_meas!r}\nscale {model.scale!r}\n")


class NoiseFormatError(ValueError):
    """A malformed noise file; the message starts with the line number."""


_NOISE_FIELDS = ("p2", "p1", "p_idle", "p_meas", "scale")


def read_noise(text: str) -> NoiseModel:
    """Parse `name value` lines (as written by write_noise); `#` starts a
    comment.  Unset fields keep their defaults."""
    vals = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 2:
            raise NoiseFormatError(
                f"line {lineno}: expected 'name value', got {line!r}")
        name, value = tok
        if name not in _NOISE_FIELDS:
            raise NoiseFormatError(
                f"line {lineno}: unknown parameter {name!r}; expected one "
                f"of {', '.join(_NOISE_FIELDS)}")
        if name in vals:
            raise NoiseFormatError(f"line {lineno}: {name} set twice")
        try:
            vals[name] = float(value)
            NoiseModel(**{name: vals[name]})
        except ValueError as e:
            raise NoiseFormatError(f"line {lineno}: {name}: {e}") from None
    return NoiseModel(**vals)


def _apply_random_pauli(state: StateVector, qubits: Sequence[int],
                        rng: np.random.Generator) -> None:
    # uniform over the 4^m - 1 non-identity Paulis on the support
    m = len(qubits)
    code = int(rng.integers(1, 4 ** m))
    for q in qubits:
        p = code % 4
        code //= 4
        if p == 1:
            state.apply_x(q)
        elif p == 2:
            state.apply_y(q)
        elif p == 3:
            state.apply_z(q)


# ---------------------------------------------------------------------------
# Shots and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShotRecord:
    bits: tuple[int, ...]
    check_values: tuple[int, ...]
    accepted: bool
    logical: int | None


def decode_bits(bits: Sequence[int], checks: Sequence[ParityCheck],
                decode: Mapping[int, frozenset[int]] | None
                ) -> tuple[tuple[int, ...], bool, int | None]:
    values = tuple(
        sum(bits[b] for b in c.bits) % 2 for c in checks
    )
    accepted = all(v == c.expected for v, c in zip(values, checks))
    logical = None
    if accepted and decode is not None:
        logical = 0
        for i, bit_set in decode.items():
            if sum(bits[b] for b in bit_set) % 2:
                logical |= 1 << (i - 1)
    return values, accepted, logical


def make_record(bits: Sequence[int], checks: Sequence[ParityCheck],
                decode: Mapping[int, frozenset[int]] | None) -> ShotRecord:
    values, accepted, logical = decode_bits(bits, checks, decode)
    return ShotRecord(tuple(bits), values, accepted, logical)


def _per_shot_rng(seed: int, shot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, shot)))


def _trailing_start(gates: Sequence[Gate]) -> int:
    """Index where the trailing block of measurements (and barriers) begins."""
    start = len(gates)
    while start > 0 and gates[start - 1].kind in (
        GateKind.MEASURE_Z, GateKind.MEASURE_X, GateKind.BARRIER
    ):
        start -= 1
    return start


def _inject_map(gates: Sequence[Gate],
                inject: Sequence[tuple[int, PauliString]]
                ) -> dict[int, list[PauliString]]:
    """Injected Paulis by gate index.  Each index must name a gate before
    the trailing measurement block that is not a barrier, and each Pauli
    must act only on that gate's qubits: the places a fault location can
    name.  (A Pauli on another qubit would land at different points in
    the schedule-layer order of `sample_shots` and the gate-list order of
    `exact_bit_distribution`.)"""
    tail = _trailing_start(gates)
    out: dict[int, list[PauliString]] = {}
    for gi, pauli in inject:
        if not 0 <= gi < tail or gates[gi].kind is GateKind.BARRIER:
            raise ValueError(
                f"cannot inject after gate {gi}: it must index a gate "
                f"before the trailing measurements (index {tail}) that is "
                f"not a barrier")
        support = pauli.xmask | pauli.zmask
        own = sum(1 << q for q in gates[gi].qubits)
        if support & ~own:
            raise ValueError(
                f"cannot inject after gate {gi}: the Pauli acts on qubits "
                f"outside the gate's {gates[gi].qubits}")
        out.setdefault(gi, []).append(pauli)
    return out


_SITE_KIND = {GateKind.H: "1q", GateKind.X: "1q", GateKind.Z: "1q",
              GateKind.MEASURE_Z: "meas", GateKind.MEASURE_X: "meas",
              GateKind.RESET: "reset"}


class _ShotPlan:
    """Fixed traversal script of a physical circuit for trajectory sampling.

    Per schedule layer: its gates, each with its noise site ("2q", "1q" and
    "meas" sites are numbered in traversal order), then the idle qubits of a
    layer holding a two-qubit gate.  A shot draws one Bernoulli vector per
    site family up front, so its first Pauli event, and with _FrameTables
    its Pauli frame, are known before any state is touched.  A shot that
    needs a trajectory resumes it from the noiseless sweep (`advance`,
    `resume`, `run`)."""

    def __init__(self, circuit: PhysicalCircuit, eff: NoiseModel,
                 inject: Sequence[tuple[int, PauliString]]):
        sched = layered_schedule(circuit)
        self.gates = circuit.gates
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.inject = _inject_map(self.gates, inject)

        self.layers = []
        self.meas_clbits: list[int] = []   # per measurement site
        site_layers: dict[str, list[int]] = {"2q": [], "1q": [], "meas": [],
                                             "reset": [], "idle": []}
        for layer, layer_gates in enumerate(sched.layers):
            touched = {q for gi in layer_gates for q in self.gates[gi].qubits}
            has_2q = any(self.gates[gi].is_two_qubit for gi in layer_gates)
            idle = [q for q in range(self.num_qubits) if q not in touched] \
                if has_2q else []
            sites = []
            for gi in layer_gates:
                g = self.gates[gi]
                cat = "2q" if g.is_two_qubit else _SITE_KIND[g.kind]
                sites.append((cat, len(site_layers[cat])))
                site_layers[cat].append(layer)
                if cat == "meas":
                    self.meas_clbits.append(g.clbit)
            self.layers.append((layer_gates, sites, idle,
                                len(site_layers["idle"])))
            site_layers["idle"].extend([layer] * len(idle))
        self.site_layers = site_layers
        self.event_sites = tuple(
            (len(site_layers[cat]), p) for cat, p in (
                ("2q", eff.p2), ("1q", eff.p1), ("meas", eff.p_meas),
                ("idle", eff.p_idle)))

        # the horizon: the first layer holding a trailing measurement.  The
        # trailing block has random outcomes, so the noiseless sweep stops
        # here and every trajectory runs it itself.
        tail = range(_trailing_start(self.gates), len(self.gates))
        self.horizon = min((sched.gate_layer[gi] for gi in tail
                            if self.gates[gi].kind in MEASURE_KINDS),
                           default=len(self.layers))
        self.first_inject = min((sched.gate_layer[gi] for gi in self.inject),
                                default=self.horizon)

    def draw(self, seed: int, shot: int):
        """The shot's generator and its event vectors (2q, 1q, meas, idle)."""
        rng = _per_shot_rng(seed, shot)
        events = tuple(rng.random(n) < p if n else ()
                       for n, p in self.event_sites)
        return rng, events

    def start_layer(self, events) -> int | None:
        """Layer at which the shot's trajectory must start: its first Pauli
        event (fired site or injection), capped at the horizon.  None for a
        shot with no Pauli event at all."""
        e2, e1, _, ei = events
        starts = [self.site_layers[cat][int(fired.argmax())]
                  for fired, cat in ((e2, "2q"), (e1, "1q"), (ei, "idle"))
                  if len(fired) and fired.any()]
        if self.inject:
            starts.append(self.first_inject)
        return min(starts + [self.horizon]) if starts else None

    def advance(self, sweep: StateVector, layer: int,
                outcomes: list[tuple[float, int, Gate, int | None]]) -> None:
        """Run one layer noiselessly.  A measurement or reset collapses onto
        its likelier outcome; (p1, outcome, gate, meas site) is recorded so
        a shot can check its own draw against it."""
        layer_gates, sites, _, _ = self.layers[layer]
        for gi, (cat, si) in zip(layer_gates, sites):
            g = self.gates[gi]
            if cat in ("meas", "reset"):
                q = g.qubits[0]
                if g.kind is GateKind.MEASURE_X:
                    sweep.apply_h(q)
                p1 = sweep.prob_one(q)
                v = 1 if p1 > 0.5 else 0
                sweep.collapse(q, v, p1)
                if cat == "reset" and v:
                    sweep.apply_x(q)
                outcomes.append((p1, v, g, si if cat == "meas" else None))
            else:
                _apply_gate(sweep, g)

    def resume(self, seed: int, shot: int, sweep: StateVector, layer: int,
               outcomes: Sequence[tuple[float, int, Gate, int | None]]
               ) -> list[int]:
        """The shot's bits, its trajectory started from the sweep at `layer`.

        The shot first draws for every earlier measurement and reset exactly
        as StateVector.measure/reset would.  If a draw disagrees with the
        sweep's outcome the shot's state differs from the sweep's, and it
        runs again from layer 0 with a fresh generator."""
        rng, events = self.draw(seed, shot)
        em = events[2]
        bits = [0] * self.num_clbits
        for p1, v, g, si in outcomes:
            if (1 if rng.random() < p1 else 0) != v:
                rng, events = self.draw(seed, shot)
                return self.run(StateVector(self.num_qubits),
                                [0] * self.num_clbits, rng, events, 0)
            if si is not None:
                bits[g.clbit] = v ^ 1 if em[si] else v
        return self.run(sweep.copy(), bits, rng, events, layer)

    def run(self, state: StateVector, bits: list[int], rng: np.random.Generator,
            events, start: int) -> list[int]:
        """One trajectory from the start of layer `start` to the end."""
        e2, e1, em, ei = events
        for layer_gates, sites, idle, idle_base in self.layers[start:]:
            for gi, (cat, si) in zip(layer_gates, sites):
                g = self.gates[gi]
                if cat == "meas":
                    if g.kind is GateKind.MEASURE_X:
                        state.apply_h(g.qubits[0])
                    v = state.measure(g.qubits[0], rng)
                    if em[si]:
                        v ^= 1
                    bits[g.clbit] = v
                elif cat == "reset":
                    state.reset(g.qubits[0], rng)
                else:
                    _apply_gate(state, g)
                    if cat == "2q" and e2[si]:
                        _apply_random_pauli(state, g.qubits, rng)
                    elif cat == "1q" and e1[si]:
                        _apply_random_pauli(state, g.qubits, rng)
                for pauli in self.inject.get(gi, ()):
                    state.apply_pauli(pauli)
            for off, q in enumerate(idle):
                if ei[idle_base + off]:
                    _apply_random_pauli(state, (q,), rng)
        return bits


# codes of _apply_random_pauli (code % 4 on qubits[0], code // 4 on
# qubits[1]) -> index in faults._Sweep.responses (4 p_a + p_b - 1)
_SWEEP_INDEX_2Q = tuple(4 * (c % 4) + c // 4 - 1 for c in range(1, 16))


class _FrameTables:
    """What sample_shots needs of a circuit whatever the noise: the sorted
    ideal distribution with its cumulative sums, the Pauli-frame response
    of every Pauli a noise site can apply, from one backward faults._Sweep
    pass, and the guard (module docstring).  Built from the circuit and its
    _ShotPlan, and cached by the circuit's content (_frame_tables).

    Pauli sites are numbered in traversal order.  For each, `slots` is the
    number of measurements and resets before it, whose draws its trajectory
    makes first, and `responses` its responses by _apply_random_pauli code
    minus 1.  A gate's site takes the entries right after the gate; an idle
    site after layer l on q takes them after q's last gate before l, or at
    the circuit start."""

    def __init__(self, circuit: PhysicalCircuit, plan: "_ShotPlan"):
        ideal = sorted(exact_bit_distribution(circuit).items())
        self.ideal_bits = [b for b, _ in ideal]
        self.ideal_cum = np.cumsum([p for _, p in ideal])
        self.meas_clbits = list(plan.meas_clbits)
        last = {c: si for si, c in enumerate(self.meas_clbits)}
        self.readout_flips = [1 << c if last[c] == si else 0
                              for si, c in enumerate(self.meas_clbits)]

        sweep = _Sweep(circuit)
        self.cl, self.clmask = sweep.cl, sweep.clbits
        after, last = sweep.entries()
        self.slots: list[int] = []
        self.responses: list[list[int]] = []
        # per site family, the index in `slots` of each of its sites (the
        # plan numbers a family's sites in traversal order too)
        pos: dict[str, list[int]] = {"2q": [], "1q": [], "idle": []}
        # per gate, the entries of every qubit right after it in traversal
        # order, where an injected Pauli acts
        self.after_gate: dict[int, tuple[tuple[int, int], ...]] = {}
        rotation_flips = set()
        slot = 0
        for layer_gates, sites, idle, _ in plan.layers:
            for gi, (cat, _) in zip(layer_gates, sites):
                g = plan.gates[gi]
                rs, own = after[gi]
                for q, e in zip(g.qubits, own):
                    last[q] = e
                self.after_gate[gi] = tuple(last)
                if cat in ("meas", "reset"):
                    slot += 1
                    continue
                if g.kind is GateKind.RZZ or g.kind is GateKind.RXX:
                    # the rotation's generator Z_aZ_b (X_aX_b) as a fault
                    (xa, za), (xb, zb) = own
                    r = za ^ zb if g.kind is GateKind.RZZ else xa ^ xb
                    rotation_flips.add((r >> self.cl) & self.clmask)
                if cat == "2q":
                    rs = [rs[j] for j in _SWEEP_INDEX_2Q]
                pos[cat].append(len(self.slots))
                self.slots.append(slot)
                self.responses.append(rs)
            for q in idle:
                x, z = last[q]
                pos["idle"].append(len(self.slots))
                self.slots.append(slot)
                self.responses.append([x, x ^ z, z])    # X, Y, Z
        self.pos = {cat: np.array(p, dtype=np.intp) for cat, p in pos.items()}
        self.rotation_flips = frozenset(rotation_flips)
        self.clbits_once = len(set(self.meas_clbits)) == len(self.meas_clbits)
        self._guards: dict[tuple[ParityCheck, ...], tuple | None] = {}

    def guard(self, checks: Sequence[ParityCheck]
              ) -> tuple[tuple[int, int], ...] | None:
        """Per check, (clbit mask, the flip parity under which the check
        keeps its expected value) when a shot's checks are a function of its
        frame alone (module docstring); None otherwise."""
        key = tuple(checks)
        if key not in self._guards:
            self._guards[key] = self._guard(key)
        return self._guards[key]

    def _guard(self, checks: tuple[ParityCheck, ...]):
        if not checks or not self.clbits_once:
            return None
        values = {decode_bits(b, checks, None)[0] for b in self.ideal_bits}
        if len(values) != 1:
            return None
        masks = [_mask(c.bits) for c in checks]
        if any((f & m).bit_count() & 1
               for f in self.rotation_flips for m in masks):
            return None
        (ideal,) = values
        return tuple((m, v ^ c.expected)
                     for m, v, c in zip(masks, ideal, checks))

    def inject_frame(self, inject: Mapping[int, list[PauliString]]) -> int:
        """The response of every injected Pauli, XORed."""
        frame = 0
        for gi, paulis in inject.items():
            entries = self.after_gate[gi]
            for pauli in paulis:
                for q in _bits(pauli.xmask):
                    frame ^= entries[q][0]
                for q in _bits(pauli.zmask):
                    frame ^= entries[q][1]
        return frame

    def flips(self, rng: np.random.Generator, events, frame: int) -> int:
        """The clbit flips of a shot: its Pauli frame from `frame` on, each
        fired site's Pauli drawn as its trajectory draws it (after the
        uniforms of the measurements and resets before that site), and its
        readout flips."""
        e2, e1, em, ei = events
        fired = np.sort(np.concatenate([
            self.pos[cat][np.flatnonzero(e)]
            for cat, e in (("2q", e2), ("1q", e1), ("idle", ei))]))
        drawn = 0
        for s in fired.tolist():
            if self.slots[s] > drawn:
                rng.random(self.slots[s] - drawn)
                drawn = self.slots[s]
            rs = self.responses[s]
            frame ^= rs[int(rng.integers(1, len(rs) + 1)) - 1]
        return ((frame >> self.cl) & self.clmask) ^ self.readout(em)

    def readout(self, em) -> int:
        """The clbit flips of a shot's readout events `em`, one per
        measurement; the flip of an overwritten measurement is lost."""
        out = 0
        for si in np.flatnonzero(em):
            out ^= self.readout_flips[si]
        return out

    def ideal_sample(self, rng: np.random.Generator, flips: int) -> list[int]:
        """Bits from the shot's next uniform into the ideal cumulative, with
        `flips` applied."""
        pick = int(np.searchsorted(self.ideal_cum, rng.random()))
        bits = list(self.ideal_bits[min(pick, len(self.ideal_bits) - 1)])
        for c in _bits(flips):
            bits[c] ^= 1
        return bits


def _keeps_checks(guard: tuple[tuple[int, int], ...], flips: int) -> bool:
    """Whether a shot whose clbits flip by `flips` keeps every check."""
    return all(((flips & m).bit_count() & 1) == want for m, want in guard)


_FRAME_TABLES: dict[tuple, _FrameTables] = {}   # least recently used first
_FRAME_TABLES_MAX = 8


def _frame_tables(circuit: PhysicalCircuit, plan: "_ShotPlan") -> _FrameTables:
    """The circuit's _FrameTables, cached by content: a PhysicalCircuit is
    mutable, so its identity does not name its gates."""
    key = (circuit.num_qubits, circuit.num_clbits, tuple(circuit.gates))
    tables = _FRAME_TABLES.pop(key, None) or _FrameTables(circuit, plan)
    _FRAME_TABLES[key] = tables
    if len(_FRAME_TABLES) > _FRAME_TABLES_MAX:
        del _FRAME_TABLES[next(iter(_FRAME_TABLES))]
    return tables


def sample_shots(circuit: PhysicalCircuit, noise: NoiseModel, shots: int,
                 seed: int,
                 checks: Sequence[ParityCheck] = (),
                 decode: Mapping[int, frozenset[int]] | None = None,
                 inject: Sequence[tuple[int, PauliString]] = ()
                 ) -> list[ShotRecord]:
    """Trajectory sampling of a physical circuit under the noise model.

    Shot i draws from its own generator, seeded by (seed, i), so its record
    does not depend on the other shots.  A shot on which no Pauli event
    fires picks its bits from the exact noiseless distribution and applies
    its readout flips.  When the guard holds (the checks are a function of
    the Pauli frame alone), a shot whose frame breaks a check is rejected
    without a trajectory: its check values are exact, and its bits an ideal
    sample with the frame's flips applied.  Every other shot starts its
    trajectory at the layer of its first Pauli event, capped at the horizon
    (the first layer of the trailing measurement block), from a copy of one
    noiseless sweep state per call.  A shot whose own draw for an earlier
    mid-circuit measurement or reset disagrees with the sweep's outcome runs
    from layer 0 instead.  Every record equals that of running its
    trajectory from layer 0, but for the bits of frame-rejected shots; see
    the module docstring.  The ideal distribution and the frame tables are
    cached by the circuit's content.

    `inject` lists deterministic Pauli errors applied after given gate
    indices in every shot (used for fault cross-checks); an index in the
    trailing measurement block, out of range or naming a barrier raises
    ValueError."""
    if shots < 0:
        raise ValueError(f"shots must be nonnegative, got {shots}")
    plan = _ShotPlan(circuit, noise.effective(), inject)
    tables = _frame_tables(circuit, plan)
    guard = tables.guard(checks)
    if guard is not None:
        inject_frame = tables.inject_frame(plan.inject)

    records: list[ShotRecord | None] = [None] * shots
    buckets: dict[int, list[int]] = {}
    for shot in range(shots):
        rng, events = plan.draw(seed, shot)
        start = plan.start_layer(events)
        if start is None:
            flips = tables.readout(events[2])
        elif guard is None or _keeps_checks(
                guard, flips := tables.flips(rng, events, inject_frame)):
            buckets.setdefault(start, []).append(shot)
            continue
        records[shot] = make_record(tables.ideal_sample(rng, flips), checks,
                                    decode)

    if buckets:
        sweep = StateVector(circuit.num_qubits)
        outcomes: list[tuple[float, int, Gate, int | None]] = []
        last = max(buckets)
        for layer in range(last + 1):
            for shot in buckets.get(layer, ()):
                bits = plan.resume(seed, shot, sweep, layer, outcomes)
                records[shot] = make_record(bits, checks, decode)
            if layer < last:
                plan.advance(sweep, layer, outcomes)
    return records


def _apply_gate(state: StateVector, g: Gate) -> None:
    """A unitary gate (or a barrier, which does nothing)."""
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
    elif kind is GateKind.BARRIER:
        pass
    else:  # pragma: no cover
        raise NotImplementedError(kind)


# ---------------------------------------------------------------------------
# Exact (noiseless) outcome distributions
# ---------------------------------------------------------------------------

def exact_bit_distribution(circuit: PhysicalCircuit,
                           inject: Sequence[tuple[int, PauliString]] = ()
                           ) -> dict[tuple[int, ...], float]:
    """Exact joint distribution over the classical bits.

    Mid-circuit measurements branch only when both outcomes have probability
    above BRANCH_TOL (noiseless encoded circuits keep a single branch); the
    trailing block of measurements is evaluated jointly from amplitudes.
    `inject` is checked and applied as in `sample_shots`.
    """
    gates = circuit.gates
    inject_map = _inject_map(gates, inject)
    tail_start = _trailing_start(gates)

    branches: list[tuple[float, StateVector, list[int]]] = [
        (1.0, StateVector(circuit.num_qubits), [0] * circuit.num_clbits)
    ]
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
            for _, state, bits in branches:
                _apply_gate(state, g)
        for pauli in inject_map.get(gi, ()):
            for _, state, _ in branches:
                state.apply_pauli(pauli)
        if len(branches) > MAX_BRANCHES:
            raise SimulatorError("mid-circuit branch budget exceeded")

    # trailing measurements, jointly
    tail = [g for g in gates[tail_start:] if g.kind is not GateKind.BARRIER]
    dist: dict[tuple[int, ...], float] = {}
    for weight, state, bits in branches:
        for g in tail:
            if g.kind is GateKind.MEASURE_X:
                state.apply_h(g.qubits[0])
        probs = state.probabilities()
        idx = np.arange(len(probs))
        sig = np.zeros(len(probs), dtype=np.int64)
        # clbit -> the qubit of its last measurement: the last write wins
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
    return dist


def exact_logical_distribution(circuit: PhysicalCircuit,
                               checks: Sequence[ParityCheck],
                               decode: Mapping[int, frozenset[int]],
                               inject: Sequence[tuple[int, PauliString]] = ()
                               ) -> tuple[float, dict[int, float]]:
    """(acceptance probability, post-selected decoded logical distribution)."""
    raw = exact_bit_distribution(circuit, inject=inject)
    acc = 0.0
    out: dict[int, float] = {}
    for bits, p in raw.items():
        _, accepted, logical = decode_bits(bits, checks, decode)
        if accepted:
            acc += p
            out[logical] = out.get(logical, 0.0) + p
    if acc > 0:
        out = {x: p / acc for x, p in out.items()}
    return acc, out


# ---------------------------------------------------------------------------
# Unencoded (logical) reference simulation
# ---------------------------------------------------------------------------

def logical_exact_distribution(lc: LogicalCircuit) -> dict[int, float]:
    state = StateVector(lc.k)
    for q in range(lc.k):
        state.apply_h(q)
    # phase gates in edge order: the ASAP order of _logical_steps gives the
    # same state with other rounding
    for phase, mixer in zip(lc.phase_layers, lc.mixer_layers):
        for g in phase:
            state.apply_rzz(g.u, g.v, g.angle)
        for m in mixer:
            state.apply_rx(m.qubit, m.angle)
    probs = state.probabilities()
    return {x: float(p) for x, p in enumerate(probs) if p > 1e-15}


def _logical_steps(lc: LogicalCircuit, eff: NoiseModel
                   ) -> list[tuple[PhaseGate | MixerGate | None, float,
                                   tuple[int, ...]]]:
    """Fixed traversal script of the unencoded circuit after the initial
    Hadamards: (gate, p, support) steps, each a gate (None for an idle
    slot) followed by a Pauli event with probability p on the support.

    Phase rotations are two-qubit gates, ASAP-layered per phase layer with
    idle noise charged per layer; mixer rotations are single-qubit."""
    steps = []
    for gates, mixer in zip(lc.phase_layers, lc.mixer_layers):
        rzz = PhysicalCircuit(lc.k)
        for g in gates:
            rzz.rzz(g.u, g.v, g.angle)
        for layer in layered_schedule(rzz).layers:
            touched = set()
            for gi in layer:
                g = gates[gi]
                steps.append((g, eff.p2, (g.u, g.v)))
                touched.update((g.u, g.v))
            steps.extend((None, eff.p_idle, (q,))
                         for q in range(lc.k) if q not in touched)
        steps.extend((m, eff.p1, (m.qubit,)) for m in mixer)
    return steps


def _apply_logical_gate(state: StateVector,
                        g: PhaseGate | MixerGate | None) -> None:
    if isinstance(g, PhaseGate):
        state.apply_rzz(g.u, g.v, g.angle)
    elif g is not None:
        state.apply_rx(g.qubit, g.angle)


def sample_logical_shots(lc: LogicalCircuit, noise: NoiseModel, shots: int,
                         seed: int) -> list[ShotRecord]:
    """Unencoded reference under the same noise model.

    A step's event test draws one uniform when its p > 0.  Until the first
    test fires no draw depends on the state, so a shot draws all its tests
    at once (one vector draw gives the same numbers as one draw per test)
    and is bucketed by the step of its first fired test; a shot with no
    event goes to the bucket past the last step.  One noiseless sweep runs
    through the steps.  A shot redraws the tests of the earlier steps and
    resumes from a copy of the sweep taken before its bucket's step, so it
    runs that step itself, as a sample_shots shot runs the layer of its
    first event."""
    if shots < 0:
        raise ValueError(f"shots must be nonnegative, got {shots}")
    eff = noise.effective()
    steps = _logical_steps(lc, eff)
    tested = [i for i, (_, p, _) in enumerate(steps) if p > 0]
    probs = np.array([steps[i][1] for i in tested])
    buckets: dict[int, list[int]] = {}
    for shot in range(shots):
        fired = _per_shot_rng(seed, shot).random(len(tested)) < probs
        first = tested[int(fired.argmax())] if fired.any() else len(steps)
        buckets.setdefault(first, []).append(shot)

    def finish(state: StateVector, rng: np.random.Generator,
               start: int) -> ShotRecord:
        for g, p, support in steps[start:]:
            _apply_logical_gate(state, g)
            if p > 0 and rng.random() < p:
                _apply_random_pauli(state, support, rng)
        bits = []
        for q in range(lc.k):
            v = state.measure(q, rng)
            if eff.p_meas > 0 and rng.random() < eff.p_meas:
                v ^= 1
            bits.append(v)
        logical = sum(b << q for q, b in enumerate(bits))
        return ShotRecord(tuple(bits), (), True, logical)

    records: list[ShotRecord | None] = [None] * shots
    sweep = StateVector(lc.k)
    for q in range(lc.k):
        sweep.apply_h(q)
    test = 0    # tests of the steps before step i
    for i in range(len(steps) + 1):
        for shot in buckets.get(i, ()):
            rng = _per_shot_rng(seed, shot)
            rng.random(test)
            records[shot] = finish(sweep.copy(), rng, i)
        if i < len(steps):
            g, p, _ = steps[i]
            _apply_logical_gate(sweep, g)
            if p > 0:
                test += 1
    return records


# ---------------------------------------------------------------------------
# Post-selection, energies, distances
# ---------------------------------------------------------------------------

def post_selection_rate(records: Sequence[ShotRecord]) -> float:
    if not records:
        raise ValueError("no records")
    return sum(1 for r in records if r.accepted) / len(records)


def accepted_distribution(records: Sequence[ShotRecord]) -> dict[int, float]:
    kept = [r.logical for r in records if r.accepted]
    if not kept:
        return {}
    out: dict[int, float] = {}
    for x in kept:
        out[x] = out.get(x, 0.0) + 1.0
    return {x: c / len(kept) for x, c in out.items()}


def energy_distribution(dist_or_records, graph: ProblemGraph) -> dict[float, float]:
    """Aggregate a bitstring distribution (or shot records) into energies."""
    if isinstance(dist_or_records, Mapping):
        dist = dist_or_records
    else:
        dist = accepted_distribution(dist_or_records)
    out: dict[float, float] = {}
    for x, p in dist.items():
        e = bit_energy(graph, x)
        out[e] = out.get(e, 0.0) + p
    return out


@dataclass(frozen=True)
class TruncateResult:
    dist: dict[float, float]
    applied: bool


def postprocess_truncate(dist: Mapping[float, float], cutoff: float
                         ) -> TruncateResult:
    """Drop mass at energies above the cutoff and renormalize.

    If nothing survives, the input comes back unchanged, flagged."""
    kept = {e: p for e, p in dist.items() if e <= cutoff}
    total = sum(kept.values())
    if total <= 0.0:
        return TruncateResult(dict(dist), applied=False)
    return TruncateResult({e: p / total for e, p in kept.items()}, applied=True)


def total_variation(p: Mapping, q: Mapping) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in keys)
