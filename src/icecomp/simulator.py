"""Dense statevector simulation with mid-circuit measurement and Pauli noise.

Supports two inputs: PhysicalCircuit (encoded circuits, ancillas included)
and LogicalCircuit (the unencoded reference, whose mixer rotations are
plain single-qubit X rotations that the physical gate set does not carry).

Noise is a stochastic Pauli trajectory model: a uniformly random
non-identity Pauli on a gate's support with probability p1/p2 after each
gate, single-qubit depolarizing with probability p_idle on every idle qubit
after each two-qubit layer (this is what makes depth costly), and readout
flips with probability p_meas.  All rates scale with a global multiplier.

Sampling.  Both samplers give shot i its own stream, that of
np.random.default_rng(SeedSequence((seed, i))), so its record does not
depend on the other shots.  A call builds those streams once (_Streams):
one vectorized pass of SeedSequence's hash gives a block of shots their
PCG64 states, and one generator is pointed at each shot in turn by setting
its state.  A circuit's noise sites form one site table (_SiteTable): its
Pauli sites, numbered once in traversal order, and its readouts.  Both
samplers run one shot loop (_sample) over a plan, whose site table it
draws, and a reading of the plan: its noiseless table, its guard and its
logical model, or none of them (an unencoded plan is its own reading).  A
shot of a reading with a guard draws, in this order:

  1. its events: one uniform per site, family by family (p2, p1, p_meas,
     p_idle), each family in traversal order.  p2 covers the two-qubit
     gates (the unencoded circuit's RZZ steps), p1 the one-qubit gates (its
     RX steps), p_meas one readout per measurement (per qubit) and p_idle
     the idle slots.  A site whose rate is 0 draws a uniform and never
     fires;
  2. for each fired Pauli site, in traversal order, one Pauli code
     (integers(1, 4**m) on its m qubits), whose response it XORs into its
     Pauli frame.  Before it, the shot draws and drops the uniforms of the
     measurements and resets before that site (its slot), as its
     trajectory draws them; the unencoded circuit measures only at its
     end, so its slots are all 0;
  3. one uniform, which picks an outcome (_pick) from the cumulative of
     the noiseless distribution when the frame negates no rotation or
     breaks a check, and otherwise is held: when the loop ends, one
     stacked pass of the logical model (_LogicalModel.states) gives the
     states of all held shots, one row each, and each held uniform picks
     from its row's distribution, that of the circuit with the frame's
     rotations negated (the reading's `weights`).

The record is that outcome XOR the frame's flips XOR the fired readouts'
flips, as Stim's frame sampler gives a shot a noiseless sample XOR its
frame's flips; a clbit measured twice keeps its last write, and that
measurement's flip.  A shot of a reading with no guard (The two
readings) runs, in place of all three steps, its whole trajectory from
|0...0> (_ShotPlan.trajectory), which draws the same events, then, in
traversal order, one uniform per measurement and reset
(StateVector.measure/reset) and one Pauli code per fired site.

Unencoded shots.  After its Hadamard layer every gate of the unencoded
circuit is a Pauli rotation, so a Pauli fired after a step reaches the end
as it is, negating each later rotation whose generator it anticommutes
with (X or Y on q an RZZ on q, Z or Y on q an RX on q).  A shot's final
state is thus the logical model's (_LogicalModel, run in the order of
_logical_steps) with its frame's rotations negated, then the frame's
Pauli, whose Z part leaves the Z-basis probabilities alone and whose X
part XORs the outcome.  So the frame decides every unencoded shot: the
circuit has no checks, so its guard is (), and its model is the circuit
itself, so a held row picks from its own distribution.  The circuit's
steps, sites and model are built once per content and cached with the
plans (_logical_plan).

The two readings.  Each (checks, decode) of a circuit is read once, on
first use (_Reading), and the stabilizer certificate decides how: a CHP
run of the circuit without its rotations, one signed backward pass, and
the trailing block measured on the stabilizer group (the stabilizer
module), tried where `decode` names logicals 1..k on qubits 0..k+1 and
every rotation has the logical model's form (_model_ops).

  * Certified: the noiseless outcomes are the affine set w0 XOR
    span(directions) of 2^(k+1) words, each with probability P_L(x)/2 for
    its logical x, P_L the noiseless logical model's distribution
    (_affine_table).  The certificate reads no angle, so the circuit with
    any of its rotations negated has the same words, each with P'_L(x)/2,
    P'_L the model's distribution with those rotations negated, and on
    every one of them each check has its noiseless value (the stabilizer
    module: Why this suffices).  So a shot's checks are a function of its
    frame alone: its reading's guard holds, per check, the clbit mask and
    the flip parity under which it keeps its expected value, and the frame
    decides every shot (Encoded shots).  The only state is the model's
    k-qubit one, so such a circuit samples whatever its width up to k =
    DEFAULT_QUBIT_CAP.
  * Uncertified: no guard, no model and no table.  Every shot runs its
    trajectory, the noise-free ones too, so the sampler builds no dense
    table of noiseless outcomes; the dense pass is exact_bit_distribution's
    alone, and exact_logical_distribution reads it.  A trajectory needs a
    dense state of the circuit's qubits, so such a reading raises
    SimulatorError above DEFAULT_QUBIT_CAP qubits.

Noiseless outcomes are plain Python values.  An outcome's word is the int
whose bit c is clbit c, so any number of clbits fits.  A certified table is
a list of words, in the order sorted() gives their bit tuples (clbit 0
first), with each word's logical and the cumulative of their probabilities
as arrays.  The dense pass fills a dict keyed by bit tuple one entry at a
time, in the order the branches reach them, so an entry two branches share
sums their probabilities in that order.

Encoded shots.  A Pauli a noise site applies passes the rest of the circuit
as a Pauli frame (see the faults module): the shot gives the outcomes of
the noiseless circuit with the frame's rotations negated and its clbits
flipped.  Each circuit has one cached _ShotPlan: its noise sites, numbered
once in traversal order, each with the response of every Pauli it can
apply, from one backward faults._Sweep pass over the circuit alone, so at
any width.  So a shot's frame is known before any state is touched, and,
drawn as its trajectory draws it (step 2), it is the trajectory's frame.
Under a certified reading its step 3 uniform gives its record:

  * A shot whose frame breaks a check is rejected without a trajectory,
    with accepted False, logical None and the exact check values (the
    noiseless ones XOR the frame's flips).  Its bits are exact in
    distribution when no rotation flipped; otherwise only their check
    parities are simulated.
  * A shot whose frame keeps every check is exact in distribution: it
    picks a word of the table, from P_L(x)/2 when its frame flips no
    rotation and from P'_L(x)/2 when it does.  The logical model
    (_LogicalModel) gives P'_L, in the held shot's row, from a
    StateVector(k) from |+>^k on which RZZ(u+1, v+1) acts as Z_uZ_v and
    RXX(t or b, q), t = 0 and b = k+1 the top and bottom qubits, as
    X_{q-1} (_model_ops).

Under an uncertified reading every shot runs its trajectory, and its
record is the trajectory's, bit for bit.  So every verdict is the
trajectory's, but the bits and logical of an accepted shot the frame
decides are an exact draw, not its trajectory's.

The gate kernels work on the whole array at once, but each amplitude gets
the same IEEE operations in the same order as in a per-block update (see
StateVector), so the records do not depend on how a kernel walks the array.
The same holds for a stack of states, one per row, which the logical
model's pass runs through the RZZ and RX kernels at once: each row gets the
operations it gets alone, so a state does not depend on the rows stacked
with it.  A row that negates a rotation gets the phases of the negated angle
(RZZ), or the partner term negated (RX: cos is even and sin odd to the bit,
and x*(-s) is -(x*s)).  The pass runs in blocks of at most _PASS_AMPS
amplitudes, so its memory does not grow with the shots, and a row joins its
block's stack at its own checkpoint.
prob_one keeps its per-half np.sum: np.sum adds pairwise in an order set
by the shape of the array it is given, so summing any other array would
move p1 in its last bits, and with it a measurement draw.

Qubit i is bit i of the state index (little-endian).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .circuit import Gate, GateKind, PhysicalCircuit, layered_schedule
from .gadgets import ParityCheck
from .faults import PauliString, _Sweep, _bits, _combine, _mask
from .maxcut import LogicalCircuit, ProblemGraph, energy as bit_energy
from .stabilizer import CliffordRun

DEFAULT_QUBIT_CAP = 16
BRANCH_TOL = 1e-10      # exact_bit_distribution: branching threshold
MAX_BRANCHES = 64       # exact_bit_distribution: branch budget


class SimulatorError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Statevector core
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_width(num_qubits: int, why: str = "") -> None:
    if num_qubits > DEFAULT_QUBIT_CAP:
        raise SimulatorError(
            f"{num_qubits} qubits exceeds the dense-simulation cap "
            f"{DEFAULT_QUBIT_CAP}{why}"
        )


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
        _check_width(num_qubits)
        self.n = num_qubits
        self.amp = np.zeros(1 << num_qubits, dtype=np.complex128)
        self.amp[0] = 1.0

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.n = self.n
        out.amp = self.amp.copy()
        return out

    def _axis1(self, q: int) -> np.ndarray:
        # amp may hold a stack of states, one per row (_LogicalModel.states)
        return self.amp.reshape(-1, 2, 1 << q)

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

    # RZZ and RX take `negated`, a bool per row, when amp holds a stack of
    # states, one per row: the rows it sets get the gate of angle -theta

    def apply_rzz(self, a: int, b: int, theta: float,
                  negated: np.ndarray | None = None) -> None:
        odd = _parity_mask(self.n, min(a, b), max(a, b))

        def phase(theta):
            even = complex(math.cos(theta), -math.sin(theta))
            return np.where(odd, even.conjugate(), even)

        # amplitude times phase, in this order: numpy's vector complex
        # multiply can round x*y and y*x differently in the last bit
        if negated is None:
            self.amp *= phase(theta)
        else:
            self.amp *= np.where(negated[:, None], phase(-theta),
                                 phase(theta))

    def apply_rxx(self, a: int, b: int, theta: float) -> None:
        v = self._axis2(a, b)
        tmp = v[:, ::-1, :, ::-1, :] * (-1j * math.sin(theta))
        v *= math.cos(theta)
        v += tmp

    def apply_rx(self, q: int, theta: float,
                 negated: np.ndarray | None = None) -> None:
        v = self._axis1(q)
        tmp = v[:, ::-1, :] * (-1j * math.sin(theta))
        if negated is not None:
            # cos is even and sin odd, to the bit, and x*(-s) is -(x*s)
            rows = tmp.reshape(len(negated), -1)
            rows[negated] = -rows[negated]
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
        if self.measure(q, rng):
            self.apply_x(q)

    def norm(self) -> float:
        return float(np.sum(self.amp.real ** 2 + self.amp.imag ** 2))

    def probabilities(self) -> np.ndarray:
        return self.amp.real ** 2 + self.amp.imag ** 2


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

_RATES = ("p2", "p1", "p_idle", "p_meas")
_NOISE_FIELDS = (*_RATES, "scale")


@dataclass(frozen=True)
class NoiseModel:
    p2: float = 1.3e-3
    p1: float = 3e-5
    p_idle: float = 5e-4
    p_meas: float = 1e-3
    scale: float = 1.0

    def __post_init__(self):
        for name in _RATES:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.scale < math.inf:
            raise ValueError("scale must be finite and nonnegative")

    def effective(self) -> "NoiseModel":
        return NoiseModel(**{name: min(1.0, getattr(self, name) * self.scale)
                             for name in _RATES})


def write_noise(model: NoiseModel) -> str:
    return "".join(f"{name} {getattr(model, name)!r}\n"
                   for name in _NOISE_FIELDS)


class NoiseFormatError(ValueError):
    """A malformed noise file; the message starts with the line number."""


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


def _word(bits: Sequence[int]) -> int:
    """The int whose bit c is bits[c]."""
    word = 0
    for b in reversed(bits):
        word = word << 1 | b
    return word


def _bit_tuple(word: int, n: int) -> tuple[int, ...]:
    """The first n bits of `word`, bit c at position c."""
    return tuple([word >> c & 1 for c in range(n)])


class _Readout:
    """Check values and decoded logicals from int masks of a shot's bits:
    per check, its clbit mask and expected parity; per decoded logical bit
    i (bit i-1 of the logical), its clbit mask, or None without `decode`.
    A decode index below 1, or a check or decode clbit outside
    0..num_clbits-1, raises ValueError."""

    def __init__(self, checks: Sequence[ParityCheck],
                 decode: Mapping[int, frozenset[int]] | None,
                 num_clbits: int):
        for name, sets in (("check", [c.bits for c in checks]),
                           ("decode", (decode or {}).values())):
            out = sorted({b for bits in sets for b in bits
                          if not 0 <= b < num_clbits})
            if out:
                raise ValueError(f"{name} clbits {out} are out of range: "
                                 f"there are {num_clbits} clbits")
        self.check_masks = [_mask(c.bits) for c in checks]
        self.expected = tuple(c.expected for c in checks)
        self.decode = None
        if decode is not None:
            low = sorted(i for i in decode if i < 1)
            if low:
                raise ValueError(f"decode indices {low} are below 1: "
                                 f"logical i is bit i-1 of the logical")
            self.decode = [(_mask(bits), 1 << (i - 1))
                           for i, bits in decode.items()]

    def decode_word(self, word: int
                    ) -> tuple[tuple[int, ...], bool, int | None]:
        values = tuple([(word & m).bit_count() & 1 for m in self.check_masks])
        accepted = values == self.expected
        logical = None
        if accepted and self.decode is not None:
            logical = sum([bit for m, bit in self.decode
                           if (word & m).bit_count() & 1])
        return values, accepted, logical

    def record(self, bits: Sequence[int]) -> ShotRecord:
        values, accepted, logical = self.decode_word(_word(bits))
        return ShotRecord(tuple(bits), values, accepted, logical)


def decode_bits(bits: Sequence[int], checks: Sequence[ParityCheck],
                decode: Mapping[int, frozenset[int]] | None
                ) -> tuple[tuple[int, ...], bool, int | None]:
    """(check values, accepted, decoded logical or None) of a shot's bits."""
    return _Readout(checks, decode, len(bits)).decode_word(_word(bits))


def make_record(bits: Sequence[int], checks: Sequence[ParityCheck],
                decode: Mapping[int, frozenset[int]] | None) -> ShotRecord:
    return _Readout(checks, decode, len(bits)).record(bits)


# SeedSequence's hash (numpy.random.bit_generator) and PCG64's seeding
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875       # pool mixing
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED       # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_SEED_BLOCK = 256       # _Streams: shots seeded per vectorized pass


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` values of SeedSequence's hash constant, from
    `init`, each the last times `mult`: a column of uint32."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _M32)
    out = np.array(out, dtype=np.uint32)[:, None]
    out.flags.writeable = False     # shared by every caller
    return out


def _pcg64_states(seed: int, shots: range) -> list[tuple[int, int]]:
    """Per shot in `shots`, the (state, inc) of
    PCG64(SeedSequence((seed, shot))): one pass of SeedSequence's uint32
    hash over all of them, each shot a column and each pool word a row.  A
    shot is one entropy word, so `shots` must lie below 2^32."""
    if shots and shots[-1] >> 32:
        raise ValueError("shot numbers must be below 2^32")
    words, seed = [], int(seed)
    while True:                         # SeedSequence's words of seed
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    entropy = np.zeros((max(4, len(words) + 1), len(shots)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(shots.start, shots.stop, dtype=np.uint32)
    # hashmix call j xors constant j and multiplies by constant j+1
    consts = _hash_consts(_HASH_A, _MULT_A, 4 * len(entropy) + 1)

    def hashmix(v, j, m):       # calls j..j+m-1, on the rows of v
        v = (v ^ consts[j:j + m]) * consts[j + 1:j + m + 1]
        return v ^ v >> 16

    def mix(x, y):
        v = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return v ^ v >> 16

    pool, j = hashmix(entropy[:4], 0, 4), 4
    for src in range(4):    # into the other words in order, with calls j..
        others = [dst for dst in range(4) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], j, 3))
        j += 3
    for word in entropy[4:]:
        pool = mix(pool, hashmix(word, j, 4))
        j += 4
    # generate_state(4, uint64): eight uint32 words cycling through the
    # pool, paired little-endian
    consts = _hash_consts(_HASH_B, _MULT_B, 9)
    v = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:8]) * consts[1:]
    v = (v ^ v >> 16).astype(np.uint64)
    seeds = (v[0::2] | v[1::2] << np.uint64(32)).tolist()
    states = []
    for s0, s1, i0, i1 in zip(*seeds):
        # pcg64_set_seed: inc = 2*initseq + 1, then two steps around the
        # addition of initstate
        inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        states.append((((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _M128,
                       inc))
    return states


class _Streams:
    """The streams of a call's shots 0..shots-1: shot i's is that of
    np.random.default_rng(SeedSequence((seed, i))).  `at(shot)` points the
    call's one Generator at the start of a shot's stream by setting its
    bit generator's state, from _pcg64_states of a block of up to
    _SEED_BLOCK shots from there on."""

    def __init__(self, seed: int, shots: int):
        self.seed, self.shots = seed, shots
        self.rng = np.random.Generator(np.random.PCG64(0))
        self.inner = {"state": 0, "inc": 0}
        self.state = {"bit_generator": "PCG64", "state": self.inner,
                      "has_uint32": 0, "uinteger": 0}
        self.block, self.states = range(0), []

    def at(self, shot: int) -> np.random.Generator:
        if shot not in self.block:
            self.block = range(shot, min(shot + _SEED_BLOCK, self.shots))
            self.states = _pcg64_states(self.seed, self.block)
        self.inner["state"], self.inner["inc"] = \
            self.states[shot - self.block.start]
        self.rng.bit_generator.state = self.state
        return self.rng


def _trailing_start(gates: Sequence[Gate]) -> int:
    """Index where the trailing block of measurements (and barriers) begins:
    the block measures each qubit once, so it ends before a measurement of a
    qubit it measures later, and that measurement branches mid-circuit."""
    start, measured = len(gates), 0
    while start > 0:
        g = gates[start - 1]
        if g.kind.measurement and not measured >> g.qubits[0] & 1:
            measured |= 1 << g.qubits[0]
        elif g.kind is not GateKind.BARRIER:
            break
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


class _SiteTable:
    """A circuit's noise sites as both samplers draw them (module
    docstring).  Each Pauli site has its slot (the measurements and resets
    before it, whose draws its trajectory makes first) and its responses,
    the frames of the Paulis its event can apply in the order of their
    codes; sites with the same entries share one response list.  `family`
    holds, keyed by NoiseModel rate in the order a shot draws their events,
    each family's Pauli sites, or its measurements' clbits.  A subclass
    adds its Pauli sites with `_site` and its measurements' clbits to
    family["p_meas"], then calls `_number`, and says where a frame keeps
    its clbit flips and rotations (`split`)."""

    def __init__(self):
        self.slots: list[int] = []
        self.responses: list[list[int]] = []
        self.family = {"p2": [], "p1": [], "p_meas": [], "p_idle": []}
        self._shared: dict[tuple, list[int]] = {}

    def _site(self, rate: str, entries, slot: int = 0) -> None:
        """A Pauli site of family `rate`, after `slot` measurements and
        resets, its entries the (x, z) frames of an X and a Z on each of its
        qubits."""
        self.family[rate].append(len(self.slots))
        self.slots.append(slot)
        entries = tuple(entries)
        if entries not in self._shared:
            # digit j of a Pauli code acts on qubit j
            self._shared[entries] = _combine(entries[::-1])
        self.responses.append(self._shared[entries])

    def _number(self) -> None:
        """Per uniform of a shot, in family order, the Pauli site whose
        event it draws, or None for a readout's, the readouts' from
        first_readout on; and each readout's clbit flip, that of an
        overwritten measurement lost."""
        self.family_sizes = {rate: len(f) for rate, f in self.family.items()}
        self.draw_site: list[int | None] = []
        for rate, f in self.family.items():
            if rate == "p_meas":
                self.first_readout = len(self.draw_site)
                f = [None] * len(f)
            self.draw_site += f
        meas_clbits = self.family["p_meas"]
        last_write = {c: si for si, c in enumerate(meas_clbits)}
        self.readout_flips = [1 << c if last_write[c] == si else 0
                              for si, c in enumerate(meas_clbits)]

    def split(self, frame: int) -> tuple[int, int]:
        """A frame's clbit flips and its mask of flipped rotations."""
        raise NotImplementedError

    def rates(self, noise: NoiseModel) -> np.ndarray:
        """The event probability of each of a shot's uniforms."""
        eff, sizes = noise.effective(), self.family_sizes
        return np.repeat([getattr(eff, r) for r in sizes], [*sizes.values()])

    def events(self, rng: np.random.Generator, rates: np.ndarray
               ) -> tuple[list[int], list[int]]:
        """A shot's events, its first draws: its fired Pauli sites in
        traversal order, and its fired readouts by measurement number."""
        sites, readouts = [], []
        hit = rng.random(len(rates)) < rates
        for d in hit.nonzero()[0].tolist():
            site = self.draw_site[d]
            if site is None:
                readouts.append(d - self.first_readout)
            else:
                sites.append(site)
        sites.sort()
        return sites, readouts

    def flips(self, rng: np.random.Generator, fired: list[int], frame: int
              ) -> tuple[int, int]:
        """A shot's Pauli frame from `frame` on, each fired site's Pauli
        drawn as its trajectory draws it, after the uniforms of the
        measurements and resets before that site, which are drawn and
        dropped.  Returns the frame's clbit flips and its rotation mask."""
        if not fired:
            return self.split(frame)
        drawn = 0
        for s in fired:
            if self.slots[s] > drawn:
                rng.random(self.slots[s] - drawn)
                drawn = self.slots[s]
            rs = self.responses[s]
            frame ^= rs[int(rng.integers(1, len(rs) + 1)) - 1]
        return self.split(frame)

    def readout(self, em: list[int]) -> int:
        """The clbit flips of a shot's fired readouts `em`; the flip of an
        overwritten measurement is lost."""
        out = 0
        for si in em:
            out ^= self.readout_flips[si]
        return out


def _pick(u: float, cum: np.ndarray) -> int:
    """The entry the uniform `u` picks from the cumulative `cum`."""
    return min(int(cum.searchsorted(u)), len(cum) - 1)


class _ShotPlan(_SiteTable):
    """What sample_shots needs of a circuit whatever the noise.  The
    constructor reads the circuit alone (its schedule and one faults._Sweep)
    and builds no state, so it runs at any width: the traversal script (per
    layer, its gates, then the idle qubits of a layer holding a two-qubit
    gate) and its site table.  Each `reading`, built on first use, is
    certified or not by the stabilizer certificate, whose circuit-only
    parts (`clifford`) the plan keeps (module docstring: The two readings).

    Each unitary gate and each such idle qubit is a Pauli site, numbered
    once in traversal order, its responses from the faults._Sweep entries
    right after its gate; an idle site after layer l on q takes those after
    q's last gate before l, or at the circuit start.  A shot draws every
    site's event up front, so its frame is known before any state is
    touched.  Under a certified reading the frame decides every shot;
    under any other, every shot runs its whole `trajectory`."""

    def __init__(self, circuit: PhysicalCircuit):
        super().__init__()
        sched = layered_schedule(circuit)
        self.gates = gates = tuple(circuit.gates)   # the circuit may change
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.sweep = _Sweep(circuit)
        self.after, last = self.sweep.entries()
        # per layer: (gate index, gate, Pauli or measurement site), its idle
        # qubits, and the Pauli site of its first idle qubit
        self.layers = []
        meas_clbits = self.family["p_meas"]
        slot = 0
        for layer_gates in sched.layers:
            ops = []
            for gi in layer_gates:
                g = gates[gi]
                own = self.after[gi]
                for q, e in zip(g.qubits, own):
                    last[q] = e
                if g.kind.measurement:
                    ops.append((gi, g, len(meas_clbits)))
                    meas_clbits.append(g.clbit)
                    slot += 1
                elif g.kind is GateKind.RESET:
                    ops.append((gi, g, None))
                    slot += 1
                else:
                    ops.append((gi, g, len(self.slots)))
                    self._site("p2" if g.is_two_qubit else "p1", own, slot)
            touched = {q for gi in layer_gates for q in gates[gi].qubits}
            idle = [q for q in range(self.num_qubits) if q not in touched] \
                if any(gates[gi].is_two_qubit for gi in layer_gates) else []
            self.layers.append((ops, idle, len(self.slots)))
            for q in idle:
                self._site("p_idle", [last[q]], slot)
        self._number()
        self._readings: dict[tuple, _Reading] = {}

    def trajectory(self, rng: np.random.Generator, rates: np.ndarray,
                   inject: Mapping[int, list[PauliString]]) -> list[int]:
        """The shot's bits from its whole trajectory, run from |0...0>, `rng`
        at the start of the shot's stream."""
        fired, em = map(set, self.events(rng, rates))
        state = StateVector(self.num_qubits)
        bits = [0] * self.num_clbits
        mz, mx, reset = GateKind.MEASURE_Z, GateKind.MEASURE_X, GateKind.RESET
        for ops, idle, base in self.layers:
            for gi, g, si in ops:
                kind = g.kind
                if kind is mz or kind is mx:
                    if kind is mx:
                        state.apply_h(g.qubits[0])
                    v = state.measure(g.qubits[0], rng)
                    if si in em:
                        v ^= 1
                    bits[g.clbit] = v
                elif kind is reset:
                    state.reset(g.qubits[0], rng)
                else:
                    _apply_gate(state, g)
                    if si in fired:
                        _apply_random_pauli(state, g.qubits, rng)
                for pauli in inject.get(gi, ()):
                    state.apply_pauli(pauli)
            for off, q in enumerate(idle):
                if base + off in fired:
                    _apply_random_pauli(state, (q,), rng)
        return bits

    def reading(self, checks: Sequence[ParityCheck],
                decode: Mapping[int, frozenset[int]] | None) -> "_Reading":
        """The circuit read out under `checks` and `decode`, kept once per
        pair, `decode` in any order."""
        key = (tuple(checks), None if decode is None else tuple(sorted(
            (i, frozenset(bits)) for i, bits in decode.items())))
        if key not in self._readings:
            self._readings[key] = _Reading(self, checks, decode)
        return self._readings[key]

    def inject_frame(self, inject: Mapping[int, list[PauliString]]) -> int:
        """The response of every injected Pauli, XORed.  An injected Pauli
        acts on its gate's own qubits (_inject_map)."""
        frame = 0
        for gi, paulis in inject.items():
            entries = dict(zip(self.gates[gi].qubits, self.after[gi]))
            for pauli in paulis:
                for q in _bits(pauli.xmask):
                    frame ^= entries[q][0]
                for q in _bits(pauli.zmask):
                    frame ^= entries[q][1]
        return frame

    def split(self, frame: int) -> tuple[int, int]:
        sweep = self.sweep
        return frame >> sweep.cl & sweep.clbits, frame >> sweep.rot

    @functools.cached_property
    def clifford(self) -> CliffordRun:
        """The certificate's parts that the circuit alone gives."""
        return CliffordRun(self.gates, self.num_qubits,
                           _trailing_start(self.gates))


class _Reading:
    """A _ShotPlan read out under one (checks, decode), certified or not
    (module docstring: The two readings).  A certified reading holds its
    affine table, its `words` (_affine_table), each word's logical (`xs`)
    and the cumulative of their noiseless probabilities (`cum`), from
    which a shot picks an entry; the noiseless logical `model` the table
    is built from; and the frame `guard`: per check, its clbit mask and
    the flip parity under which it keeps its expected value.  An
    uncertified one has all five None: every shot of it runs its
    trajectory.  `record(i, flips)` is the record of a shot whose bits are
    word i with the clbits of `flips` flipped, kept the first time a shot
    picks word i unflipped."""

    def __init__(self, plan: _ShotPlan, checks: Sequence[ParityCheck],
                 decode: Mapping[int, frozenset[int]] | None):
        self.plan = plan
        self.readout = _Readout(checks, decode, plan.num_clbits)
        self.records: dict[int, ShotRecord] = {}
        self.guard = self.model = self.words = self.xs = self.cum = None
        ops = _model_ops(plan, decode)
        cert = None if ops is None else \
            plan.clifford.certify(ops, decode, checks)
        if cert is None:
            _check_width(plan.num_qubits, ": the circuit has no stabilizer "
                         "certificate, so its shots run as dense "
                         "trajectories")
            return
        w0, directions = cert
        self.model = _LogicalModel(len(decode), ops)
        self.words, self.xs = _affine_table(w0, directions, self.readout,
                                            plan.num_clbits)
        self.cum = np.cumsum(self.weights(self.model.probs))
        # every word of the table has w0's check parities
        self.guard = tuple((m, (w0 & m).bit_count() & 1 ^ want)
                           for m, want in zip(self.readout.check_masks,
                                              self.readout.expected))

    def weights(self, probs: np.ndarray) -> np.ndarray:
        """The table's distribution under the logical distribution `probs`
        (or, per row, each of a stack of them): P'_L(x)/2 per word of
        logical x."""
        return probs[..., self.xs] * 0.5

    def record(self, i: int, flips: int) -> ShotRecord:
        rec = None if flips else self.records.get(i)
        if rec is None:
            word = self.words[i] ^ flips
            rec = ShotRecord(_bit_tuple(word, self.plan.num_clbits),
                             *self.readout.decode_word(word))
            if not flips:
                self.records[i] = rec
        return rec


_PASS_AMPS = 1 << 16    # _LogicalModel.states: amplitudes per block


class _LogicalModel:
    """k logical qubits as a StateVector(k) from |+>^k, run through `ops`:
    (key, qubits, angle) per rotation in order, an RZZ on two qubits and an
    RX on one; a mask `rot` negates the rotations whose keys it sets.  The
    unencoded circuit's ops are keyed by step (_logical_ops), an Iceberg
    circuit's by gate index (_model_ops).  `probs` is the noiseless
    distribution, and the noiseless state is kept before every
    `stride`-th op, about sqrt(ops) states.  `states` runs the masks of a
    whole sampling call at once, one row each, from those checkpoints;
    `state` is its one-row case."""

    def __init__(self, k: int, ops: list[tuple[int, tuple[int, ...], float]]):
        self.k, self.ops = k, ops
        self.keys = [key for key, _, _ in ops]
        self.stride = max(1, math.isqrt(len(ops)))
        state = StateVector(k)
        for q in range(k):
            state.apply_h(q)
        self.checkpoints = [state.copy()]   # before ops[i * stride]
        for i in range(len(ops)):
            self._apply(state, ops[i])
            if (i + 1) % self.stride == 0:
                self.checkpoints.append(state.copy())
        self.probs = state.probabilities()

    @staticmethod
    def _apply(state: StateVector, op: tuple[int, tuple[int, ...], float],
               negated: np.ndarray | None = None) -> None:
        """`op` on the state or stack of states `state` holds, its angle
        negated in the rows of a stack that `negated` sets."""
        _, qubits, angle = op
        if len(qubits) == 2:
            state.apply_rzz(qubits[0], qubits[1], angle, negated)
        else:
            state.apply_rx(qubits[0], angle, negated)

    def states(self, rots: Sequence[int]
               ) -> Iterator[tuple[list[int], StateVector]]:
        """The logical states at the circuit end, the rotations of mask
        rots[r] negated in row r, a block at a time: (its rows, a
        StateVector whose amp holds one state per row).  A row resumes
        from the last checkpoint before its first negated rotation.  The
        rows are taken in that checkpoint's order, at most _PASS_AMPS
        amplitudes a block, and each joins its block's stack when the pass
        reaches its checkpoint, so every row runs the ops a one-row pass
        runs."""
        starts = [len(self.ops) // self.stride if not rot else
                  bisect.bisect_left(self.keys, (rot & -rot).bit_length() - 1)
                  // self.stride for rot in rots]
        width = max([rot.bit_length() for rot in rots] +
                    [self.keys[-1] + 1 if self.keys else 0]) + 7 >> 3
        masks = np.frombuffer(b"".join(rot.to_bytes(width, "little")
                                       for rot in rots), dtype=np.uint8)
        # negated[i, r]: whether row r negates ops[i], never before the
        # row's checkpoint
        negated = np.unpackbits(masks.reshape(len(rots), width), axis=1,
                                bitorder="little")[:, self.keys].T
        order = sorted(range(len(rots)), key=starts.__getitem__)
        size = max(1, _PASS_AMPS >> self.k)
        for lo in range(0, len(rots), size):
            rows = order[lo:lo + size]
            first = [starts[r] for r in rows]      # ascending
            mine = negated[:, rows].astype(bool)
            hit = mine.any(axis=1).tolist()
            # copied, not constructed: a StateVector constructed inside
            # sample_shots stands for a trajectory (perfbench's
            # simulator.trajectory_shots)
            block = self.checkpoints[first[0]].copy()
            block.amp = np.empty((0, len(block.amp)), dtype=np.complex128)
            for c in range(first[0], len(self.checkpoints)):
                joined = bisect.bisect_right(first, c)
                if joined > len(block.amp):
                    block.amp = np.concatenate([block.amp, np.tile(
                        self.checkpoints[c].amp, (joined - len(block.amp), 1))])
                for i in range(c * self.stride,
                               min((c + 1) * self.stride, len(self.ops))):
                    self._apply(block, self.ops[i],
                                mine[i, :joined] if hit[i] else None)
            yield rows, block

    def state(self, rot: int) -> StateVector:
        """The logical state at the circuit end with the rotations of mask
        `rot` negated."""
        ((_, state),) = self.states([rot])
        state.amp = state.amp[0]
        return state


def _logical_width(decode: Mapping[int, frozenset[int]] | None,
                   num_qubits: int) -> int | None:
    """k where `decode` names logicals 1..k, k >= 1, on a circuit with
    qubits 0..k+1 (the logical model's precondition), else None."""
    k = len(decode or ())
    if k and sorted(decode) == list(range(1, k + 1)) and k + 2 <= num_qubits:
        return k
    return None


def _model_ops(plan: _ShotPlan, decode: Mapping[int, frozenset[int]] | None
               ) -> list[tuple[int, tuple[int, ...], float]] | None:
    """The plan's rotations as _LogicalModel ops keyed by gate index
    (module docstring): RZZ(u+1, v+1) on logical qubits (u, v), and RXX on
    t = 0 or b = k+1 and q on logical qubit q-1; None unless `decode` has a
    _logical_width k and every rotation has one of these forms."""
    k = _logical_width(decode, plan.num_qubits)
    if k is None:
        return None
    ops = []
    for gi, g in enumerate(plan.gates):
        if not g.kind.rotation:
            continue
        data = tuple(q - 1 for q in g.qubits if 1 <= q <= k)
        anchors = [q for q in g.qubits if q == 0 or q == k + 1]
        if g.kind is GateKind.RZZ and len(data) == 2 or \
                g.kind is GateKind.RXX and len(data) == len(anchors) == 1:
            ops.append((gi, data, g.angle))
        else:
            return None
    return ops


def _affine_table(w0: int, directions: Sequence[int], readout: _Readout,
                  num_clbits: int) -> tuple[list[int], np.ndarray]:
    """The certified table: the words w0 XOR span(directions), in the
    order sorted() gives their bit tuples, and each word's logical x under
    `readout`'s decode (its probability is P_L(x)/2)."""
    def logical(word):
        return sum([bit for m, bit in readout.decode
                    if (word & m).bit_count() & 1])

    def row(word):
        return np.array(_bit_tuple(word, num_clbits), dtype=np.uint8)

    words, xs = [w0], np.array([logical(w0)], dtype=np.intp)
    bits = row(w0)[None]
    for d in directions:
        words += [w ^ d for w in words]
        xs = np.concatenate([xs, xs ^ logical(d)])
        bits = np.concatenate([bits, bits ^ row(d)])
    # clbit 0 the primary key: lexsort's last
    order = np.lexsort(bits.T[::-1])
    return [words[i] for i in order.tolist()], xs[order]


def _keeps_checks(guard: tuple[tuple[int, int], ...], flips: int) -> bool:
    """Whether a shot whose clbits flip by `flips` keeps every check."""
    return all(((flips & m).bit_count() & 1) == want for m, want in guard)


@functools.lru_cache(maxsize=8)
def _plan(build, *content):
    """build(*content): the plans of sample_shots and sample_logical_shots,
    cached by content in one LRU.  A circuit is mutable, so its identity
    does not name its gates; each builder rebuilds the circuit from
    `content` alone, so a plan reads nothing its key does not hold."""
    return build(*content)


def _build_shot_plan(num_qubits: int, num_clbits: int, gates: tuple,
                     components: tuple) -> _ShotPlan:
    circuit = PhysicalCircuit(num_qubits, num_clbits, list(gates),
                              dict(components))
    circuit.validate()
    return _ShotPlan(circuit)


def _shot_plan(circuit: PhysicalCircuit) -> _ShotPlan:
    """The circuit's _ShotPlan (_plan): only a build validates the
    circuit."""
    return _plan(_build_shot_plan, circuit.num_qubits, circuit.num_clbits,
                 tuple(circuit.gates), tuple(circuit.components.items()))


def _check_shots(shots: int, seed: int) -> None:
    for name, v in (("shots", shots), ("seed", seed)):
        if type(v) is bool or not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"{name} must be an int >= 0, got {v!r}")


def sample_shots(circuit: PhysicalCircuit, noise: NoiseModel, shots: int,
                 seed: int,
                 checks: Sequence[ParityCheck] = (),
                 decode: Mapping[int, frozenset[int]] | None = None,
                 inject: Sequence[tuple[int, PauliString]] = ()
                 ) -> list[ShotRecord]:
    """Noisy sampling of a physical circuit, shot i from its own stream and
    decided by the one shot loop (module docstring: Sampling, and Encoded
    shots).  Where the stabilizer certificate holds for `checks` and
    `decode`, the Pauli frame decides every shot; otherwise every shot
    runs its trajectory (module docstring: The two readings).  Every
    verdict is its trajectory's, and so is every record the frame does not
    decide; a rejected shot the frame decides simulates only the check
    parities of its bits.  The circuit's _ShotPlan is cached by its
    content, and the circuit is validated when its plan is built: a
    circuit with the content of a cached plan is valid.  SimulatorError
    is raised before a plan is built when the narrowest state the circuit
    could need exceeds DEFAULT_QUBIT_CAP qubits: the logical model's k
    when `decode` names logicals 1..k, else the circuit's own; and when
    its reading is built, if the certificate does not hold and the
    circuit's own qubits exceed the cap.

    `inject` lists deterministic Pauli errors applied after given gate
    indices in every shot (used for fault cross-checks); an index in the
    trailing measurement block, out of range or naming a barrier raises
    ValueError, as does a check or decode clbit the circuit lacks."""
    _check_shots(shots, seed)
    _check_width(_logical_width(decode, circuit.num_qubits)
                 or circuit.num_qubits)
    plan = _shot_plan(circuit)
    inject_map = _inject_map(plan.gates, inject)
    return _sample(plan, plan.reading(checks, decode), noise, shots, seed,
                   inject_map, plan.inject_frame(inject_map))


def _sample(plan: "_ShotPlan | _LogicalPlan",
            reading: "_Reading | _LogicalPlan", noise: NoiseModel,
            shots: int, seed: int, inject: Mapping[int, list[PauliString]],
            frame: int) -> list[ShotRecord]:
    """The one shot loop: the records of shots 0..shots-1 of `plan` read
    out by `reading`, each decided by its Pauli frame or its trajectory
    (module docstring: Sampling); `frame` is the response of the Paulis
    `inject` applies."""
    rates, guard = plan.rates(noise), reading.guard
    streams = _Streams(seed, shots)
    records: list[ShotRecord | None] = []
    # (shot, pick uniform, rotation mask, clbit flips) of the shots that
    # pick from the distribution of the circuit with rotations negated,
    # picked after the loop
    held = []
    for shot in range(shots):
        rng = streams.at(shot)
        if guard is None:
            records.append(reading.readout.record(
                plan.trajectory(rng, rates, inject)))
            continue
        fired, em = plan.events(rng, rates)
        cl, rot = plan.flips(rng, fired, frame)
        flips = cl ^ plan.readout(em)
        if rot and _keeps_checks(guard, flips):
            held.append((shot, rng.random(), rot, flips))
            records.append(None)
        else:
            records.append(reading.record(_pick(rng.random(), reading.cum),
                                          flips))
    if held:
        for rows, state in reading.model.states(
                [rot for _, _, rot, _ in held]):
            weights = reading.weights(state.probabilities())
            for row, w in zip(rows, weights):
                shot, u, _, flips = held[row]
                records[shot] = reading.record(_pick(u, np.cumsum(w)), flips)
    return records


def _apply_gate(state: StateVector, g: Gate, *, cnot=GateKind.CNOT,
                rzz=GateKind.RZZ, rxx=GateKind.RXX, h=GateKind.H,
                x=GateKind.X, z=GateKind.Z, barrier=GateKind.BARRIER
                ) -> None:
    """A unitary gate (or a barrier, which does nothing).  The kinds are
    defaults, so locals: looking up an Enum member on its class costs more
    than a small kernel."""
    kind = g.kind
    if kind is cnot:
        state.apply_cx(*g.qubits)
    elif kind is rzz:
        state.apply_rzz(g.qubits[0], g.qubits[1], g.angle)
    elif kind is rxx:
        state.apply_rxx(g.qubits[0], g.qubits[1], g.angle)
    elif kind is h:
        state.apply_h(g.qubits[0])
    elif kind is x:
        state.apply_x(g.qubits[0])
    elif kind is z:
        state.apply_z(g.qubits[0])
    elif kind is barrier:
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

    Mid-circuit measurements and resets branch only when both outcomes have
    probability above BRANCH_TOL (noiseless encoded circuits keep a single
    branch); the trailing block of measurements, which measures each qubit
    once (_trailing_start), is evaluated jointly from amplitudes.  `inject`
    is checked and applied as in `sample_shots`.  The keys come in the
    order the branches first reach them, and an outcome that several
    branches reach sums their probabilities in that order.
    """
    gates = circuit.gates
    inject_map = _inject_map(gates, inject)
    tail_start = _trailing_start(gates)

    branches: list[tuple[float, StateVector, list[int]]] = [
        (1.0, StateVector(circuit.num_qubits), [0] * circuit.num_clbits)
    ]
    for gi in range(tail_start):
        g = gates[gi]
        if g.kind.measurement or g.kind is GateKind.RESET:
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

    # trailing measurements, jointly: outcome s of a branch sets bit pos of
    # s on the clbit last[pos] (its last write wins), which reads the qubit
    # of its last measurement
    tail = [g for g in gates[tail_start:] if g.kind is not GateKind.BARRIER]
    last = {g.clbit: g.qubits[0] for g in tail}
    idx = np.arange(1 << circuit.num_qubits)
    sig = np.zeros(len(idx), dtype=np.int64)
    for pos, q in enumerate(last.values()):
        sig |= (((idx >> q) & 1) << pos).astype(np.int64)
    out: dict[tuple[int, ...], float] = {}
    for weight, state, bits in branches:
        for g in tail:
            if g.kind is GateKind.MEASURE_X:
                state.apply_h(g.qubits[0])
        mass = np.bincount(sig, weights=state.probabilities(), minlength=1)
        hit = np.flatnonzero(mass > 1e-15)
        row = list(bits)
        for s, m in zip(hit.tolist(), mass[hit].tolist()):
            for pos, clbit in enumerate(last):
                row[clbit] = s >> pos & 1
            key = tuple(row)
            out[key] = out.get(key, 0.0) + weight * m
    return out


def exact_logical_distribution(circuit: PhysicalCircuit,
                               checks: Sequence[ParityCheck],
                               decode: Mapping[int, frozenset[int]],
                               inject: Sequence[tuple[int, PauliString]] = ()
                               ) -> tuple[float, dict[int, float]]:
    """(acceptance probability, post-selected decoded logical distribution).

    Both sum the accepted entries of exact_bit_distribution in the order
    it lists them, and the logicals come in the order they first appear.
    A `decode` of None raises ValueError: the logicals need a decode map."""
    if decode is None:
        raise ValueError("exact_logical_distribution needs a decode map")
    readout = _Readout(checks, decode, circuit.num_clbits)
    acc, mass = 0.0, {}
    for bits, p in exact_bit_distribution(circuit, inject).items():
        _, accepted, x = readout.decode_word(_word(bits))
        if accepted:
            acc += p
            mass[x] = mass.get(x, 0.0) + p
    if acc > 0:
        mass = {x: m / acc for x, m in mass.items()}
    return acc, mass


# ---------------------------------------------------------------------------
# Unencoded (logical) reference simulation
# ---------------------------------------------------------------------------

def unencoded_distribution(lc: LogicalCircuit) -> dict[int, float]:
    """Exact distribution of the unencoded circuit's k measured bits (bit
    i of the key is qubit i), entries above 1e-15, the rotations run in the
    sampler's order (_logical_steps): the noiseless _LogicalModel's."""
    probs = _logical_plan(lc).model.probs
    return {x: float(p) for x, p in enumerate(probs) if p > 1e-15}


class _LogicalPlan(_SiteTable):
    """What sample_logical_shots needs of an unencoded circuit whatever the
    noise: per step of _logical_steps a Pauli site numbered by its step
    (RZZ steps p2, RX steps p1, idle slots p_idle) with the frames of
    _logical_entries, and one readout per qubit; its noiseless _LogicalModel
    and the cumulative of that model's distribution (`cum`).  A frame's bit
    q is an X flip on qubit q and bit k+i negates the rotation of step i.
    It is its own reading (_Reading): it has no checks, so its `guard` is
    (), and its outcome x is entry x of its model's distribution, so a
    held row's `weights` are that row's distribution as it is."""

    guard = ()

    def __init__(self, lc: LogicalCircuit):
        super().__init__()
        self.k = lc.k
        steps = _logical_steps(lc)
        for (support, angle), entries in zip(
                steps, _logical_entries(steps, lc.k)):
            self._site("p_idle" if angle is None else
                       "p2" if len(support) == 2 else "p1", entries)
        self.family["p_meas"] += range(lc.k)
        self._number()
        self.model = _LogicalModel(lc.k, _logical_ops(steps))
        self.cum = np.cumsum(self.model.probs)

    def split(self, frame: int) -> tuple[int, int]:
        return frame & (1 << self.k) - 1, frame >> self.k

    @staticmethod
    def weights(probs: np.ndarray) -> np.ndarray:
        return probs

    def record(self, x: int, flips: int) -> ShotRecord:
        """The record of a shot whose k qubits read outcome x XOR `flips`."""
        word = x ^ flips
        return ShotRecord(_bit_tuple(word, self.k), (), True, word)


def _build_logical_plan(k: int, phase_layers: tuple,
                        mixer_layers: tuple) -> _LogicalPlan:
    return _LogicalPlan(LogicalCircuit(k, list(map(list, phase_layers)),
                                       list(map(list, mixer_layers))))


def _logical_plan(lc: LogicalCircuit) -> _LogicalPlan:
    """The circuit's _LogicalPlan (_plan), beside the _ShotPlans."""
    return _plan(_build_logical_plan, lc.k, tuple(map(tuple, lc.phase_layers)),
                 tuple(map(tuple, lc.mixer_layers)))


def _logical_steps(lc: LogicalCircuit
                   ) -> list[tuple[tuple[int, ...], float | None]]:
    """Fixed traversal script of the unencoded circuit after the initial
    Hadamards: (support, angle) steps, each an RZZ on two qubits or an RX on
    one (angle None: an idle slot on one qubit), followed by a Pauli event
    on the support.

    Phase rotations are ASAP-layered per phase layer, with an idle slot for
    each qubit a layer leaves untouched; the mixer rotations follow."""
    steps = []
    for gates, mixer in zip(lc.phase_layers, lc.mixer_layers):
        rzz = PhysicalCircuit(lc.k)
        for g in gates:
            rzz.rzz(g.u, g.v, g.angle)
        for layer in layered_schedule(rzz).layers:
            touched = set()
            for gi in layer:
                g = gates[gi]
                steps.append(((g.u, g.v), g.angle))
                touched.update((g.u, g.v))
            steps.extend(((q,), None) for q in range(lc.k) if q not in touched)
        steps.extend(((m.qubit,), m.angle) for m in mixer)
    return steps


def _logical_ops(steps: list[tuple[tuple[int, ...], float | None]]
                 ) -> list[tuple[int, tuple[int, ...], float]]:
    """The rotations of `steps` as _LogicalModel ops, keyed by step."""
    return [(i, support, angle) for i, (support, angle) in enumerate(steps)
            if angle is not None]


def _logical_entries(steps: list[tuple[tuple[int, ...], float | None]],
                     k: int) -> list[list[tuple[int, int]]]:
    """Per step, the frames of an X and a Z after it on each qubit of its
    support, as _combine takes them: bit q set by an X on q, bit k+i
    by a Pauli that negates the rotation of a later step i (module
    docstring)."""
    by_x, by_z = [0] * k, [0] * k     # per qubit, the rotations it negates
    for i, support, _ in _logical_ops(steps):
        by = by_x if len(support) == 2 else by_z
        for q in support:
            by[q] |= 1 << k + i
    entries = []
    for i, (support, _) in enumerate(steps):
        later = -(1 << k + i + 1)
        entries.append([(1 << q | by_x[q] & later, by_z[q] & later)
                        for q in support])
    return entries


def sample_logical_shots(lc: LogicalCircuit, noise: NoiseModel, shots: int,
                         seed: int) -> list[ShotRecord]:
    """Unencoded reference under the same noise model, shot i from its own
    stream and decided by the one shot loop (module docstring: Sampling,
    and Unencoded shots), which decides every shot by its Pauli frame.  Its
    logical is its picked outcome XOR its frame's X flips XOR its fired
    readouts, bit q qubit q; its check values are () and it is accepted.
    The circuit's steps, sites and model are cached by its content
    (_logical_plan)."""
    _check_shots(shots, seed)
    plan = _logical_plan(lc)
    return _sample(plan, plan, noise, shots, seed, {}, 0)


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
