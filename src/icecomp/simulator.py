"""Dense statevector simulation with mid-circuit measurement and Pauli noise.

Supports two inputs: PhysicalCircuit (encoded circuits, ancillas included)
and LogicalCircuit (the unencoded reference, whose mixer rotations are
plain single-qubit X rotations that the physical gate set does not carry).

Noise is a stochastic Pauli trajectory model: a uniformly random
non-identity Pauli on a gate's support with probability p1/p2 after each
gate, single-qubit depolarizing with probability p_idle on every idle qubit
after each two-qubit layer (this is what makes depth costly), and readout
flips with probability p_meas.  All rates scale with a global multiplier.

Sampling.  Shot i draws everything from its own stream, that of
np.random.default_rng(SeedSequence((seed, i))), so its record does not
depend on the other shots.  A call builds those streams once (_Streams):
one vectorized pass of SeedSequence's hash gives a block of shots their
PCG64 states, and one generator is pointed at each shot in turn by setting
its state.  An encoded shot first draws whether each noise site fires.  A
shot on which no Pauli fires picks its bits from the exact noiseless
distribution (exact_bit_distribution) with one uniform and applies its
readout flips; a clbit measured twice keeps its last write, and that
measurement's flip.  Any other shot stands for its trajectory, which then
draws, in traversal order, one uniform per measurement and reset
(StateVector.measure/reset) and one Pauli code per fired site.  The Pauli
frame decides most of those shots (below); a shot it cannot decide runs
its whole trajectory from |0...0>, its stream started again
(_ShotPlan.trajectory).

Unencoded shots.  After its Hadamard layer every gate of the unencoded
circuit is a Pauli rotation, so a Pauli fired after a step reaches the end
as it is, negating each later rotation whose generator it anticommutes
with (X or Y on q an RZZ on q, Z or Y on q an RX on q), and its X part
flips q's readout.  A shot's final state is thus the noiseless one with its
frame's rotations negated and its X flips applied.  Paulis only move
amplitudes and flip signs, which the kernels carry through exactly, and the
model runs the trajectory's kernels in its order (_logical_steps), so that
state's probabilities are the trajectory's.  A shot whose frame negates
rotations draws its readout uniforms where its trajectory does and holds
them; when the call's loop ends, one stacked pass of the logical model
(_LogicalModel.states) gives the states of all such shots, one row each.
The circuit's steps and model are built once per content and cached with
the plans (_logical_plan).

The ideal table.  A circuit's noiseless outcomes come from the sampler's
one dense pass (capped at DEFAULT_QUBIT_CAP qubits), run once, on first
use, as arrays (_Outcomes): per entry its clbits (a uint8 row) and its
probability, the entries in the order sorted() gives their bit tuples,
clbit 0 first.  An entry's word is the int whose bit c is clbit c; a table
of words is held as uint64 limbs, the highest 64 bits first (_limbs), so
any number of clbits fits.  Everything taken from the table is an array
operation on it, with no Python loop per entry: its words, their ints, its
cumulative and, once per (checks, decode), its reading (_Reading): one
pass of check parities (np.bitwise_count of word AND mask) that gives
every entry's check values and logical, and so the guard and the logical
model's logicals and marginal.  The floats are the ones a dict filled one
entry at a time gives, summed in the same order: entries that two
branches share are merged by np.add.at in the order the branches reach
them.

Shots the Pauli frame decides.  A Pauli a noise site applies passes the
rest of the circuit as a Pauli frame (see the faults module): the shot
gives the outcomes of the noiseless circuit with the frame's rotations
negated and its clbits flipped.  Each circuit has one cached _ShotPlan: its
noise sites, numbered once in traversal order, each with the response of
every Pauli it can apply, from one backward faults._Sweep pass over the
circuit alone, so at any width: of the plan, only its ideal table is dense.
So before touching any state, sample_shots walks an event shot's fired
sites in that order and draws each one's Pauli code after the uniforms of
the measurements and resets before that site, which it drops: these are the
draws its trajectory makes, so this is the trajectory's frame.  The checks
are a function of the frame alone when the guard holds: there are checks,
each clbit is measured at most once, the noiseless check values are
deterministic, and no rotation generator (Z_aZ_b after an RZZ, X_aX_b after
an RXX), taken as a fault right after its own gate, flips a check parity.
By induction over the first sign-flipped rotation the checks are then
deterministic under every pattern of rotation signs.  Under the guard the
shot's next uniform picks an ideal entry, to which the frame's clbit flips
and the readout flips are applied (as Stim's frame sampler gives a shot a
noiseless sample XOR its frame's flips):

  * A shot whose frame breaks a check is rejected without a trajectory,
    with accepted False, logical None and the exact check values (the
    noiseless ones XOR the frame's flips).  Its bits are exact in
    distribution when no rotation flipped; otherwise only their check
    parities are simulated.
  * A shot whose frame keeps every check and flips no rotation is exact in
    distribution, with random resets too: a reset erases any Pauli on its
    qubit, and the ideal table is the joint distribution of the clbits.
  * A shot whose frame keeps every check and flips rotations is the
    noiseless circuit with those rotations negated (theta').  The rotations
    of an Iceberg circuit commute with both stabilizers, so under theta'
    too the state before the final readout lies in the code space, and the
    readout never mixes two logical basis states: each clbit pattern
    decodes to one logical x, and P(bits) = P_L(x) Q(bits | x) with Q set
    by the readout alone.  So the shot picks from the cumulative of the
    ideal distribution with each entry scaled by P'_L(x)/P_L(x), P'_L and
    P_L the logical distributions with and without the flips.  The logical
    model (_LogicalModel) gives P'_L from a StateVector(k) from |+>^k on
    which RZZ(u+1, v+1) acts as Z_uZ_v and RXX(t or b, q), t = 0 and b =
    k+1 the top and bottom qubits, as X_{q-1}; P_L is the ideal
    distribution's decoded marginal.  Such a shot draws its pick uniform
    where it stands and holds it; when the call's loop ends, one stacked
    pass of the model gives P'_L of every such shot, one row each, and the
    held uniforms pick.  The model is built on first use from
    the logicals of the reading that holds the guard, and kept only if
    every reset is deterministic (a random reset leaves a mixture no one
    logical state stands for), every rotation has one of those forms and
    the model's own P_L matches that marginal to MODEL_TOL with every x
    present.
  * Every other shot runs its trajectory, and its record is the
    trajectory's, bit for bit: every event shot when the guard fails, and
    one that keeps its checks and flips a rotation when there is no
    `decode` or no model.

So every verdict is the trajectory's, but the bits and logical of an
accepted shot the frame decides are an exact draw, not its trajectory's.

An unencoded shot takes as p1 the mass of its outcomes so far extended by
a 1, over the product of their probabilities, as measure() renormalizes
the state after each collapse.  That p1 agrees with its trajectory's
prob_one to the last bits, not bit for bit: the masses are summed in
another order, from the logical state at the circuit end.  The record is
the trajectory's unless a uniform falls between them.

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

DEFAULT_QUBIT_CAP = 16
BRANCH_TOL = 1e-10      # exact_bit_distribution: branching threshold
MAX_BRANCHES = 64       # exact_bit_distribution: branch budget


class SimulatorError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Statevector core
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_width(num_qubits: int) -> None:
    if num_qubits > DEFAULT_QUBIT_CAP:
        raise SimulatorError(
            f"{num_qubits} qubits exceeds the dense-simulation cap "
            f"{DEFAULT_QUBIT_CAP}"
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

_RATES = ("p2", "p1", "p_idle", "p_meas")


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
    return (f"p2 {model.p2!r}\np1 {model.p1!r}\np_idle {model.p_idle!r}\n"
            f"p_meas {model.p_meas!r}\nscale {model.scale!r}\n")


class NoiseFormatError(ValueError):
    """A malformed noise file; the message starts with the line number."""


_NOISE_FIELDS = (*_RATES, "scale")


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


# Arrays of words.  A table of n rows of w bits is held as uint64 limbs of
# shape (L, n), L = max(1, ceil(w / 64)): row r is the number whose bits,
# highest first, are limb 0's, then limb 1's, and so on.  So rows compare
# as those numbers compare, limb 0 first.

_LIMB = (1 << 64) - 1


def _limbs(cols: np.ndarray) -> np.ndarray:
    """The rows of the 0/1 matrix `cols` as numbers, column j bit w-1-j of
    a row's number (column 0 the highest): the rows' numbers sort as the
    rows sort as tuples."""
    rows, w = cols.shape
    n = max(1, -(-w // 64))
    padded = np.zeros((rows, 64 * n), dtype=np.uint8)
    padded[:, 64 * n - w:] = cols
    return np.packbits(padded, axis=1).view(">u8").T.astype(np.uint64,
                                                            order="C")


def _ints(limbs: np.ndarray) -> list[int]:
    """Each row's number as an int."""
    if len(limbs) == 1:
        return limbs[0].tolist()
    out = limbs[0].astype(object)
    for limb in limbs[1:]:
        out = out << 64 | limb.astype(object)
    return out.tolist()


def _parities(limbs: np.ndarray, mask: int) -> np.ndarray:
    """Per row, the parity of its number AND `mask`, as uint8."""
    out = np.zeros(limbs.shape[1], dtype=np.uint8)
    for i, limb in enumerate(limbs):
        m = mask >> 64 * (len(limbs) - 1 - i) & _LIMB
        if m:
            out ^= np.bitwise_count(limb & np.uint64(m))
    return out & 1


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

    def decode_words(self, words: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """decode_word of every row of the word table `words` (_limbs, bit
        c of a row's number clbit c): its check values (one row each),
        whether it is accepted, and its logical, decoded for every row
        (None without `decode`)."""
        n = words.shape[1]
        values = np.zeros((n, len(self.check_masks)), dtype=np.uint8)
        for j, m in enumerate(self.check_masks):
            values[:, j] = _parities(words, m)
        accepted = (values == self.expected).all(axis=1)
        logical = None
        if self.decode is not None:
            wide = any(bit >> 63 for _, bit in self.decode)
            logical = np.zeros(n, dtype=object if wide else np.int64)
            for m, bit in self.decode:
                logical += _parities(words, m).astype(logical.dtype) * bit
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


def _per_shot_rng(seed: int, shot: int) -> np.random.Generator:
    """The stream of np.random.default_rng(SeedSequence((seed, shot))):
    the one-shot case of _Streams."""
    return _Streams(seed, shot + 1).at(shot)


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


class _ShotPlan:
    """What sample_shots needs of a circuit whatever the noise.  The
    constructor reads the circuit alone (its schedule and one faults._Sweep)
    and builds no state, so it runs at any width: the traversal script (per
    layer, its gates, then the idle qubits of a layer holding a two-qubit
    gate), the sites below, their families, rates and draw index, and the
    readout and rotation flips.  The ideal table `ideal`, from whose
    cumulative a shot's uniform `pick`s an entry, and each `reading` of it
    are the dense part, built on first use and capped at DEFAULT_QUBIT_CAP.

    Each unitary gate and each such idle qubit is a Pauli site, numbered
    once in traversal order with its slot (the measurements and
    resets before it, whose draws its trajectory makes first) and its
    responses from the faults._Sweep entries right after its gate; an idle
    site after layer l on q takes those after q's last gate before l, or at
    the circuit start.  A shot draws every site's event up front, so its
    frame is known before any state is touched.  One that the frame decides
    `pick`s an ideal entry, from the cumulative reweighted by its reading's
    `model` when it keeps its checks and its frame flips a rotation; one
    the frame cannot decide runs its whole `trajectory`."""

    def __init__(self, circuit: PhysicalCircuit):
        sched = layered_schedule(circuit)
        self.gates = gates = tuple(circuit.gates)   # the circuit may change
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.sweep = _Sweep(circuit)
        self.after, last = self.sweep.entries()
        # per layer: (gate index, gate, Pauli or measurement site), its idle
        # qubits, and the Pauli site of its first idle qubit
        self.layers = []
        self.slots: list[int] = []
        self.responses: list[list[int]] = []
        meas_clbits: list[int] = []
        rotation_flips = set()
        # per family, keyed by its NoiseModel rate, its sites (measurements:
        # their clbits); a shot draws one uniform per site, in this order
        family = {"p2": [], "p1": [], "p_meas": meas_clbits, "p_idle": []}
        slot = 0
        # sites with the same entries (an idle qubit over layers) share one
        # response list
        shared: dict[tuple, list[int]] = {}

        def site(rate, entries):
            family[rate].append(len(self.slots))
            self.slots.append(slot)
            entries = tuple(entries)
            if entries not in shared:
                # digit j of _apply_random_pauli's code acts on qubit j
                shared[entries] = _combine(entries[::-1])
            self.responses.append(shared[entries])

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
                    if g.kind.rotation:
                        # the rotation's generator Z_aZ_b (X_aX_b) as a fault
                        (xa, za), (xb, zb) = own
                        r = za ^ zb if g.kind is GateKind.RZZ else xa ^ xb
                        rotation_flips.add(self.sweep.unpack(r)[2])
                    ops.append((gi, g, len(self.slots)))
                    site("p2" if g.is_two_qubit else "p1", own)
            touched = {q for gi in layer_gates for q in gates[gi].qubits}
            idle = [q for q in range(self.num_qubits) if q not in touched] \
                if any(gates[gi].is_two_qubit for gi in layer_gates) else []
            self.layers.append((ops, idle, len(self.slots)))
            for q in idle:
                site("p_idle", [last[q]])

        # per uniform of a shot, in family order, the Pauli site whose event
        # it draws, or None for a readout's; the readouts' start at
        # first_readout
        self.family_sizes = {rate: len(f) for rate, f in family.items()}
        self.draw_site: list[int | None] = []
        for rate, f in family.items():
            if rate == "p_meas":
                self.first_readout = len(self.draw_site)
                f = [None] * len(f)
            self.draw_site += f

        last_write = {c: si for si, c in enumerate(meas_clbits)}
        self.readout_flips = [1 << c if last_write[c] == si else 0
                              for si, c in enumerate(meas_clbits)]
        self.clbits_once = len(last_write) == len(meas_clbits)
        self.rotation_flips = frozenset(rotation_flips)
        self._readings: dict[tuple, _Reading] = {}

    @functools.cached_property
    def ideal(self) -> "_Outcomes":
        """The ideal table: _bit_distribution of the plan's own gates."""
        return _bit_distribution(self)

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
        """The ideal entries read out under `checks` and `decode`, kept
        once per pair, `decode` in any order."""
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

    def flips(self, rng: np.random.Generator, fired: list[int], frame: int
              ) -> tuple[int, int]:
        """A shot's Pauli frame from `frame` on, each fired site's Pauli
        drawn as its trajectory draws it, after the uniforms of the
        measurements and resets before that site, which are drawn and
        dropped.  Returns the frame's clbit flips and its rotation mask."""
        drawn = 0
        for s in fired:
            if self.slots[s] > drawn:
                rng.random(self.slots[s] - drawn)
                drawn = self.slots[s]
            rs = self.responses[s]
            frame ^= rs[int(rng.integers(1, len(rs) + 1)) - 1]
        _, _, cl, rot = self.sweep.unpack(frame)
        return cl, rot

    def readout(self, em: list[int]) -> int:
        """The clbit flips of a shot's fired readouts `em`; the flip of an
        overwritten measurement is lost."""
        out = 0
        for si in em:
            out ^= self.readout_flips[si]
        return out

    def pick(self, u: float, cum: np.ndarray | None = None) -> int:
        """The ideal entry the uniform `u` picks from the cumulative `cum`
        over the ideal entries, by default the ideal one."""
        cum = self.ideal.cum if cum is None else cum
        return min(int(cum.searchsorted(u)), len(cum) - 1)


class _Reading:
    """A _ShotPlan's ideal entries read out under one (checks, decode), from
    one _Readout.decode_words pass over its word table: per entry its check
    values (a row of `values`) and its decoded logical (`logical`, None
    without `decode`).  From these come the frame `guard` and the logical
    `model` (module docstring).  `record(i, flips)` is the record of a shot
    whose bits are entry i with the clbits of `flips` flipped, kept the
    first time a shot picks entry i unflipped."""

    def __init__(self, plan: _ShotPlan, checks: Sequence[ParityCheck],
                 decode: Mapping[int, frozenset[int]] | None):
        self.plan, self.decode = plan, decode
        self.readout = _Readout(checks, decode, plan.num_clbits)
        self.values, _, self.logical = \
            self.readout.decode_words(plan.ideal.words)
        self.records: dict[int, ShotRecord] = {}
        # per check, (clbit mask, the flip parity under which the check
        # keeps its expected value) when a shot's checks are a function of
        # its frame alone; None otherwise
        self.guard = None
        masks, values = self.readout.check_masks, self.values
        if checks and plan.clbits_once and (values == values[0]).all() and \
                not any((f & m).bit_count() & 1
                        for f in plan.rotation_flips for m in masks):
            self.guard = tuple((m, v ^ c.expected) for m, v, c
                               in zip(masks, values[0].tolist(), checks))

    @functools.cached_property
    def model(self) -> "_LogicalModel | None":
        """The circuit's logical model under `decode`, or None where there
        is no `decode` or the circuit shows no model."""
        if self.decode is None:
            return None
        return _LogicalModel.build(self.plan, self.decode, self.logical)

    def record(self, i: int, flips: int) -> ShotRecord:
        rec = None if flips else self.records.get(i)
        if rec is None:
            word = self.plan.ideal.ints[i] ^ flips
            rec = ShotRecord(_bit_tuple(word, self.plan.num_clbits),
                             *self.readout.decode_word(word))
            if not flips:
                self.records[i] = rec
        return rec


MODEL_TOL = 1e-12   # _LogicalModel: its largest miss of the ideal marginal


_PASS_AMPS = 1 << 16    # _LogicalModel.states: amplitudes per block


class _LogicalModel:
    """k logical qubits as a StateVector(k) from |+>^k, run through `ops`:
    (key, qubits, angle) per rotation in order, an RZZ on two qubits and an
    RX on one; a mask `rot` negates the rotations whose keys it sets.  The
    unencoded circuit's ops are keyed by step (_logical_ops); `build` keys
    an Iceberg circuit's by gate index (module docstring) and sets `ideal`,
    the ideal entries' probabilities, `xs`, each entry's decoded logical,
    and `marginal`, their ideal distribution.  The noiseless state is kept
    before every `stride`-th op, about sqrt(ops) states.  `states` runs the
    masks of a whole sampling call at once, one row each, from those
    checkpoints; `state` and `reweight` are its one-row case."""

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
    def build(plan: _ShotPlan, decode: Mapping[int, frozenset[int]],
              logical: np.ndarray) -> "_LogicalModel | None":
        """The model of the plan's circuit, each ideal entry decoding to
        its `logical` under `decode`, or None unless every reset is
        deterministic, `decode` names logicals 1..k on a circuit with
        qubits 0..k+1, every rotation has the form above, and the model's
        distribution is the ideal marginal to MODEL_TOL with every logical
        value present."""
        k = len(decode)
        if not plan.ideal.resets_fixed or \
                sorted(decode) != list(range(1, k + 1)) or \
                k + 2 > plan.num_qubits:
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
        xs = logical.astype(np.intp)
        marginal = np.bincount(xs, weights=plan.ideal.probs, minlength=1 << k)
        if not marginal.all():
            return None
        model = _LogicalModel(k, ops)
        if np.max(np.abs(model.probs - marginal)) > MODEL_TOL:
            return None
        model.ideal, model.xs, model.marginal = plan.ideal.probs, xs, marginal
        return model

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

    def reweighted(self, probs: np.ndarray) -> np.ndarray:
        """The ideal distribution, each entry scaled by P'_L(x)/P_L(x) for
        its logical x, P'_L the logical distribution `probs` (or, per row,
        each of a stack of them): the distribution of the circuit with the
        rotations that gave P'_L negated."""
        return self.ideal * (probs / self.marginal)[..., self.xs]

    def reweight(self, rot: int) -> np.ndarray:
        """reweighted of the state with the rotations of `rot` negated."""
        return self.reweighted(self.state(rot).probabilities())


def _keeps_checks(guard: tuple[tuple[int, int], ...], flips: int) -> bool:
    """Whether a shot whose clbits flip by `flips` keeps every check."""
    return all(((flips & m).bit_count() & 1) == want for m, want in guard)


# the plans of sample_shots and sample_logical_shots, least recently used
# first
_PLANS: dict[tuple, "_ShotPlan | _LogicalPlan"] = {}
_PLANS_MAX = 8


def _cached(key: tuple, build):
    """The plan _PLANS keeps under `key`, built by `build()` when it has
    none."""
    plan = _PLANS.pop(key, None) or build()
    _PLANS[key] = plan
    if len(_PLANS) > _PLANS_MAX:
        del _PLANS[next(iter(_PLANS))]
    return plan


def _shot_plan(circuit: PhysicalCircuit) -> _ShotPlan:
    """The circuit's _ShotPlan, cached by content: a PhysicalCircuit is
    mutable, so its identity does not name its gates.  The key holds all
    that circuit.validate() reads, so only a build validates, and checks
    the width before a plan takes a slot."""
    def build() -> _ShotPlan:
        circuit.validate()
        _check_width(circuit.num_qubits)
        return _ShotPlan(circuit)

    return _cached((circuit.num_qubits, circuit.num_clbits,
                    tuple(circuit.gates), tuple(circuit.components.items())),
                   build)


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
    """Trajectory sampling of a physical circuit under the noise model.

    Shot i draws from its own stream, that of default_rng(SeedSequence((
    seed, i))), so its record does not depend on the other shots; the call
    seeds its shots in blocks with one vectorized pass and points one
    generator at each shot in turn (_Streams).  A shot on which no Pauli
    event fires picks its bits from the exact noiseless distribution and
    applies its readout flips.  When the guard holds (the checks are a
    function of the Pauli frame alone), the frame decides most other shots
    without a state of the circuit: it draws each fired site's Pauli code
    as the trajectory does, so its check values and verdict are exact, and
    its next uniform picks its bits from the ideal distribution, to which
    the frame's clbit flips and readout flips are applied.  An accepted
    shot whose frame flips rotations picks from the ideal distribution
    reweighted by the logical model (module docstring): it draws its pick
    uniform in its place, and after the loop one stacked pass of the model
    gives the k-qubit logical states of all such shots, from which the
    held uniforms pick.  A rejected shot simulates only the check parities
    of its bits.  Every other shot runs its whole trajectory from |0...0>,
    its stream started again: every event shot when the guard fails, and
    an accepted one whose frame flips rotations when there is no `decode`
    or no model.  Every verdict is that of its trajectory, and
    so is every record the frame does not decide; the bits of an accepted
    shot the frame decides are an exact draw from their distribution, not
    its trajectory's.  The circuit's _ShotPlan is cached by its content,
    and the circuit is validated when its plan is built: a circuit with the
    content of a cached plan is valid.  One above DEFAULT_QUBIT_CAP qubits
    raises SimulatorError before a plan is built.

    `inject` lists deterministic Pauli errors applied after given gate
    indices in every shot (used for fault cross-checks); an index in the
    trailing measurement block, out of range or naming a barrier raises
    ValueError, as does a check or decode clbit the circuit lacks."""
    _check_shots(shots, seed)
    plan = _shot_plan(circuit)
    inject_map = _inject_map(plan.gates, inject)
    reading = plan.reading(checks, decode)
    readout, guard = reading.readout, reading.guard
    rates = plan.rates(noise)
    if guard is not None:
        inject_frame = plan.inject_frame(inject_map)

    streams = _Streams(seed, shots)
    records: list[ShotRecord | None] = []
    # (record index, pick uniform, rotation mask, clbit flips) of the shots
    # that pick from a reweighted distribution, picked after the loop
    held = []
    for shot in range(shots):
        rng = streams.at(shot)
        fired, em = plan.events(rng, rates)
        if not (inject_map or fired):
            records.append(reading.record(plan.pick(rng.random()),
                                          plan.readout(em)))
            continue
        if guard is not None:
            cl, rot = plan.flips(rng, fired, inject_frame)
            flips = cl ^ plan.readout(em)
            if not rot or not _keeps_checks(guard, flips):
                records.append(reading.record(plan.pick(rng.random()), flips))
                continue
            if reading.model is not None:
                held.append((len(records), rng.random(), rot, flips))
                records.append(None)
                continue
        records.append(readout.record(
            plan.trajectory(streams.at(shot), rates, inject_map)))
    if held:
        model = reading.model
        for rows, state in model.states([rot for _, _, rot, _ in held]):
            weights = model.reweighted(state.probabilities())
            for row, w in zip(rows, weights):
                i, u, _, flips = held[row]
                records[i] = reading.record(plan.pick(u, np.cumsum(w)), flips)
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
    branch); the trailing block of measurements is evaluated jointly from
    amplitudes.  `inject` is checked and applied as in `sample_shots`.  The
    keys come in the order the branches first reach them.
    """
    out = _bit_distribution(circuit, inject)
    first = out.first
    return dict(zip(map(tuple, out.bits[first].tolist()),
                    out.probs[first].tolist()))


@dataclass(frozen=True, eq=False)
class _Outcomes:
    """The noiseless outcomes of a circuit: per entry its clbits (a row of
    `bits`, uint8) and probability, in the order sorted() gives their bit
    tuples; `first`, the entries in the order the branches first reach
    them; and whether no reset branched (a reset that branches leaves an
    outcome no clbit records)."""

    bits: np.ndarray
    probs: np.ndarray
    first: np.ndarray
    resets_fixed: bool

    @functools.cached_property
    def words(self) -> np.ndarray:
        """The entries as a word table (_limbs): bit c is clbit c."""
        return _limbs(self.bits[:, ::-1])

    @functools.cached_property
    def ints(self) -> list[int]:
        """Each entry's word as an int."""
        return _ints(self.words)

    @functools.cached_property
    def cum(self) -> np.ndarray:
        """The cumulative probabilities."""
        return np.cumsum(self.probs)


def _bit_distribution(circuit: "PhysicalCircuit | _ShotPlan",
                      inject: Sequence[tuple[int, PauliString]] = ()
                      ) -> _Outcomes:
    """exact_bit_distribution's entries as arrays, of a circuit or of the
    gates a _ShotPlan holds."""
    gates = circuit.gates
    resets_fixed = True
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
                if g.kind is GateKind.RESET and len(outcomes) > 1:
                    resets_fixed = False
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
    rows, probs = [], []
    for weight, state, bits in branches:
        for g in tail:
            if g.kind is GateKind.MEASURE_X:
                state.apply_h(g.qubits[0])
        mass = np.bincount(sig, weights=state.probabilities(), minlength=1)
        s = np.flatnonzero(mass > 1e-15)
        block = np.tile(np.array(bits, dtype=np.uint8), (len(s), 1))
        for pos, clbit in enumerate(last):
            block[:, clbit] = s >> pos & 1
        rows.append(block)
        probs.append(weight * mass[s])
    return _merged(np.concatenate(rows), np.concatenate(probs), resets_fixed)


def _merged(bits: np.ndarray, probs: np.ndarray, resets_fixed: bool
            ) -> _Outcomes:
    """The _Outcomes of entries listed in the order the branches reach
    them, those with equal bits merged into one whose probability is
    theirs summed in that order (0.0 + p0 + p1 + ...), as a dict would."""
    # rows sort as their limbs do, limb 0 first; return_index takes each
    # key's first row, and bincount sums in index order
    _, kept, inverse = np.unique(_limbs(bits).T, axis=0, return_index=True,
                                 return_inverse=True)
    return _Outcomes(bits[kept], np.bincount(inverse, weights=probs),
                     np.argsort(kept), resets_fixed)


def exact_logical_distribution(circuit: PhysicalCircuit,
                               checks: Sequence[ParityCheck],
                               decode: Mapping[int, frozenset[int]],
                               inject: Sequence[tuple[int, PauliString]] = ()
                               ) -> tuple[float, dict[int, float]]:
    """(acceptance probability, post-selected decoded logical distribution).

    Both sum the accepted entries in the order exact_bit_distribution
    lists them, and the logicals come in the order they first appear."""
    readout = _Readout(checks, decode, circuit.num_clbits)
    out = _bit_distribution(circuit, inject)
    _, accepted, logical = readout.decode_words(out.words)
    kept = out.first[accepted[out.first]]
    probs = out.probs[kept]
    acc = float(np.cumsum(probs)[-1]) if len(kept) else 0.0
    xs, first, inverse = np.unique(logical[kept], return_index=True,
                                   return_inverse=True)
    mass = np.bincount(inverse, weights=probs, minlength=len(xs))
    order = np.argsort(first)
    if acc > 0:
        mass = mass / acc
    return acc, dict(zip(xs[order].tolist(), mass[order].tolist()))


# ---------------------------------------------------------------------------
# Unencoded (logical) reference simulation
# ---------------------------------------------------------------------------

def unencoded_distribution(lc: LogicalCircuit) -> dict[int, float]:
    """Exact distribution of the unencoded circuit's k measured bits (bit
    i of the key is qubit i), entries above 1e-15, the rotations run in the
    sampler's order (_logical_steps): the noiseless _LogicalModel's."""
    probs = _logical_plan(lc).model.probs
    return {x: float(p) for x, p in enumerate(probs) if p > 1e-15}


class _LogicalPlan:
    """What sample_logical_shots needs of an unencoded circuit whatever the
    noise: its `steps` (_logical_steps), per step the frames of the Paulis
    its event can apply, in the order of their codes (`responses`), its
    noiseless _LogicalModel and that model's _marginal_masses."""

    def __init__(self, lc: LogicalCircuit):
        self.k = lc.k
        self.steps = _logical_steps(lc)
        self.responses = [_combine(entries[::-1]) for entries
                          in _logical_entries(self.steps, lc.k)]
        self.model = _LogicalModel(lc.k, _logical_ops(self.steps))
        self.noiseless = _marginal_masses(self.model.probs, lc.k)


def _logical_plan(lc: LogicalCircuit) -> _LogicalPlan:
    """The circuit's _LogicalPlan, cached by content in _PLANS beside the
    _ShotPlans: a LogicalCircuit is mutable too."""
    return _cached(("logical", lc.k, tuple(map(tuple, lc.phase_layers)),
                    tuple(map(tuple, lc.mixer_layers))),
                   lambda: _LogicalPlan(lc))


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
    """Unencoded reference under the same noise model.

    Shot i draws from its own stream, as in sample_shots, what its
    trajectory draws, in its order: a uniform per step with p > 0 (one
    vector until a test fires; the same numbers), a Pauli code after each
    fired test, whose frame it folds into its own (module docstring), then
    per qubit a measurement uniform and, when p_meas > 0, a readout test.
    Qubit q reads 1 when its uniform lies below the probability of a 1
    given qubits 0..q-1, from `_marginal_masses` of the frame's state, read
    through its X flips.  The shots whose frame negates rotations hold
    their readout uniforms until the loop ends, when one stacked pass of
    the logical model (_LogicalModel.states) gives all their states.  The
    circuit's steps and model are cached by its content (_logical_plan)."""
    _check_shots(shots, seed)
    eff = noise.effective()
    plan = _logical_plan(lc)
    k = plan.k
    rates = [eff.p_idle if angle is None else
             eff.p2 if len(support) == 2 else eff.p1
             for support, angle in plan.steps]
    tested = [i for i, p in enumerate(rates) if p > 0]
    probs = np.array([rates[i] for i in tested])
    # a shot's uniforms after its tests: per qubit, that of its measurement,
    # then that of its readout test when p_meas > 0
    stride = 2 if eff.p_meas > 0 else 1
    streams = _Streams(seed, shots)
    records: list[ShotRecord | None] = []
    held = []   # (shot, frame, readout uniforms) of shots read after the loop
    for shot in range(shots):
        rng = streams.at(shot)
        fired = rng.random(len(tested)) < probs
        frame = 0
        if fired.any():
            first = int(fired.argmax())
            rng = streams.at(shot)
            rng.random(first)
            for i in tested[first:]:
                if rng.random() < rates[i]:
                    rs = plan.responses[i]
                    frame ^= rs[int(rng.integers(1, len(rs) + 1)) - 1]
        u = rng.random(stride * k).tolist()
        if frame >> k:
            held.append((shot, frame, u))
            records.append(None)
        else:
            records.append(_read_qubits(plan.noiseless, frame, u, stride,
                                        eff.p_meas))
    if held:
        for rows, state in plan.model.states([f >> k for _, f, _ in held]):
            for row, p in zip(rows, state.probabilities()):
                shot, frame, u = held[row]
                records[shot] = _read_qubits(_marginal_masses(p, k), frame,
                                             u, stride, eff.p_meas)
    return records


def _read_qubits(masses: list[list[float]], frame: int, u: list[float],
                 stride: int, p_meas: float) -> ShotRecord:
    """An unencoded shot's record from the _marginal_masses of its frame's
    state, its frame (bit q an X flip on qubit q) and its readout uniforms
    `u`, `stride` per qubit."""
    x, norm, bits = 0, 1.0, []   # x: the outcomes before the X flips
    logical = 0
    for q, mass in enumerate(masses):
        f = frame >> q & 1
        p1 = mass[x | (f ^ 1) << q] / norm
        v = 1 if u[stride * q] < p1 else 0
        norm *= p1 if v else 1.0 - p1
        x |= (v ^ f) << q
        if stride == 2 and u[2 * q + 1] < p_meas:
            v ^= 1
        bits.append(v)
        logical |= v << q
    return ShotRecord(tuple(bits), (), True, logical)


def _marginal_masses(probs: np.ndarray, k: int) -> list[list[float]]:
    """masses[q][x]: the mass of the basis states whose qubits 0..q read x
    (bit i of x is qubit i), from the probabilities of the 2^k basis
    states, summed over the higher qubits first."""
    masses = []
    for _ in range(k):
        masses.append(probs.tolist())
        m0, m1 = probs.reshape(2, -1)       # split on the highest qubit
        probs = m0 + m1
    return masses[::-1]


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
