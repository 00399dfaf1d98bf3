"""A signed stabilizer certificate for an Iceberg circuit's noiseless readout.

Every gate of a compiled circuit is a Clifford (CNOT, H, X, Z, a measurement
or a reset) or a Pauli rotation exp(-i theta P).  Pushed through the
Cliffords after it to the start of the trailing measurement block, rotation
j becomes exp(-i theta_j Q_j) for a signed Pauli Q_j (Litinski, Quantum 3,
128, 2019), and the rotations, in gate order, act there on the state psi_0
that the circuit with its rotations removed leaves.  `CliffordRun` holds
what the circuit alone gives; `CliffordRun.certify` shows, when it can, that
the noiseless outcomes are those of the k-qubit logical model (RZZ(u+1, v+1)
as Z_uZ_v, RXX on an anchor and q as X_{q-1}) read out through an affine map:

  (i)   the circuit without its rotations runs on a CHP tableau (Aaronson &
        Gottesman, PRA 70, 052328, 2004) from |0...0>, and every measurement
        and reset before the trailing block is deterministic; its value is
        kept, and G is the tableau's stabilizer group of psi_0;
  (ii)  one signed backward pass (faults._Sweep's rules with a phase) gives
        every Q_j with no marker left: a mid-circuit measurement is deferred
        to a fresh qubit v that its qubit's Z value is copied to, so an X
        before it gains the marker X_v, and a reset swaps its qubit with a
        fresh v, whose Z stands for the sign (-1)^m of the kept value m.
        Every rule is a Clifford conjugation, so the phases are exact, and a
        Q_j with no X_v commutes with every deferred readout;
  (iii) O_i, decode parity i as an observable (Z_q for a clbit last measured
        in Z on q in the trailing block, X_q in X, and the kept value's sign
        for a clbit last written mid-circuit), and Xbar_i, an element of G
        that anticommutes with O_i alone (GF(2) elimination), exist for every
        logical i; F is the elements of G, sign included, that commute with
        every Q_j;
  (iv)  Q_j Xbar_q lies in F for every RXX on logical q, and Q_j O_u O_v for
        every RZZ on (u, v);
  (v)   measuring the trailing block on G gives exactly k+1 random outcomes,
        every check parity is constant on w0 + span (w0 the word with every
        random outcome 0, span spanned by the directions they flip), and the
        directions' decode parities have rank k.

Why this suffices.  By (iv), Q_j = f_j L_j with f_j in F and L_j = Xbar_q or
O_u O_v.  f_j commutes with every rotation and fixes psi_0, so it fixes the
state each rotation meets, and there exp(-i theta Q_j) acts as
exp(-i theta L_j).  The Xbar_i commute (G is abelian), the O_i commute (one
Pauli per measured qubit), and Xbar_i anticommutes with O_j iff i = j, so
they are the X and Z of k qubits in whose frame psi_0 is |+>^k, as each
Xbar_i fixes it: the decoded logicals have the model's distribution P_L.
Each direction flips the outcomes as some element of G does, and an element
of G shifts an outcome word by its direction; the Xbar_i lie in G and the
O_i are diagonal in the readout, so every word lies in w0 + span.  The
directions' combination r with no decode parity is the flip of an h in G
that commutes with every Xbar_i and O_i, so h fixes the final state and
makes word w as likely as w XOR r.  So each logical x has exactly two words,
each with probability P_L(x)/2, and every check parity keeps its value.

Nothing here reads an angle, so the same holds for the circuit with any of
its rotations negated, with P'_L, the model's distribution under those
signs, in place of P_L.  That is what lets the sampler decide a noisy shot
from its Pauli frame (the simulator module: Encoded shots), which gives the
outcomes of the noiseless circuit with the frame's rotations negated and
its clbits flipped.  Rotation by rotation: by (ii), a rotation generator,
taken as a fault right after its gate, carries no marker, so it flips no
mid-circuit clbit; by (iv) it is f_j L_j, with f_j in F and L_j either
Xbar_q, an element of G, or O_u O_v, a product of decode observables,
which is diagonal in the readout; so by (v) it moves an outcome word only
within w0 + span, where every check is constant.  A shot's check values
are thus its noiseless ones XOR the parities of its frame's clbit flips.

Paulis are i^e X^x Z^z (the X factors first), with e mod 4 and x, z bit
masks; the product of two is i^(e1+e2) (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .circuit import Gate, GateKind
from .faults import _bits, _mask
from .gadgets import ParityCheck

Pauli = tuple[int, int, int]      # (e, x, z): i^e X^x Z^z


def _mul(a: Pauli, b: Pauli) -> Pauli:
    return ((a[0] + b[0] + 2 * (a[2] & b[1]).bit_count()) & 3,
            a[1] ^ b[1], a[2] ^ b[2])


def _units(vectors: Sequence[int], width: int) -> list[int] | None:
    """Per bit i < width, a mask of the indices of `vectors` whose XOR is
    1 << i; None unless the vectors span all `width` bits.  Gauss-Jordan:
    each pivot's vector holds its own pivot bit and no other."""
    pivots: dict[int, tuple[int, int]] = {}
    for idx, v in enumerate(vectors):
        combo = 1 << idx
        for b, (pv, pc) in pivots.items():
            if v >> b & 1:
                v, combo = v ^ pv, combo ^ pc
        if v:
            b = v.bit_length() - 1
            for b2, (pv, pc) in pivots.items():
                if pv >> b & 1:
                    pivots[b2] = (pv ^ v, pc ^ combo)
            pivots[b] = (v, combo)
    if len(pivots) != width:
        return None
    return [pivots[i][1] for i in range(width)]


class _Tableau:
    """A CHP tableau of n qubits held by column: row r < n is destabilizer
    r and row n + r stabilizer r, each a Pauli i^e X^x Z^z; x[q] and z[q]
    are the masks of the rows whose x and z bits on q are set, and e0, e1
    the bit planes of e.  Destabilizer phases are never read."""

    def __init__(self, n: int):
        self.n = n
        self.x = [1 << q for q in range(n)]         # destabilizer q: X_q
        self.z = [1 << n + q for q in range(n)]     # stabilizer q: Z_q
        self.e0 = self.e1 = 0
        self.destab = (1 << n) - 1
        self.stab = self.destab << n

    def copy(self) -> "_Tableau":
        out = _Tableau.__new__(_Tableau)
        out.__dict__.update(self.__dict__)
        out.x, out.z = list(self.x), list(self.z)
        return out

    # conjugation by a gate; a CNOT maps X^x Z^z to X^x' Z^z' with no phase

    def h(self, q: int) -> None:
        self.e1 ^= self.x[q] & self.z[q]
        self.x[q], self.z[q] = self.z[q], self.x[q]

    def cx(self, c: int, t: int) -> None:
        self.x[t] ^= self.x[c]
        self.z[c] ^= self.z[t]

    def pauli_x(self, q: int) -> None:
        self.e1 ^= self.z[q]

    def pauli_z(self, q: int) -> None:
        self.e1 ^= self.x[q]

    def anticommuting(self, x: int, z: int) -> int:
        """The mask of the rows that anticommute with X^x Z^z."""
        out = 0
        for q in _bits(x):
            out ^= self.z[q]
        for q in _bits(z):
            out ^= self.x[q]
        return out

    def product(self, rows: int) -> Pauli:
        """The product of the rows of the mask `rows`, in row order: its
        phase counts, per qubit, the pairs of a z bit before an x bit."""
        e = (self.e0 & rows).bit_count() + 2 * (self.e1 & rows).bit_count()
        x = z = 0
        for q in range(self.n):
            xq, zq = self.x[q] & rows, self.z[q] & rows
            x |= (xq.bit_count() & 1) << q
            z |= (zq.bit_count() & 1) << q
            if xq and zq:
                odd = zq << 1       # rows with an odd count of zq bits before
                s = 1
                while s < 2 * self.n:
                    odd ^= odd << s
                    s <<= 1
                e += 2 * (odd & xq).bit_count()
        return e & 3, x, z

    def _row(self, r: int) -> Pauli:
        x = z = 0
        for q in range(self.n):
            x |= (self.x[q] >> r & 1) << q
            z |= (self.z[q] >> r & 1) << q
        return (self.e0 >> r & 1) | (self.e1 >> r & 1) << 1, x, z

    def _set_row(self, r: int, p: Pauli) -> None:
        clear = ~(1 << r)
        for q in range(self.n):
            self.x[q] = self.x[q] & clear | (p[1] >> q & 1) << r
            self.z[q] = self.z[q] & clear | (p[2] >> q & 1) << r
        self.e0 = self.e0 & clear | (p[0] & 1) << r
        self.e1 = self.e1 & clear | (p[0] >> 1 & 1) << r

    def measure(self, q: int) -> tuple[int, int]:
        """Measure Z_q: (outcome, 0) when it is deterministic, else (0, the
        x mask of the stabilizer it replaces), the random outcome set to 0.
        That stabilizer maps the state of one outcome to the other's, so
        its x mask is the outcomes that a flip of this one flips."""
        random = self.x[q] & self.stab
        if not random:
            return self.product((self.x[q] & self.destab) << self.n)[0] >> 1, 0
        p = (random & -random).bit_length() - 1
        row = self._row(p)
        others = self.x[q] & ~(1 << p)
        # every other row with an x bit on q becomes itself times row p
        odd = 0
        for j in _bits(row[1]):
            odd ^= self.z[j]
        for j in _bits(row[1]):
            self.x[j] ^= others
        for j in _bits(row[2]):
            self.z[j] ^= others
        self.e1 ^= odd & others
        if row[0] & 1:
            self.e1 ^= self.e0 & others
            self.e0 ^= others
        if row[0] & 2:
            self.e1 ^= others
        self._set_row(p - self.n, row)
        self._set_row(p, (0, 0, 1 << q))
        return 0, row[1]


class CliffordRun:
    """What a circuit alone gives the certificate (module docstring): parts
    (i) and (ii), and the trailing block measured on G.  `stop` is where
    the trailing block of measurements and barriers begins.  `ok` is False
    when (i) or (ii) fails; otherwise `tableau` holds G, `generators` each
    rotation's Q_j by gate index, `kept` the value of each clbit last
    written before `stop`, `readout` each trailing clbit's qubit (its last
    write) and `xbasis` the mask of the qubits read out in X; `w0` and
    `directions` are the trailing block's outcome word with its random
    outcomes 0 and the clbit masks they flip."""

    def __init__(self, gates: Sequence[Gate], num_qubits: int, stop: int):
        self.n = num_qubits
        self.ok = False
        values = self._run(gates, stop)
        if values is None:
            return
        self.generators = self._generators(gates, stop, values)
        if self.generators is None:
            return
        self.kept = {gates[gi].clbit: m for gi, m in values.items()
                     if gates[gi].kind.measurement}
        self.readout, self.xbasis = {}, 0
        for g in gates[stop:]:
            if g.kind.measurement:
                self.readout[g.clbit] = g.qubits[0]
                self.kept.pop(g.clbit, None)
                if g.kind is GateKind.MEASURE_X:
                    self.xbasis ^= 1 << g.qubits[0]
        self.w0 = sum(m << c for c, m in self.kept.items())
        self.directions = []
        tail = self.tableau.copy()
        for q in _bits(self.xbasis):
            tail.h(q)
        for c, q in self.readout.items():
            m, flipped = tail.measure(q)
            self.w0 |= m << c
            if flipped:
                self.directions.append(sum(
                    1 << c2 for c2, q2 in self.readout.items()
                    if flipped >> q2 & 1))
        # per qubit, the masks of the rotations whose Q_j has an x (z) bit
        # on it: a Pauli commutes with every Q_j iff its columns cancel
        self.qx, self.qz = [0] * self.n, [0] * self.n
        for j, (_, x, z) in enumerate(self.generators.values()):
            for q in _bits(x):
                self.qx[q] |= 1 << j
            for q in _bits(z):
                self.qz[q] |= 1 << j
        self.ok = True

    def _run(self, gates: Sequence[Gate], stop: int) -> dict[int, int] | None:
        """Part (i): the tableau at `stop` (self.tableau) and the kept value
        of every measurement and reset before it, by gate index; None if
        one is random."""
        t = self.tableau = _Tableau(self.n)
        values = {}
        for gi in range(stop):
            g = gates[gi]
            kind = g.kind
            if kind is GateKind.CNOT:
                t.cx(*g.qubits)
            elif kind is GateKind.H or kind is GateKind.MEASURE_X:
                t.h(g.qubits[0])      # an X measurement is H, then Z's
            elif kind is GateKind.X:
                t.pauli_x(g.qubits[0])
            elif kind is GateKind.Z:
                t.pauli_z(g.qubits[0])
            if kind.measurement or kind is GateKind.RESET:
                m, random = t.measure(g.qubits[0])
                if random:
                    return None
                values[gi] = m
                if m and kind is GateKind.RESET:
                    t.pauli_x(g.qubits[0])
        return values

    def _generators(self, gates: Sequence[Gate], stop: int,
                    values: Mapping[int, int]) -> dict[int, Pauli] | None:
        """Part (ii): per rotation before `stop`, by gate index, its
        generator Q_j at `stop`; None if one keeps a marker.  Walking back
        from `stop`, ix[q] and iz[q] are the images there of X_q and Z_q
        inserted at the current point, on the n qubits and one fresh qubit
        v per measurement and reset met so far (bits n.. of x and z)."""
        n = self.n
        ix = [(0, 1 << q, 0) for q in range(n)]
        iz = [(0, 0, 1 << q) for q in range(n)]
        v, ones = n, 0    # the next fresh qubit; resets' fresh qubits, m = 1
        gens = {}
        for gi in range(stop - 1, -1, -1):
            g = gates[gi]
            kind = g.kind
            if kind is GateKind.CNOT:
                c, t = g.qubits
                ix[c] = _mul(ix[c], ix[t])
                iz[t] = _mul(iz[c], iz[t])
            elif kind.rotation:
                a, b = g.qubits
                img = iz if kind is GateKind.RZZ else ix
                gens[gi] = _mul(img[a], img[b])
            elif kind is GateKind.H:
                q = g.qubits[0]
                ix[q], iz[q] = iz[q], ix[q]
            elif kind is GateKind.X:
                e, x, z = iz[g.qubits[0]]
                iz[g.qubits[0]] = (e ^ 2, x, z)
            elif kind is GateKind.Z:
                e, x, z = ix[g.qubits[0]]
                ix[g.qubits[0]] = (e ^ 2, x, z)
            elif kind.measurement:
                # a measurement is CNOT(q, v): X_q gains X_v, Z_q passes
                q = g.qubits[0]
                e, x, z = ix[q]
                ix[q] = (e, x ^ 1 << v, z)
                if kind is GateKind.MEASURE_X:
                    ix[q], iz[q] = iz[q], ix[q]
                v += 1
            elif kind is GateKind.RESET:
                q = g.qubits[0]
                ix[q], iz[q] = (0, 1 << v, 0), (0, 0, 1 << v)
                ones |= values[gi] << v
                v += 1
        qubits = (1 << n) - 1
        for gi, (e, x, z) in gens.items():
            if x >> n:
                return None
            gens[gi] = (e + 2 * (z & ones).bit_count() & 3, x, z & qubits)
        return gens

    def _in_f(self, p: Pauli) -> bool:
        """Whether `p` lies in F: it commutes with every Q_j, and with every
        stabilizer, and it is the product of the generators whose
        destabilizers it anticommutes with, sign included."""
        t, out = self.tableau, 0
        for q in _bits(p[1]):
            out ^= self.qz[q]
        for q in _bits(p[2]):
            out ^= self.qx[q]
        rows = t.anticommuting(p[1], p[2])
        return not out and not rows & t.stab and \
            t.product((rows & t.destab) << self.n) == (p[0] & 3, p[1], p[2])

    def certify(self, ops: Sequence[tuple[int, tuple[int, ...], float]],
                decode: Mapping[int, frozenset[int]],
                checks: Sequence[ParityCheck]) -> tuple[int, list[int]] | None:
        """Parts (iii) to (v) for the logical model's `ops` ((gate index,
        logical qubits, angle) per rotation, logical q read by decode[q+1])
        under `decode` and `checks`: (w0, directions), or None."""
        if not self.ok:
            return None
        k, n, t = len(decode), self.n, self.tableau
        obs = []
        for i in range(1, k + 1):
            e = x = z = 0
            for c in decode[i]:
                q = self.readout.get(c)
                if q is None:
                    e ^= 2 * self.kept.get(c, 0)
                elif self.xbasis >> q & 1:
                    x ^= 1 << q
                else:
                    z ^= 1 << q
            obs.append((e, x, z))
        anti = [t.anticommuting(x, z) >> n for _, x, z in obs]
        combos = _units([sum((a >> r & 1) << i for i, a in enumerate(anti))
                         for r in range(n)], k)
        if combos is None:
            return None
        xbar = [t.product(combo << n) for combo in combos]
        shown = set()
        for gi, qubits, _ in ops:
            if len(qubits) == 2:
                f = _mul(self.generators[gi], _mul(obs[qubits[0]],
                                                   obs[qubits[1]]))
            else:
                f = _mul(self.generators[gi], xbar[qubits[0]])
            if f not in shown:
                if not self._in_f(f):
                    return None
                shown.add(f)
        dirs = self.directions
        masks = [_mask(c.bits) for c in checks]
        if len(dirs) != k + 1 or any((m & d).bit_count() & 1
                                     for m in masks for d in dirs):
            return None
        masks = [_mask(decode[i]) for i in range(1, k + 1)]
        if _units([sum(((m & d).bit_count() & 1) << i
                       for i, m in enumerate(masks)) for d in dirs],
                  k) is None:
            return None
        return self.w0, list(dirs)
