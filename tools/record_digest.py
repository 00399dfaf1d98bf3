"""Print folded sha256 digests of the sampler's shot records and of the
dense noiseless distributions.

    python3 tools/record_digest.py

Run from the repository root; the program is imported from ``src/``.  The
first digest folds the ``sample_shots`` records of the circuits of
acceptance criterion 7 (3-regular k=10, seed 0, p=3, s=1 and 2, queue cap
200), compiled in every mode of ``bench.MODES`` and read out under their
checks and decode maps: ``SHOTS`` shots each, at noise scale 1.0 and
sampling seed ``SEED``.  The stabilizer certificate holds for each of
them, so these are records the Pauli frame decides.  The second folds the
``sample_logical_shots`` records of the same instance's unencoded circuit
(criterion 8's), ``SHOTS`` shots at the same noise and seed.  Each record
folds as the repr of its bits, check values, verdict and logical.  The
third folds the dense oracle on criterion 7's circuits: per circuit, with
no injected fault and then with one Pauli after every ``STRIDE``-th gate
before the trailing measurements (barriers skipped), the items of
``exact_bit_distribution`` and of ``exact_logical_distribution`` under the
circuit's checks and decode map, with its acceptance probability.  Two
checkouts that print the same digests sample the same records and compute
the same floats, so a change meant to keep them can be checked by running
this in both.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Iterable, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from icecomp.bench import MODES, compile_mode  # noqa: E402
from icecomp.circuit import GateKind  # noqa: E402
from icecomp.compiler import EncodedCircuit  # noqa: E402
from icecomp.faults import PauliString  # noqa: E402
from icecomp.maxcut import (GraphKind, build_qaoa,  # noqa: E402
                            generate_instance, ramp_params)
from icecomp.simulator import (NoiseModel, ShotRecord,  # noqa: E402
                               _trailing_start, exact_bit_distribution,
                               exact_logical_distribution,
                               sample_logical_shots, sample_shots)

K, P, QUEUE_CAP = 10, 3, 200
SHOTS, SEED = 1000, 0
NOISE = NoiseModel(scale=1.0)
STRIDE = 16     # dense_digest: gates between two injected faults


def digest(runs: Iterable[Sequence[ShotRecord]]) -> str:
    """sha256 over every record of each run, one repr per record: its
    bits, check values, accepted flag and logical."""
    h = hashlib.sha256()
    for records in runs:
        for r in records:
            h.update(repr((r.bits, r.check_values, r.accepted,
                           r.logical)).encode())
    return h.hexdigest()


def faults(enc: EncodedCircuit) -> list[tuple]:
    """The injections the dense digest folds for a circuit: none, then one
    Pauli on the last qubit of every STRIDE-th gate before the trailing
    measurements that is not a barrier, cycling through X, Y and Z."""
    gates = enc.circuit.gates
    sites = [gi for gi in range(_trailing_start(gates))
             if gates[gi].kind is not GateKind.BARRIER][::STRIDE]
    return [()] + [((gi, PauliString.from_ops(
        [(gates[gi].qubits[-1], "XYZ"[n % 3])])),)
        for n, gi in enumerate(sites)]


def dense_digest(encoded: Iterable[EncodedCircuit]) -> str:
    """sha256 over each circuit's `faults`, one repr per injection: the
    items of exact_bit_distribution, then exact_logical_distribution's
    acceptance and items under the circuit's checks and decode."""
    h = hashlib.sha256()
    for enc in encoded:
        for inject in faults(enc):
            bits = exact_bit_distribution(enc.circuit, inject)
            acc, logical = exact_logical_distribution(
                enc.circuit, enc.checks, enc.decode, inject)
            h.update(repr((list(bits.items()), acc,
                           list(logical.items()))).encode())
    return h.hexdigest()


def criterion_7() -> list[EncodedCircuit]:
    """Criterion 7's circuits, s=1 then s=2, each in MODES order."""
    graph = generate_instance(GraphKind.REGULAR_3, K, seed=0)
    return [compile_mode(graph, ramp_params(P), mode, s, QUEUE_CAP)
            for s in (1, 2) for mode in MODES]


def main() -> int:
    encoded = criterion_7()
    runs = (sample_shots(enc.circuit, NOISE, SHOTS, SEED, checks=enc.checks,
                         decode=enc.decode) for enc in encoded)
    print(f"encoded    {len(encoded)} circuits  {digest(runs)}", flush=True)
    lc = build_qaoa(generate_instance(GraphKind.REGULAR_3, K, seed=0),
                    ramp_params(P))
    print(f"unencoded  1 circuit  "
          f"{digest([sample_logical_shots(lc, NOISE, SHOTS, SEED)])}",
          flush=True)
    print(f"dense      {len(encoded)} circuits  {dense_digest(encoded)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
