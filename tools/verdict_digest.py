"""Print two folded sha256 digests of the single-fault verdicts.

    python3 tools/verdict_digest.py

Run from the repository root; the program is imported from ``src/``.  The
first digest folds the ``check_gadget_ft`` summary (total, class counts in
their order, escapes) of every gadget kind at k=4, 6, 10 and 22 where the
kind is defined, in its default implicit order and in ``ORDERS`` fixed
random ones.  The second folds every ``fault_reports`` report of the
circuits of acceptance criterion 7 (3-regular k=10, seed 0, p=3, s=1 and
2, queue cap 200), compiled in every mode of ``bench.MODES`` and judged in
the "outcomes" context: its gate, its fault (Pauli masks or flipped clbit),
its class, its terminal masks, its flipped clbits and its flipped
rotations.  Two checkouts that print the same digests give the same
verdicts, so a change meant to keep every verdict can be checked by running
this in both.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path
from typing import Iterable, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from icecomp.bench import MODES, compile_mode  # noqa: E402
from icecomp.circuit import PhysicalCircuit  # noqa: E402
from icecomp.faults import (FaultReport, VerifyContext,  # noqa: E402
                            check_gadget_ft, fault_reports)
from icecomp.gadgets import GadgetError, GadgetKind, build_gadget  # noqa: E402
from icecomp.maxcut import (GraphKind, generate_instance,  # noqa: E402
                            ramp_params)

SIZES = (4, 6, 10, 22)
ORDERS = 3      # random implicit orders per kind and k
K, P, QUEUE_CAP = 10, 3, 200


def gadget_cases() -> list[tuple[GadgetKind, int, tuple[int, ...] | None]]:
    """(kind, k, implicit order or None) of every certified gadget: each
    kind at each size where it is defined, in its default order and then
    in ORDERS orders drawn from a generator seeded by kind and k."""
    cases = []
    for kind in GadgetKind:
        for k in SIZES:
            try:
                build_gadget(kind, k)
            except GadgetError:
                continue
            rng = random.Random(f"{kind.value}/{k}")
            cases.append((kind, k, None))
            cases += [(kind, k, tuple(rng.sample(range(k + 2), k + 2)))
                      for _ in range(ORDERS)]
    return cases


def _report(rep: FaultReport) -> tuple:
    loc = rep.location
    fault = loc.flip_bit if loc.pauli is None \
        else (loc.pauli.xmask, loc.pauli.zmask)
    return (loc.gate_index, fault, rep.classification.value,
            rep.terminal.xmask, rep.terminal.zmask,
            sorted(rep.flipped_bits), sorted(rep.flipped_rotations))


def digest(cases: Iterable[tuple[GadgetKind, int,
                                 Sequence[int] | None]]) -> str:
    """sha256 over the check_gadget_ft summary of each case's gadget, as
    repr: the case, the total, the (class, count) pairs in their order and
    each escape's report."""
    h = hashlib.sha256()
    for kind, k, order in cases:
        summary = check_gadget_ft(build_gadget(kind, k, order))
        h.update(repr((kind.value, k, order, summary.total,
                       [(c.value, n) for c, n in summary.counts.items()],
                       [_report(r) for r in summary.escapes])).encode())
    return h.hexdigest()


def report_digest(circuits: Iterable[tuple[PhysicalCircuit,
                                           VerifyContext]]) -> str:
    """sha256 over every fault_reports report of each circuit in its
    context, one repr per report."""
    h = hashlib.sha256()
    for circuit, ctx in circuits:
        for rep in fault_reports(circuit, ctx):
            h.update(repr(_report(rep)).encode())
    return h.hexdigest()


def criterion_7() -> list[tuple[PhysicalCircuit, VerifyContext]]:
    """Criterion 7's circuits, s=1 then s=2, each in MODES order, each in
    the outcomes context."""
    graph = generate_instance(GraphKind.REGULAR_3, K, seed=0)
    out = []
    for s in (1, 2):
        for mode in MODES:
            enc = compile_mode(graph, ramp_params(P), mode, s, QUEUE_CAP)
            out.append((enc.circuit, VerifyContext(
                enc.layout, enc.checks, enc.decode, harmless="outcomes",
                trailing_checks=False)))
    return out


def main() -> int:
    cases = gadget_cases()
    print(f"gadgets   {len(cases)} cases  {digest(cases)}", flush=True)
    circuits = criterion_7()
    print(f"circuits  {len(circuits)} circuits  {report_digest(circuits)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
