"""Print one folded sha256 per compile mode over a fixed set of instances.

    python3 tools/encoded_digest.py

Run from the repository root; the program is imported from ``src/``.  The
instances are those of acceptance criterion 4 (3-regular and Erdos-Renyi
d=0.2 at k=14...34, and Erdos-Renyi k=22 at d=0.1...0.8, seeds 0-9) and
those the ``compile`` benchmark workload compiles at seeds 0, 1000 and 2000
(3-regular k=22 and 34, Erdos-Renyi k=22 d=0.8), each once.  Every mode of
``bench.MODES`` compiles each of them at p=10, s=3 and queue cap 200, and
its digest folds, compile by compile, the ``write_encoded`` text and the
``meta`` entries, timing keys (``*_seconds``) left out.  Two checkouts
that print the same digests compile the same circuits, checks, decode maps
and metadata, so a change meant to keep every output can be checked by
running this in both.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Iterable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from icecomp.bench import MODES, compile_mode  # noqa: E402
from icecomp.compiler import write_encoded  # noqa: E402
from icecomp.maxcut import (GraphKind, ProblemGraph,  # noqa: E402
                            generate_instance, ramp_params)

P, S, QUEUE_CAP = 10, 3, 200
_SIZES = (14, 18, 22, 26, 30, 34)


def instances() -> list[tuple[GraphKind, int, float | None, int]]:
    """(family, k, density, seed) of every instance, each once, in a fixed
    order."""
    keys = [(GraphKind.REGULAR_3, k, None, seed)
            for k in _SIZES for seed in range(10)]
    keys += [(GraphKind.ERDOS_RENYI, k, 0.2, seed)
             for k in _SIZES for seed in range(10)]
    keys += [(GraphKind.ERDOS_RENYI, 22, d, seed)
             for d in (0.1, 0.2, 0.4, 0.6, 0.8) for seed in range(10)]
    keys += [(kind, k, d, seed) for seed in (0, 1000, 2000)
             for kind, k, d in ((GraphKind.REGULAR_3, 22, None),
                                (GraphKind.REGULAR_3, 34, None),
                                (GraphKind.ERDOS_RENYI, 22, 0.8))]
    return list(dict.fromkeys(keys))


def digest(graphs: Iterable[ProblemGraph], mode: str) -> str:
    """sha256 over `mode`'s compile of each graph at p=P, s=S, QUEUE_CAP:
    its write_encoded text, then its meta entries (timing keys left out)
    sorted by key, as repr."""
    params = ramp_params(P)
    h = hashlib.sha256()
    for g in graphs:
        enc = compile_mode(g, params, mode, S, QUEUE_CAP)
        h.update(write_encoded(enc).encode())
        h.update(repr(sorted((k, v) for k, v in enc.meta.items()
                             if not k.endswith("_seconds"))).encode())
    return h.hexdigest()


def main() -> int:
    graphs = [generate_instance(kind, k, density=d, seed=seed)
              for kind, k, d, seed in instances()]
    print(f"{len(graphs)} instances, p={P}, s={S}, queue cap {QUEUE_CAP}")
    for mode in MODES:
        print(f"{mode:12s} {digest(graphs, mode)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
