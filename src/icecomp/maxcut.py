"""MaxCut instances, logical QAOA circuits, energies, and quality metrics.

Bitstrings are integers; bit i is the assignment of vertex i.  Energy is the
negative cut value, so lower energy means a better cut.  Outcome
distributions are mappings bitstring -> probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import networkx as nx
import numpy as np


class GraphKind(Enum):
    REGULAR_3 = "regular3"
    ERDOS_RENYI = "erdos_renyi"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ProblemGraph:
    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]   # (u, v, weight), u < v
    kind: GraphKind = GraphKind.CUSTOM
    seed: int | None = None

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError(f"negative vertex count {self.num_vertices}")
        seen = set()
        for u, v, w in self.edges:
            _check_edge(u, v, w, self.num_vertices, seen)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def unweighted(self) -> bool:
        return all(w == 1.0 for _, _, w in self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def _check_edge(u: int, v: int, w: float, num_vertices: int,
                seen: set[tuple[int, int]]) -> None:
    """Raise ValueError unless (u, v, w) is a valid new edge; record it in
    `seen`."""
    if not math.isfinite(w):
        raise ValueError(f"edge ({u},{v}) weight {w} is not finite")
    if u == v:
        raise ValueError(f"self-loop on vertex {u}")
    if not (0 <= u < num_vertices and 0 <= v < num_vertices):
        raise ValueError(f"edge ({u},{v}) out of range")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ValueError(f"duplicate edge {key}")
    seen.add(key)


def make_graph(num_vertices: int, edges: Iterable[tuple[int, int]],
               weights: Iterable[float] | None = None,
               kind: GraphKind = GraphKind.CUSTOM,
               seed: int | None = None) -> ProblemGraph:
    edges = list(edges)
    if weights is None:
        ws = [1.0] * len(edges)
    else:
        ws = [float(w) for w in weights]
        if len(ws) != len(edges):
            raise ValueError(f"{len(edges)} edges but {len(ws)} weights")
    norm = tuple(
        (min(u, v), max(u, v), w) for (u, v), w in zip(edges, ws)
    )
    return ProblemGraph(num_vertices, norm, kind=kind, seed=seed)


def generate_instance(kind: GraphKind, k: int, density: float | None = None,
                      seed: int = 0) -> ProblemGraph:
    """Deterministic instance generation (networkx with an explicit seed)."""
    if kind is GraphKind.REGULAR_3:
        if density is not None:
            raise ValueError(f"a 3-regular graph takes no density, got "
                             f"{density}")
        if k < 4 or k % 2 != 0:
            raise ValueError(f"3-regular graph needs an even k >= 4, got {k}")
        g = nx.random_regular_graph(3, k, seed=seed)
        return make_graph(k, g.edges(), kind=kind, seed=seed)
    if kind is GraphKind.ERDOS_RENYI:
        if density is None or not (0.0 <= density <= 1.0):
            raise ValueError(f"density must be in [0, 1], got {density}")
        g = nx.gnp_random_graph(k, density, seed=seed)
        return make_graph(k, g.edges(), kind=kind, seed=seed)
    raise ValueError("generate_instance handles REGULAR_3 and ERDOS_RENYI")


# ---------------------------------------------------------------------------
# Cut values and optima
# ---------------------------------------------------------------------------

def _as_int(bits) -> int:
    if isinstance(bits, (int, np.integer)):
        return int(bits)
    value = 0
    for i, b in enumerate(bits):
        if int(b):
            value |= 1 << i
    return value


def cut_value(graph: ProblemGraph, bits) -> float:
    x = _as_int(bits)
    total = 0.0
    for u, v, w in graph.edges:
        if ((x >> u) ^ (x >> v)) & 1:
            total += w
    return total if not graph.unweighted else int(total)


def energy(graph: ProblemGraph, bits) -> float:
    return -cut_value(graph, bits)


def hamiltonian_value(graph: ProblemGraph, bits) -> float:
    """<x|C|x> for C = sum of Z_i Z_j over edges: |E| - 2*cut."""
    total_w = sum(w for _, _, w in graph.edges)
    return total_w - 2.0 * cut_value(graph, bits)


def brute_force_optimum(graph: ProblemGraph) -> float:
    """Exhaustive maximum cut (vectorized; halves the space via bit-flip symmetry)."""
    k = graph.num_vertices
    if k > 30:
        raise ValueError("exhaustive optimum capped at 30 vertices")
    if k == 0 or not graph.edges:
        return 0
    n_half = 1 << max(k - 1, 0)
    best = 0.0
    chunk = 1 << 20
    for start in range(0, n_half, chunk):
        xs = np.arange(start, min(start + chunk, n_half), dtype=np.int64)
        cuts = np.zeros(len(xs), dtype=np.float64)
        for u, v, w in graph.edges:
            cuts += w * (((xs >> u) ^ (xs >> v)) & 1)
        m = float(cuts.max())
        if m > best:
            best = m
    return int(best) if graph.unweighted else best


def approximation_ratio(dist: Mapping[int, float], graph: ProblemGraph,
                        f_max: float | None = None) -> float:
    """Expected cut divided by the optimal cut."""
    if f_max is None:
        f_max = brute_force_optimum(graph)
    if f_max == 0:
        raise ValueError("graph has no positive cut")
    expect = sum(p * cut_value(graph, x) for x, p in dist.items())
    return expect / f_max


def success_probability(dist: Mapping[int, float], graph: ProblemGraph,
                        f_max: float | None = None) -> float:
    """Probability mass on optimal-cut bitstrings."""
    if f_max is None:
        f_max = brute_force_optimum(graph)
    return sum(p for x, p in dist.items() if cut_value(graph, x) == f_max)


# ---------------------------------------------------------------------------
# Logical QAOA circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QaoaParams:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise ValueError("gammas and betas must have equal length")
        if any(not math.isfinite(a) for a in self.gammas + self.betas):
            raise ValueError("angles must be finite")

    @property
    def p(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class PhaseGate:
    u: int
    v: int
    angle: float


@dataclass(frozen=True)
class MixerGate:
    qubit: int
    angle: float


@dataclass
class LogicalCircuit:
    """Alternating phase/mixer rotation layers on k logical qubits.

    Component 0 is the |+>^k preparation marker; components 1..2p alternate
    PHASE_LAYER / MIXER_LAYER.
    """

    k: int
    phase_layers: list[list[PhaseGate]] = field(default_factory=list)
    mixer_layers: list[list[MixerGate]] = field(default_factory=list)

    @property
    def p(self) -> int:
        return len(self.phase_layers)

    def rotation_count(self) -> tuple[int, int]:
        return (sum(len(l) for l in self.phase_layers),
                sum(len(l) for l in self.mixer_layers))


def build_qaoa(graph: ProblemGraph, params: QaoaParams) -> LogicalCircuit:
    lc = LogicalCircuit(k=graph.num_vertices)
    for gamma, beta in zip(params.gammas, params.betas):
        lc.phase_layers.append(
            [PhaseGate(u, v, gamma * w) for u, v, w in graph.edges]
        )
        lc.mixer_layers.append(
            [MixerGate(j, beta) for j in range(graph.num_vertices)]
        )
    return lc


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_graph(graph: ProblemGraph) -> str:
    lines = [f"graph {graph.num_vertices} {graph.num_edges}"]
    for u, v, w in graph.edges:
        if w == 1.0:
            lines.append(f"edge {u} {v}")
        else:
            lines.append(f"edge {u} {v} {w!r}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> ProblemGraph:
    """Parse a `graph k m` header and m `edge u v [w]` lines.

    A malformed line, a second header, an edge count other than m, or an
    edge that is out of range, a self-loop, repeated or of non-finite
    weight raises ValueError naming the line."""
    header: tuple[int, int, int] | None = None     # (line, k, m)
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "graph":
                if len(tok) != 3:
                    raise ValueError("the header is 'graph k m'")
                if header is not None:
                    raise ValueError("second 'graph' header")
                header = (lineno, int(tok[1]), int(tok[2]))
                if header[1] < 0:
                    raise ValueError("negative vertex count")
            elif tok[0] == "edge":
                if len(tok) not in (3, 4):
                    raise ValueError("an edge is 'edge u v [w]'")
                edges.append((int(tok[1]), int(tok[2])))
                weights.append(float(tok[3]) if len(tok) > 3 else 1.0)
                edge_lines.append(lineno)
            else:
                raise ValueError(f"unknown directive {tok[0]!r}")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    if header is None:
        raise ValueError("missing 'graph k m' header")
    lineno, k, m = header
    if m != len(edges):
        raise ValueError(f"line {lineno}: header declares {m} edges, "
                         f"the file has {len(edges)}")
    seen: set[tuple[int, int]] = set()
    for lineno, (u, v), w in zip(edge_lines, edges, weights):
        try:
            _check_edge(u, v, w, k, seen)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return make_graph(k, edges, weights)


def write_params(params: QaoaParams) -> str:
    g = ", ".join(repr(a) for a in params.gammas)
    b = ", ".join(repr(a) for a in params.betas)
    return f"p {params.p}\ngammas: [{g}]\nbetas: [{b}]\n"


def read_params(text: str) -> QaoaParams:
    """Parse `p N` (optional), `gammas: [...]` and `betas: [...]` lines.

    A malformed, unknown or repeated line raises ValueError naming the
    line; lists of unequal length name the later of the two."""
    vals: dict[str, tuple[int, object]] = {}     # name -> (line, value)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        name, colon, body = line.partition(":")
        name = name.strip()
        try:
            if tok[0] == "p" and len(tok) == 2:
                name, value = "p", int(tok[1])
            elif name in ("gammas", "betas") and colon:
                value = _parse_list(body)
            else:
                raise ValueError(f"expected 'p N', 'gammas: [...]' or "
                                 f"'betas: [...]', got {line!r}")
            if name in vals:
                raise ValueError(f"{name} set twice")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        vals[name] = (lineno, value)
    if "gammas" not in vals or "betas" not in vals:
        raise ValueError("params file needs 'gammas: [...]' and 'betas: [...]'")
    (g_line, gammas), (b_line, betas) = vals["gammas"], vals["betas"]
    try:
        params = QaoaParams(tuple(gammas), tuple(betas))
    except ValueError as e:
        raise ValueError(f"line {max(g_line, b_line)}: {e}") from None
    if "p" in vals and params.p != vals["p"][1]:
        raise ValueError(f"line {vals['p'][0]}: declared p={vals['p'][1]} "
                         f"but got {params.p} angles")
    return params


def _parse_list(body: str) -> list[float]:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected a [...] list, got {body!r}")
    inner = body[1:-1].strip()
    values = [float(x) for x in inner.split(",")] if inner else []
    if not all(math.isfinite(v) for v in values):
        raise ValueError("angles must be finite")
    return values


def ramp_params(p: int) -> QaoaParams:
    """Linear-ramp schedule used as the default fixed-angle input.

    With rotation angle theta meaning exp(-i*theta*P), MaxCut wants the
    phase angles ramping up from 0 and the mixer angles ramping to 0 from
    the negative side, both of magnitude up to 0.7."""
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    ts = [(t + 0.5) / p for t in range(p)]
    return QaoaParams(
        gammas=tuple(0.7 * t for t in ts),
        betas=tuple(-0.7 * (1.0 - t) for t in ts),
    )
