"""`icecomp.matching.max_weight_matching` returns exactly networkx's
matching: on every call of six paper-scale compiles, on a seeded random
set of tie-heavy graphs, and on networkx's own blossom cases."""

import random
import sys
from collections import Counter

import networkx as nx
import pytest

from icecomp import bench, compiler, matching
from icecomp.maxcut import GraphKind, generate_instance, ramp_params
from icecomp.matching import max_weight_matching


def _pairs(match):
    return {frozenset(e) for e in match}


def reference(edges):
    """networkx's matching of the graph built in the same insertion order."""
    g = nx.Graph()
    for a, b, w in edges:
        g.add_edge(a, b, weight=w)
    return _pairs(nx.max_weight_matching(g, maxcardinality=False))


class _Counts:
    """Counts the matcher's blossom events by watching its calls:
    `add_blossom` creations, and `expand_blossom` calls at the end of a
    stage (S-blossoms with zero dual, recursively) and within a stage
    (a T-blossom whose dual reached zero)."""

    def __init__(self):
        self.counts = Counter()

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename == matching.__file__:
            if code.co_name == "add_blossom":
                self.counts["created"] += 1
            elif code.co_name == "expand_blossom":
                self.counts["end_stage" if frame.f_locals["endstage"]
                            else "mid_stage"] += 1
        return None

    def __enter__(self):
        self._old = sys.gettrace()
        sys.settrace(self._trace)
        return self.counts

    def __exit__(self, *exc):
        sys.settrace(self._old)


def _tie_heavy(rng, n, kind):
    """A random graph on n vertices with float weights of one of three
    tie-heavy kinds: vertex-additive (as the co-compiler's), small
    integers, or halves.  Vertices are relabelled and edges shuffled, so
    insertion order and first appearance vary."""
    p = rng.choice((0.15, 0.3, 0.5, 0.8, 1.0))
    vw = [rng.randint(1, 4) for _ in range(n)]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                if kind == "additive":
                    w = float(vw[a] + vw[b])
                elif kind == "ints":
                    w = float(rng.randint(1, 5))
                else:
                    w = rng.randint(1, 8) / 2
                edges.append((a, b, w))
    rng.shuffle(edges)
    label = rng.sample(range(3 * n), n)
    return [(label[a], label[b], w) for a, b, w in edges]


def test_random_tie_heavy_graphs_match_networkx():
    rng = random.Random(20250430)
    graphs = [_tie_heavy(rng, rng.randint(2, 36),
                         ("additive", "ints", "halves")[i % 3])
              for i in range(1200)]
    with _Counts() as counts:
        results = [max_weight_matching(edges) for edges in graphs]
    assert [edges for edges, out in zip(graphs, results)
            if _pairs(out) != reference(edges)] == []
    # the set drives every branch of the blossom bookkeeping (7,230
    # creations, 3,094 end-of-stage and 123 mid-stage expansions)
    assert counts["created"] >= 1000
    assert counts["end_stage"] >= 300
    assert counts["mid_stage"] >= 20


@pytest.mark.parametrize("kind, k, density", [
    (GraphKind.REGULAR_3, 22, None),
    (GraphKind.REGULAR_3, 34, None),
    (GraphKind.ERDOS_RENYI, 22, 0.8),
])
def test_every_compile_matching_matches_networkx(monkeypatch, kind, k,
                                                 density):
    calls = []

    def recorded(edges):
        edges = list(edges)
        out = max_weight_matching(edges)
        calls.append((edges, out))
        return out

    monkeypatch.setattr(compiler, "max_weight_matching", recorded)
    g = generate_instance(kind, k, density=density, seed=0)
    for mode in ("resynth", "resynth+z2"):
        bench.compile_mode(g, ramp_params(10), mode, 3, 200)
    assert len(calls) > 500
    bad = [edges for edges, out in calls if _pairs(out) != reference(edges)]
    assert bad == []


# networkx's own positive-weight, maxcardinality=False cases
# (networkx/algorithms/tests/test_matching.py), with float weights
NETWORKX_CASES = {
    "s_blossom": ([(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7)],
                  {(1, 2), (3, 4)}),
    "s_blossom_augment": ([(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7),
                           (1, 6, 5), (4, 5, 6)],
                          {(1, 6), (2, 3), (4, 5)}),
    "s_t_blossom": ([(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 4),
                     (1, 6, 3)],
                    {(1, 6), (2, 3), (4, 5)}),
    "s_t_blossom_reweighted": ([(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5),
                                (4, 5, 3), (1, 6, 4)],
                               {(1, 6), (2, 3), (4, 5)}),
    "s_t_blossom_moved": ([(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5),
                           (4, 5, 3), (3, 6, 4)],
                          {(1, 2), (3, 6), (4, 5)}),
    "nested_s_blossom": ([(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8),
                          (3, 5, 8), (4, 5, 10), (5, 6, 6)],
                         {(1, 3), (2, 4), (5, 6)}),
    "nested_s_blossom_relabel": ([(1, 2, 10), (1, 7, 10), (2, 3, 12),
                                  (3, 4, 20), (3, 5, 20), (4, 5, 25),
                                  (5, 6, 10), (6, 7, 10), (7, 8, 8)],
                                 {(1, 2), (3, 4), (5, 6), (7, 8)}),
    "nested_s_blossom_expand": ([(1, 2, 8), (1, 3, 8), (2, 3, 10),
                                 (2, 4, 12), (3, 5, 12), (4, 5, 14),
                                 (4, 6, 12), (5, 7, 12), (6, 7, 14),
                                 (7, 8, 12)],
                                {(1, 2), (3, 5), (4, 6), (7, 8)}),
    "s_blossom_relabel_expand": ([(1, 2, 23), (1, 5, 22), (1, 6, 15),
                                  (2, 3, 25), (3, 4, 22), (4, 5, 25),
                                  (4, 8, 14), (5, 7, 13)],
                                 {(1, 6), (2, 3), (4, 8), (5, 7)}),
    "nested_s_blossom_relabel_expand": ([(1, 2, 19), (1, 3, 20), (1, 8, 8),
                                         (2, 3, 25), (2, 4, 18), (3, 5, 18),
                                         (4, 5, 13), (4, 7, 7), (5, 6, 7)],
                                        {(1, 8), (2, 3), (4, 7), (5, 6)}),
    "nasty_blossom1": ([(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45),
                        (4, 5, 50), (1, 6, 30), (3, 9, 35), (4, 8, 35),
                        (5, 7, 26), (9, 10, 5)],
                       {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)}),
    "nasty_blossom2": ([(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45),
                        (4, 5, 50), (1, 6, 30), (3, 9, 35), (4, 8, 26),
                        (5, 7, 40), (9, 10, 5)],
                       {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)}),
    "nasty_blossom_least_slack": ([(1, 2, 45), (1, 5, 45), (2, 3, 50),
                                   (3, 4, 45), (4, 5, 50), (1, 6, 30),
                                   (3, 9, 35), (4, 8, 28), (5, 7, 26),
                                   (9, 10, 5)],
                                  {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)}),
    "nasty_blossom_augmenting": ([(1, 2, 45), (1, 7, 45), (2, 3, 50),
                                  (3, 4, 45), (4, 5, 95), (4, 6, 94),
                                  (5, 6, 94), (6, 7, 50), (1, 8, 30),
                                  (3, 11, 35), (5, 9, 36), (7, 10, 26),
                                  (11, 12, 5)],
                                 {(1, 8), (2, 3), (4, 6), (5, 9), (7, 10),
                                  (11, 12)}),
    "nasty_blossom_expand_recursively": ([(1, 2, 40), (1, 3, 40), (2, 3, 60),
                                          (2, 4, 55), (3, 5, 55), (4, 5, 50),
                                          (1, 8, 15), (5, 7, 30), (7, 6, 10),
                                          (8, 10, 10), (4, 9, 30)],
                                         {(1, 2), (3, 5), (4, 9), (6, 7),
                                          (8, 10)}),
    "path": ([(1, 2, 5), (2, 3, 11), (3, 4, 5)], {(2, 3)}),
    "square": ([(1, 4, 2), (2, 3, 2), (1, 2, 1), (3, 4, 4)],
               {(1, 2), (3, 4)}),
}


@pytest.mark.parametrize("name", sorted(NETWORKX_CASES))
def test_networkx_cases(name):
    edges, answer = NETWORKX_CASES[name]
    edges = [(a, b, float(w)) for a, b, w in edges]
    assert _pairs(max_weight_matching(edges)) == _pairs(answer)
    assert _pairs(max_weight_matching(edges)) == reference(edges)


def test_int_and_float_weights_give_one_matching():
    # a blossom that is relabelled T and expanded, with ties between
    # vertex-additive weights; the matcher has no integer path
    edges = NETWORKX_CASES["nasty_blossom_augmenting"][0] + [
        (2, 8, 40), (6, 9, 50), (10, 12, 31)]
    as_float = [(a, b, float(w)) for a, b, w in edges]
    assert max_weight_matching(edges) == max_weight_matching(as_float)
    assert _pairs(max_weight_matching(edges)) == reference(as_float)


def test_empty_and_single_edge():
    assert max_weight_matching([]) == []
    assert max_weight_matching([(7, 3, 1.5)]) == [(7, 3)]


def _matching_graph(rng, size, extra):
    """`size` disjoint edges on relabelled vertices, each written either way
    round, shuffled, then `extra` more edges between their vertices at
    random places: a graph whose vertices all lie on one edge when `extra`
    is 0."""
    label = rng.sample(range(1000), 2 * size)
    edges = []
    for i in range(size):
        a, b = label[2 * i], label[2 * i + 1]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b, float(rng.randint(1, 6))))
    rng.shuffle(edges)
    pairs = {frozenset(e[:2]) for e in edges}
    while extra:
        a, b = rng.sample(label, 2)
        if frozenset((a, b)) not in pairs:
            pairs.add(frozenset((a, b)))
            edges.insert(rng.randrange(len(edges) + 1),
                         (a, b, rng.randint(1, 12) / 2))
            extra -= 1
    return edges


def test_perfect_matchings_are_their_own_optimum():
    # every vertex on one edge: the matcher returns the edges as given,
    # which is networkx's matching and the order the blossom gives the
    # same edges beside a triangle on new vertices (where it runs)
    rng = random.Random(36)
    for _ in range(300):
        edges = _matching_graph(rng, rng.randint(1, 20), 0)
        out = max_weight_matching(edges)
        assert out == [(a, b) for a, b, _ in edges]
        assert _pairs(out) == reference(edges)
        triangle = [(1001, 1002, 2.0), (1002, 1003, 3.0), (1001, 1003, 1.0)]
        blossom = max_weight_matching(edges + triangle)
        assert blossom == out + [(1002, 1003)]


def test_partial_matchings_match_networkx():
    # a matching with a few edges more between its vertices: some vertex is
    # on two edges, so the blossom runs
    rng = random.Random(3636)
    for _ in range(300):
        edges = _matching_graph(rng, rng.randint(2, 20), rng.randint(1, 4))
        assert _pairs(max_weight_matching(edges)) == reference(edges)
