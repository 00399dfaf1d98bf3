import hashlib
import heapq
import itertools
import random
from dataclasses import replace

import pytest

from icecomp import compiler, gadgets
from icecomp.bench import compile_mode
from icecomp.circuit import (CircuitError, ComponentRole, GateKind,
                             two_qubit_depth)
from icecomp.compiler import (EXPANSION_WIDTH, CompileConfig, CompileError,
                              EncodedCircuit, ExecutableGraph, GadgetSet,
                              SearchNode, _build_task, _emit, _GateComp,
                              _is_done,
                              _matchings, _schedule_chunk,
                              build_executable_graph,
                              build_uncompiled_graph, compile_baseline,
                              compile_cooptimized, expand, heuristic_cost,
                              is_goal, predetermine_init_order, read_encoded,
                              source_node, syndrome_insertion_points,
                              write_encoded)
from icecomp.matching import max_weight_matching
from icecomp.maxcut import (GraphKind, ProblemGraph, QaoaParams, build_qaoa,
                            generate_instance, make_graph, ramp_params)
from icecomp.simulator import (exact_logical_distribution, total_variation,
                               unencoded_distribution)


def star6():
    return make_graph(6, [(i, 5) for i in range(5)])


class TestConfig:
    def test_new_syndrome_divisibility(self):
        g = generate_instance(GraphKind.REGULAR_3, 4, seed=0)
        cfg = CompileConfig(num_syndromes=1, gadget_set=GadgetSet.NEW)
        with pytest.raises(CompileError):
            compile_baseline(g, ramp_params(1), cfg)
        # no syndromes: fine
        compile_baseline(g, ramp_params(1), CompileConfig(
            num_syndromes=0, gadget_set=GadgetSet.NEW))

    def test_negative_queue_cap_rejected(self):
        g = generate_instance(GraphKind.REGULAR_3, 6, seed=0)
        with pytest.raises(CompileError, match="queue_cap"):
            compile_cooptimized(g, ramp_params(1), CompileConfig(
                num_syndromes=1, queue_cap=-5))

    @pytest.mark.parametrize("k, s", [(4, 0), (6, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_z2_takes_weighted_instances(self, k, s, seed):
        # X^k commutes with every Z_uZ_v whatever its weight and fixes
        # |+>^k, so a mixer anchored on the bottom qubit is exact on a
        # weighted instance too
        r3 = generate_instance(GraphKind.REGULAR_3, k, seed=seed)
        rng = random.Random(seed)
        g = make_graph(k, [(u, v) for u, v, _ in r3.edges],
                       [rng.choice((0.5, 1.7, -0.8, 2.3)) for _ in r3.edges])
        params = ramp_params(2)
        enc = compile_mode(g, params, "resynth+z2", s, 200)
        assert any(gate.kind is GateKind.RXX and enc.layout.b in gate.qubits
                   for gate in enc.circuit.gates)
        acc, dist = exact_logical_distribution(enc.circuit, enc.checks,
                                               enc.decode)
        ref = unencoded_distribution(build_qaoa(g, params))
        assert acc == pytest.approx(1.0, abs=1e-12)
        assert total_variation(dist, ref) <= 1e-12


class TestSyndromePlacement:
    def test_even_split(self):
        assert syndrome_insertion_points([10, 10, 10, 10], 3) == [1, 2, 3]

    def test_never_interrupts_component(self):
        points = syndrome_insertion_points([3, 30, 3], 1)
        assert points == [2]

    def test_zero_components(self):
        assert syndrome_insertion_points([], 2) == [0, 0]


class TestBaselineCounts:
    def test_abstract_gate_identities(self):
        params = ramp_params(10)
        g22 = generate_instance(GraphKind.REGULAR_3, 22, seed=0)
        enc = compile_baseline(g22, params, CompileConfig(
            num_syndromes=3, gadget_set=GadgetSet.NEW))
        assert enc.meta["twoq_gates"] == 744
        rzz = sum(1 for g in enc.circuit.gates if g.kind is GateKind.RZZ)
        assert rzz == 330

    def test_formula_small(self):
        # p|E| + pk + init + s*(2k+4) + final
        k, p, s = 6, 2, 1
        g = generate_instance(GraphKind.REGULAR_3, k, seed=1)
        enc = compile_baseline(g, ramp_params(p), CompileConfig(
            num_syndromes=s, gadget_set=GadgetSet.OLD))
        expect = p * g.num_edges + p * k + (k + 3) + s * (2 * k + 4) + (k + 4)
        assert enc.meta["twoq_gates"] == expect

    def test_s0_p0(self):
        g = generate_instance(GraphKind.REGULAR_3, 4, seed=0)
        enc = compile_baseline(g, QaoaParams((), ()), CompileConfig(
            num_syndromes=0, gadget_set=GadgetSet.OLD))
        roles = [r for r in enc.circuit.components.values()]
        assert roles == [ComponentRole.INIT, ComponentRole.FINAL_MEAS]
        assert enc.meta["twoq_gates"] == (4 + 3) + (4 + 4)

    def test_mixers_top_anchored(self):
        g = generate_instance(GraphKind.REGULAR_3, 6, seed=0)
        enc = compile_baseline(g, ramp_params(2), CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.OLD))
        mixers = [x for x in enc.circuit.gates if x.kind is GateKind.RXX]
        assert all(0 in m.qubits for m in mixers)


class TestCooptimized:
    def setup_method(self):
        self.graph = generate_instance(GraphKind.REGULAR_3, 6, seed=3)
        self.params = ramp_params(2)

    def cfg(self, **kw):
        base = dict(num_syndromes=1, gadget_set=GadgetSet.NEW,
                    use_z2=True, resynthesize=True, queue_cap=150)
        base.update(kw)
        return CompileConfig(**base)

    def test_gate_multiset_conserved(self):
        base = compile_baseline(self.graph, self.params,
                                CompileConfig(num_syndromes=1,
                                              gadget_set=GadgetSet.NEW))
        opt = compile_cooptimized(self.graph, self.params, self.cfg())
        base_ms = base.gate_multiset()
        opt_ms = opt.gate_multiset()
        # mixer anchors may move between top and bottom; compare kind+angle
        assert base_ms == opt_ms

    def test_depth_dominance(self):
        for seed in range(4):
            g = generate_instance(GraphKind.REGULAR_3, 6, seed=seed)
            base = compile_baseline(g, self.params, CompileConfig(
                num_syndromes=1, gadget_set=GadgetSet.NEW))
            opt = compile_cooptimized(g, self.params, self.cfg())
            assert opt.meta["depth_2q"] <= base.meta["depth_2q"]

    def test_determinism(self):
        a = compile_cooptimized(self.graph, self.params, self.cfg())
        b = compile_cooptimized(self.graph, self.params, self.cfg())
        assert a.circuit.gates == b.circuit.gates

    def test_output_validates_constraint_order(self):
        enc = compile_cooptimized(self.graph, self.params, self.cfg())
        enc.circuit.validate()   # per-qubit component monotonicity

    def test_logical_content_reproduced(self):
        enc = compile_cooptimized(self.graph, self.params, self.cfg())
        lc = build_qaoa(self.graph, self.params)
        want_phase = sorted(
            (min(g.u + 1, g.v + 1), max(g.u + 1, g.v + 1), round(g.angle, 12))
            for layer in lc.phase_layers for g in layer
        )
        got_phase = sorted(
            (min(g.qubits), max(g.qubits), round(g.angle, 12))
            for g in enc.circuit.gates if g.kind is GateKind.RZZ
        )
        assert want_phase == got_phase
        t, b = 0, self.graph.num_vertices + 1
        got_mixers = sorted(
            (set(g.qubits) - {t, b}).pop()
            for g in enc.circuit.gates if g.kind is GateKind.RXX
        )
        want_mixers = sorted(
            g.qubit + 1 for layer in lc.mixer_layers for g in layer
        )
        assert got_mixers == want_mixers
        for g in enc.circuit.gates:
            if g.kind is GateKind.RXX:
                assert g.qubits[0] in (t, b)

    def test_per_qubit_rotation_order_preserved(self):
        enc = compile_cooptimized(self.graph, self.params, self.cfg())
        order = {cid: i for i, cid in enumerate(enc.circuit.components)}
        last = {}
        for g in enc.circuit.gates:
            if g.kind in (GateKind.RZZ, GateKind.RXX):
                for q in g.qubits:
                    pos = order[g.component]
                    assert pos >= last.get(q, -1)
                    last[q] = pos

    def test_budget_exhaustion_flag(self):
        enc = compile_cooptimized(self.graph, self.params,
                                  self.cfg(queue_cap=1))
        assert enc.meta["budget_exhausted"]
        # the greedy fallback still emits every logical rotation
        full = compile_cooptimized(self.graph, self.params, self.cfg())

        def rotations(e):
            return {key: n for key, n in e.gate_multiset().items()
                    if key[0] in (GateKind.RZZ, GateKind.RXX)}
        assert rotations(enc) and rotations(enc) == rotations(full)

    def test_p0(self):
        enc = compile_cooptimized(self.graph, QaoaParams((), ()), self.cfg())
        assert enc.meta["twoq_gates"] == (6 + 3) + (2 * 6 + 4) + (6 + 3)

    @pytest.mark.parametrize("k, p, s, cap, expanded, exhausted", [
        (6, 2, 1, 200, 200, True),
        (4, 1, 0, 0, 0, True),
        (4, 1, 0, 200, 18, False),
    ])
    def test_search_reports_nodes_expanded(self, k, p, s, cap, expanded,
                                           exhausted, monkeypatch):
        # a search out of budget has expanded queue_cap nodes and stops on
        # the next one it pops, which it never expands; one that reaches the
        # goal reports how many it took.  Either way the count is that of
        # the best-first loop's expand calls (the rollout's have width 1)
        calls = []
        expand = compiler.expand

        def counted(node, width=EXPANSION_WIDTH):
            calls.append(width)
            return expand(node, width)

        monkeypatch.setattr(compiler, "expand", counted)
        g = generate_instance(GraphKind.REGULAR_3, k, seed=0)
        enc = compile_mode(g, ramp_params(p), "coopt", s, cap)
        assert enc.meta["expanded_nodes"] == expanded
        assert calls.count(EXPANSION_WIDTH) == expanded
        assert enc.meta["budget_exhausted"] is exhausted


# width-3 searches with queue_cap 40, each running out of budget and
# finishing with a greedy rollout
SEARCH_CASES = [
    (GraphKind.REGULAR_3, 6, None, 2, 1, GadgetSet.NEW, False, False),
    (GraphKind.REGULAR_3, 10, None, 3, 2, GadgetSet.NEW, True, False),
    (GraphKind.REGULAR_3, 6, None, 2, 1, GadgetSet.NEW, True, True),
    (GraphKind.REGULAR_3, 6, None, 3, 1, GadgetSet.OLD, True, False),
    (GraphKind.ERDOS_RENYI, 6, 0.8, 2, 1, GadgetSet.NEW, True, True),
    (GraphKind.ERDOS_RENYI, 10, 0.5, 3, 1, GadgetSet.NEW, False, False),
    (GraphKind.ERDOS_RENYI, 10, 0.5, 3, 2, GadgetSet.NEW, True, True),
    (GraphKind.ERDOS_RENYI, 10, 0.8, 2, 1, GadgetSet.NEW, True, False),
    (GraphKind.ERDOS_RENYI, 10, 0.8, 2, 2, GadgetSet.OLD, False, False),
]


def _created_nodes(monkeypatch, kind, k, density, p, s, gs, resynth, z2):
    """Every node `_apply_layer` creates in one SEARCH_CASES compile."""
    created = []
    apply_layer = compiler._apply_layer

    def recording(node, items):
        child = apply_layer(node, items)
        created.append(child)
        return child

    monkeypatch.setattr(compiler, "_apply_layer", recording)
    g = generate_instance(kind, k, density=density, seed=0)
    enc = compile_cooptimized(g, ramp_params(p), CompileConfig(
        num_syndromes=s, gadget_set=gs, resynthesize=resynth, use_z2=z2,
        queue_cap=40))
    assert enc.meta["budget_exhausted"]
    assert len(created) > 40
    return created


class TestHeuristic:
    def test_goal_is_zero(self):
        g = star6()
        task = _build_task(g, QaoaParams((), ()),
                           CompileConfig(num_syndromes=0,
                                         gadget_set=GadgetSet.NEW,
                                         resynthesize=True))
        node = source_node(task)
        while not is_goal(node):
            node = expand(node, width=1)[0]
        assert heuristic_cost(node) == 0

    def test_single_rzz_is_one(self):
        g = make_graph(4, [(0, 1)])
        task = _build_task(g, ramp_params(1), CompileConfig(
            num_syndromes=0, gadget_set=GadgetSet.NEW, resynthesize=True))
        node = source_node(task)
        prog = list(node.progress)
        for i, comp in enumerate(task.components):
            if not isinstance(comp, type(task.components[0])):
                continue
        # leave only one phase edge uncompiled
        new_prog = []
        for comp, pr in zip(task.components, node.progress):
            role = getattr(comp, "role", None)
            if role is ComponentRole.PHASE_LAYER:
                new_prog.append(frozenset(list(pr)[:1]))
            elif isinstance(pr, frozenset):
                new_prog.append(frozenset())
            else:
                new_prog.append((comp.n, pr))
        node2 = SearchNode(task, tuple(new_prog), 0, 0, None, ())
        assert heuristic_cost(node2) == 1

    def test_reference_state_is_14(self):
        # one syndrome plus two full phase/mixer rounds left on a 6-vertex
        # cubic instance: the top qubit carries 2*6 mixer couplings plus 2
        # syndrome couplings
        g = generate_instance(GraphKind.REGULAR_3, 6, seed=0)
        cfg = CompileConfig(num_syndromes=1, gadget_set=GadgetSet.NEW,
                            use_z2=False, resynthesize=True)
        task = _build_task(g, ramp_params(2), cfg)
        node = source_node(task)
        prog = list(node.progress)
        prog[0] = frozenset()    # initialization compiled
        node = SearchNode(task, tuple(prog), 0, 0, None, ())
        assert heuristic_cost(node) == 14

    def test_source_bound_below_achieved(self):
        import random
        rng = random.Random(0)
        for _ in range(12):
            k = rng.choice([6, 10])
            g = generate_instance(GraphKind.ERDOS_RENYI, k,
                                  density=rng.choice([0.3, 0.5]),
                                  seed=rng.randrange(100))
            cfg = CompileConfig(num_syndromes=1, gadget_set=GadgetSet.NEW,
                                use_z2=True, resynthesize=True, queue_cap=60)
            enc = compile_cooptimized(g, ramp_params(2), cfg)
            assert enc.meta["h_source"] <= enc.meta["search_layers"]

    def test_h_nonincreasing_along_path(self):
        g = generate_instance(GraphKind.REGULAR_3, 6, seed=1)
        task = _build_task(g, ramp_params(1), CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.NEW, use_z2=True,
            resynthesize=True))
        node = source_node(task)
        prev = node.h
        while not is_goal(node):
            node = expand(node, width=1)[0]
            assert node.h <= prev
            prev = node.h

    @pytest.mark.parametrize("kind, k, density, p, s, gs, resynth, z2",
                             SEARCH_CASES)
    def test_carried_degrees_match_scratch(self, monkeypatch, kind, k,
                                           density, p, s, gs, resynth, z2):
        # every node of a width-3 search and of the greedy rollout after it
        # carries the degrees a parentless node computes from scratch
        created = _created_nodes(monkeypatch, kind, k, density, p, s, gs,
                                 resynth, z2)
        for node in created:
            scratch = SearchNode(node.task, node.progress, 0, 0, None, ())
            assert node.deg == build_uncompiled_graph(scratch)


class TestExecutableGraph:
    def test_constraint_blocks_cross_component(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        task = _build_task(g, ramp_params(1), CompileConfig(
            num_syndromes=0, gadget_set=GadgetSet.NEW, resynthesize=True))
        node = source_node(task)
        # walk to the goal; at every step a mixer edge may appear only once
        # no remaining phase gate touches its data qubit (Constraint 1)
        saw_mixer_edge = False
        while not is_goal(node):
            exe = build_executable_graph(node)
            phase_prog = None
            for comp, prog in zip(task.components, node.progress):
                if getattr(comp, "role", None) is ComponentRole.PHASE_LAYER:
                    phase_prog = (comp, prog)
            comp, prog = phase_prog
            pending = set()
            for i in prog:
                pending.add(comp.gates[i].u + 1)
                pending.add(comp.gates[i].v + 1)
            b = g.num_vertices + 1
            for pair, payload in exe.edges.items():
                if task.components[payload[1]].role is \
                        ComponentRole.MIXER_LAYER:
                    saw_mixer_edge = True
                    data_qubit = next(q for q in pair if q not in (0, b))
                    assert data_qubit not in pending
            node = expand(node, width=1)[0]
        assert saw_mixer_edge

    def test_expand_width_one(self):
        g = star6()
        task = _build_task(g, ramp_params(1), CompileConfig(
            num_syndromes=0, gadget_set=GadgetSet.NEW, resynthesize=True))
        children = expand(source_node(task), width=1)
        assert len(children) == 1

    @pytest.mark.parametrize("kind, k, density, s, gs, resynth, z2", [
        (GraphKind.REGULAR_3, 6, None, 1, GadgetSet.NEW, True, True),
        (GraphKind.REGULAR_3, 10, None, 1, GadgetSet.OLD, True, False),
        (GraphKind.REGULAR_3, 6, None, 1, GadgetSet.NEW, False, False),
        (GraphKind.ERDOS_RENYI, 6, 0.8, 1, GadgetSet.NEW, True, True),
    ])
    def test_matchings_maximal_with_positive_weights(self, kind, k, density,
                                                     s, gs, resynth, z2):
        # _matchings relies on every executable-edge weight being positive:
        # then a maximum-weight matching is maximal and never empty
        g = generate_instance(kind, k, density=density, seed=0)
        task = _build_task(g, ramp_params(2), CompileConfig(
            num_syndromes=s, gadget_set=gs, resynthesize=resynth, use_z2=z2))
        node = source_node(task)
        while not is_goal(node):
            exe = build_executable_graph(node)
            assert all(w > 0 for w in exe.weights.values())
            pairs = [p for p in exe.edges if not (p & exe.forced_qubits)]
            layers = _matchings(exe, EXPANSION_WIDTH)
            removed = set()
            for layer in layers:
                avail = [p for p in pairs if p not in removed]
                used = [q for p in layer for q in p]
                assert len(used) == len(set(used))
                assert set(layer) <= set(avail)
                assert all(p & set(used) for p in avail)
                if layer:       # empty only when no pair is available
                    removed.add(layer[0])
            node = expand(node, width=1)[0]

    def test_expand_goal_empty(self):
        g = star6()
        task = _build_task(g, QaoaParams((), ()), CompileConfig(
            num_syndromes=0, gadget_set=GadgetSet.NEW, resynthesize=True))
        node = source_node(task)
        while not is_goal(node):
            node = expand(node, width=1)[0]
        assert expand(node) == []


class TestInitOrderChoice:
    def test_star_hub_first(self):
        order = predetermine_init_order(star6(), GadgetSet.OLD)
        assert order[0] == 0 and order[-1] == 7
        assert order[1] == 6   # hub vertex 5 -> qubit 6

    def test_regular_tie_break_by_index(self):
        g = generate_instance(GraphKind.REGULAR_3, 6, seed=0)
        order = predetermine_init_order(g, GadgetSet.OLD)
        assert order == (0, 1, 2, 3, 4, 5, 6, 7)

    def test_star_coopt_resynthesis_helps(self):
        params = QaoaParams((0.5,), (0.3,))
        base = compile_cooptimized(star6(), params, CompileConfig(
            num_syndromes=0, gadget_set=GadgetSet.OLD, resynthesize=False,
            queue_cap=300))
        resynth = compile_cooptimized(star6(), params, CompileConfig(
            num_syndromes=0, gadget_set=GadgetSet.OLD, resynthesize=True,
            queue_cap=300))
        assert resynth.meta["depth_2q"] < base.meta["depth_2q"]


def reference_init_order(graph, gadget_set):
    """The hand-coded orders: vertices by degree down the OLD staircase,
    and alternating from the two roots of the NEW branches."""
    n = graph.num_vertices + 2
    deg = graph.degrees()
    qubits = [v + 1 for v in sorted(range(graph.num_vertices),
                                    key=lambda v: (-deg[v], v))]
    if gadget_set is GadgetSet.OLD:
        return (0, *qubits, n - 1)
    order = [0] * n
    order[-1] = n - 1
    lo, hi = 1, n - 2
    for i, q in enumerate(qubits):
        if i % 2 == 0:
            order[lo] = q
            lo += 1
        else:
            order[hi] = q
            hi -= 1
    return tuple(order)


class TestPlanFromGadgets:
    """The init order and the syndrome's binding stages are read off the
    gadgets."""

    @pytest.mark.parametrize("kind", [GraphKind.REGULAR_3,
                                      GraphKind.ERDOS_RENYI])
    def test_init_order_matches_reference(self, kind):
        for k in range(4, 35, 2):
            for seed in range(8):
                density = (0.2, 0.5, 0.8)[seed % 3] \
                    if kind is GraphKind.ERDOS_RENYI else None
                g = generate_instance(kind, k, density=density, seed=seed)
                for gs in GadgetSet:
                    assert predetermine_init_order(g, gs) == \
                        reference_init_order(g, gs), (k, seed, gs)

    @pytest.mark.parametrize("k", [6, 10])
    @pytest.mark.parametrize("z2", [False, True])
    def test_relabeled_syndrome_schedule(self, monkeypatch, k, z2):
        # relabeling the pipeline's slots gives the same gadget under
        # another implicit order, so the co-compile stays exact
        lag_schedule = gadgets.syndrome_lag_schedule
        perm = list(range(k + 2))
        random.Random(k).shuffle(perm)
        assert perm != sorted(perm)

        def relabeled(n):
            return [(perm[x], perm[z]) for x, z in lag_schedule(n)]

        monkeypatch.setattr(gadgets, "syndrome_lag_schedule", relabeled)
        monkeypatch.setattr(compiler, "syndrome_lag_schedule", relabeled)
        g = generate_instance(GraphKind.REGULAR_3, k, seed=1)
        params = QaoaParams((0.4, 0.7), (0.9, -0.3))
        enc = compile_cooptimized(g, params, CompileConfig(
            num_syndromes=2, gadget_set=GadgetSet.NEW, use_z2=z2,
            resynthesize=True, queue_cap=80))
        acc, dist = exact_logical_distribution(enc.circuit, enc.checks,
                                               enc.decode)
        ref = unencoded_distribution(build_qaoa(g, params))
        assert acc == pytest.approx(1.0, abs=1e-9)
        assert total_variation(dist, ref) <= 1e-6


class TestEncodedIO:
    def test_roundtrip(self):
        g = generate_instance(GraphKind.REGULAR_3, 6, seed=3)
        enc = compile_cooptimized(g, ramp_params(1), CompileConfig(
            num_syndromes=1, gadget_set=GadgetSet.NEW, use_z2=True,
            resynthesize=True, queue_cap=50))
        text = write_encoded(enc)
        circuit, checks, decode = read_encoded(text)
        assert circuit.gates == enc.circuit.gates
        assert checks == enc.checks
        assert decode == enc.decode

    @pytest.mark.parametrize("line, msg", [
        ("check c1 c2", "a check is"),
        ("check c1 = 2", "a check is"),
        ("check c1 = 0 = 1", "a check is"),
        ("check x0 = 0", "c<int>"),
        ("check c = 0", "c<int>"),
        ("check c-1 = 0", "c<int>"),
        ("logical", "a decode line is"),
        ("logical x = c1", "a decode line is"),
        ("logical 1 c1", "a decode line is"),
        ("logical 1 = c1 c2", "a decode line is"),
        ("logical 1 = c1 ^", "a decode line is"),
        ("logical 1 = c1 ^ y2", "c<int>"),
        ("logical 0 = c1", "logical 0: .*from 1"),
        ("logical 00 = c1", "logical 0: .*from 1"),
        ("check c1 c1 = 0", "c1 is repeated"),
        ("check c0 c2 c00 = 1", "c0 is repeated"),
        ("logical 1 = c0 ^ c0", "c0 is repeated"),
        ("logical 2 = c2 ^ c1 ^ c02", "c2 is repeated"),
        ("qubits -2 clbits 3", "negative"),
        ("qubits 2 clbits -1", "negative"),
        ("qubits 2 clbits 3", "second 'qubits' header"),
        ("component 0 INIT extra", "'component ID ROLE'"),
        ("component 0", "'component ID ROLE'"),
        ("cx 0 5", "qubit index out of range"),
        ("mz 1 3", "classical bit out of range"),
        ("component 0 INIT\ncomponent 0 SYNDROME",
         "component 0 redeclared as SYNDROME, first declared INIT"),
    ])
    def test_malformed_lines_name_the_line(self, line, msg):
        # the error names the last line of `line`
        text = "qubits 2 clbits 3\ncx 0 1\ncheck c0 = 0\n" + line + "\n"
        last = 3 + len(line.splitlines())
        with pytest.raises(CircuitError, match=f"line {last}: .*{msg}"):
            read_encoded(text)

    def test_repeated_logical_rejected(self):
        text = "qubits 1 clbits 2\nlogical 1 = c0\nlogical 1 = c1\n"
        with pytest.raises(CircuitError, match="line 3: logical 1"):
            read_encoded(text)

    def test_circuit_errors_keep_their_line(self):
        text = "qubits 2 clbits 1\ncheck c0 = 0\nfoo 0\n"
        with pytest.raises(CircuitError, match="line 3: "):
            read_encoded(text)


class TestGolden:
    """sha256 of `write_encoded` for 3-regular k=6 seed 3, p=2, s=1, and
    for the criterion-7 and dense instances below.

    A compiler change that moves any compiled circuit must update these
    hashes, and say why."""

    HASHES = {
        "baseline-old": "b7d306e8df98265383b4ca28eed56fce"
                        "db941e45c62e637234c8d541de154c2b",
        "baseline-new": "22e3f06340b97a1ed0af64007350c713"
                        "ca195132dee7099cefbdbb3a9cef5e5a",
        "plain": "a8f2eb404cb6f932b7003a6376c6893f"
                 "c35b4cbfecdb9c88b714d4015a1ea7cb",
        "resynth": "e9cf948a528cdb4f51cea01438c02100"
                   "8fb72ec480f9882004747f2349295d66",
        "resynth+z2": "e718ce109edd795166a68defedbd7bdf"
                      "6f60728062d01cf67f33a98543e4d710",
    }

    # criterion 7's circuits: 3-regular k=10 seed 0, p=3, queue_cap 200;
    # its s=2 AR check passes by 1e-4, so a drift shows here first
    CRITERION_7 = {
        (1, "baseline-old"): "22046181a7e2f5cc3de0c005324e924d"
                             "27b536472295bcabf8810be1a7ddbb27",
        (1, "resynth"): "3f17b54f8152a47f4032eb47e355a665"
                        "389b0733675fe1d8e1fce95ac596d1ca",
        (1, "resynth+z2"): "19e04790041cd85f18f79f6d15b3e12a"
                           "a2c4fb04c579ad48a1fb4d233d23004c",
        (2, "baseline-old"): "889f33567cbf3cc26f219a7bcc563766"
                             "8d07564f757cd22f25faaa65925a9d33",
        (2, "resynth"): "e52d1ae3d8bf360ff903f05f74c985f2"
                        "6fe06d50410fff65cc5fb5231a24417c",
        (2, "resynth+z2"): "180f50429443c3c881052c8eb06b475a"
                           "b5c26199d2abd6ac090cb059347275bc",
    }

    # ER k=10 d=0.8 seed 0, p=2, s=1, queue_cap 200: the phase-heavy
    # instance with the largest matchings
    DENSE = {
        "plain": "6e6c0f03a5a6eec5d1a066dfda159394"
                 "6e00045ee8485b549a5622b65d2f851e",
        "resynth": "5908bcbf5184316e8af84e73589016c0"
                   "2fde9296199553f75fdf4c362e9d83a5",
        "resynth+z2": "af4e37a4edc3139b363898e2a301ce58"
                      "dfd831e76667fac42153536fb37b3be4",
    }

    # the benchmark's instance sizes: 3-regular k=22 seed 0 and ER k=22
    # d=0.8 seed 0, p=10, s=3, queue_cap 200
    PAPER_SCALE = {
        ("erdos_renyi", "baseline-old"): "03b0c1384414163f14e1e2ea03989c28"
                                         "9c304986e234f42ad708fa0d19eef1de",
        ("erdos_renyi", "resynth"): "34ceb8d71f81e335f17c0ea9204f0a23"
                                    "082533b849ed796082e949878a794329",
        ("erdos_renyi", "resynth+z2"): "97848eabad57af2d9a3180b6223150e1"
                                       "e579ab0ac8246febb9bce6941fafe08b",
        ("regular3", "baseline-old"): "2b8cfeaa2283c35c7bcc44a55c32103f"
                                      "9b40ce63a717d1214e2e8c701d5caa2d",
        ("regular3", "resynth"): "522e4fe73f280b650488ef18f55edffa"
                                 "16a607579dc1e7713d82b78e3c82dafa",
        ("regular3", "resynth+z2"): "2917fc394401bbb445ae9cf2dfe22b7f"
                                    "a8d7465f09597b41a2256c04e32edbfe",
    }

    @staticmethod
    def _digest(g, params, s, queue_cap, mode):
        if mode.startswith("baseline"):
            gs = GadgetSet.OLD if mode == "baseline-old" else GadgetSet.NEW
            enc = compile_baseline(g, params, CompileConfig(
                num_syndromes=s, gadget_set=gs))
        else:
            enc = compile_cooptimized(g, params, CompileConfig(
                num_syndromes=s, gadget_set=GadgetSet.NEW,
                queue_cap=queue_cap, resynthesize=mode != "plain",
                use_z2=mode == "resynth+z2"))
        return hashlib.sha256(write_encoded(enc).encode()).hexdigest()

    @pytest.mark.parametrize("mode", sorted(HASHES))
    def test_write_encoded_hash(self, mode):
        g = generate_instance(GraphKind.REGULAR_3, 6, seed=3)
        assert self._digest(g, ramp_params(2), 1, 150, mode) == \
            self.HASHES[mode]

    @pytest.mark.parametrize("s, mode", sorted(CRITERION_7))
    def test_criterion_7_circuit_hash(self, s, mode):
        g = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
        assert self._digest(g, ramp_params(3), s, 200, mode) == \
            self.CRITERION_7[(s, mode)]

    @pytest.mark.parametrize("mode", sorted(DENSE))
    def test_dense_er_circuit_hash(self, mode):
        g = generate_instance(GraphKind.ERDOS_RENYI, 10, density=0.8, seed=0)
        assert self._digest(g, ramp_params(2), 1, 200, mode) == \
            self.DENSE[mode]

    @pytest.mark.parametrize("family, mode", sorted(PAPER_SCALE))
    def test_paper_scale_circuit_hash(self, family, mode):
        g = generate_instance(GraphKind(family), 22,
                              density=0.8 if family == "erdos_renyi"
                              else None, seed=0)
        assert self._digest(g, ramp_params(10), 3, 200, mode) == \
            self.PAPER_SCALE[(family, mode)]

    def test_baseline_ignores_coopt_flags(self):
        # the baseline never resynthesizes or anchors on the bottom qubit,
        # on a weighted instance as on an unweighted one
        r3 = generate_instance(GraphKind.REGULAR_3, 6, seed=3)
        weighted = make_graph(6, [(u, v) for u, v, _ in r3.edges],
                              (0.5, 1.0, 2.0) * 3)
        for g in (r3, weighted):
            plain = compile_baseline(g, ramp_params(2), CompileConfig(
                num_syndromes=1, gadget_set=GadgetSet.NEW))
            flagged = compile_baseline(g, ramp_params(2), CompileConfig(
                num_syndromes=1, gadget_set=GadgetSet.NEW, resynthesize=True,
                use_z2=True))
            assert write_encoded(flagged) == write_encoded(plain)


# ---------------------------------------------------------------------------
# Oracles: the scheduler, executable graph and matchings as they were before
# the readiness index, the reused reservations and the once-sorted matcher
# input, kept word for word but for their names.  Every output of the
# compiler's versions must equal theirs.
# ---------------------------------------------------------------------------

def reference_schedule_chunk(chunk: list[_GateComp]) -> list[tuple[_GateComp, int]]:
    """List-schedule one algorithmic chunk (phase/mixer components between
    two gadget fences) and return (component, gate index) in layer order.
    Every gate runs on its first qubit option, so mixers anchor on top.

    The mixer chain on the top qubit is the critical path, so every layer
    schedules a ready mixer when one exists, then fills the remaining
    qubits with ready phase gates, heaviest remaining degree first."""
    remaining: list[set[int]] = [set(range(len(c.qubits))) for c in chunk]
    # per component and qubit: how many of its gates still touch the qubit
    touch: list[dict[int, int]] = []
    for comp in chunk:
        tc: dict[int, int] = {}
        for options in comp.qubits:
            for q in options[0]:
                tc[q] = tc.get(q, 0) + 1
        touch.append(tc)

    def ready(ci: int, qs: tuple[int, ...]) -> bool:
        return all(
            all(touch[cj].get(q, 0) == 0 for q in qs)
            for cj in range(ci)
        )

    def place(ci: int, gi: int) -> None:
        remaining[ci].discard(gi)
        for q in chunk[ci].qubits[gi][0]:
            touch[ci][q] -= 1
            busy.add(q)
        out.append((chunk[ci], gi))

    out: list[tuple[_GateComp, int]] = []
    total = sum(len(r) for r in remaining)
    while total:
        busy: set[int] = set()
        placed = 0
        # one mixer per layer keeps the top-qubit chain moving
        for ci, comp in enumerate(chunk):
            if comp.role is not ComponentRole.MIXER_LAYER:
                continue
            best = None
            for gi in sorted(remaining[ci]):
                qs = comp.qubits[gi][0]
                if not ready(ci, qs):
                    continue
                q = qs[1]
                load = sum(touch[cj].get(q, 0)
                           for cj in range(ci + 1, len(chunk)))
                cand = (-load, q, gi)
                if best is None or cand < best:
                    best = cand
            if best is not None:
                place(ci, best[2])
                placed += 1
                break
        # fill with phase gates
        for ci, comp in enumerate(chunk):
            if comp.role is not ComponentRole.PHASE_LAYER:
                continue
            cands = []
            for gi in sorted(remaining[ci]):
                a, b = qs = comp.qubits[gi][0]
                if a in busy or b in busy or not ready(ci, qs):
                    continue
                w = touch[ci].get(a, 0) + touch[ci].get(b, 0)
                cands.append((-w, a, b, gi))
            for _, a, b, gi in sorted(cands):
                if a not in busy and b not in busy:
                    place(ci, gi)
                    placed += 1
        if not placed:
            raise CompileError("chunk scheduler stalled")
        total -= placed
    return out


def reference_executable_graph(node: SearchNode) -> ExecutableGraph:
    task = node.task
    layout = task.layout
    deg = node.deg

    free: set[int] = set(range(layout.num_qubits))
    edges: dict[frozenset[int], tuple] = {}
    forced: list[tuple] = []
    forced_qubits: set[int] = set()

    def weight(a: int, b: int) -> float:
        wa = deg.get(a, deg[-1] if a >= layout.n else 0.0)
        wb = deg.get(b, deg[-1] if b >= layout.n else 0.0)
        return wa + wb

    for comp, prog in zip(task.components, node.progress):
        if not free:
            break
        if _is_done(comp, prog):
            continue
        if isinstance(comp, _GateComp):
            qubits, preds = comp.qubits, comp.preds
            for i in sorted(prog):
                # a gate is ready once none of its predecessors is pending
                if preds[i] and not preds[i].isdisjoint(prog):
                    continue
                for qs in qubits[i]:
                    if free.issuperset(qs):
                        pair = frozenset(qs)
                        if pair not in edges:
                            edges[pair] = ("gate", comp.pos, i, qs)
            # reserve every qubit the unfinished component may still touch
            free.difference_update(*itertools.chain.from_iterable(
                map(qubits.__getitem__, prog)))
        else:
            stage, bindings = prog
            slot_q = comp.slot_qubits(bindings)
            ax, az = layout.ancilla0, layout.ancilla1
            if ax not in free or az not in free:
                pass  # ancillas blocked by an earlier unfinished component
            elif stage in comp.binding_stages:
                bound = set(slot_q.values())
                eligible = sorted(
                    (q for q in layout.data if q in free and q not in bound),
                    key=lambda q: (-deg.get(q, 0.0), q),
                )
                if len(eligible) >= 2:
                    u, v = eligible[0], eligible[1]
                    pair = frozenset((u, v))
                    if pair not in edges:
                        edges[pair] = ("bind", comp.pos, (u, v))
            else:
                xs, zs = comp.schedule[stage]
                qx, qz = slot_q[xs], slot_q[zs]
                forced.append(("synstep", comp.pos, (qx, qz)))
                forced_qubits |= {qx, qz, ax, az}
                free -= {qx, qz}
            # reserve: ancillas and every data qubit still owing couplings;
            # a bound qubit is finished once its slot's last stage has run
            finished = {q for slot, q in slot_q.items()
                        if comp.last_stage[slot] < stage}
            for q in layout.data:
                if q not in finished:
                    free.discard(q)
            free.discard(ax)
            free.discard(az)
    weights = {pair: weight(*sorted(pair)) for pair in edges}
    return ExecutableGraph(edges, weights, forced, frozenset(forced_qubits))


def reference_matchings(exe: ExecutableGraph, width: int,
               forced_qubits: frozenset[int]) -> list[list[frozenset[int]]]:
    pairs = [p for p in exe.edges if not (p & forced_qubits)]
    if not pairs:
        return [[]]
    out: list[list[frozenset[int]]] = []
    removed: set[frozenset[int]] = set()
    for _ in range(width):
        avail = [p for p in pairs if p not in removed]
        if not avail:
            break
        # every weight counts the edge's own pending gate, so it is positive
        # and a maximum-weight matching is maximal (and not empty)
        match = max_weight_matching(sorted(
            (*sorted(p), exe.weights[p]) for p in avail))
        layer = sorted((frozenset(e) for e in match),
                       key=lambda p: (-exe.weights[p], tuple(sorted(p))))
        # each earlier layer holds its own layer[0], now in `removed`, so
        # this layer differs from all of them
        out.append(layer)
        removed.add(layer[0])
    return out


def _baseline_chunks(task):
    """The runs of algorithmic components between gadgets, as
    compile_baseline schedules them."""
    return [list(run) for fenced, run in itertools.groupby(
        task.components, key=lambda c: c.gadget is not None) if not fenced]


def _random_chunk(rng):
    """A chunk of random phase and mixer components on k data qubits: any
    order of roles, any subset of edges or qubits, repeats across
    components allowed."""
    k = rng.randrange(2, 13)
    pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    chunk = []
    for pos in range(rng.randrange(1, 7)):
        if rng.random() < 0.5:
            qubits = [((a, b),) for a, b in
                      rng.sample(pairs, rng.randrange(1, len(pairs) + 1))]
            role = ComponentRole.PHASE_LAYER
        else:
            qubits = [((0, q),) for q in
                      rng.sample(range(1, k + 1), rng.randrange(1, k + 1))]
            role = ComponentRole.MIXER_LAYER
        chunk.append(_GateComp(pos, role, qubits,
                               [frozenset()] * len(qubits)))
    return chunk


def _scheduled(schedule):
    return [(comp.pos, gi) for comp, gi in schedule]


class TestOracles:
    @pytest.mark.parametrize("kind, density", [
        (GraphKind.REGULAR_3, None), (GraphKind.ERDOS_RENYI, 0.2),
        (GraphKind.ERDOS_RENYI, 0.8)])
    @pytest.mark.parametrize("k", [14, 22])
    def test_baseline_chunks_match_reference(self, kind, density, k):
        for seed in range(3):
            g = generate_instance(kind, k, density=density, seed=seed)
            task = _build_task(g, ramp_params(10), CompileConfig(
                num_syndromes=3, gadget_set=GadgetSet.OLD))
            chunks = _baseline_chunks(task)
            assert len(chunks) == 4
            for chunk in chunks:
                assert _scheduled(_schedule_chunk(chunk)) == \
                    _scheduled(reference_schedule_chunk(chunk))

    def test_random_chunks_match_reference(self):
        rng = random.Random(14)
        for _ in range(300):
            chunk = _random_chunk(rng)
            assert _scheduled(_schedule_chunk(chunk)) == \
                _scheduled(reference_schedule_chunk(chunk))

    @pytest.mark.parametrize("kind, k, density, p, s, gs, resynth, z2",
                             SEARCH_CASES)
    def test_search_nodes_match_reference(self, monkeypatch, kind, k,
                                          density, p, s, gs, resynth, z2):
        created = _created_nodes(monkeypatch, kind, k, density, p, s, gs,
                                 resynth, z2)
        nodes = [n for n in [created[0].parent, *created] if not is_goal(n)]
        for node in nodes:
            exe = build_executable_graph(node)
            ref = reference_executable_graph(node)
            assert list(exe.edges.items()) == list(ref.edges.items())
            assert list(exe.weights.items()) == list(ref.weights.items())
            assert exe.forced == ref.forced
            assert exe.forced_qubits == ref.forced_qubits
            assert _matchings(exe, EXPANSION_WIDTH) == \
                reference_matchings(ref, EXPANSION_WIDTH, ref.forced_qubits)


# ---------------------------------------------------------------------------
# Oracle: the search loop as it was before lazy children, kept word for
# word but for its name.  It pushes every child of each expansion, so its
# pop order is the one the lazy search must keep.
# ---------------------------------------------------------------------------

def reference_compile_cooptimized(graph: ProblemGraph, params: QaoaParams,
                                  cfg: CompileConfig) -> EncodedCircuit:
    task = _build_task(graph, params, cfg)
    start = source_node(task)
    counter = itertools.count()
    heap: list[tuple] = [(start.f, start.h, -start.g, next(counter), start)]
    seen: set = set()
    expanded = 0
    # the heap cannot run empty: a popped node that is not the goal has
    # children (expand raises otherwise), each a layer further on, so every
    # path of states from `start` ends at the goal
    while True:
        _, _, _, _, node = heapq.heappop(heap)
        if node.progress in seen:
            continue
        seen.add(node.progress)
        if is_goal(node) or expanded == cfg.queue_cap:
            break
        expanded += 1
        for child in expand(node):
            if child.progress not in seen:
                heapq.heappush(heap, (child.f, child.h, -child.g,
                                      next(counter), child))
    exhausted = not is_goal(node)
    # out of budget: greedy rollout from the node the search stopped on
    while not is_goal(node):
        node = expand(node, width=1)[0]
    enc = _emit(node)
    enc.meta["expanded_nodes"] = expanded
    enc.meta["budget_exhausted"] = exhausted
    enc.meta["h_source"] = start.h
    return enc


def _search_instances():
    """(id, graph, params, cfg) of every SEARCH_CASES case, criterion 7's
    k=10 instance at s=1 and 2 and the dense ER instance of TestGolden, the
    last two in each co-compile mode; queue_cap is set by the caller."""
    out = []
    for kind, k, density, p, s, gs, resynth, z2 in SEARCH_CASES:
        out.append((f"{kind.value}-{k}-{density}-p{p}-s{s}-{gs.value}"
                    f"-{resynth}-{z2}",
                    generate_instance(kind, k, density=density, seed=0),
                    ramp_params(p), CompileConfig(
                        num_syndromes=s, gadget_set=gs,
                        resynthesize=resynth, use_z2=z2)))
    criterion_7 = generate_instance(GraphKind.REGULAR_3, 10, seed=0)
    dense = generate_instance(GraphKind.ERDOS_RENYI, 10, density=0.8, seed=0)
    for mode in ("plain", "resynth", "resynth+z2"):
        modal = dict(gadget_set=GadgetSet.NEW, resynthesize=mode != "plain",
                     use_z2=mode == "resynth+z2")
        for s in (1, 2):
            out.append((f"criterion7-s{s}-{mode}", criterion_7,
                        ramp_params(3),
                        CompileConfig(num_syndromes=s, **modal)))
        out.append((f"dense-{mode}", dense, ramp_params(2),
                    CompileConfig(num_syndromes=1, **modal)))
    return out


SEARCH_INSTANCES = _search_instances()
QUEUE_CAPS = [0, 1, 40, 200]


def _untimed(meta):
    return {k: v for k, v in meta.items() if not k.endswith("_seconds")}


class TestLazyChildren:
    """The lazy search compiles what the eager one did, and the bound it
    keys a node's unmade children by is below every child's key."""

    @pytest.mark.parametrize("cap", QUEUE_CAPS)
    @pytest.mark.parametrize("case", SEARCH_INSTANCES,
                             ids=[c[0] for c in SEARCH_INSTANCES])
    def test_matches_eager_search(self, monkeypatch, case, cap):
        _, g, params, cfg = case
        cfg = replace(cfg, queue_cap=cap)
        made = []
        apply_layer = compiler._apply_layer

        def counting(node, items):
            made.append(node)
            return apply_layer(node, items)

        monkeypatch.setattr(compiler, "_apply_layer", counting)
        want = reference_compile_cooptimized(g, params, cfg)
        eager = len(made)
        made.clear()
        got = compile_cooptimized(g, params, cfg)
        assert write_encoded(got) == write_encoded(want)
        assert _untimed(got.meta) == _untimed(want.meta)
        assert len(made) <= eager

    @pytest.mark.parametrize("cap", QUEUE_CAPS)
    @pytest.mark.parametrize("case", SEARCH_INSTANCES,
                             ids=[c[0] for c in SEARCH_INSTANCES])
    def test_bound_below_every_child(self, monkeypatch, case, cap):
        # every child the eager search makes, popped or not: a check on
        # the children the lazy search makes alone would miss a child that
        # breaks the bound and so is never made
        _, g, params, cfg = case
        checked = []

        def bounded(node, width=EXPANSION_WIDTH):
            children = compiler.expand(node, width)
            if width == EXPANSION_WIDTH:
                hb = children.bound()
                key = (node.g + 1 + hb, hb, -(node.g + 1))
                for child in children:
                    assert (child.f, child.h, -child.g) >= key
                    checked.append(child)
            return children

        monkeypatch.setitem(globals(), "expand", bounded)
        reference_compile_cooptimized(g, params, replace(cfg, queue_cap=cap))
        assert len(checked) >= EXPANSION_WIDTH * cap // 2

    @pytest.mark.parametrize("cap", QUEUE_CAPS)
    @pytest.mark.parametrize("case", SEARCH_INSTANCES,
                             ids=[c[0] for c in SEARCH_INSTANCES])
    def test_rekeyed_bound_below_every_later_sibling(self, monkeypatch, case,
                                                     cap):
        # the bound read after child j is made keys the entry of child
        # j+1, so it must be at most the key of every sibling made after:
        # at every expansion of the eager search, popped or not
        _, g, params, cfg = case
        rises = []

        def rekeyed(node, width=EXPANSION_WIDTH):
            children = compiler.expand(node, width)
            if width == EXPANSION_WIDTH:
                bounds = []
                while children.more:
                    bounds.append(children.bound())
                    children.make()
                for j, child in enumerate(children.made):
                    for hb in bounds[:j + 1]:
                        assert (child.f, child.h, -child.g) >= \
                            (node.g + 1 + hb, hb, -(node.g + 1))
                rises.append(max(bounds) > bounds[0])
            return children

        monkeypatch.setitem(globals(), "expand", rekeyed)
        reference_compile_cooptimized(g, params, replace(cfg, queue_cap=cap))
        assert len(rises) >= cap // 2
        if cap == max(QUEUE_CAPS):
            # a made child can take the last pair that touched a vertex, so
            # the later siblings' bound rises (in every case at this cap)
            assert any(rises)

    @pytest.mark.parametrize("gs", list(GadgetSet))
    @pytest.mark.parametrize("k", [6, 10, 22])
    def test_bound_counts_a_z2_resplit_on_the_other_anchor(self, k, gs):
        # a syndrome gadget left with its couplings of b, before a full z2
        # mixer layer: the layer that runs a mixer on t and a syndrome gate
        # on b takes 2 from b, as the z2 split of an even mixer count moves
        # the mixer's load off b whichever anchor it ran on
        g = generate_instance(GraphKind.REGULAR_3, k, seed=0)
        task = _build_task(g, ramp_params(1), CompileConfig(
            num_syndromes=1, gadget_set=gs, use_z2=True))
        b = task.layout.b
        progress = []
        for comp in task.components:
            if comp.role is ComponentRole.SYNDROME:
                progress.append(frozenset(
                    i for i, options in enumerate(comp.qubits)
                    if b in options[0]))
            elif comp.role is ComponentRole.MIXER_LAYER:
                progress.append(frozenset(range(len(comp.qubits))))
            else:
                progress.append(frozenset())
        assert [c.role for c in task.components] == [
            ComponentRole.INIT, ComponentRole.PHASE_LAYER,
            ComponentRole.SYNDROME, ComponentRole.MIXER_LAYER]
        node = SearchNode(task, tuple(progress), 0, 0, None, ())
        node.h = heuristic_cost(node)
        assert node.deg[b] == node.deg[task.layout.t] + 2 == node.h
        children = expand(node)
        hb = children.bound()
        assert min(child.h for child in children) == hb == node.h - 2

    def test_children_made_as_indexed(self, monkeypatch):
        g = generate_instance(GraphKind.ERDOS_RENYI, 10, density=0.8, seed=0)
        task = _build_task(g, ramp_params(2), CompileConfig(num_syndromes=1))
        made = []
        apply_layer = compiler._apply_layer

        def recording(node, items):
            made.append(items)
            return apply_layer(node, items)

        monkeypatch.setattr(compiler, "_apply_layer", recording)
        node = source_node(task)
        while len(_matchings(build_executable_graph(node),
                             EXPANSION_WIDTH)) < EXPANSION_WIDTH:
            node = expand(node, width=1)[0]
        made.clear()
        children = expand(node)
        assert made == []
        second = children[1]
        assert len(made) == 2
        assert children[-1] is children[2] and len(made) == 3
        with pytest.raises(IndexError):
            children[3]
        exe = build_executable_graph(node)
        layers = _matchings(exe, EXPANSION_WIDTH)
        assert made == [tuple(exe.forced) + tuple(exe.edges[p] for p in layer)
                        for layer in layers]
        assert list(children) == [children[0], second, children[2]]
