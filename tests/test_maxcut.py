import itertools

import pytest

from icecomp.maxcut import (GraphKind, ProblemGraph, QaoaParams,
                            approximation_ratio, brute_force_optimum,
                            build_qaoa, cut_value, energy, generate_instance,
                            hamiltonian_value, make_graph, ramp_params,
                            read_graph, read_params, success_probability,
                            write_graph, write_params)


def c4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def k4():
    return make_graph(4, list(itertools.combinations(range(4), 2)))


def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, edges)


class TestGeneration:
    @pytest.mark.parametrize("k,edges", [(22, 33), (34, 51)])
    def test_regular3_edge_count(self, k, edges):
        g = generate_instance(GraphKind.REGULAR_3, k, seed=7)
        assert g.num_edges == edges
        assert all(d == 3 for d in g.degrees())

    def test_regular3_odd_energy(self):
        with pytest.raises(ValueError):
            generate_instance(GraphKind.REGULAR_3, 5, seed=1)

    def test_er_zero_density(self):
        g = generate_instance(GraphKind.ERDOS_RENYI, 10, density=0.0, seed=3)
        assert g.num_edges == 0

    def test_er_density_validated(self):
        with pytest.raises(ValueError):
            generate_instance(GraphKind.ERDOS_RENYI, 10, density=1.5, seed=0)

    def test_deterministic(self):
        a = generate_instance(GraphKind.ERDOS_RENYI, 12, density=0.4, seed=9)
        b = generate_instance(GraphKind.ERDOS_RENYI, 12, density=0.4, seed=9)
        assert a.edges == b.edges

    def test_no_self_loops_or_duplicates(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            make_graph(3, [(0, 1), (1, 0)])


class TestCutsAndEnergies:
    def test_c4_alternating(self):
        assert cut_value(c4(), 0b0101) == 4
        assert energy(c4(), 0b0101) == -4

    def test_all_zeros(self):
        assert cut_value(k4(), 0) == 0

    def test_triangle_max_two(self):
        assert max(cut_value(triangle(), x) for x in range(8)) == 2

    def test_hamiltonian_consistency(self):
        g = c4()
        for x in range(16):
            assert hamiltonian_value(g, x) == g.num_edges - 2 * cut_value(g, x)

    def test_bit_flip_symmetry(self):
        g = generate_instance(GraphKind.ERDOS_RENYI, 8, density=0.5, seed=1)
        full = (1 << 8) - 1
        for x in range(256):
            assert cut_value(g, x) == cut_value(g, x ^ full)

    def test_bit_sequence_input(self):
        assert cut_value(c4(), [1, 0, 1, 0]) == 4


class TestBruteForce:
    def test_c4(self):
        assert brute_force_optimum(c4()) == 4

    def test_k4(self):
        assert brute_force_optimum(k4()) == 4

    def test_petersen(self):
        # value frozen from an independent exhaustive enumeration
        assert brute_force_optimum(petersen()) == 12

    def test_matches_slow_oracle(self):
        g = generate_instance(GraphKind.ERDOS_RENYI, 9, density=0.45, seed=5)
        slow = max(cut_value(g, x) for x in range(1 << 9))
        assert brute_force_optimum(g) == slow

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_force_optimum(make_graph(31, [(0, 1)]))


class TestMetrics:
    def test_point_mass_on_optimum(self):
        assert approximation_ratio({0b0101: 1.0}, c4()) == 1.0
        assert success_probability({0b0101: 1.0}, c4()) == 1.0

    def test_uniform(self):
        g = k4()
        uniform = {x: 1 / 16 for x in range(16)}
        assert approximation_ratio(uniform, g) == pytest.approx(
            g.num_edges / (2 * brute_force_optimum(g))
        )

    def test_uniform_c4_success(self):
        uniform = {x: 1 / 16 for x in range(16)}
        assert success_probability(uniform, c4()) == pytest.approx(2 / 16)

    def test_all_zeros_ar(self):
        assert approximation_ratio({0: 1.0}, c4()) == 0.0

    def test_missing_optimum(self):
        assert success_probability({0: 0.5, 1: 0.5}, c4()) == 0.0


class TestQaoaBuild:
    def test_triangle_p1(self):
        lc = build_qaoa(triangle(), QaoaParams((0.3,), (0.7,)))
        nphase, nmix = lc.rotation_count()
        assert (nphase, nmix) == (3, 3)
        assert lc.p == 1

    def test_p0(self):
        lc = build_qaoa(triangle(), QaoaParams((), ()))
        assert lc.rotation_count() == (0, 0)

    def test_k22_phase_count(self):
        g = generate_instance(GraphKind.REGULAR_3, 22, seed=0)
        lc = build_qaoa(g, ramp_params(10))
        assert lc.rotation_count()[0] == 330

    def test_gate_counts_always(self):
        g = generate_instance(GraphKind.ERDOS_RENYI, 7, density=0.6, seed=2)
        p = 4
        lc = build_qaoa(g, ramp_params(p))
        assert lc.rotation_count() == (p * g.num_edges, p * g.num_vertices)

    def test_weighted_angles(self):
        g = make_graph(3, [(0, 1), (1, 2)], weights=[2.0, 1.0])
        lc = build_qaoa(g, QaoaParams((0.5,), (0.1,)))
        assert lc.phase_layers[0][0].angle == pytest.approx(1.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            QaoaParams((0.1,), (0.1, 0.2))
        with pytest.raises(ValueError):
            QaoaParams((float("inf"),), (0.1,))

    def test_ramp_params_rejects_negative_p(self):
        assert ramp_params(0) == QaoaParams((), ())
        with pytest.raises(ValueError, match="p must be >= 0"):
            ramp_params(-2)


class TestFiles:
    def test_graph_roundtrip(self):
        g = generate_instance(GraphKind.REGULAR_3, 8, seed=3)
        assert read_graph(write_graph(g)).edges == g.edges

    def test_weighted_roundtrip(self):
        g = make_graph(3, [(0, 2)], weights=[1.25])
        assert read_graph(write_graph(g)).edges == g.edges

    def test_edge_count_must_match_header(self):
        with pytest.raises(ValueError, match="line 1: header declares 5"):
            read_graph("graph 3 5\nedge 0 1\n")

    @pytest.mark.parametrize("text, line", [
        ("graph\n", 1),
        ("graph 3\n", 1),
        ("graph 3 1 7\nedge 0 1\n", 1),
        ("graph 3 1\nedge 0\n", 2),
        ("graph 3 1\nedge\n", 2),
        ("graph 3 1\nedge 0 1 1.0 2\n", 2),
        ("graph 3 1\nedge 0 x\n", 2),
        ("graph 3 1\n# c\nedge 0 1 w\n", 3),
        ("graph 3 1\nedge 0 1\ngraph 3 1\n", 3),
        ("graph 3 1\nnode 0\n", 2),
        ("graph -1 0\n", 1),
        ("graph 3 1\nedge 0 1 nan\n", 2),
        ("graph 3 1\n\nedge 0 1 inf\n", 3),
        ("graph 3 1\nedge 0 1 -inf\n", 2),
        ("graph 2 1\nedge 0 5\n", 2),
        ("graph 2 1\n# c\nedge -1 1\n", 3),
        ("graph 3 1\nedge 1 1\n", 2),
        ("graph 3 2\nedge 0 1\nedge 1 0\n", 3),
        ("edge 0 1\nedge 0 2\ngraph 2 2\n", 2),
    ])
    def test_malformed_line_named(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            read_graph(text)

    @pytest.mark.parametrize("k, weight, what", [
        (-1, None, "negative vertex count"),
        (3, float("nan"), "not finite"),
        (3, float("inf"), "not finite"),
    ])
    def test_make_graph_rejects_bad_values(self, k, weight, what):
        edges, weights = ([], None) if weight is None else ([(0, 1)], [weight])
        with pytest.raises(ValueError, match=what):
            make_graph(k, edges, weights)

    def test_params_roundtrip(self):
        p = ramp_params(4)
        assert read_params(write_params(p)) == p

    def test_params_mismatch(self):
        with pytest.raises(ValueError):
            read_params("p 3\ngammas: [0.1]\nbetas: [0.2]\n")

    @pytest.mark.parametrize("text, line, what", [
        ("gammas 0.1\n", 1, "expected 'p N'"),
        ("foo: 1\ngammas: [0.1]\nbetas: [0.2]\n", 1, "'foo: 1'"),
        ("gammas: [0.1]\nbetas: [0.2]\ngammas: [0.3]\n", 3, "gammas set twice"),
        ("p 1\np 1\ngammas: [0.1]\nbetas: [0.2]\n", 2, "p set twice"),
        ("p\ngammas: [0.1]\nbetas: [0.2]\n", 1, "expected 'p N'"),
        ("p 1.5\ngammas: [0.1]\nbetas: [0.2]\n", 1, "int"),
        ("# c\ngammas: 0.1\nbetas: [0.2]\n", 2, r"\[\.\.\.\] list"),
        ("gammas: [0.1,,0.2]\nbetas: [0.2]\n", 1, "float"),
        ("gammas: [nan]\nbetas: [0.2]\n", 1, "finite"),
        ("gammas: [0.1]\n\nbetas: [0.2]\np 2\n", 4, "declared p=2"),
    ])
    def test_params_malformed_line_named(self, text, line, what):
        with pytest.raises(ValueError, match=f"^line {line}: .*{what}"):
            read_params(text)

    def test_params_need_both_lists(self):
        with pytest.raises(ValueError, match="needs 'gammas"):
            read_params("p 1\ngammas: [0.1]\n")
