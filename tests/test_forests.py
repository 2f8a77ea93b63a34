import random
from itertools import combinations

import pytest

from graphspectra.catalog import (complete_graph, connected_graphs,
                                  cycle_graph, path_graph,
                                  random_connected_graph, with_labels)
from graphspectra.errors import ValidationError
from graphspectra.forests import (EDGE_CAP, buslov_polynomial,
                                  enumerate_forests, kelmans_coefficients,
                                  tree_count)
from graphspectra.graphs import Graph, Multigraph, laplacian_matrix, quotient_graph
from graphspectra.polynomials import spectral_polynomial

from naive_oracles import brute_forests, brute_tree_count, charpoly_division_free


class TestEnumerateForests:
    def test_k2(self):
        fam = enumerate_forests(path_graph(2))
        assert fam.families[1] == ((frozenset({(1, 2)}), 2),)
        assert fam.families[2] == ((frozenset(), 1),)

    def test_k3_counts_and_gammas(self):
        fam = enumerate_forests(complete_graph(3))
        assert len(fam.record(1)) == 3
        assert all(g == 3 for _, g in fam.record(1))
        assert len(fam.record(2)) == 3
        assert all(g == 2 for _, g in fam.record(2))
        assert fam.record(3) == ((frozenset(), 1),)

    def test_c4_trees(self):
        fam = enumerate_forests(cycle_graph(4))
        assert len(fam.record(1)) == 4
        assert all(g == 4 for _, g in fam.record(1))
        assert len(fam.record(1)) == tree_count(cycle_graph(4))

    def test_matches_brute_force(self):
        rng = random.Random(6)
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 5), rng)
            fam = enumerate_forests(g)
            brute = brute_forests(g)
            assert {i: set(v) for i, v in fam.families.items()} == brute

    def test_edge_cap(self):
        assert complete_graph(7).m == EDGE_CAP + 1
        with pytest.raises(ValidationError, match=f"cap {EDGE_CAP}"):
            enumerate_forests(complete_graph(7))


class TestBuslov:
    def test_k2_forced_gamma(self):
        from graphspectra.graphs import build_diffusion_pair

        dp = build_diffusion_pair(2, [(1, 2, 1)])
        B = buslov_polynomial(dp)
        assert B.coefficient(1).terms == {1: -2}  # gamma factor of 2
        assert B == spectral_polynomial(dp)

    def test_k3_uniform(self):
        from graphspectra.graphs import build_diffusion_pair

        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)],
                                  require_distinct_labels=False)
        B = buslov_polynomial(dp)
        assert B.coefficient(2).terms == {1: -6}
        assert B.coefficient(1).terms == {2: 9}
        assert B == spectral_polynomial(dp)

    def test_path_labels(self):
        from graphspectra.graphs import build_diffusion_pair

        dp = build_diffusion_pair(3, [(1, 2, 1), (2, 3, 2)])
        B = buslov_polynomial(dp)
        assert B.coefficient(2).terms == {1: -2, 2: -2}
        assert B.coefficient(1).terms == {3: 3}
        assert B == spectral_polynomial(dp)

    def test_agrees_with_determinant_on_random_labels(self):
        rng = random.Random(13)
        for n in range(2, 7):
            for g in connected_graphs(n):
                dp = with_labels(g, rng.sample(range(1, 17), g.m))
                assert buslov_polynomial(dp) == spectral_polynomial(dp)

    def test_monomial_support_bijective_under_subset_sum_labels(self):
        from graphspectra.catalog import with_powers_of_two

        rng = random.Random(15)
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 6), rng)
            dp = with_powers_of_two(g)
            fam = enumerate_forests(g)
            P = spectral_polynomial(dp)
            label = dp.label_map()
            for i in range(1, g.n + 1):
                records = fam.record(i)
                coeff = P.coefficient(i)
                assert len(coeff.terms) == len(records)
                for edges, gamma in records:
                    w = sum(label[e] for e in edges)
                    assert abs(coeff.terms[w]) == gamma


class TestTreeCount:
    def test_known_counts(self):
        assert tree_count(complete_graph(3)) == 3
        assert tree_count(Multigraph(2, ((1, 2), (1, 2)))) == 2
        assert tree_count(complete_graph(4)) == 16  # Cayley 4^2
        assert tree_count(complete_graph(5)) == 125
        assert tree_count(Graph.of(3, [(1, 2)])) == 0  # disconnected

    def test_matches_enumeration(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                assert tree_count(g) == len(enumerate_forests(g).record(1))
        rng = random.Random(8)
        for _ in range(10):
            g = random_connected_graph(6, rng)
            assert tree_count(g) == len(enumerate_forests(g).record(1))

    def test_quotients_match_brute_force(self):
        # every graph with n <= 5 and each of its quotient multigraphs,
        # against the (n-1)-edge subsets with parallel edges kept distinct
        from graphspectra.catalog import all_graphs

        checked = multi = 0
        for n in range(1, 6):
            for g in all_graphs(n):
                assert tree_count(g) == brute_tree_count(n, sorted(g.edges))
                for k in range(1, n + 1):
                    for S in combinations(range(1, n + 1), k):
                        mg = quotient_graph(g, S)
                        assert tree_count(mg) == brute_tree_count(mg.n, mg.edges), \
                            (sorted(g.edges), S)
                        checked += 1
                        multi += len(set(mg.edges)) < len(mg.edges)
        assert checked > 1000 and multi > 100


class TestKelmans:
    def test_k2(self):
        assert kelmans_coefficients(path_graph(2)) == [2]

    def test_k3(self):
        assert kelmans_coefficients(complete_graph(3)) == [6, 9]

    def test_disconnected(self):
        assert kelmans_coefficients(Graph(2)) == [0]

    def test_identity_all_graphs_to_n5(self):
        from graphspectra.catalog import all_graphs

        for n in range(2, 6):
            for g in all_graphs(n):
                cs = kelmans_coefficients(g)
                cp = charpoly_division_free(laplacian_matrix(g))
                for k in range(1, n):
                    assert cp.coefficient(n - k) == (-1) ** k * cs[k - 1]
                assert cp.coefficient(n) == 1
                assert cp.coefficient(0) == 0

