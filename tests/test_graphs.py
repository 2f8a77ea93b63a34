import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra.catalog import (all_graphs, complete_graph, connected_graphs,
                                  cospectral_pair, cospectral_pair_graphs,
                                  cycle_graph, path_graph, random_connected_graph,
                                  star_graph, with_labels)
from graphspectra.errors import ValidationError
from graphspectra.graphs import (Graph, Multigraph, build_diffusion_pair,
                                 canonical_form, cartesian_product,
                                 edge_set_laplacian, graph_from_text,
                                 graph_to_text, is_isomorphic,
                                 is_subset_sum_distinct, laplacian_matrix,
                                 quotient_graph, relabel_graph, seminorm_sq,
                                 sum_distinct_labels)
from graphspectra.spectra import simulate_spectrum
from graphspectra.unipoly import UniPoly

from naive_oracles import (brute_subset_sums_distinct, exhaustive_isomorphic,
                           integer_level_laplacian, level_laplacian,
                           symbolic_laplacian, unpruned_all_graphs,
                           unpruned_canonical_form)


class TestBuildDiffusionPair:
    def test_smallest_pair(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        assert dp.graph.n == 2 and dp.label(1, 2) == 1

    def test_figure_pair_edges(self):
        left, _ = cospectral_pair()
        assert left.graph.m == 10
        assert left.label(7, 8) == 2
        assert left.label(1, 2) == 1

    def test_duplicate_label_rejected_by_default(self):
        with pytest.raises(ValidationError):
            build_diffusion_pair(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)],
                                  require_distinct_labels=False)
        assert dp.graph.m == 3

    @pytest.mark.parametrize("bad", [
        [(1, 1, 1)],                    # self-loop
        [(1, 2, 1), (2, 1, 2)],         # duplicate edge
        [(1, 2, 0)],                    # non-positive label
        [(1, 2, -3)],
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            build_diffusion_pair(3, bad)


class TestSymbolicLaplacian:
    def test_k2(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        Y = UniPoly.variable()
        assert symbolic_laplacian(dp) == [[Y, -Y], [-Y, Y]]

    def test_path_with_labels(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (2, 3, 2)])
        Y, Y2 = UniPoly.variable(), UniPoly.monomial(1, 2)
        assert symbolic_laplacian(dp) == [
            [Y, -Y, UniPoly.zero()],
            [-Y, Y + Y2, -Y2],
            [UniPoly.zero(), -Y2, Y2],
        ]

    def test_symmetric_zero_rowsums(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 7), rng)
            labels = rng.sample(range(1, 40), g.m)
            L = symbolic_laplacian(with_labels(g, labels))
            n = g.n
            for i in range(n):
                assert sum(L[i][j] for j in range(n)) == UniPoly.zero()
                for j in range(i):
                    assert L[i][j] == L[j][i]


class TestLevelLaplacian:
    def test_k2_levels(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        assert level_laplacian(dp, 5, 1) == [[1, -1], [-1, 1]]
        assert level_laplacian(dp, 5, 0) == [[5, -5], [-5, 5]]
        assert level_laplacian(dp, 5, 2) == [
            [Fraction(1, 5), Fraction(-1, 5)],
            [Fraction(-1, 5), Fraction(1, 5)],
        ]

    def test_level_one_is_combinatorial(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 6), rng)
            dp = with_labels(g, rng.sample(range(1, 30), g.m))
            for q in (2, 7, 101):
                assert level_laplacian(dp, q, 1) == [
                    [Fraction(x) for x in row] for row in laplacian_matrix(g)]

    def test_rejects_small_q(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        with pytest.raises(ValidationError):
            level_laplacian(dp, 1, 0)
        with pytest.raises(ValidationError):
            integer_level_laplacian(dp, 1, 0)
        with pytest.raises(ValidationError):
            simulate_spectrum(dp, 1, 0, 1)


class TestEdgeSetLaplacian:
    def test_single_edge(self):
        assert edge_set_laplacian(2, [(1, 2)]) == [[1, -1], [-1, 1]]

    def test_empty(self):
        assert edge_set_laplacian(3, []) == [[0] * 3 for _ in range(3)]

    def test_sum_of_single_edges(self):
        assert edge_set_laplacian(3, [(1, 2), (2, 3)]) == [
            [1, -1, 0], [-1, 2, -1], [0, -1, 1]]

    def test_loop_rejected(self):
        with pytest.raises(ValidationError):
            edge_set_laplacian(3, [(2, 2)])


class TestSeminorm:
    def test_examples(self):
        assert seminorm_sq([1, 0], [(1, 2)]) == 1
        assert seminorm_sq([3, 3, 3], [(1, 2), (2, 3)]) == 0
        assert seminorm_sq([1, 2, 4], [(1, 2), (2, 3)]) == 5

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            seminorm_sq([1, 0], [(1, 3)])

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=6),
           st.data())
    def test_matches_quadratic_form_and_nonnegative(self, v, data):
        n = len(v)
        pairs = data.draw(st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                lambda t: t[0] != t[1]),
            max_size=8))
        pairs = [tuple(sorted(p)) for p in pairs]
        U = edge_set_laplacian(n, set(pairs))
        quad = sum(v[i] * U[i][j] * v[j] for i in range(n) for j in range(n))
        val = seminorm_sq(v, set(pairs))
        assert val == quad
        assert val >= 0


class TestQuotient:
    def test_k3_pair_merge(self):
        q = quotient_graph(complete_graph(3), {1, 2})
        assert q.n == 2 and q.multiplicity(1, 2) == 2

    def test_singleton_is_identity_shape(self):
        g = cycle_graph(5)
        q = quotient_graph(g, {3})
        assert q.n == 5 and len(q.edges) == g.m

    def test_path_endpoints_make_triangle(self):
        q = quotient_graph(path_graph(4), {1, 4})
        assert q.n == 3 and len(q.edges) == 3
        assert all(q.multiplicity(u, v) == 1 for u, v in q.edges)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            quotient_graph(path_graph(3), set())

    def test_multigraph_drops_loops(self):
        mg = Multigraph(3, ((1, 1), (1, 2), (2, 1)))
        assert mg.edges == ((1, 2), (1, 2))
        assert mg.multiplicity(1, 2) == 2


class TestCartesianProduct:
    def test_k2_square_is_c4(self):
        assert is_isomorphic(cartesian_product(path_graph(2), path_graph(2)),
                             cycle_graph(4))

    def test_identity(self):
        g = star_graph(5)
        assert is_isomorphic(cartesian_product(g, Graph(1)), g)

    def test_prism(self):
        prism = cartesian_product(path_graph(2), complete_graph(3))
        assert prism.n == 6 and prism.m == 9

    def test_laplacian_is_kronecker_sum(self):
        for g in all_graphs(3):
            for h in all_graphs(4)[:6]:
                L = laplacian_matrix(cartesian_product(g, h))
                Lg, Lh = laplacian_matrix(g), laplacian_matrix(h)
                n, m = g.n, h.n
                for a in range(n * m):
                    for b in range(n * m):
                        i, x = divmod(a, m)
                        j, y = divmod(b, m)
                        want = (Lg[i][j] if x == y else 0) + \
                               (Lh[x][y] if i == j else 0)
                        assert L[a][b] == want


class TestLabels:
    def test_powers_of_two(self):
        assert sum_distinct_labels(4) == [1, 2, 4, 8]

    def test_subset_sum_examples(self):
        assert is_subset_sum_distinct([1, 2, 4, 8])
        assert not is_subset_sum_distinct([6, 10, 15, 19])  # 6+19 == 10+15
        # the check validates and leaves nothing on the pair
        g = path_graph(5)
        checked = with_labels(g, [1, 2, 4, 8], check_subset_sums=True)
        assert checked == with_labels(g, [1, 2, 4, 8])
        assert hash(checked) == hash(with_labels(g, [1, 2, 4, 8]))
        with pytest.raises(ValidationError):
            with_labels(g, [6, 10, 15, 19], check_subset_sums=True)

    def test_custom_validation(self):
        with pytest.raises(ValidationError):
            sum_distinct_labels(0)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True))
    def test_validator_matches_brute_force(self, labels):
        assert is_subset_sum_distinct(labels) == brute_subset_sums_distinct(labels)

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=8), st.randoms())
    def test_superincreasing_route_matches_brute_force(self, slacks, rng):
        # each label is the sum of the smaller ones plus 1 + slack: a slack
        # below 0 breaks the superincreasing order (and may repeat a label)
        labels, below = [], 0
        for s in slacks:
            labels.append(max(1, below + 1 + s))
            below += labels[-1]
        rng.shuffle(labels)
        assert is_subset_sum_distinct(labels) == brute_subset_sums_distinct(labels)

    def test_twenty_powers_of_two_answer_at_once(self):
        labels = [1 << i for i in range(20)]
        random.Random(5).shuffle(labels)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert is_subset_sum_distinct(labels)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.005  # the set route first builds all 2^20 sums


class TestIsomorphism:
    def test_figure_pair_not_isomorphic(self):
        g1, g2 = cospectral_pair_graphs()
        assert not is_isomorphic(g1, g2)
        assert canonical_form(g1) != canonical_form(g2)

    def test_relabeled_triangle(self):
        t = complete_graph(3)
        assert is_isomorphic(t, Graph.of(3, [(3, 2), (2, 1), (3, 1)]))

    def test_c4_vs_p4(self):
        assert not is_isomorphic(cycle_graph(4), path_graph(4))

    def test_same_degree_sequence_not_isomorphic(self):
        two_triangles = Graph.of(6, [(1, 2), (2, 3), (1, 3),
                                     (4, 5), (5, 6), (4, 6)])
        assert not is_isomorphic(two_triangles, cycle_graph(6))
        assert canonical_form(two_triangles) != canonical_form(cycle_graph(6))

    def test_canonical_matches_exhaustive_up_to_n5(self):
        rng = random.Random(23)
        graphs5 = all_graphs(5)
        for _ in range(150):
            g1, g2 = rng.choice(graphs5), rng.choice(graphs5)
            same_canon = canonical_form(g1) == canonical_form(g2)
            assert same_canon == is_isomorphic(g1, g2)
            assert same_canon == exhaustive_isomorphic(g1, g2)

    def test_canonical_invariant_under_relabeling(self):
        rng = random.Random(31)
        for n in (4, 5, 6):
            for _ in range(20):
                g = random_connected_graph(n, rng)
                perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
                assert canonical_form(g) == canonical_form(relabel_graph(g, perm))

    def test_enumeration_class_counts(self):
        assert [len(all_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
        assert [len(connected_graphs(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]

    def test_enumeration_class_counts_at_seven(self):
        # OEIS A000088 and A001349: an orbit that hid a class would show here
        assert len(all_graphs(7)) == 1044
        assert len(connected_graphs(7)) == 853

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumeration_matches_unpruned_oracle(self, n):
        """Same classes, same representatives, same order as trying every
        non-edge of every class with the unpruned search."""
        assert ([g.edges for g in all_graphs(n)]
                == [g.edges for g in unpruned_all_graphs(n)])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2),
        st.permutations(range(1, n + 1)))))
    def test_canonical_matches_unpruned_oracle(self, case):
        n, present, perm = case
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = Graph.of(n, [e for e, keep in zip(pairs, present) if keep])
        form = canonical_form(g)
        assert form == unpruned_canonical_form(g)
        assert canonical_form(relabel_graph(g, dict(zip(range(1, n + 1), perm)))) == form


def _cube(d):
    q = path_graph(2)
    for _ in range(d - 1):
        q = cartesian_product(q, path_graph(2))
    return q


def _shuffled(g, seed):
    rng = random.Random(seed)
    return relabel_graph(g, dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n))))


class TestSymmetricGraphs:
    """Colour refinement splits little or nothing on these graphs and few
    vertices are twins, so automorphism pruning does most of the work."""

    def test_four_cube(self):
        q4 = _cube(4)
        c16 = Graph.of(16, [(i, (i + k - 1) % 16 + 1)
                            for i in range(1, 17) for k in (1, 2)])
        h = _shuffled(q4, 4)
        assert is_isomorphic(h, q4)
        assert is_isomorphic(h, cartesian_product(cycle_graph(4), cycle_graph(4)))
        # also 4-regular on 16 vertices, but with triangles
        assert c16.degree_sequence() == q4.degree_sequence()
        assert not is_isomorphic(h, c16)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["C3", "C4", "P3", "S4", "K4"]),
           st.sampled_from(["C3", "C4", "P3", "S4", "K4"]),
           st.integers(0, 119), st.randoms(use_true_random=False))
    def test_perturbed_products_invariant_under_relabeling(self, a, b, pair, rng):
        """A product of two small graphs with one pair toggled keeps large
        automorphism groups whose elements mostly move the placed vertices."""
        small = {"C3": cycle_graph(3), "C4": cycle_graph(4), "P3": path_graph(3),
                 "S4": star_graph(4), "K4": complete_graph(4)}
        g = cartesian_product(small[a], small[b])
        pairs = [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1)]
        g = Graph.of(g.n, g.edges ^ {pairs[pair % len(pairs)]})
        form = canonical_form(g)
        for _ in range(3):
            perm = dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n)))
            assert canonical_form(relabel_graph(g, perm)) == form

    def test_five_cube_form_is_fast(self):
        q5 = _cube(5)
        h = _shuffled(q5, 5)
        start = time.process_time()
        form = canonical_form(h)
        assert time.process_time() - start < 5  # 20 s without automorphism pruning
        assert form == canonical_form(q5)


class TestGraphFormat:
    def test_round_trip_bit_exact(self):
        dp, _ = cospectral_pair()
        text = graph_to_text(dp)
        assert graph_to_text(graph_from_text(text)) == text

    def test_default_label_and_comments(self):
        dp = graph_from_text("# a triangle\n3 3\n1 2\n1 3\n2 3 5\n")
        assert dp.label(1, 2) == 1 and dp.label(2, 3) == 5

    def test_bad_header(self):
        with pytest.raises(ValidationError):
            graph_from_text("3\n1 2\n")
        with pytest.raises(ValidationError):
            graph_from_text("3 2\n1 2\n")
