import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from operator import lshift, mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphspectra import polynomials
from graphspectra.catalog import (complete_graph, connected_graphs,
                                  cospectral_pair, random_connected_graph,
                                  with_labels, with_powers_of_two)
from graphspectra.errors import PrecisionError, ValidationError
from graphspectra.forests import buslov_polynomial
from graphspectra.graphs import Graph, build_diffusion_pair, graph_from_text
from graphspectra.polynomials import (SpectralPolynomial, _as_is, evaluate_y,
                                      interpolate_spectral_poly,
                                      laplacian_charpoly, spectral_polynomial,
                                      spectral_poly_from_text,
                                      spectral_poly_to_text, tangent_cone)
from graphspectra.spectra import _level_weights
from graphspectra.unipoly import UniPoly

from naive_oracles import (as_monomial_dict, assemble_laplacian,
                           charpoly_division_free, level_laplacian,
                           naive_charpoly, naive_spectral_polynomial)


class TestUniPoly:
    @given(st.dictionaries(st.integers(0, 12), st.integers(-99, 99), max_size=6),
           st.dictionaries(st.integers(0, 12), st.integers(-99, 99), max_size=6),
           st.integers(-7, 7))
    def test_ring_ops_agree_with_evaluation(self, a, b, x):
        p, q = UniPoly(a), UniPoly(b)
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p - q)(x) == p(x) - q(x)

    def test_no_zero_terms_stored(self):
        p = UniPoly({3: 5}) - UniPoly({3: 5})
        assert p.is_zero() and p.terms == {}


class TestCharpoly:
    def test_scalar(self):
        assert charpoly_division_free([[2]]) == UniPoly({1: 1, 0: -2})

    def test_zero_matrix(self):
        assert charpoly_division_free([[0, 0], [0, 0]]) == UniPoly({2: 1})

    def test_k3_laplacian(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)],
                                  require_distinct_labels=False)
        cp = charpoly_division_free(level_laplacian(dp, 5, 1))
        assert cp == UniPoly({3: 1, 2: -6, 1: 9})

    def test_matches_cofactor_oracle_on_random_matrices(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 5)
            M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert charpoly_division_free(M).terms == {
                k: c for k, c in naive_charpoly(M).items() if c}

    def test_rational_entries(self):
        M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]]
        cp = charpoly_division_free(M)
        assert cp.coefficient(1) == -(Fraction(1, 2) + Fraction(1, 5))
        assert cp.coefficient(0) == Fraction(1, 10) - Fraction(1, 9)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            charpoly_division_free([[1, 2]])


class TestSpectralPolynomial:
    def test_k2(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        P = spectral_polynomial(dp)
        assert P == SpectralPolynomial(
            2, (UniPoly.zero(), UniPoly({1: -2}), UniPoly.const(1)))

    def test_k3_124(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        P = spectral_polynomial(dp)
        assert P == SpectralPolynomial(3, (
            UniPoly.zero(),
            UniPoly({3: 3, 5: 3, 6: 3}),
            UniPoly({1: -2, 2: -2, 4: -2}),
            UniPoly.const(1)))

    def test_figure_pair_collapse_at_one(self):
        dp1, dp2 = cospectral_pair()
        P1, P2 = spectral_polynomial(dp1), spectral_polynomial(dp2)
        assert evaluate_y(P1, 1) == evaluate_y(P2, 1)
        assert P1 != P2

    def test_monic_and_singular(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 6), rng)
            P = spectral_polynomial(with_labels(g, rng.sample(range(1, 20), g.m)))
            assert P.coefficient(P.n) == UniPoly.const(1)
            assert P.coefficient(0).is_zero()

    def test_matches_cofactor_oracle(self):
        rng = random.Random(29)
        for n in range(2, 7):
            for g in connected_graphs(n):
                dp = with_labels(g, rng.sample(range(1, 17), g.m))
                assert as_monomial_dict(spectral_polynomial(dp)) == \
                    naive_spectral_polynomial(dp)

    def test_y_degree_is_max_spanning_tree_weight(self):
        # the heaviest monomial comes from the maximum-weight spanning
        # forest, so deg_Y P is the greedy max tree weight; it reaches the
        # total label sum exactly when the graph is a tree
        rng = random.Random(41)
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 6), rng)
            dp = with_powers_of_two(g)
            label = dp.label_map()
            parent = list(range(g.n + 1))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            best = 0
            for (u, v) in sorted(g.edges, key=lambda e: -label[e]):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
                    best += label[(u, v)]
            P = spectral_polynomial(dp)
            assert P.y_degree == best
            assert P.y_degree <= dp.total_weight
            assert (P.y_degree == dp.total_weight) == (g.m == g.n - 1)


def _route_cases():
    """(name, pair, packed?) on both sides of the 2^16-bit packed size."""
    rng = random.Random(53)
    yield "single vertex", build_diffusion_pair(1, []), True
    two_parts = Graph.of(6, [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6)])
    yield "disconnected", with_labels(two_parts, rng.sample(range(1, 201), 5)), True
    yield "default labels", graph_from_text(
        "5 7\n1 2\n1 3\n2 3\n3 4\n4 5\n2 5\n1 5\n"), True
    for n in (4, 5, 6, 7):
        g = random_connected_graph(n, rng)
        labels = rng.sample(range(1, 201), g.m)
        yield f"labels 1..200, n={n}", with_labels(g, labels), True
    k6 = list(combinations(range(1, 7), 2))
    for m, packed in ((10, True), (13, False), (15, False)):
        dp = with_powers_of_two(Graph.of(6, k6[:m]))
        yield f"powers of two, n=6, m={m}", dp, packed
    k5 = complete_graph(5)
    dp = with_labels(k5, rng.sample(range(1, 5001), k5.m))
    yield "K5, labels 1..5000", dp, False
    g = random_connected_graph(7, rng)
    labels = [1 << i for i in range(g.m)]
    rng.shuffle(labels)
    yield "powers of two, n=7", with_labels(g, labels), True


def _assert_rings_match_dense(name, dp, width):
    """laplacian_charpoly against charpoly_division_free of the dense
    Laplacian: over Z[Y], on the integers at Y = 2^width (unreduced) when
    the pair took the packed route, and on the integer level weights at
    r = 0, 1 and 2."""
    n = dp.graph.n
    Y = [(e, UniPoly.monomial(1, a)) for e, a in dp.labels]
    rings = [(Y, Y, mul, UniPoly.zero())]
    if width is not None:
        rings.append(([(e, width * a) for e, a in dp.labels],
                      [(e, 1 << width * a) for e, a in dp.labels], lshift, 0))
    for q, r in ((2, 0), (3, 1), (2, 2)):
        _, weights = _level_weights(dp, q, r)
        rings.append((weights, weights, mul, 0))
    for weights, dense_weights, scale, zero in rings:
        cp = charpoly_division_free(assemble_laplacian(n, dense_weights, zero))
        want = [zero + cp.coefficient(i) for i in range(n + 1)]
        got = [zero + c for c in laplacian_charpoly(n, weights, scale, _as_is)]
        assert got == want, name


@st.composite
def _multigraph_edges(draw):
    """(n, weighted edges) on 1..n <= 6, up to 10 edges, some repeated."""
    n = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(st.tuples(pairs, st.integers(1, 9)), max_size=7) if n > 1
                 else st.just([]))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=3) if edges else st.just([]))
    return n, edges + repeats


@given(_multigraph_edges())
@example((3, [((1, 2), 1), ((1, 2), 1), ((2, 3), 1)]))
@example((5, [((1, 4), 2), ((4, 3), 1)]))  # vertices 2 and 5 isolated
@example((2, []))
def test_repeated_edges_add_up(case):
    # parallel edges between one pair add their weights in every entry, and
    # isolated vertices, which the recursion skips, only multiply by X
    n, edges = case
    cp = charpoly_division_free(assemble_laplacian(n, edges, 0))
    assert laplacian_charpoly(n, edges, mul, _as_is) == [
        cp.coefficient(i) for i in range(n + 1)]


class TestPackedRoute:
    def test_both_routes_match_oracles(self, monkeypatch):
        calls = []
        packed = polynomials._packed_charpoly
        monkeypatch.setattr(polynomials, "_packed_charpoly",
                            lambda *args: calls.append(args) or packed(*args))
        for name, dp, expect_packed in _route_cases():
            calls.clear()
            P = spectral_polynomial(dp)
            assert bool(calls) == expect_packed, name
            assert P == buslov_polynomial(dp), name
            if dp.graph.n <= 6:
                assert as_monomial_dict(P) == naive_spectral_polynomial(dp), name
            _assert_rings_match_dense(name, dp, calls[0][2] if calls else None)

    def test_huge_label_takes_the_ring_route_quickly(self):
        # packing (1, 10^9) would need an integer of about 10^10 bits
        dp = build_diffusion_pair(3, [(1, 2, 1), (2, 3, 10 ** 9)])
        start = time.process_time()
        P = spectral_polynomial(dp)
        assert time.process_time() - start < 1
        assert P == buslov_polynomial(dp)


class TestEvaluateY:
    def test_simple(self):
        P = SpectralPolynomial(2, (UniPoly.zero(), UniPoly({1: -2}),
                                   UniPoly.const(1)))
        assert evaluate_y(P, 1) == UniPoly({2: 1, 1: -2})
        assert evaluate_y(P, 5) == UniPoly({2: 1, 1: -10})

    def test_commutes_with_charpoly(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 5), rng)
            dp = with_labels(g, rng.sample(range(1, 12), g.m))
            P = spectral_polynomial(dp)
            for q, r in [(2, 1), (3, 0), (5, -1), (7, 2), (11, 3)]:
                lhs = evaluate_y(P, Fraction(q) ** (1 - r))
                rhs = charpoly_division_free(level_laplacian(dp, q, r))
                assert lhs == rhs


class TestTangentCone:
    def test_drops_higher_terms(self):
        P = SpectralPolynomial(3, (
            UniPoly.zero(), UniPoly({3: 3}), UniPoly({1: -2, 2: -2}),
            UniPoly.const(1)))
        cone = tangent_cone(P)
        assert cone.degree == 3
        assert cone.terms == ((2, 1, -2), (3, 0, 1))

    def test_already_homogeneous(self):
        P = SpectralPolynomial(2, (UniPoly.zero(), UniPoly({1: -2}),
                                   UniPoly.const(1)))
        cone = tangent_cone(P)
        assert cone.terms == ((1, 1, -2), (2, 0, 1))

    def test_figure_pair_cones_differ(self):
        dp1, dp2 = cospectral_pair()
        assert tangent_cone(spectral_polynomial(dp1)) != \
            tangent_cone(spectral_polynomial(dp2))

    def test_cone_is_uniform_charpoly_of_light_subgraph(self):
        # dropping each heavy edge and weighting the rest uniformly gives
        # exactly the lowest homogeneous part
        dp1, _ = cospectral_pair()
        light = build_diffusion_pair(
            8, [(u, v, 1) for (u, v), a in dp1.labels if a == 1],
            require_distinct_labels=False)
        cone = tangent_cone(spectral_polynomial(dp1))
        assert {(j, k): c for j, k, c in cone.terms} == \
            as_monomial_dict(spectral_polynomial(light))


class TestInterpolation:
    def test_two_node_fit(self):
        samples = {1: UniPoly({2: 1, 1: -2}), 5: UniPoly({2: 1, 1: -10})}
        res = interpolate_spectral_poly(samples, 1)
        assert res.polynomial == SpectralPolynomial(
            2, (UniPoly.zero(), UniPoly({1: -2}), UniPoly.const(1)))
        assert res.snap_residual == 0

    def test_round_trip_k3(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        P = spectral_polynomial(dp)
        samples = {y: evaluate_y(P, y) for y in range(1, 8)}
        res = interpolate_spectral_poly(samples, 7)
        assert res.polynomial == P and res.snap_residual == 0

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 5), rng)
            dp = with_labels(g, rng.sample(range(1, 9), g.m))
            P = spectral_polynomial(dp)
            D = dp.total_weight
            nodes = rng.sample(range(1, 3 * D + 4), D + 1)
            samples = {y: evaluate_y(P, y) for y in nodes}
            res = interpolate_spectral_poly(samples, D)
            assert res.polynomial == P

    def test_rational_nodes(self):
        # at y = 1/b the integer b^D * a_i(1/b) holds the coefficients of
        # a_i in reverse balanced base-b digits; 2 is too small a base
        dp = build_diffusion_pair(2, [(1, 2, 2)])
        P = spectral_polynomial(dp)
        samples = {y: evaluate_y(P, y)
                   for y in (Fraction(1, 5), Fraction(1, 2), Fraction(2))}
        res = interpolate_spectral_poly(samples, 2)
        assert res.polynomial == P and res.snap_residual == 0

    def test_reciprocal_node_k3(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        P = spectral_polynomial(dp)
        samples = {y: evaluate_y(P, y) for y in (1, Fraction(1, 101))}
        res = interpolate_spectral_poly(samples, 7)
        assert res.polynomial == P and res.snap_residual == 0

    def test_reciprocal_nodes_random(self):
        # degree bounds above the true Y-degree pad the reversed digits
        rng = random.Random(78)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 5), rng)
            dp = with_labels(g, rng.sample(range(1, 9), g.m))
            P = spectral_polynomial(dp)
            D = dp.total_weight + rng.randint(0, 3)
            b = rng.choice((1009, 10007))
            samples = {y: evaluate_y(P, y) for y in (1, Fraction(1, b))}
            res = interpolate_spectral_poly(samples, D)
            assert res.polynomial == P and res.snap_residual == 0

    def test_reciprocal_node_noisy_samples_snapped(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        P = spectral_polynomial(dp)
        rel = Fraction(1, 10 ** 30)
        samples = {y: evaluate_y(P, y).map_coefficients(lambda c: c * (1 + rel))
                   for y in (1, Fraction(1, 101))}
        res = interpolate_spectral_poly(samples, 7)
        assert res.polynomial == P
        assert 0 < res.snap_residual < Fraction(1, 10 ** 6)

    def test_nodes_one_and_two_rejected(self):
        # neither 1 nor 2 is a decode node: balanced base-2 digits cannot
        # hold the coefficient -2
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        P = spectral_polynomial(dp)
        samples = {y: evaluate_y(P, y) for y in (1, 2)}
        with pytest.raises(ValidationError, match="1/b"):
            interpolate_spectral_poly(samples, 1)

    def test_insufficient_nodes(self):
        with pytest.raises(ValidationError):
            interpolate_spectral_poly({1: UniPoly({2: 1, 1: -2})}, 1)

    def test_single_node_refused(self):
        # K5 with powers-of-two labels sampled exactly at Y = 9 alone: the
        # digits at base 9 < 2L = 10 decode to a polynomial that is not P,
        # and no other node is left to catch it, so the decode is refused
        dp = with_powers_of_two(complete_graph(5))
        P = spectral_polynomial(dp)
        nodes = {Fraction(9): polynomials._integer_form(evaluate_y(P, 9))}
        alone = polynomials._decode_at_base(nodes, 5, Fraction(9),
                                            dp.total_weight)
        assert alone is not None and alone.polynomial != P
        with pytest.raises(ValidationError, match="1 sample node"):
            interpolate_spectral_poly({9: evaluate_y(P, 9)}, dp.total_weight)
        # with the node 1 beside it the wrong digits fail verification
        with pytest.raises(PrecisionError):
            interpolate_spectral_poly({y: evaluate_y(P, y) for y in (1, 9)},
                                      dp.total_weight)

    def test_failed_decode_with_too_few_nodes_is_precision_error(self):
        # the coefficient 3 of K3 lies outside base 5's balanced digits
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        P = spectral_polynomial(dp)
        samples = {y: evaluate_y(P, y) for y in (1, 5)}
        with pytest.raises(PrecisionError):
            interpolate_spectral_poly(samples, 7)

    def test_noisy_samples_snapped(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        P = spectral_polynomial(dp)
        eps = Fraction(1, 10 ** 9)
        samples = {y: evaluate_y(P, y) + UniPoly({1: eps}) for y in (1, 5)}
        res = interpolate_spectral_poly(samples, 1)
        assert res.polynomial == P
        assert 0 < res.snap_residual < Fraction(1, 10 ** 6)

    def test_noise_above_tolerance_raises(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        P = spectral_polynomial(dp)
        samples = {y: evaluate_y(P, y) + UniPoly({1: Fraction(1, 100)})
                   for y in (1, 5)}
        with pytest.raises(PrecisionError):
            interpolate_spectral_poly(samples, 1)


class TestPolyFormat:
    def test_round_trip_bit_exact(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        text = spectral_poly_to_text(spectral_polynomial(dp))
        assert spectral_poly_to_text(spectral_poly_from_text(text)) == text

    def test_parse_round_trips_every_small_graph(self):
        rng = random.Random(4)
        for n in range(2, 6):
            for g in connected_graphs(n):
                P = spectral_polynomial(with_labels(g, rng.sample(range(1, 17), g.m)))
                assert spectral_poly_from_text(spectral_poly_to_text(P)) == P

    def test_parse_drops_zero_monomials(self):
        # a zero monomial is dropped, and still counts as a duplicate
        K2 = spectral_poly_from_text("spoly n=2\n1 2 0\n-2 1 1\n0 1 2\n0 0 1\n")
        assert K2 == spectral_polynomial(build_diffusion_pair(2, [(1, 2, 1)]))
        assert K2.coeffs[1].terms == {1: -2} and K2.coeffs[0].terms == {}
        with pytest.raises(ValidationError, match="duplicate"):
            spectral_poly_from_text("spoly n=2\n1 2 0\n0 1 1\n-2 1 1\n")

    @pytest.mark.parametrize("text", [
        "spoly n=0\n1 0 0\n", "spoly n=2\n-2 1 1\n", "spoly n=2\n2 2 0\n-2 1 1\n",
        "spoly n=2\n1 2 0\n-2 1 1\n3 0 0\n", "spoly n=2\n1 2 1\n-2 1 1\n"])
    def test_shape_checked(self, text):
        # n >= 1, monic in X, a_0 = 0
        with pytest.raises(ValidationError):
            spectral_poly_from_text(text)

    def test_header_required(self):
        with pytest.raises(ValidationError):
            spectral_poly_from_text("1 2 0\n")

    def test_large_header_costs_no_memory_per_absent_degree(self):
        # n = 2,000,000 needed 353 MiB when every X-degree got its own dict;
        # now only the pointers to one shared zero remain
        n = 2_000_000
        tracemalloc.start()
        try:
            P = spectral_poly_from_text(f"spoly n={n}\n1 {n} 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P.n == n and P.coefficient(n) == UniPoly.const(1)
        assert peak < 24 * (n + 1)
