import random
import time
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphspectra.catalog import (complete_graph, connected_graphs,
                                  cospectral_pair_graphs, path_graph,
                                  random_connected_graph, with_labels,
                                  with_powers_of_two)
from graphspectra.cli import main
from graphspectra.errors import RealizationError, ValidationError
from graphspectra.forests import EDGE_CAP, buslov_polynomial
from graphspectra.graphs import Graph, build_diffusion_pair, is_isomorphic, relabel_graph
from graphspectra.polynomials import (SpectralPolynomial, spectral_poly_from_text,
                                      spectral_polynomial)
from graphspectra.reconstruct import (_drawings, reconstruct_from_polynomial,
                                      reconstruct_labeled)
from graphspectra.unipoly import UniPoly


def _poly(n, coeff_dicts):
    return SpectralPolynomial(n, tuple(UniPoly(d) for d in coeff_dicts))


def _family_poly(n, families):
    """The polynomial of a hand-built forest family {i: {(labels, gamma)}}:
    sum of (-1)^(n-i) * gamma * Y^(sum of labels) * X^i."""
    coeffs = [{} for _ in range(n + 1)]
    for i, records in families.items():
        for subset, gamma in records:
            w = sum(subset)
            coeffs[i][w] = coeffs[i].get(w, 0) + (-1) ** (n - i) * gamma
    return _poly(n, coeffs)


class TestDecode:
    def test_k3_124(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        P = spectral_polynomial(dp)
        back = reconstruct_labeled(P)
        assert sorted(back.label_values()) == [1, 2, 4]
        assert is_isomorphic(back.graph, complete_graph(3))
        assert spectral_polynomial(back) == P

    def test_k2(self):
        back = reconstruct_labeled(_poly(2, [{}, {1: -2}, {0: 1}]))
        assert back.labels == (((1, 2), 1),)

    def test_exponent_without_decomposition(self):
        bad = _poly(3, [{}, {9: 3}, {1: -2, 2: -2, 4: -2}, {0: 1}])
        with pytest.raises(ValidationError, match="reproduces the polynomial"):
            reconstruct_labeled(bad)

    def test_ambiguous_labels_detected(self):
        # labels {1,2,3}: exponent 3 reads as {3} or {1,2}
        bad = _poly(3, [{}, {4: 3, 5: 3}, {1: -2, 2: -2, 3: -2}, {0: 1}])
        with pytest.raises(ValidationError, match="subset-sum distinct"):
            reconstruct_labeled(bad)

    def test_label_count_capped_before_the_subset_search(self):
        # the even labels 2..64 and one odd exponent: the label count is
        # checked before the subset-sum check, whose work doubles per label
        n = 33
        lines = [f"spoly n={n}", f"1 {n} 0"]
        lines += [f"-2 {n - 1} {2 * k}" for k in range(1, n)]
        lines.append(f"3 {n - 2} 529")
        P = spectral_poly_from_text("\n".join(lines) + "\n")
        start = time.process_time()
        with pytest.raises(ValidationError, match=f"cap {EDGE_CAP}"):
            reconstruct_labeled(P)
        assert time.process_time() - start < 1

    @pytest.mark.parametrize("coeff, k", [(-3, 2), (-2, 0)])
    def test_single_edge_coefficient_checked(self, coeff, k):
        bad = _poly(2, [{}, {k: coeff}, {0: 1}])
        with pytest.raises(ValidationError, match="single-edge"):
            reconstruct_labeled(bad)

    def test_bad_magnitude(self):
        bad = _poly(3, [{}, {3: 7, 5: 3, 6: 3}, {1: -2, 2: -2, 4: -2}, {0: 1}])
        with pytest.raises(ValidationError, match="reproduces the polynomial"):
            reconstruct_labeled(bad)

    def test_bad_sign(self):
        bad = _poly(3, [{}, {3: -3, 5: 3, 6: 3}, {1: -2, 2: -2, 4: -2}, {0: 1}])
        with pytest.raises(ValidationError, match="reproduces the polynomial"):
            reconstruct_labeled(bad)

    def test_decoded_labels_equal_pair_labels(self):
        rng = random.Random(55)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 6), rng)
            dp = with_powers_of_two(g)
            back = reconstruct_labeled(spectral_polynomial(dp))
            assert sorted(back.label_values()) == sorted(dp.label_values())


def _reading(dp):
    """The label adjacency and the three-edge-forest triples of a labeled
    graph, read off the graph itself rather than off its polynomial."""
    lab = dp.label_map()
    edges = dp.graph.sorted_edges()
    adjacent = {frozenset((lab[e], lab[f])) for e, f in combinations(edges, 2)
                if set(e) & set(f)}
    stars = {frozenset(lab[e] for e in t) for t in combinations(edges, 3)
             if len(set().union(*t)) > 3}  # three edges on 3 vertices: a triangle
    return adjacent, stars


class TestRealize:
    def test_k3(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        back = reconstruct_labeled(spectral_polynomial(dp))
        assert is_isomorphic(back.graph, complete_graph(3))
        assert sorted(back.label_values()) == [1, 2, 4]

    def test_path(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (2, 3, 2)])
        back = reconstruct_labeled(spectral_polynomial(dp))
        assert is_isomorphic(back.graph, path_graph(3))

    def test_disconnected_family_rejected(self):
        # two disjoint edges: no isolated vertex to split off, and the
        # labels' line graph is disconnected
        dp = build_diffusion_pair(4, [(1, 2, 1), (3, 4, 2)])
        with pytest.raises(RealizationError):
            reconstruct_labeled(spectral_polynomial(dp))

    def test_core_larger_than_labels_rejected(self):
        # valuation 1, so all three vertices are in the core, which one
        # label cannot connect
        bad = _poly(3, [{}, {1: 3}, {1: -2}, {0: 1}])
        with pytest.raises(RealizationError, match="cannot connect"):
            reconstruct_labeled(bad)

    def test_disconnected_label_adjacency_rejected(self):
        # three pairwise disjoint edges cannot span 4 vertices
        P = _family_poly(4, {
            1: {(frozenset({1, 2, 4}), 1)},
            2: {(frozenset({1, 2}), 4), (frozenset({1, 4}), 4),
                (frozenset({2, 4}), 4)},
            3: {(frozenset({1}), 2), (frozenset({2}), 2), (frozenset({4}), 2)},
            4: {(frozenset(), 1)}})
        with pytest.raises(RealizationError):
            reconstruct_labeled(P)

    def test_triangle_listed_as_forest_rejected(self):
        # the paw: triangle 1, 2, 4 on vertices 1..3, pendant 8 at vertex 3.
        # Its pair adjacency is the paw's line graph, but the triangle is
        # also listed as a three-edge forest, which no graph has.
        paw = {
            1: {(frozenset({1, 2, 8}), 4), (frozenset({1, 4, 8}), 4),
                (frozenset({2, 4, 8}), 4), (frozenset({1, 2, 4}), 4)},
            2: {(frozenset({1, 2}), 3), (frozenset({1, 4}), 3),
                (frozenset({2, 4}), 3), (frozenset({2, 8}), 3),
                (frozenset({4, 8}), 3), (frozenset({1, 8}), 4)},
            3: {(frozenset({a}), 2) for a in (1, 2, 4, 8)},
            4: {(frozenset(), 1)}}
        with pytest.raises(RealizationError):
            reconstruct_labeled(_family_poly(4, paw))

    def test_family_not_downward_closed_rejected(self):
        # the path 1, 2 with the single-edge forest {2} missing
        P = _family_poly(3, {
            1: {(frozenset({1, 2}), 3)},
            2: {(frozenset({1}), 2)},
            3: {(frozenset(), 1)}})
        with pytest.raises(RealizationError):
            reconstruct_labeled(P)

    # K3 with labels 1, 2, 4, changed where the drawings do not look: they
    # read the labels off a_2 and adjacency off a_1 at the pair sums 3, 5, 6
    _K3 = {1: {(frozenset({1, 2}), 3), (frozenset({1, 4}), 3),
               (frozenset({2, 4}), 3)},
           2: {(frozenset({1}), 2), (frozenset({2}), 2), (frozenset({4}), 2)},
           3: {(frozenset(), 1)}}
    _K3_ADJACENT = {frozenset({1, 2}), frozenset({1, 4}), frozenset({2, 4})}

    @pytest.mark.parametrize("changed", [
        {1: _K3[1] | {(frozenset({8}), 3)}},  # a label outside a_2
        {1: _K3[1] | {(frozenset({1, 2, 4}), 3)}},  # the triangle as a tree
        {1: _K3[1] | {(frozenset({2}), 5)}},  # a magnitude off the pair sums
    ], ids=["foreign-label", "triangle-as-tree", "non-pair-magnitude"])
    def test_hand_built_family_rejected(self, changed):
        K3 = _family_poly(3, self._K3)
        assert reconstruct_labeled(K3).graph.m == 3
        assert sum(1 for _ in _drawings(3, (1, 2, 4), self._K3_ADJACENT, set())) == 2
        P = _family_poly(3, {**self._K3, **changed})
        assert P.coefficient(2) == K3.coefficient(2)
        assert all(P.coefficient(1).coefficient(k) == 3 for k in (3, 5, 6))
        with pytest.raises(RealizationError):
            reconstruct_labeled(P)

    def test_every_small_connected_graph(self):
        # n <= 6 and m <= 11 (133 graphs), each under two shuffled
        # powers-of-two labelings; includes Whitney's small cases K3, the
        # star K1,3, the paw, K4 - e and K4.  With triangles told apart from
        # stars, only the mirror image through the first edge is left.
        # Results are checked by the determinant route, which shares nothing
        # with the forest polynomial that reconstruction checks against.
        rng = random.Random(5)
        for n in range(2, 7):
            for g in connected_graphs(n):
                if g.m > 11:
                    continue
                for _ in range(2):
                    labels = [1 << i for i in range(g.m)]
                    rng.shuffle(labels)
                    dp = with_labels(g, labels, check_subset_sums=True)
                    P = spectral_polynomial(dp)
                    assert sum(1 for _ in _drawings(
                        n, tuple(sorted(labels)), *_reading(dp))) <= 2
                    back = reconstruct_labeled(P)
                    assert is_isomorphic(back.graph, g), (g.edges, labels)
                    assert spectral_polynomial(back) == P

    def test_realized_family_round_trips(self):
        rng = random.Random(77)
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 6), rng)
            P = spectral_polynomial(with_powers_of_two(g))
            back = reconstruct_labeled(P)
            assert buslov_polynomial(back) == P == spectral_polynomial(back)


class TestReconstruct:
    def test_k2(self):
        g = reconstruct_from_polynomial(_poly(2, [{}, {1: -2}, {0: 1}]))
        assert is_isomorphic(g, path_graph(2))

    def test_single_vertex(self):
        g = reconstruct_from_polynomial(_poly(1, [{}, {0: 1}]))
        assert g.n == 1 and g.m == 0

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 7), rng)
            if g.m > 12:
                continue
            dp = with_powers_of_two(g)
            h = reconstruct_from_polynomial(spectral_polynomial(dp))
            assert is_isomorphic(g, h)

    def test_round_trip_eight_vertices(self):
        # shuffled powers-of-two labels, up to three circuits
        rng = random.Random(8)
        for _ in range(6):
            g = random_connected_graph(8, rng, max_extra_edges=3)
            labels = [1 << i for i in range(g.m)]
            rng.shuffle(labels)
            dp = with_labels(g, labels, check_subset_sums=True)
            h = reconstruct_from_polynomial(spectral_polynomial(dp))
            assert is_isomorphic(g, h)

    def test_figure_pair_separates(self):
        g1, g2 = cospectral_pair_graphs()
        h1 = reconstruct_from_polynomial(
            spectral_polynomial(with_powers_of_two(g1)))
        h2 = reconstruct_from_polynomial(
            spectral_polynomial(with_powers_of_two(g2)))
        assert is_isomorphic(h1, g1) and not is_isomorphic(h1, g2)
        assert is_isomorphic(h2, g2) and not is_isomorphic(h2, g1)

    def test_equal_polynomials_give_isomorphic_graphs(self):
        # two relabelings of the same graph produce the same polynomial,
        # whose reconstruction is then literally identical
        rng = random.Random(3)
        g = random_connected_graph(5, rng)
        perm = dict(zip(range(1, 6), rng.sample(range(1, 6), 5)))
        h = relabel_graph(g, perm)
        # align labels with the permutation so the pairs are equivalent
        dp_g = with_powers_of_two(g)
        label_of = {tuple(sorted((perm[u], perm[v]))): a
                    for (u, v), a in dp_g.labels}
        dp_h = build_diffusion_pair(
            5, [(u, v, label_of[(u, v)]) for u, v in h.sorted_edges()])
        P1, P2 = spectral_polynomial(dp_g), spectral_polynomial(dp_h)
        assert P1 == P2
        r1 = reconstruct_from_polynomial(P1)
        r2 = reconstruct_from_polynomial(P2)
        assert r1.edges == r2.edges
        assert is_isomorphic(r1, g)


@pytest.mark.parametrize("n", [120, 2_000_000])
def test_one_edge_file_reconstructs_in_bounded_time(tmp_path, capsys, n):
    # the header's n only adds isolated vertices, split off as X^(n-2)
    path = tmp_path / "edge.spoly"
    path.write_text(f"spoly n={n}\n1 {n} 0\n-2 {n - 1} 1\n")
    start = time.process_time()
    assert main(["reconstruct", str(path)]) == 0
    assert time.process_time() - start < 1
    assert capsys.readouterr().out == f"{n} 1\n1 2 1\n"


def test_isolated_vertices_follow_the_core():
    # a triangle plus two isolated vertices: P = X^2 * P(K3)
    P = spectral_polynomial(build_diffusion_pair(
        5, [(1, 4, 1), (4, 5, 2), (1, 5, 4)]))
    back = reconstruct_labeled(P)
    assert back.graph == Graph(5, frozenset({(1, 2), (1, 3), (2, 3)}))
    assert spectral_polynomial(back) == P


_GRAPHS = [g for n in range(2, 6) for g in connected_graphs(n)]


@st.composite
def _small_polynomials(draw):
    """Random monic P with a_0 = 0 (n <= 5, Y-degrees <= 12, coefficients
    -8..8), or X^k times a small graph's P under labels from 1..12 with at
    most one monomial changed, so that both rejection and success are
    reached."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        middle = [draw(st.dictionaries(st.integers(0, 12), st.integers(-8, 8),
                                       max_size=6)) for _ in range(n - 1)]
        return _poly(n, [{}] + middle + [{0: 1}])
    g = draw(st.sampled_from(_GRAPHS))
    labels = draw(st.lists(st.integers(1, 12), min_size=g.m, max_size=g.m,
                           unique=True))
    P = spectral_polynomial(with_labels(g, labels))
    coeffs = [dict(a.terms) for a in P.coeffs]
    if draw(st.booleans()):
        i = draw(st.integers(1, g.n - 1))
        coeffs[i][draw(st.integers(0, 12))] = draw(st.integers(-8, 8))
    k = draw(st.integers(0, 3))
    return _poly(g.n + k, [{}] * k + coeffs)


@given(_small_polynomials())
def test_reconstruction_reproduces_polynomial_or_rejects(P):
    try:
        back = reconstruct_labeled(P)
    except ValidationError:
        return
    assert spectral_polynomial(back) == P
