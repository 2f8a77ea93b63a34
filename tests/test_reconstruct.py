import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphspectra.catalog import (complete_graph, connected_graphs,
                                  cospectral_pair_graphs, path_graph,
                                  random_connected_graph, with_labels,
                                  with_powers_of_two)
from graphspectra.errors import RealizationError, ValidationError
from graphspectra.forests import EDGE_CAP, enumerate_forests
from graphspectra.graphs import Graph, build_diffusion_pair, is_isomorphic, relabel_graph
from graphspectra.polynomials import (SpectralPolynomial, spectral_poly_from_text,
                                      spectral_polynomial)
from graphspectra.reconstruct import (DecodedFamily, _drawings,
                                      _subset_decoder, decode_forest_family,
                                      realize_graph,
                                      reconstruct_from_polynomial)
from graphspectra.unipoly import UniPoly
from naive_oracles import subset_with_sum


def _poly(n, coeff_dicts):
    return SpectralPolynomial(n, tuple(UniPoly(d) for d in coeff_dicts))


class TestDecode:
    def test_k3_124(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        fam = decode_forest_family(spectral_polynomial(dp))
        assert fam.labels == (1, 2, 4)
        assert fam.families[1] == frozenset({
            (frozenset({1, 2}), 3), (frozenset({1, 4}), 3),
            (frozenset({2, 4}), 3)})
        assert fam.families[2] == frozenset({
            (frozenset({1}), 2), (frozenset({2}), 2), (frozenset({4}), 2)})

    def test_k2(self):
        fam = decode_forest_family(_poly(2, [{}, {1: -2}, {0: 1}]))
        assert fam.labels == (1,)
        assert fam.families[1] == frozenset({(frozenset({1}), 2)})

    def test_exponent_without_decomposition(self):
        bad = _poly(3, [{}, {9: 3}, {1: -2, 2: -2, 4: -2}, {0: 1}])
        with pytest.raises(ValidationError, match="no label-subset"):
            decode_forest_family(bad)

    def test_ambiguous_labels_detected(self):
        # labels {1,2,3}: exponent 3 reads as {3} or {1,2}
        bad = _poly(3, [{}, {4: 3, 5: 3}, {1: -2, 2: -2, 3: -2}, {0: 1}])
        with pytest.raises(ValidationError, match="subset-sum distinct"):
            decode_forest_family(bad)

    def test_label_count_capped_before_the_subset_search(self):
        # the even labels 2..64 and one odd exponent: no subset sums to it,
        # and an uncapped search for one takes time exponential in the labels
        n = 33
        lines = [f"spoly n={n}", f"1 {n} 0"]
        lines += [f"-2 {n - 1} {2 * k}" for k in range(1, n)]
        lines.append(f"3 {n - 2} 529")
        P = spectral_poly_from_text("\n".join(lines) + "\n")
        start = time.process_time()
        with pytest.raises(ValidationError, match=f"cap {EDGE_CAP}"):
            decode_forest_family(P)
        assert time.process_time() - start < 1

    def test_bad_magnitude(self):
        bad = _poly(3, [{}, {3: 7, 5: 3, 6: 3}, {1: -2, 2: -2, 4: -2}, {0: 1}])
        with pytest.raises(ValidationError, match="component"):
            decode_forest_family(bad)

    def test_bad_sign(self):
        bad = _poly(3, [{}, {3: -3, 5: 3, 6: 3}, {1: -2, 2: -2, 4: -2}, {0: 1}])
        with pytest.raises(ValidationError, match="sign"):
            decode_forest_family(bad)

    def test_decoded_labels_equal_pair_labels(self):
        rng = random.Random(55)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 6), rng)
            dp = with_powers_of_two(g)
            fam = decode_forest_family(spectral_polynomial(dp))
            assert sorted(fam.labels) == sorted(dp.label_values())


@given(st.data(), st.one_of(
    st.sets(st.integers(1, 40), max_size=8),
    st.sampled_from([{1, 2, 3}, {1, 2, 3, 4, 5}, {2, 4, 6, 8}, {3, 5, 8, 13}])))
def test_decoder_agrees_with_recursive_search(data, labels):
    # labels need not be subset-sum distinct: {1, 2, 3} reads 3 as {3} or {1, 2}
    labels = tuple(sorted(labels))
    target = data.draw(st.integers(0, sum(labels)))
    masks = _subset_decoder(labels)(target)
    oracle = subset_with_sum(labels, target)
    assert len(masks) == len(oracle)
    if len(masks) == 1:
        assert {a for j, a in enumerate(labels) if masks[0] >> j & 1} == oracle[0]


class TestRealize:
    def test_k3(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        fam = decode_forest_family(spectral_polynomial(dp))
        real = realize_graph(fam)
        assert is_isomorphic(real.graph, complete_graph(3))
        assert sorted(real.edge_labels.values()) == [1, 2, 4]

    def test_path(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (2, 3, 2)])
        real = realize_graph(decode_forest_family(spectral_polynomial(dp)))
        assert is_isomorphic(real.graph, path_graph(3))

    def test_disconnected_family_rejected(self):
        fam = DecodedFamily(2, (1,), {2: frozenset({(frozenset(), 1)})})
        with pytest.raises(RealizationError):
            realize_graph(fam)

    def test_disconnected_label_adjacency_rejected(self):
        # three pairwise disjoint edges cannot span 4 vertices
        fam = DecodedFamily(4, (1, 2, 4), {
            1: frozenset({(frozenset({1, 2, 4}), 1)}),
            2: frozenset({(frozenset({1, 2}), 4), (frozenset({1, 4}), 4),
                          (frozenset({2, 4}), 4)}),
            3: frozenset({(frozenset({1}), 2), (frozenset({2}), 2),
                          (frozenset({4}), 2)}),
            4: frozenset({(frozenset(), 1)})})
        with pytest.raises(RealizationError):
            realize_graph(fam)

    def test_triangle_listed_as_forest_rejected(self):
        # the paw: triangle 1, 2, 4 on vertices 1..3, pendant 8 at vertex 3.
        # Its pair adjacency is the paw's line graph, but the triangle is
        # also listed as a three-edge forest, which no graph has.
        paw = {
            1: frozenset({(frozenset({1, 2, 8}), 4), (frozenset({1, 4, 8}), 4),
                          (frozenset({2, 4, 8}), 4), (frozenset({1, 2, 4}), 4)}),
            2: frozenset({(frozenset({1, 2}), 3), (frozenset({1, 4}), 3),
                          (frozenset({2, 4}), 3), (frozenset({2, 8}), 3),
                          (frozenset({4, 8}), 3), (frozenset({1, 8}), 4)}),
            3: frozenset({(frozenset({a}), 2) for a in (1, 2, 4, 8)}),
            4: frozenset({(frozenset(), 1)})}
        with pytest.raises(RealizationError):
            realize_graph(DecodedFamily(4, (1, 2, 4, 8), paw))

    def test_family_not_downward_closed_rejected(self):
        # the path 1, 2 with the single-edge forest {2} missing
        fam = DecodedFamily(3, (1, 2), {
            1: frozenset({(frozenset({1, 2}), 3)}),
            2: frozenset({(frozenset({1}), 2)}),
            3: frozenset({(frozenset(), 1)})})
        with pytest.raises(RealizationError):
            realize_graph(fam)

    # K3 with labels 1, 2, 4, each family changed where the drawings do
    # not look (the drawings read only the two- and three-edge forests)
    _K3 = {1: frozenset({(frozenset({1, 2}), 3), (frozenset({1, 4}), 3),
                         (frozenset({2, 4}), 3)}),
           2: frozenset({(frozenset({1}), 2), (frozenset({2}), 2),
                         (frozenset({4}), 2)}),
           3: frozenset({(frozenset(), 1)})}

    @pytest.mark.parametrize("changed", [
        {2: _K3[2] | {(frozenset({8}), 2)}},  # a label outside fam.labels
        {0: frozenset()},  # a component count with no forest listed
        {2: _K3[2] | {(frozenset({1}), 3)}},  # one subset with two gammas
    ], ids=["foreign-label", "empty-records", "two-gammas"])
    def test_hand_built_family_rejected(self, changed):
        assert realize_graph(DecodedFamily(3, (1, 2, 4), self._K3)).graph.m == 3
        fam = DecodedFamily(3, (1, 2, 4), {**self._K3, **changed})
        assert sum(1 for _ in _drawings(fam)) > 0
        with pytest.raises(RealizationError):
            realize_graph(fam)

    def test_every_small_connected_graph(self):
        # n <= 6 and m <= 11 (133 graphs), each under two shuffled
        # powers-of-two labelings; includes Whitney's small cases K3, the
        # star K1,3, the paw, K4 - e and K4.  With triangles told apart from
        # stars, only the mirror image through the first edge is left.
        rng = random.Random(5)
        for n in range(2, 7):
            for g in connected_graphs(n):
                if g.m > 11:
                    continue
                for _ in range(2):
                    labels = [1 << i for i in range(g.m)]
                    rng.shuffle(labels)
                    dp = with_labels(g, labels, check_subset_sums=True)
                    fam = decode_forest_family(spectral_polynomial(dp))
                    assert sum(1 for _ in _drawings(fam)) <= 2
                    real = realize_graph(fam)
                    assert is_isomorphic(real.graph, g), (g.edges, labels)
                    produced = enumerate_forests(real.graph).as_label_families(
                        real.edge_labels)
                    assert produced == fam.families

    def test_realized_family_round_trips(self):
        rng = random.Random(77)
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 6), rng)
            dp = with_powers_of_two(g)
            fam = decode_forest_family(spectral_polynomial(dp))
            real = realize_graph(fam)
            produced = enumerate_forests(real.graph).as_label_families(
                real.edge_labels)
            assert produced == fam.families


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


_GRAPHS = [g for n in range(2, 6) for g in connected_graphs(n)]


@st.composite
def _small_polynomials(draw):
    """Random monic P with a_0 = 0 (n <= 5, Y-degrees <= 12, coefficients
    -8..8), or a small graph's P under labels from 1..12 with at most one
    monomial changed, so that both rejection and success are reached."""
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
    return _poly(g.n, coeffs)


@given(_small_polynomials())
def test_reconstruction_reproduces_polynomial_or_rejects(P):
    try:
        reconstruct_from_polynomial(P)
    except ValidationError:
        return
    real = realize_graph(decode_forest_family(P))
    dp = build_diffusion_pair(P.n, [(u, v, a) for (u, v), a in real.edge_labels.items()])
    assert spectral_polynomial(dp) == P
