"""Acceptance suite: the project's quality gates, one test per criterion.

Each criterion prints a PASS/FAIL summary line and pins its tolerances and
runtime budget.  Run with `pytest tests/test_acceptance.py -v` (add -s to
see the summary lines of passing criteria too).
"""
import random
import time
from fractions import Fraction
from math import comb

from mpmath import mp

from graphspectra.catalog import (all_graphs, connected_graphs,
                                  cospectral_pair, cospectral_pair_graphs,
                                  random_connected_graph, with_labels,
                                  with_powers_of_two)
from graphspectra.forests import buslov_polynomial, kelmans_coefficients
from graphspectra.game import GameConfig, GameSession, LoopbackEndpoint, solve_game
from graphspectra.graphs import (cartesian_product, is_isomorphic,
                                 laplacian_matrix, relabel_graph)
from graphspectra.polynomials import (evaluate_y, spectral_polynomial,
                                      tangent_cone)
from graphspectra.reconstruct import reconstruct_from_polynomial
from graphspectra.spectra import (cluster_and_assign, prediction_error_ratio,
                                  recover_spectral_poly, simulate_spectrum)
from naive_oracles import charpoly_division_free
from test_spectra import _graph_charpoly, perturbed_charpolys

SNAP_TOL = Fraction(1, 10 ** 6)


def _report(num, ok, detail, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail} [{elapsed:.1f}s / budget {budget}s]")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    return elapsed


def test_criterion_1_isospectral_pair_fidelity():
    t0 = time.time()
    dp1, dp2 = cospectral_pair()
    P1, P2 = spectral_polynomial(dp1), spectral_polynomial(dp2)
    same_at_one = evaluate_y(P1, 1) == evaluate_y(P2, 1)
    differ = P1 != P2
    cones_differ = tangent_cone(P1) != tangent_cone(P2)
    ok = same_at_one and differ and cones_differ
    _report(1, ok, "P1(X,1)=P2(X,1), P1!=P2, cones differ", t0, 10)
    assert same_at_one and differ and cones_differ


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2024)
    draws = 0
    classes = [g for n in range(1, 7) for g in connected_graphs(n) if g.m > 0]
    for g in classes:
        dp = with_labels(g, rng.sample(range(1, 17), g.m))
        assert buslov_polynomial(dp) == spectral_polynomial(dp), sorted(g.edges)
        draws += 1
    while draws < 200:
        g = rng.choice(classes)
        dp = with_labels(g, rng.sample(range(1, 17), g.m))
        assert buslov_polynomial(dp) == spectral_polynomial(dp), sorted(g.edges)
        draws += 1
    _report(2, True, f"determinant = forest formula on {draws} draws over "
            f"{len(classes)} connected classes up to n=6", t0, 300)


def test_criterion_3_kelmans_identity():
    t0 = time.time()
    checked = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            cs = kelmans_coefficients(g)
            cp = charpoly_division_free(laplacian_matrix(g))
            assert cp.coefficient(n) == 1
            assert cp.coefficient(0) == 0 or n == 0
            for k in range(1, n):
                assert cp.coefficient(n - k) == (-1) ** k * cs[k - 1], \
                    (sorted(g.edges), k)
            checked += 1
    _report(3, True, f"quotient tree counts match charpoly on all "
            f"{checked} graphs up to n=6", t0, 300)


def test_criterion_4_reconstruction_round_trip():
    t0 = time.time()
    rng = random.Random(4)
    done = 0
    while done < 300:
        g = random_connected_graph(rng.randint(2, 7), rng)
        if g.m > 12:
            continue
        h = reconstruct_from_polynomial(
            spectral_polynomial(with_powers_of_two(g)))
        assert is_isomorphic(g, h), sorted(g.edges)
        done += 1
    g1, g2 = cospectral_pair_graphs()
    h1 = reconstruct_from_polynomial(spectral_polynomial(with_powers_of_two(g1)))
    h2 = reconstruct_from_polynomial(spectral_polynomial(with_powers_of_two(g2)))
    assert is_isomorphic(h1, g1) and not is_isomorphic(h1, g2)
    assert is_isomorphic(h2, g2) and not is_isomorphic(h2, g1)
    _report(4, True, f"{done} random graphs (n<=7) plus both catalog "
            f"cospectral graphs reconstruct correctly", t0, 600)


def test_criterion_5_spectrum_recovery_pipeline():
    t0 = time.time()
    rng = random.Random(5)
    instances = 0
    for n in range(2, 5):
        for g in connected_graphs(n):
            if g.m > 4:
                continue  # labels must be distinct members of {1,2,4,8}
            base = [1, 2, 4, 8][: g.m]
            assignments_of_labels = [base, rng.sample(base, len(base))]
            for labels in assignments_of_labels:
                dp = with_labels(g, labels)
                D = dp.total_weight
                P = spectral_polynomial(dp)
                samples = [simulate_spectrum(dp, q, 1 - D, 1, 512)
                           for q in (101, 1009)]
                assignments = cluster_and_assign(samples)
                for q, a in zip((101, 1009), assignments):
                    res = recover_spectral_poly(a, q, D)
                    assert res.snap_residual < SNAP_TOL
                    assert res.polynomial == P, (sorted(g.edges), labels, q)
                instances += 1
    _report(5, True, f"clustering + recovery exact on {instances} "
            f"label assignments, q in {{101, 1009}}, window [1-D, 1], "
            f"512-bit floor", t0, 600)


def test_criterion_6_perturbation_separation():
    """Perturbation separation on the catalog cospectral pair.

    C = E1 & E2 depends on how the two vertex sets are identified.  Under
    the standard labeling the perturbed families are exactly isospectral in
    eps (TestSeparation.test_catalog_pair_perturbation_degenerate in
    test_spectra.py), so the right graph is taken with vertices 2 and 3
    exchanged, giving C1 = {(1,7),(3,4)} and C2 = {(1,3),(2,4)}.  The test
    first checks over Z[eps][X] that det(XI - U(C) - eps*U(C1)) and
    det(XI - U(C) - eps*U(C2)) differ for this identification, then asserts
    at eps = 1/1000 and 192 bits: Hausdorff distance > 2^-48 between the two
    perturbed spectra, a separating eigenvector, and a first-order
    prediction-error ratio >= 3.5 under halving.
    """
    t0 = time.time()
    g1, g2 = cospectral_pair_graphs()
    g2 = relabel_graph(g2, {v: v for v in range(1, 9)} | {2: 3, 3: 2})
    p1, p2 = perturbed_charpolys(g1, g2)
    assert p1 != p2, "perturbed charpolys coincide exactly in eps"
    eps = Fraction(1, 1000)
    full, half, ratio = prediction_error_ratio(g1, g2, eps)
    assert full.extra_edges == (((1, 7), (3, 4)), ((1, 3), (2, 4)))
    hausdorff_positive = full.hausdorff_distance > mp.ldexp(1, -48)
    separating_found = full.separating_vector is not None
    ratio_ok = float(ratio) >= 3.5
    ok = hausdorff_positive and separating_found and ratio_ok
    measured = (f"hausdorff={mp.nstr(full.hausdorff_distance, 6)}, "
                f"separating eigenvector: {separating_found}, "
                f"error ratio={float(ratio):.4f}, max first-order error="
                f"{mp.nstr(max(full.max_prediction_error), 3)}")
    _report(6, ok, f"vertices 2<->3 exchanged, charpolys differ exactly; "
            f"{measured}", t0, 30)
    assert ok, ("criterion 6 needs hausdorff > 2^-48, a separating "
                f"eigenvector and error ratio >= 3.5; measured {measured}")


def _power_sums(coeffs, count):
    """p_0 .. p_(count-1) of the roots of the monic polynomial with
    ascending coefficients coeffs, by Newton's identities."""
    n = len(coeffs) - 1
    e = [(-1) ** k * coeffs[n - k] for k in range(n + 1)] + [0] * count
    p = [n]
    for k in range(1, count):
        p.append((-1) ** (k - 1) * k * e[k] + sum(
            (-1) ** (k - 1 + i) * e[k - i] * p[i] for i in range(1, k)))
    return p


def _composed_sum(f, g):
    """The monic polynomial whose roots are the sums a + b over the roots a
    of f and b of g (ascending coefficients): its power sums are
    p_k = sum_j C(k, j) p_j(f) p_(k-j)(g), turned back into coefficients
    by Newton's identities."""
    N = (len(f) - 1) * (len(g) - 1)
    pf, pg = _power_sums(f, N + 1), _power_sums(g, N + 1)
    p = [sum(comb(k, j) * pf[j] * pg[k - j] for j in range(k + 1))
         for k in range(N + 1)]
    e = [1]
    for k in range(1, N + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
        assert total % k == 0
        e.append(total // k)
    return [(-1) ** (N - i) * e[N - i] for i in range(N + 1)]


def test_criterion_7_product_additivity():
    # Spec(L(g box h)) is the multiset of pairwise sums, checked exactly:
    # det(X*I - L(g box h)) equals the composed sum of the factors'
    # characteristic polynomials, as integer polynomials
    t0 = time.time()
    graphs = [g for n in range(1, 5) for g in all_graphs(n)]
    charpolys = {g: _graph_charpoly(g) for g in graphs}
    pairs = 0
    for i, g in enumerate(graphs):
        for h in graphs[i:]:
            got = _graph_charpoly(cartesian_product(g, h))
            assert got == _composed_sum(charpolys[g], charpolys[h]), \
                (sorted(g.edges), sorted(h.edges))
            pairs += 1
    assert pairs == 171
    _report(7, True, f"det(XI - L(g box h)) = composed sum of the factors' "
            f"charpolys, exactly, on {pairs} pairs with up to 4 vertices "
            f"each", t0, 60)


def test_criterion_8_game_integration():
    t0 = time.time()
    games = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            res = solve_game(LoopbackEndpoint(GameSession(g, GameConfig(seed=n))))
            assert res.won, sorted(g.edges)
            assert len(res.primes_used) <= 3
            games += 1
    rng = random.Random(8)
    for i in range(20):
        g = random_connected_graph(6, rng)
        res = solve_game(LoopbackEndpoint(GameSession(g, GameConfig(seed=i))))
        assert res.won, sorted(g.edges)
        assert len(res.primes_used) <= 3
        games += 1
    _report(8, True, f"solver won all {games} games (exhaustive n<=5 plus "
            f"20 random n=6) within 3 primes", t0, 900)


def test_criterion_9_format_stability():
    t0 = time.time()
    import test_formats

    test_formats.test_graph_files()
    test_formats.test_polynomial_files()
    test_formats.test_spectrum_files()
    test_formats.test_protocol_transcripts()
    _report(9, True, "graph, polynomial, spectrum files and protocol "
            "transcripts round-trip bit-exactly", t0, 60)
