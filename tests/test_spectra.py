import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

from graphspectra import spectra
from graphspectra.catalog import (complete_graph, connected_graphs,
                                  cospectral_pair_graphs, cycle_graph,
                                  path_graph, random_connected_graph,
                                  star_graph, with_labels)
from graphspectra.errors import (MAX_WEIGHT_BITS, AmbiguousClusteringError,
                                 PrecisionError, ValidationError)
from graphspectra.game import (GameSession, LoopbackEndpoint, decode_message,
                               solve_game)
from graphspectra.graphs import (Graph, build_diffusion_pair,
                                 edge_set_laplacian, laplacian_matrix)
from graphspectra.polynomials import spectral_polynomial
from graphspectra.realroots import real_roots
from graphspectra.spectra import (SEPARATION_BITS, _level_charpoly,
                                  _scaled_charpoly, cluster_and_assign,
                                  dyadic_fraction, hex_dyadic,
                                  is_prime_power, parse_dyadic_fraction,
                                  parse_hex_dyadic,
                                  prediction_error_ratio,
                                  recover_spectral_poly,
                                  separation_experiment, simulate_spectrum,
                                  spectrum_from_text, spectrum_to_text,
                                  sym_eigs)
from graphspectra.unipoly import UniPoly

from naive_oracles import (charpoly_division_free, dense_scaled_charpoly,
                           level_laplacian)


def perturbed_charpolys(g1, g2):
    """det(X*I - U(C) - eps*U(C_i)) for i = 1, 2, exactly over Z[eps][X].

    C = E1 & E2 and C_i = E_i - C, as in separation_experiment.  Berkowitz
    runs on UniPoly entries in eps; each result is a UniPoly in X whose
    coefficients are UniPolys in eps.
    """
    n = g1.n
    E1, E2 = set(g1.edges), set(g2.edges)
    UC = edge_set_laplacian(n, sorted(E1 & E2))
    out = []
    for Ci in (E1 - E2, E2 - E1):
        U = edge_set_laplacian(n, sorted(Ci))
        out.append(charpoly_division_free(
            [[UniPoly({0: UC[i][j], 1: U[i][j]}) for j in range(n)]
             for i in range(n)]))
    return tuple(out)


def _floats(values):
    return sorted(float(v) for v in values)


class TestSymEigs:
    def test_k2(self):
        vals = sym_eigs([[1, -1], [-1, 1]], 128)
        assert _floats(vals) == pytest.approx([0, 2], abs=1e-30)

    def test_k3(self):
        vals = sym_eigs(laplacian_matrix(complete_graph(3)), 128)
        assert _floats(vals) == pytest.approx([0, 3, 3], abs=1e-30)

    def test_c4(self):
        vals = sym_eigs(laplacian_matrix(cycle_graph(4)), 128)
        assert _floats(vals) == pytest.approx([0, 2, 2, 4], abs=1e-30)

    def test_trace_matches(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(1, 7)
            M = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    M[i][j] = M[j][i] = rng.randint(-9, 9)
            vals = sym_eigs(M, 192)
            with mp.workprec(256):
                assert abs(mp.fsum(vals) - sum(M[i][i] for i in range(n))) \
                    < mp.mpf(2) ** -150

    def test_eigenvectors(self):
        A = edge_set_laplacian(4, [(1, 2), (2, 3), (3, 4)])
        vals, vecs = sym_eigs(A, 160, want_vectors=True)
        with mp.workprec(224):
            for lam, v in zip(vals, vecs):
                for i in range(4):
                    Av = mp.fsum(A[i][j] * v[j] for j in range(4))
                    assert abs(Av - lam * v[i]) < mp.mpf(2) ** -120

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValidationError):
            sym_eigs([[1, 2], [3, 4]], 64)

    def test_mpf_input_matches_certified_route(self):
        # eigsy on mpf entries against the certified roots of the level's
        # charpoly, which lie within a relative 2^-(bits-4)
        rng = random.Random(5)
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 5), rng)
            dp = with_labels(g, rng.sample(range(1, 11), g.m))
            r = rng.choice((0, 1, 2))
            M = level_laplacian(dp, 5, r)
            with mp.workprec(256):
                numeric = sym_eigs([[mp.mpf(x.numerator) / x.denominator
                                     for x in row] for row in M], 192)
            certified = real_roots(_level_charpoly(dp, 5, r)[0], 192)
            norm = max(sum(abs(x) for x in row) for row in M)
            with mp.workprec(256):
                for a, b in zip(numeric, certified):
                    assert abs(a - b) <= mp.ldexp(float(norm), -150), (a, b)

    def test_eigsy_failure_is_precision_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise RuntimeError("tridiag_eigen: no convergence")

        monkeypatch.setattr(mp, "eigsy", no_convergence)
        with pytest.raises(PrecisionError, match="no convergence"):
            sym_eigs([[mp.mpf(2), 1], [1, 2]], 64)
        with pytest.raises(PrecisionError):
            sym_eigs([[2, 1], [1, 2]], 64, want_vectors=True)
        with pytest.raises(PrecisionError):
            sym_eigs([[2, 1], [1, 2]], 64)
        # the certified route never calls eigsy
        coeffs = dense_scaled_charpoly([[2, 1], [1, 2]])
        assert _floats(real_roots(coeffs, 64)) == [1, 3]

    def test_fiedler_positive_for_connected(self):
        rng = random.Random(19)
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 6), rng)
            dp = with_labels(g, rng.sample(range(1, 12), g.m))
            for y_exp in (0, 1):  # y = q^(1-r) at r=1, r=0
                vals = sym_eigs(level_laplacian(dp, 3, 1 - y_exp), 160)
                assert abs(float(vals[0])) < 1e-30
                assert float(vals[1]) > 0


def _graph_charpoly(g):
    """Ascending coefficients of det(X*I - L) for g's unweighted Laplacian."""
    return _scaled_charpoly(g.n, 1, [(e, 1) for e in g.edges])


def _matches_eigsy(M, coeffs, bits):
    """The certified roots of M's charpoly (ascending coefficients) at
    `bits` against eigsy at twice the bits: nonzero values within a
    relative 2^-(bits-8), exact zeros against eigsy values below 2^-bits
    times the matrix norm.  Returns the certified values as the equal mpf,
    converted exactly for the mpf arithmetic here."""
    got = [mp.make_mpf(v._mpf_) for v in real_roots(coeffs, bits)]
    want = sym_eigs(M, 2 * bits)
    assert len(got) == len(want)
    norm = float(max(sum(abs(Fraction(x)) for x in row) for row in M))
    with mp.workprec(2 * bits + 64):
        for g, w in zip(got, want):
            if g == 0:
                assert abs(w) <= norm * mp.ldexp(1, -bits)
            else:
                assert abs(g - w) <= abs(g) * mp.ldexp(1, -(bits - 8)), (g, w)
    return got


def _decode_bits(dp, q, r):
    """The bit size of the largest integer the digit decode rounds at level
    r's node, from the exact charpoly of the dense level Laplacian:
    |a_i(q^(1-r))| for r <= 1, and b^D |a_i(1/b)| for r > 1, b = q^(r-1)
    and D the labels' total weight, each to the nearest integer."""
    P = charpoly_division_free(level_laplacian(dp, q, r))
    scale = q ** ((r - 1) * dp.total_weight) if r > 1 else 1
    top = max(abs(Fraction(c)) * scale for c in P.terms.values())
    return int(top + Fraction(1, 2)).bit_length()


def _coefficient_rule(dp, q, r, floor):
    """Level r's precision: level 1 at max(floor, bits_1 + 64), every other
    level at max(level 1's, bits_r + bit_length(n - 1) + 25), bits_r the
    _decode_bits of level r."""
    one = max(floor, _decode_bits(dp, q, 1) + 64)
    if r == 1:
        return one
    return max(one, _decode_bits(dp, q, r) + (dp.graph.n - 1).bit_length() + 25)


def _values_at(dp, q, r_min, precisions):
    """The ascending union of the levels r_min, r_min + 1, ... refined at
    the given precisions, one per level."""
    return tuple(sorted(
        v for r, bits in enumerate(precisions, r_min)
        for v in real_roots(_level_charpoly(dp, q, r)[0], bits)))


class TestCharpolyRoute:
    def test_random_level_laplacians(self):
        rng = random.Random(31)
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 6), rng)
            dp = with_labels(g, rng.sample(range(1, 7), g.m))
            q = rng.choice((3, 5))
            for r in (0, 1):
                M = level_laplacian(dp, q, r)
                vals = _matches_eigsy(M, _level_charpoly(dp, q, r)[0], 128)
                assert sum(1 for v in vals if v == 0) == 1

    def test_rational_level(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 3)])
        M = level_laplacian(dp, 3, 2)
        assert any(x.denominator > 1 for row in M for x in row)
        vals = _matches_eigsy(M, _level_charpoly(dp, 3, 2)[0], 128)
        assert vals[0] == 0 and vals[1] > 0

    def test_repeated_eigenvalues(self):
        k5 = _matches_eigsy(laplacian_matrix(complete_graph(5)),
                            _graph_charpoly(complete_graph(5)), 128)
        assert _floats(k5) == pytest.approx([0, 5, 5, 5, 5], abs=1e-30)
        c4 = _matches_eigsy(laplacian_matrix(cycle_graph(4)),
                            _graph_charpoly(cycle_graph(4)), 128)
        assert _floats(c4) == pytest.approx([0, 2, 2, 4], abs=1e-30)
        dp = with_labels(star_graph(4), [2, 2, 2], require_distinct_labels=False)
        uniform = _matches_eigsy(level_laplacian(dp, 7, 0),
                                 _level_charpoly(dp, 7, 0)[0], 128)
        assert _floats(uniform) == pytest.approx([0, 49, 49, 196], abs=1e-25)

    def test_disconnected_graph(self):
        dp = with_labels(Graph.of(5, [(1, 2), (3, 4), (4, 5)]), [1, 2, 3])
        for r in (0, 1):
            vals = _matches_eigsy(level_laplacian(dp, 3, r),
                                  _level_charpoly(dp, 3, r)[0], 128)
            assert [v for v in vals if v == 0] == [0, 0]
            assert all(v > 0 for v in vals[2:])

    def test_indefinite_integer_matrices(self):
        rng = random.Random(41)
        negatives = 0
        for _ in range(12):
            n = rng.randint(1, 6)
            M = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    M[i][j] = M[j][i] = rng.randint(-9, 9)
            vals = _matches_eigsy(M, dense_scaled_charpoly(M), 128)
            negatives += sum(1 for v in vals if v < 0)
        assert negatives > 0

    def test_precision_follows_coefficient_rule(self):
        # each level is refined at its own rule; the header is the least
        # of them, which is level 1's
        dp = build_diffusion_pair(4, [(1, 2, 1), (2, 3, 2), (3, 4, 4), (1, 4, 8)])
        for q, r_min, r_max, floor in ((101, 0, 1, 64), (101, -3, 1, 512),
                                       (13, -1, 2, 64), (5, 0, 1, 4096)):
            rules = [_coefficient_rule(dp, q, r, floor)
                     for r in range(r_min, r_max + 1)]
            s = simulate_spectrum(dp, q, r_min, r_max, floor)
            assert s.values == _values_at(dp, q, r_min, rules)
            assert s.precision_bits == min(rules) == rules[1 - r_min]
        # without a floor every level is refined at its own rule
        for q, r_min, r_max in ((101, -3, 1), (13, -1, 2), (2, 0, 1)):
            rules = [_coefficient_rule(dp, q, r, 0)
                     for r in range(r_min, r_max + 1)]
            s = simulate_spectrum(dp, q, r_min, r_max)
            assert s.values == _values_at(dp, q, r_min, rules)
            assert s.precision_bits == rules[1 - r_min] < 128
        # a floor at or below level 1's rule reads back as exactly that rule
        rule = _coefficient_rule(dp, 101, 1, 0)
        for floor in (8, rule - 1, rule):
            assert simulate_spectrum(dp, 101, -3, 1, floor).precision_bits == rule

    def test_sign_change_certificates(self):
        # every simple nonzero value v is an exact root of some level's
        # characteristic polynomial P_r or changes its sign between
        # v*(1 -/+ 2^-(p_r-4)), p_r that level's own precision; repeated
        # values (no sign change at even multiplicity) are left to the
        # eigsy comparisons above
        rng = random.Random(43)
        checked = 0
        for _ in range(4):
            g = random_connected_graph(rng.randint(2, 5), rng)
            dp = with_labels(g, rng.sample(range(1, 11), g.m))
            s = simulate_spectrum(dp, 3, -1, 2, 96)
            levels = range(-1, 3)
            charpolys = [charpoly_division_free(level_laplacian(dp, 3, r))
                         for r in levels]
            eps = [Fraction(1, 2 ** (_coefficient_rule(dp, 3, r, 96) - 4))
                   for r in levels]
            values = s.nonzero_values()
            for v in values:
                if values.count(v) > 1:
                    continue
                x = Fraction(dyadic_fraction(v))
                assert any(P(x) == 0 or P(x * (1 - e)) * P(x * (1 + e)) < 0
                           for P, e in zip(charpolys, eps)), v
                checked += 1
            assert s.zeros_per_level == 1
        assert checked >= 30

    def test_spectrum_text_round_trip_with_repeats(self):
        dp = with_labels(Graph.of(5, [(1, 2), (1, 3), (4, 5)]), [3, 3, 3],
                         require_distinct_labels=False)
        s = simulate_spectrum(dp, 7, -1, 2, 128)
        assert s.zeros_per_level == 2
        text = spectrum_to_text(s)
        back = spectrum_from_text(text)
        assert back == s
        assert spectrum_to_text(back) == text


class TestExactDecimal:
    """The exact decimal-digit spelling of a dyadic mpf, for the game
    protocol and JSON reports: the dyadic fractions 0, N or [-]m/2^k (m odd,
    k >= 1)."""

    def test_round_trip(self):
        rng = random.Random(1)
        with mp.workprec(260):
            for _ in range(100):
                x = mp.mpf(rng.getrandbits(180) | 1) * mp.ldexp(
                    1, rng.randrange(-200, 200))
                if rng.random() < 0.5:
                    x = -x
                s = dyadic_fraction(x)
                y = parse_dyadic_fraction(s)
                assert y._mpf_ == x._mpf_
                assert dyadic_fraction(y) == s

    def test_zero(self):
        assert dyadic_fraction(mp.mpf(0)) == "0"
        assert parse_dyadic_fraction("0")._mpf_ == mp.mpf(0)._mpf_

    def test_digit_limit(self):
        # the raised int<->str limit carries values whose numerator and 2^k
        # exceed the default 4,300 digits; a value past it is refused
        x = mp.make_mpf(from_man_exp((1 << 20_000) - 1, -20_000))
        assert parse_dyadic_fraction(dyadic_fraction(x))._mpf_ == x._mpf_
        with pytest.raises(ValidationError, match="digits"):
            parse_dyadic_fraction("7" * 2_000_001)
        with pytest.raises(ValidationError, match="digits"):
            parse_dyadic_fraction("1/" + "2" * 2_000_001)

    def test_fraction_conversions(self):
        x = parse_dyadic_fraction("7/8")
        assert x._mpf_ == (0, 7, -3, 3)
        assert dyadic_fraction(x) == "7/8"
        assert dyadic_fraction(-mp.make_mpf(x._mpf_)) == "-7/8"
        assert parse_dyadic_fraction("-12") == -12
        assert dyadic_fraction(mp.mpf(-12)) == "-12"
        assert dyadic_fraction(mp.mpf(1024)) == "1024"
        with pytest.raises(ValidationError):
            dyadic_fraction(mp.inf)

    @given(st.booleans(), st.integers(0, 2 ** 300), st.integers(-400, 400))
    def test_round_trip_any_mantissa_and_exponent(self, negative, k, exp):
        man = -(2 * k + 1) if negative else 2 * k + 1
        x = mp.make_mpf(from_man_exp(man, exp))
        s = dyadic_fraction(x)
        assert parse_dyadic_fraction(s)._mpf_ == x._mpf_
        assert Fraction(s) == Fraction(man) * Fraction(2) ** exp

    @pytest.mark.parametrize("text", [
        "", "1.2.3", "abc", "1e5", "1/3", ".", ".5", "5.", "1_000", " 1",
        "+", "-", "0x10", "nan", "inf",
        "-0", "+1", "01", "-01", "1/02", "0.5", "1e3", "1_0", "1 ", "1 /2",
        "2/4", "1/1", "-3/1", "0/2", "3/6", "1/0", "1/", "/2", "1//2",
        "1/-2", "1/2/4", "0x1p-1"])
    def test_malformed_rejected(self, text):
        # one canonical spelling per value: 0, [-]N, or [-]m/2^k, m odd,
        # k >= 1, in decimal digits without signs or zeros in front
        with pytest.raises(ValidationError):
            parse_dyadic_fraction(text)


@pytest.mark.parametrize("setup, limit", [
    ("pass", 2_000_000),
    ("sys.set_int_max_str_digits(0)", 0),  # switched off: stays off
    ("del sys.get_int_max_str_digits", None)])  # as before Python 3.10.7
def test_import_raises_the_digit_limit_only_where_one_is_set(setup, limit):
    code = (f"import sys; {setup}; import graphspectra.spectra; "
            "print(getattr(sys, 'get_int_max_str_digits', lambda: None)())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str(limit)


class TestHexDyadic:
    @given(st.booleans(), st.integers(0, 2 ** 300), st.integers(-10 ** 7 + 1, 10 ** 7 - 1))
    def test_round_trip(self, negative, k, exp):
        man = 2 * k + 1
        x = mp.make_mpf(from_man_exp(-man if negative else man, exp))
        s = hex_dyadic(x)
        y = parse_hex_dyadic(s)
        assert y._mpf_ == x._mpf_
        assert hex_dyadic(y) == s

    def test_values(self):
        assert hex_dyadic(mp.mpf(0)) == "0"
        assert parse_hex_dyadic("0")._mpf_ == mp.mpf(0)._mpf_
        assert hex_dyadic(mp.mpf(1)) == "0x1p0"
        assert hex_dyadic(mp.mpf(-12)) == "-0x3p2"
        x = parse_hex_dyadic("0x7p-3")
        assert x._mpf_ == (0, 7, -3, 3)
        assert parse_hex_dyadic("-0xbp4") == -176
        with pytest.raises(ValidationError):
            hex_dyadic(mp.inf)

    @pytest.mark.parametrize("exp", [10 ** 7, -10 ** 7, -(2 ** 30)])
    def test_writer_refuses_what_the_reader_refuses(self, exp):
        # more than seven exponent digits: K2 at level 2 with q = 2^63 and
        # label 2^18 has the eigenvalue 2 q^-a, about 2^-(1.65 * 10^7)
        with pytest.raises(ValidationError, match="seven digits"):
            hex_dyadic(mp.make_mpf(from_man_exp(3, exp)))

    @pytest.mark.parametrize("text", [
        "0x2p0", "0xap-1", "0x0p0",  # even mantissa
        "0xBp0", "0X1p0", "0x1P0",  # uppercase
        "0x01p0", "0x1p03",  # leading zero
        "+0x1p0", "0x1p+3",  # plus sign
        "-0", "0x1p-0",  # negative zero
        "1p0", "bp3", "x1p0",  # missing 0x
        "0.875", "12", "-3",  # an old decimal line
        "0x1p10000000", "0x1p-" + "1" * 40,  # more than 7 exponent digits
        "", " 0x1p0", "0x1p0 ", "0x1.8p0", "0x1p", "0x", "0x1", "nan", "inf"])
    def test_malformed_rejected(self, text):
        # one canonical spelling per value: [-]0x<odd lowercase hex>p<exponent>, or 0
        with pytest.raises(ValidationError):
            parse_hex_dyadic(text)


class TestPrimePower:
    def test_values(self):
        assert all(is_prime_power(q) for q in (2, 3, 4, 5, 8, 9, 101, 1009, 27))
        assert not any(is_prime_power(q) for q in (1, 6, 12, 100, 1001))

    def test_matches_trial_division(self):
        def trial_division(q):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            while q % p == 0:
                q //= p
            return q == 1
        assert all(is_prime_power(q) == trial_division(q) for q in range(2, 3000))

    def test_large_values_without_trial_division(self):
        start = time.process_time()
        assert is_prime_power(2 ** 61 - 1)
        assert is_prime_power((2 ** 31 - 1) ** 2)
        assert is_prime_power(3 ** 40)
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
        assert not any(is_prime_power(q) for q in (
            3 * (2 ** 61 - 1), 3215031751, 2 ** 64 - 1,
            (2 ** 31 - 1) * (2 ** 31 + 11)))
        assert time.process_time() - start < 1

    def test_limit_named(self):
        assert is_prime_power(2 ** 63)
        with pytest.raises(ValidationError, match=r"2\^64"):
            is_prime_power(2 ** 64)


class TestSimulate:
    def test_k2_window(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        s = simulate_spectrum(dp, 5, 0, 1, 128)
        assert _floats(s.values) == pytest.approx([0, 0, 2, 10], abs=1e-20)
        s7 = simulate_spectrum(dp, 7, 0, 1, 128)
        assert _floats(s7.values) == pytest.approx([0, 0, 2, 14], abs=1e-20)

    def test_k3_uniform_window(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)],
                                  require_distinct_labels=False)
        s = simulate_spectrum(dp, 101, -1, 1, 128)
        assert _floats(s.values) == pytest.approx(
            [0, 0, 0, 3, 3, 303, 303, 30603, 30603], rel=1e-20)

    def test_sizes_and_zero_counts(self):
        rng = random.Random(3)
        for _ in range(6):
            g = random_connected_graph(rng.randint(2, 5), rng)
            dp = with_labels(g, rng.sample(range(1, 9), g.m))
            s = simulate_spectrum(dp, 11, -2, 1, 128)
            width = 4
            assert len(s.values) == g.n * width
            assert len(s.zero_values()) == width  # connected: one per level
            assert s.n_per_level == g.n and s.zeros_per_level == 1

    def test_disconnected_zero_count(self):
        g = Graph.of(4, [(1, 2), (3, 4)])
        dp = with_labels(g, [1, 2])
        s = simulate_spectrum(dp, 7, 0, 1, 128)
        assert s.zeros_per_level == 2

    def test_uniform_scaling_law(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)],
                                  require_distinct_labels=False)
        s = simulate_spectrum(dp, 7, -2, 1, 192)
        base = sorted(v for v in s.values if 0 < float(v) < 4)
        with mp.workprec(256):
            for r in (0, -1, -2):
                scale = mp.mpf(7) ** (1 - r)
                level = sorted(
                    v for v in s.values
                    if scale * 2 < v < scale * 4)
                for a, b in zip(base, level):
                    assert abs(b - scale * a) < mp.ldexp(scale, -100)

    def test_window_must_contain_one(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        with pytest.raises(ValidationError):
            simulate_spectrum(dp, 5, 2, 3, 128)

    def test_level_weights_capped_at_their_bit_size(self):
        # q = 2 has bit length 2, so at the window's farthest level |1 - r|
        # the label a reads |1 - r| * a * 2 bits: at the cap K2 simulates,
        # and one more unit of label is refused before any weight is built
        cap = MAX_WEIGHT_BITS
        for label, window in ((cap // 2, (0, 1)), (cap // 2, (1, 2)),
                              (cap // 4, (-1, 1)), (cap // 4, (1, 3))):
            s = simulate_spectrum(build_diffusion_pair(2, [(1, 2, label)]), 2, *window)
            assert s.zeros_per_level == 1 and len(s.values) == 2 * s.width
            if window[0] < 1:  # level r_min's eigenvalue 2 * 2^((1 - r_min) * label)
                assert s.values[-1] == 2 ** ((1 - window[0]) * label + 1)
            with pytest.raises(ValidationError, match="exceed the cap"):
                simulate_spectrum(build_diffusion_pair(2, [(1, 2, label + 1)]), 2, *window)

    def test_non_prime_power_rejected(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        with pytest.raises(ValidationError):
            simulate_spectrum(dp, 6, 0, 1, 128)

    def test_precision_too_low_without_elevation(self):
        # a floor below the coefficient rule is raised to exactly each
        # level's own rule, not to the window's largest; the header reads
        # level 1's
        dp = with_labels(path_graph(3), [1, 8])
        rules = [_coefficient_rule(dp, 101, r, 0) for r in range(-14, 2)]
        s = simulate_spectrum(dp, 101, -14, 1, 8)
        assert s.values == _values_at(dp, 101, -14, rules)
        assert s.values != _values_at(dp, 101, -14, [max(rules)] * len(rules))
        assert s.precision_bits == rules[-1] == min(rules) > 64
        assert max(rules) > 10 * s.precision_bits

    def test_level_failure_falls_back_to_window_precision(self, monkeypatch):
        dp = with_labels(path_graph(3), [1, 8])
        rules = [_coefficient_rule(dp, 101, r, 8) for r in range(-3, 2)]
        window = max(rules)
        calls = []

        def refuse(below):
            def roots(coeffs, bits):
                calls.append(bits)
                if bits < below:
                    raise PrecisionError(f"forced below {below} bits")
                return real_roots(coeffs, bits)
            return roots

        # every level refused below the window precision: the values and
        # the header are those of refining the whole window at it
        monkeypatch.setattr(spectra, "real_roots", refuse(window))
        s = simulate_spectrum(dp, 101, -3, 1, 8)
        assert s.values == _values_at(dp, 101, -3, [window] * 5)
        assert s.precision_bits == window
        # once at each level's own rule, then once more at the window's
        assert sorted(calls) == sorted(rules + [window] * 4)
        assert len(set(rules)) == 5
        # level 1 alone falls back: the header is the least precision used
        monkeypatch.setattr(spectra, "real_roots", refuse(rules[-1] + 1))
        s = simulate_spectrum(dp, 101, -3, 1, 8)
        assert s.values == _values_at(dp, 101, -3, rules[:-1] + [window])
        assert s.precision_bits == min(rules[:-1]) > rules[-1]
        # a failure at the window precision itself propagates
        monkeypatch.setattr(spectra, "real_roots", refuse(window + 1))
        with pytest.raises(PrecisionError, match="forced"):
            simulate_spectrum(dp, 101, -3, 1, 8)


@pytest.mark.parametrize("graph, primes", [
    (complete_graph(4), (3, 11)), (cospectral_pair_graphs()[0], (3, 37))])
def test_game_replies_carry_level_one_rule(graph, primes):
    # the server refines each level at its own rule, with no floor, so each
    # reply declares level 1's precision; level 1's polynomial is the same
    # at every prime, so its values are bit-identical in both replies and
    # the level-1 match holds at the small tolerance this precision gives
    session = GameSession(graph)
    res = solve_game(LoopbackEndpoint(session))
    assert res.won and res.primes_used == primes
    replies = [decode_message(m) for way, m in session.transcript if way == "send"]
    replies = [r for r in replies if r["type"] == "spectrum"]
    rule = _coefficient_rule(session.pair, 3, 1, 0)
    assert [r["precision_bits"] for r in replies] == [rule, rule]
    assert rule < 512
    level_one = Counter(dyadic_fraction(v) for v in real_roots(
        _level_charpoly(session.pair, 3, 1)[0], rule))
    for r in replies:
        assert level_one <= Counter(r["values"])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_level_one_sets_the_header(data):
    # level weights are integers >= 1 and level 1's are all 1, so level 1
    # has the least coefficients and the header is level 1's precision
    n = data.draw(st.integers(1, 5), label="n")
    pairs = [(u, v) for v in range(1, n + 1) for u in range(1, v)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=6) if pairs else st.just([]), label="edges")
    g = Graph.of(n, edges)
    labels = data.draw(st.lists(st.integers(1, 8), min_size=g.m,
                                max_size=g.m), label="labels")
    dp = with_labels(g, labels, require_distinct_labels=False)
    q = data.draw(st.sampled_from((2, 3, 4, 9, 101, 1009)), label="q")
    r_min = data.draw(st.integers(-3, 1), label="r_min")
    r_max = data.draw(st.integers(1, 3), label="r_max")
    floor = data.draw(st.sampled_from((8, 64, 512)), label="floor")
    bits = {r: _level_charpoly(dp, q, r)[1] for r in range(r_min, r_max + 1)}
    assert bits[1] == min(bits.values())
    s = simulate_spectrum(dp, q, r_min, r_max, floor)
    assert s.precision_bits == max(floor, bits[1] + 64)


class TestClusterAssign:
    def test_k2_two_primes(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        s5 = simulate_spectrum(dp, 5, 0, 1, 128)
        s7 = simulate_spectrum(dp, 7, 0, 1, 128)
        a5, a7 = cluster_and_assign([s5, s7])
        assert _floats(a5.level(1)) == pytest.approx([0, 2], abs=1e-20)
        assert _floats(a5.level(0)) == pytest.approx([0, 10], abs=1e-20)
        assert _floats(a7.level(0)) == pytest.approx([0, 14], abs=1e-20)

    def test_k3_uniform_three_levels(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)],
                                  require_distinct_labels=False)
        samples = [simulate_spectrum(dp, q, -1, 1, 160) for q in (101, 103)]
        a101, _ = cluster_and_assign(samples)
        assert _floats(a101.level(1)) == pytest.approx([0, 3, 3], abs=1e-20)
        assert _floats(a101.level(0)) == pytest.approx([0, 303, 303], rel=1e-20)
        assert _floats(a101.level(-1)) == pytest.approx(
            [0, 30603, 30603], rel=1e-20)
        assert a101.min_intercluster_gap > a101.max_intracluster_gap

    def test_gap_diagnostics_keep_close_levels_apart(self):
        # levels of this C4 hold values that agree to more than 53 bits,
        # and values beyond the float range: the least cross-level ratio
        # rounds to exactly 1.0
        dp = build_diffusion_pair(4, [(1, 2, 1), (1, 3, 4), (2, 4, 8), (3, 4, 2)])
        samples = [simulate_spectrum(dp, q, -14, 1, 512) for q in (101, 1009)]
        for a in cluster_and_assign(samples):
            assert a.min_intercluster_gap < 1 + 2 ** -40

    def test_ambiguous_at_small_primes(self):
        dp = with_labels(star_graph(4), [1, 1, 1], require_distinct_labels=False)
        samples = [simulate_spectrum(dp, q, -1, 1, 160) for q in (3, 5)]
        with pytest.raises(AmbiguousClusteringError):
            cluster_and_assign(samples)
        # the game move: a larger prime resolves it
        samples = [simulate_spectrum(dp, q, -1, 1, 160) for q in (101, 103)]
        assert cluster_and_assign(samples)[0].level(0)

    def test_needs_two_distinct_primes(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        s = simulate_spectrum(dp, 5, 0, 1, 128)
        with pytest.raises(ValidationError):
            cluster_and_assign([s])
        with pytest.raises(ValidationError):
            cluster_and_assign([s, s])


# Label arrangements (labels in sorted-edge order) on which
# cluster_and_assign puts values in the wrong level at q = 101 or 1009: two
# levels hold values with the same q-exponent and nearly equal branch
# constants, and the nearest-constant choice picks the wrong one (ROADMAP
# open item 1).  The recovered polynomial is still right.
CLUSTER_SWAPS = {
    ((1, 3), (2, 4), (3, 4)): {(2, 4, 1), (4, 2, 1)},
    ((1, 2), (1, 3), (2, 4), (3, 4)): {
        (1, 4, 8, 2), (1, 8, 4, 2), (2, 4, 8, 1), (2, 8, 4, 1),
        (4, 1, 2, 8), (4, 2, 1, 8), (8, 1, 2, 4), (8, 2, 1, 4)},
    ((1, 4), (2, 3), (2, 4), (3, 4)): {
        (4, 8, 1, 2), (4, 8, 2, 1), (8, 4, 1, 2), (8, 4, 2, 1)},
}


def test_cluster_swap_graphs_are_enumerated():
    # the keys are sorted edge lists as enumeration labels them; the
    # benchmark's recovery corpus is keyed the same way
    enumerated = {tuple(g.sorted_edges()) for g in connected_graphs(4)}
    assert set(CLUSTER_SWAPS) <= enumerated


def _criterion_5_arrangements():
    """Every connected graph on 2 to 4 vertices with at most 4 edges, with
    the first m of the labels {1, 2, 4, 8} in every order (69 cases); the
    CLUSTER_SWAPS ones are strict xfails."""
    swap = pytest.mark.xfail(strict=True, reason=(
        "ROADMAP open item 1: the level assignment is not certified and "
        "misplaces values here"))
    cases = []
    for n in range(2, 5):
        for g in connected_graphs(n):
            if g.m > 4:
                continue
            edges = tuple(g.sorted_edges())
            for labels in permutations([1, 2, 4, 8][:g.m]):
                marks = [swap] if labels in CLUSTER_SWAPS.get(edges, ()) else []
                cases.append(pytest.param(
                    g, labels, marks=marks,
                    id="-".join(f"{u}{v}" for u, v in edges) + ":"
                       + ",".join(map(str, labels))))
    return cases


def _exact(x):
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


@pytest.mark.parametrize("g, labels", _criterion_5_arrangements())
def test_level_sums_equal_level_traces(g, labels):
    # each value of level r lies within a relative 2^-(p_r-4) of its
    # eigenvalue, p_r that level's own precision, and level r's Laplacian
    # has trace 2 * sum of q^((1-r)*label)
    dp = with_labels(g, list(labels))
    D = dp.total_weight
    samples = [simulate_spectrum(dp, q, 1 - D, 1, 512) for q in (101, 1009)]
    for a in cluster_and_assign(samples):
        assert sorted(a.levels) == list(range(1 - D, 2))
        assert a.precision_bits == _coefficient_rule(dp, a.q, 1, 512)
        for r, values in a.levels.items():
            y = Fraction(a.q) ** (1 - r)
            trace = 2 * sum(y ** label for label in labels)
            total = sum(map(_exact, values), Fraction(0))
            bits = _coefficient_rule(dp, a.q, r, 512)
            assert abs(total - trace) <= trace / 2 ** (bits - 4), (a.q, r)


class TestRecovery:
    def test_k2_example(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        s5 = simulate_spectrum(dp, 5, 0, 1, 128)
        s7 = simulate_spectrum(dp, 7, 0, 1, 128)
        a5, _ = cluster_and_assign([s5, s7])
        res = recover_spectral_poly(a5, 5, 1)
        assert res.polynomial == spectral_polynomial(dp)

    def test_k3_uniform(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)],
                                  require_distinct_labels=False)
        samples = [simulate_spectrum(dp, q, -2, 1, 192) for q in (101, 103)]
        a, _ = cluster_and_assign(samples)
        res = recover_spectral_poly(a, 101, 3)
        assert res.polynomial == spectral_polynomial(dp)

    def test_recovers_below_blind_bound(self):
        # 7 levels at D = 7: the digit decode needs one node, not D + 1
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        samples = [simulate_spectrum(dp, q, -5, 1, 192) for q in (11, 13)]
        a, _ = cluster_and_assign(samples)
        assert len(a.levels) == 7
        res = recover_spectral_poly(a, 11, 7)
        assert res.polynomial == spectral_polynomial(dp)

    def test_full_pipeline_shallow_window(self):
        rng = random.Random(21)
        done = 0
        while done < 5:
            g = random_connected_graph(rng.randint(2, 4), rng)
            if g.m > 4:
                continue
            done += 1
            dp = with_labels(g, sorted(rng.sample([1, 2, 4, 8], g.m)))
            samples = [simulate_spectrum(dp, q, 0, 1, 256)
                       for q in (101, 1009)]
            assignments = cluster_and_assign(samples)
            res = recover_spectral_poly(assignments[1], 1009, dp.total_weight)
            assert res.polynomial == spectral_polynomial(dp)
            assert res.snap_residual < Fraction(1, 10 ** 6)


    def test_window_above_level_one(self):
        # window [1, 2]: the nodes are 1 and 1/q, so the coefficients are
        # decoded from q^D * a_i(1/q), D the total label weight
        rng = random.Random(22)
        done = 0
        while done < 6:
            g = random_connected_graph(rng.randint(2, 4), rng)
            if g.m > 4:
                continue
            done += 1
            dp = with_labels(g, rng.sample([1, 2, 4, 8], g.m))
            samples = [simulate_spectrum(dp, q, 1, 2, 256) for q in (101, 1009)]
            for q, a in zip((101, 1009), cluster_and_assign(samples)):
                res = recover_spectral_poly(a, q, dp.total_weight)
                assert res.polynomial == spectral_polynomial(dp)
                assert res.snap_residual < Fraction(1, 10 ** 6)

    def test_every_level_lies_in_its_range(self):
        # the extreme labels of each level: K2 with one heavy label, and
        # a path whose labels sum to the degree bound
        for n, edges in ((2, [(1, 2, 9)]), (4, [(1, 2, 1), (2, 3, 2), (3, 4, 4)])):
            dp = build_diffusion_pair(n, edges)
            for q in (2, 11):
                for r in range(-2, 4):
                    roots = real_roots(_level_charpoly(dp, q, r)[0], 96)
                    spectra._check_level_range(roots, q, r, dp.total_weight)

    def test_value_outside_its_level_refused_before_any_product(self, monkeypatch):
        # 16 values 2^-1000000 at level 2 (a clusters file of under 300
        # bytes) would have _monic_from_roots build ~10^8 bits of products
        def no_product(roots):
            raise AssertionError("product built")
        monkeypatch.setattr(spectra, "_monic_from_roots", no_product)
        two, tiny = parse_hex_dyadic("0x1p1"), parse_hex_dyadic("0x1p-1000000")
        for levels in ({1: (mp.mpf(0), two), 2: (mp.mpf(0), tiny)},
                       {1: (mp.mpf(0),) * 15 + (two,), 2: (tiny,) * 16},
                       {0: (mp.mpf(0), parse_hex_dyadic("0x1p1000"))}):
            a = spectra.ClusterAssignment(101, 64, levels, float("inf"), 1.0)
            with pytest.raises(AmbiguousClusteringError, match="outside"):
                recover_spectral_poly(a, 101, 7)

    def test_q2_window_without_decode_node_rejected(self):
        # q = 2 with a window inside [0, 2] has only the nodes 2, 1 and 1/2
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        samples = [simulate_spectrum(dp, q, 0, 1, 128) for q in (2, 5)]
        a2, a5 = cluster_and_assign(samples)
        with pytest.raises(ValidationError, match="1/b with b >= 3"):
            recover_spectral_poly(a2, 2, 1)
        assert recover_spectral_poly(a5, 5, 1).polynomial == spectral_polynomial(dp)


@pytest.mark.parametrize("labels", [(1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)])
@pytest.mark.parametrize("window", [(1, 2), (1, 3)])
@pytest.mark.parametrize("q", [101, 1009])
def test_reciprocal_decode_at_default_precision(labels, window, q):
    # at the node 1/q the decode rounds q^D a_i(1/q), D = 21, which for the
    # leading a_4 = 1 is q^21: longer than level 2's own coefficients
    # (82 bits at q = 101 against 139), so level 2 must be refined as far
    # as that integer, plus the guard, at the default precision
    dp = with_labels(complete_graph(4), list(labels))
    samples = [simulate_spectrum(dp, p, *window) for p in (q, 10007)]
    a, _ = cluster_and_assign(samples)
    res = recover_spectral_poly(a, q, dp.total_weight)
    assert res.polynomial == spectral_polynomial(dp)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_two_level_windows_decode_within_the_guard(data):
    # a two-level window needs no _assign_levels: level 1 is matched across
    # the primes and the rest is the other level.  At the precision rule
    # each rounded integer moves by less than 2^-20 (see simulate_spectrum),
    # so the decode at each prime returns P with a residual of at most
    # 2^-20 wherever P's digits fit the node, every |coefficient| < q/2
    n = data.draw(st.integers(2, 6), label="n")
    g = random_connected_graph(
        n, random.Random(data.draw(st.integers(0, 2 ** 32), label="seed")),
        max_extra_edges=10)
    labels = data.draw(st.lists(st.integers(1, 16), min_size=g.m,
                                max_size=g.m, unique=True), label="labels")
    window = data.draw(st.sampled_from([(0, 1), (1, 2)]), label="window")
    dp = with_labels(g, labels)
    P = spectral_polynomial(dp)
    top = max(abs(c) for a in P.coeffs for c in a.terms.values())
    primes = (101, 1009)
    samples = [simulate_spectrum(dp, q, *window) for q in primes]
    for q, a in zip(primes, cluster_and_assign(samples)):
        if 2 * top >= q:
            continue
        res = recover_spectral_poly(a, q, dp.total_weight)
        assert res.polynomial == P
        assert res.snap_residual <= Fraction(1, 2 ** 20)


class TestSeparation:
    # a pair where the common-edge perturbation genuinely splits spectra
    GA = Graph.of(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    GB = Graph.of(5, [(1, 2), (2, 3), (3, 4), (3, 5)])

    def test_split_pair(self):
        rep = separation_experiment(self.GA, self.GB, Fraction(1, 1000))
        assert rep.extra_edges == (((4, 5),), ((3, 5),))
        assert rep.hausdorff_distance > mp.mpf(10) ** -10
        assert rep.separating_vector is not None
        s1, s2 = rep.separating_seminorms
        assert abs(s1 - s2) > mp.mpf(10) ** -6

    def test_first_order_error_shrinks_quadratically(self):
        full, half, ratio = prediction_error_ratio(
            self.GA, self.GB, Fraction(1, 1000))
        assert float(ratio) >= 3.5
        assert max(float(e) for e in full.max_prediction_error) < 1e-4

    def test_equal_graphs_rejected(self):
        with pytest.raises(ValidationError):
            separation_experiment(self.GA, self.GA, Fraction(1, 1000))

    def test_prediction_count_matches_spectrum(self):
        rep = separation_experiment(self.GA, self.GB, Fraction(1, 1000))
        assert len(rep.predictions[0]) == 5
        assert len(rep.spectra[0]) == 5

    @pytest.mark.parametrize("shift, error", [(-100, None), (-80, PrecisionError)])
    def test_eigsy_values_must_meet_certified_roots(self, monkeypatch, shift, error):
        # eigsy's eigenvalues of U(C) must lie within 2^-96 times its
        # Frobenius norm (here 4) of the certified roots
        calls = []
        sym_eigs = spectra.sym_eigs

        def shifted(M, bits, want_vectors=False):
            out = sym_eigs(M, bits, want_vectors)
            calls.append(M)
            if len(calls) == 1:
                return [v + mp.ldexp(1, shift) for v in out[0]], out[1]
            return out

        monkeypatch.setattr(spectra, "sym_eigs", shifted)
        if error is None:
            assert separation_experiment(self.GA, self.GB, Fraction(1, 1000))
        else:
            with pytest.raises(error, match="certified roots"):
                separation_experiment(self.GA, self.GB, Fraction(1, 1000))
        assert calls[0] == edge_set_laplacian(5, [(1, 2), (2, 3), (3, 4)])

    def test_catalog_pair_perturbation_degenerate(self):
        # documented finding: for the catalog cospectral pair under its
        # standard vertex labeling the two perturbed matrices are exactly
        # isospectral for every eps; their spectra are certified roots of
        # the same exact charpoly, so the distance is exactly zero, and no
        # separating eigenvector exists
        from graphspectra.catalog import cospectral_pair_graphs

        g1, g2 = cospectral_pair_graphs()
        rep = separation_experiment(g1, g2, Fraction(1, 1000))
        assert rep.common_edges == tuple(sorted(set(g1.edges) & set(g2.edges)))
        assert rep.extra_edges == (((1, 7),), ((1, 3),))
        assert len(rep.common_edges) == 9
        assert rep.hausdorff_distance == 0
        assert rep.separating_vector is None
        # exact certificate: equal characteristic polynomials over Z[eps][X],
        # and the eps-dependence is genuine (not just the charpoly of U(C))
        p1, p2 = perturbed_charpolys(g1, g2)
        assert p1 == p2
        UC = edge_set_laplacian(8, rep.common_edges)
        assert p1 != charpoly_division_free(
            [[UniPoly.const(x) for x in row] for row in UC])


_SEPARATION_PAIRS = {
    "path-vs-fork": (TestSeparation.GA, TestSeparation.GB),
    # g2's edges a subset of g1's: C_2 is empty
    "cycle-vs-path": (cycle_graph(4), Graph.of(4, [(1, 2), (2, 3)])),
}


@pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(3, 7), Fraction(2)])
@pytest.mark.parametrize("pair", sorted(_SEPARATION_PAIRS))
def test_perturbed_spectra_are_dense_charpoly_roots(pair, eps):
    # real_roots of the dense charpoly of U(C) + eps*U(C_i), scaled by the
    # lcm of its denominators, bit for bit
    g1, g2 = _SEPARATION_PAIRS[pair]
    rep = separation_experiment(g1, g2, eps)
    n = g1.n
    UC = edge_set_laplacian(n, rep.common_edges)
    for Ci, spectrum in zip(rep.extra_edges, rep.spectra):
        U = edge_set_laplacian(n, Ci)
        M = [[UC[i][j] + eps * U[i][j] for j in range(n)] for i in range(n)]
        want = real_roots(dense_scaled_charpoly(M), SEPARATION_BITS)
        assert [x._mpf_ for x in spectrum] == [x._mpf_ for x in want]
    if pair == "cycle-vs-path":
        assert rep.extra_edges[1] == ()


class TestSpectrumFormat:
    def test_round_trip_bit_exact(self):
        dp = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
        s = simulate_spectrum(dp, 101, -1, 1, 192)
        text = spectrum_to_text(s)
        assert spectrum_to_text(spectrum_from_text(text)) == text

    def test_header(self):
        dp = build_diffusion_pair(2, [(1, 2, 1)])
        s = simulate_spectrum(dp, 5, 0, 1, 128)
        head = spectrum_to_text(s).splitlines()[0]
        assert head == f"spectrum q=5 rmin=0 rmax=1 prec={s.precision_bits}"

    def test_bad_header(self):
        with pytest.raises(ValidationError):
            spectrum_from_text("specs q=5\n0\n")
