"""The integer-pair route of realroots against the mpf-tuple route it
replaced, and the integer level weights against the Fraction matrices.

Roots must come out as the same mpf tuples, bit for bit, and a polynomial
that one route refuses with PrecisionError the other must refuse too.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_div, mpf_mul, round_nearest

from graphspectra.catalog import random_connected_graph, with_labels
from graphspectra.errors import PrecisionError
from graphspectra.graphs import build_diffusion_pair
from graphspectra.realroots import _newton_point, real_roots
from graphspectra.spectra import _level_charpoly, _level_weights

from naive_oracles import (assemble_laplacian, dense_scaled_charpoly,
                           level_laplacian, mpf_real_roots)


def _outcome(roots_of, coeffs, bits):
    try:
        return [x._mpf_ for x in roots_of(coeffs, bits)]
    except PrecisionError:
        return PrecisionError


def _assert_same_roots(coeffs, bits):
    want = _outcome(mpf_real_roots, coeffs, bits)
    assert _outcome(real_roots, coeffs, bits) == want
    return want


def _expand(factors):
    """Ascending coefficients of the product of linear factors (a, b) = a*X - b."""
    out = [1]
    for a, b in factors:
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] -= b * c
            nxt[i + 1] += a * c
        out = nxt
    return out


@given(st.integers(1, 400), st.integers(-300, 300),
       st.integers(1, 2 ** 300), st.integers(1, 2 ** 300), st.integers(8, 400))
def test_newton_point_rounds_like_mpmath(m, e, num, den, prec):
    m |= 1
    want = mpf_div(mpf_mul(from_man_exp(m, e),
                           from_man_exp(num, 0, prec + 8, round_nearest)),
                   from_man_exp(den, 0, prec + 8, round_nearest),
                   prec, round_nearest)
    assert _newton_point((m, e), num, den, prec) == (want[1], want[2])


def test_newton_point_exact_ties():
    # quotients that fall exactly half-way between two prec-bit values
    for prec in (8, 9, 64, 65):
        for low in range(0, 8):
            num = ((1 << (prec - 1)) + low) * 2 + 1  # num/2: prec bits and a half
            want = mpf_div(from_man_exp(num, 0), from_man_exp(2, 0), prec,
                           round_nearest)
            assert _newton_point((1, 0), num, 2, prec) == (want[1], want[2])


def test_products_with_repeated_factors():
    rng = random.Random(11)
    refused = 0
    for _ in range(120):
        factors = []
        for _ in range(rng.randint(1, 5)):
            s = rng.randint(0, 40)
            m = rng.getrandbits(rng.randint(1, 80)) or 1
            factors += [(1 << s, rng.choice((-m, m)))] * rng.randint(1, 3)
        if rng.random() < 0.3:  # two roots 2^-s apart
            s, m = factors[0]
            factors.append((s, m + 1))
        coeffs = [0] * rng.randint(0, 2) + _expand(factors)
        bits = rng.choice((8, 12, 24, 53, 64, 100, 200, 600))
        refused += _assert_same_roots(coeffs, bits) is PrecisionError
    assert 0 < refused < 120


def test_graded_level_charpolys():
    rng = random.Random(12)
    for _ in range(6):
        g = random_connected_graph(rng.randint(2, 5), rng, max_extra_edges=1)
        dp = with_labels(g, rng.sample([1, 2, 4, 8, 16], g.m))
        for r in range(-6, 2):
            coeffs, bits = _level_charpoly(dp, 101, r)
            for wp in (bits + 64, bits // 2 + 8):
                _assert_same_roots(coeffs, max(wp, 8))


# q = 2 and 4 put level-0 roots within half a grid step of a dyadic end of
# their bracket, where every rounded Newton step lands on that end: the
# precision must climb, or at its final value the step be certified, once
# bisection has made the bracket narrower than the grid
@pytest.mark.parametrize("edges, q, precisions", [
    ([(1, 2, 64), (1, 3, 4), (1, 6, 32), (2, 5, 8), (2, 7, 16), (3, 6, 2),
      (3, 7, 256), (4, 6, 1), (5, 6, 128)], 2, (512, 564, 628, 1128)),
    ([(1, 3, 32), (1, 5, 1), (2, 4, 8), (2, 6, 64), (2, 7, 2), (4, 5, 128),
      (4, 7, 16), (5, 7, 4)], 4, (512, 565, 1130)),
])
def test_roots_next_to_a_bracket_end_certify(edges, q, precisions):
    coeffs, bits = _level_charpoly(build_diffusion_pair(7, edges), q, 0)
    assert bits + 64 in precisions
    for wp in precisions:
        roots = _assert_same_roots(coeffs, wp)
        assert roots is not PrecisionError and len(roots) == 7


def test_root_next_to_a_power_of_two_certifies_at_starting_precision():
    # the root 1 + 2^-80: at 128 bits or fewer refinement starts at its
    # final precision, so the step rounded onto the bracket end 1 is the
    # one certified
    coeffs = _expand([(1 << 80, (1 << 80) + 1), (3, 1)])
    for bits in (24, 53, 64):
        roots = _assert_same_roots(coeffs, bits)
        assert roots is not PrecisionError and roots[1] == (0, 1, 0, 1)


def test_indefinite_integer_matrix_charpolys():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 6)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-60, 60)
        bits = rng.choice((16, 64, 160))
        _assert_same_roots(dense_scaled_charpoly(M), bits)


@pytest.mark.parametrize("q", [2, 3, 101])
def test_integer_level_matrices_match_fraction_route(q):
    rng = random.Random(q)
    pairs = [build_diffusion_pair(1, []), build_diffusion_pair(3, [(1, 2, 2)])]
    for _ in range(5):
        g = random_connected_graph(rng.randint(2, 5), rng, max_extra_edges=2)
        pairs.append(with_labels(g, rng.sample(range(1, 9), g.m)))
    for dp in pairs:
        for r in range(-3, 4):
            s, weights = _level_weights(dp, q, r)
            assert all(type(w) is int for _, w in weights)
            M = assemble_laplacian(dp.graph.n, weights, 0)
            assert [[Fraction(x, s) for x in row] for row in M] == level_laplacian(dp, q, r)
            # the oracle's s^n * det(X*I - L) over s^k, k isolated vertices
            coeffs = dense_scaled_charpoly(level_laplacian(dp, q, r))
            k = dp.graph.n - len({u for e in dp.graph.edges for u in e})
            assert all(c % s ** k == 0 for c in coeffs)
            # and the largest integer the decode rounds, a_i(y) itself for
            # r <= 1 and b^D a_i(1/b) for r > 1, b = q^(r-1), D the labels'
            # total weight, to the nearest integer
            top = Fraction(max(map(abs, coeffs)), s ** dp.graph.n)
            if r > 1:
                top *= q ** ((r - 1) * dp.total_weight)
            bits = int(top + Fraction(1, 2)).bit_length()
            assert _level_charpoly(dp, q, r) == ([c // s ** k for c in coeffs], bits)
