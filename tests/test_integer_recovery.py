"""The integer recovery route against the Fraction route it replaced.

Products of roots, digit decodes and verification residuals must come out
identical, polynomial and exact snapping residual both, and a decode that
fails must fail in both routes.
"""
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from graphspectra.catalog import random_connected_graph, with_labels
from graphspectra.errors import PrecisionError
from graphspectra.graphs import build_diffusion_pair
from graphspectra.polynomials import (_balanced_digits, _decode_at_base,
                                      _greater, _integer_form,
                                      evaluate_y, interpolate_spectral_poly,
                                      spectral_polynomial)
from graphspectra.spectra import (_monic_from_roots, cluster_and_assign,
                                  recover_spectral_poly, simulate_spectrum)
from graphspectra.unipoly import UniPoly

from naive_oracles import (fraction_decode_at_base, fraction_interpolate,
                           fraction_monic_from_roots, radix_digits)

K3 = build_diffusion_pair(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])


def _as_unipoly(nums, den):
    return UniPoly({i: Fraction(c, den) for i, c in enumerate(nums)})


def _random_mpf(rng):
    if rng.random() < 0.15:
        return mp.mpf(0)
    x = mp.ldexp(mp.mpf(rng.getrandbits(rng.randint(1, 300)) | 1),
                 rng.randint(-400, 200))
    return -x if rng.random() < 0.3 else x


def _both_routes(samples, degree_bound):
    """Every decode node through both _decode_at_base implementations."""
    frac = {Fraction(y): p.map_coefficients(Fraction) for y, p in samples.items()}
    ints = {y: _integer_form(p) for y, p in frac.items()}
    n = next(iter(frac.values())).degree
    return [(_decode_at_base(ints, n, y, degree_bound),
             fraction_decode_at_base(frac, n, y, degree_bound))
            for y in frac if (y.denominator == 1 and y >= 3)
            or (y.numerator == 1 and y.denominator >= 3)]


def _assert_identical(got, want):
    assert got == want
    if want is not None:
        assert (got.snap_residual.numerator, got.snap_residual.denominator) == (
            want.snap_residual.numerator, want.snap_residual.denominator)


@given(st.integers(0, 2 ** 90), st.integers(1, 2 ** 90),
       st.integers(0, 2 ** 90), st.integers(1, 2 ** 90))
def test_greater_matches_fractions(a, b, c, d):
    assert _greater(a, b, c, d) == (Fraction(a, b) > Fraction(c, d))


def test_greater_next_to_powers_of_two():
    # a/b and c/d next to powers of two whose exponents differ by at most
    # 1, where bit lengths alone cannot order the two ratios
    for ka, kb, kd in ((5, 3, 2), (40, 20, 7), (9, 30, 30)):
        for shift, oa, ob, oc, od in product((-1, 0, 1), repeat=5):
            kc = ka - kb + kd + shift
            a, b, c, d = 2 ** ka + oa, 2 ** kb + ob, 2 ** kc + oc, 2 ** kd + od
            assert _greater(a, b, c, d) == (Fraction(a, b) > Fraction(c, d))
            assert _greater(c, d, a, b) == (Fraction(c, d) > Fraction(a, b))


@settings(max_examples=300)
@given(st.data())
def test_sparse_digits_match_dense(data):
    # N below base^count, either uniform or all digits h = floor(b/2) (the
    # balanced zero) but a few, which the sparse split skips wholesale
    base = data.draw(st.sampled_from((3, 4, 8, 9, 1009)), label="base")
    count = data.draw(st.integers(1, 80), label="count")
    half = base // 2
    if data.draw(st.booleans(), label="uniform"):
        N = data.draw(st.integers(0, base ** count - 1), label="N")
    else:
        digits = [half] * count
        for k, d in data.draw(st.dictionaries(st.integers(0, count - 1),
                                              st.integers(0, base - 1),
                                              max_size=6), label="digits").items():
            digits[k] = d
        N = sum(d * base ** k for k, d in enumerate(digits))
    want = {k: d - half for k, d in enumerate(radix_digits(N, base, count))
            if d != half}
    assert _balanced_digits(N, base, count) == want


def test_monic_from_roots_random_dyadic():
    rng = random.Random(5)
    with mp.workprec(300):
        for _ in range(60):
            roots = [_random_mpf(rng) for _ in range(rng.randint(0, 9))]
            nums, den = _monic_from_roots(roots)
            assert den & (den - 1) == 0 and nums[-1] == den
            assert den == 1 or any(c & 1 for c in nums)  # least denominator
            assert _as_unipoly(nums, den) == fraction_monic_from_roots(roots)


def test_monic_from_roots_one_tiny_root():
    # (X - 1)^60 (X - 2^-50000): only the tiny root's own factor carries
    # its power of two, so no other coefficient grows to 50,000 bits
    roots = [mp.ldexp(1, -50000)] + [mp.mpf(1)] * 60
    tracemalloc.start()
    try:
        nums, den = _monic_from_roots(roots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    c = [comb(60, j) * (-1) ** (60 - j) for j in range(61)] + [0]
    assert den == 1 << 50000
    assert nums == [((c[j - 1] if j else 0) << 50000) - c[j] for j in range(62)]


def test_decode_integer_and_reciprocal_nodes():
    rng = random.Random(6)
    for _ in range(12):
        g = random_connected_graph(rng.randint(2, 5), rng)
        dp = with_labels(g, rng.sample(range(1, 9), g.m))
        P = spectral_polynomial(dp)
        D = dp.total_weight + rng.randint(0, 2)
        b = rng.choice((3, 5, 7, 101, 1009))
        nodes = rng.choice([(1, b), (1, Fraction(1, b)), (1, b, Fraction(1, b))])
        samples = {y: evaluate_y(P, y) for y in nodes}
        for got, want in _both_routes(samples, D):
            _assert_identical(got, want)


def test_decode_noisy_samples():
    P = spectral_polynomial(K3)
    rng = random.Random(7)
    for _ in range(20):
        rel = Fraction(rng.randint(-999, 999), 10 ** rng.randint(4, 40))
        nodes = rng.choice([(1, 101), (1, Fraction(1, 101)), (1, 1009, 101)])
        samples = {y: evaluate_y(P, y).map_coefficients(lambda c: c * (1 + rel))
                   for y in nodes}
        for got, want in _both_routes(samples, 7):
            _assert_identical(got, want)


def test_decode_failures_return_none_in_both():
    P = spectral_polynomial(K3)
    cases = [
        ({y: evaluate_y(P, y) for y in (1, 5)}, 7),  # coefficient 3 > 5/2
        ({y: evaluate_y(P, y) for y in (1, 101)}, 5),  # degree bound too low
        ({y: evaluate_y(P, y) + UniPoly({1: Fraction(1, 100)})
          for y in (1, 101)}, 7),  # rounding distance above SNAP_TOL
        ({1: evaluate_y(P, 1) + UniPoly({1: Fraction(1, 10 ** 4)}),
          101: evaluate_y(P, 101)}, 7),  # deviation above SNAP_TOL
        ({y: evaluate_y(P, y) + UniPoly({0: 1}) for y in (1, 101)}, 7),  # a_0 != 0
    ]
    for samples, D in cases:
        outcomes = _both_routes(samples, D)
        assert outcomes and all(got is None and want is None
                                for got, want in outcomes)


def test_decode_dyadic_and_non_dyadic_denominators():
    # den = 3 * 2^k takes the divmod route: a shift by k + 1 would misround
    P = spectral_polynomial(K3)
    for den in (1 << 70, 3 << 69, 5 ** 30):
        noise = Fraction(1, den)
        samples = {y: evaluate_y(P, y) + UniPoly({1: noise}) for y in (1, 101)}
        _, got_den = _integer_form(samples[101])
        assert got_den == den
        for got, want in _both_routes(samples, 7):
            assert got is not None and got.polynomial == P
            _assert_identical(got, want)


def test_public_api_non_dyadic_samples():
    rng = random.Random(8)
    P = spectral_polynomial(K3)
    for _ in range(10):
        noise = Fraction(1, 3 * rng.randint(10 ** 8, 10 ** 9))
        samples = {y: evaluate_y(P, y) + UniPoly({2: noise})
                   for y in (1, Fraction(1, 7), 1009)}
        _assert_identical(interpolate_spectral_poly(samples, 7),
                          fraction_interpolate(samples, 7))
    samples = {y: evaluate_y(P, y) for y in (1, 5)}
    assert fraction_interpolate(samples, 7) is None
    with pytest.raises(PrecisionError):
        interpolate_spectral_poly(samples, 7)


def test_recover_spectral_poly_matches_fraction_route():
    # windows with integer nodes q, q^2 and the reciprocal node 1/q
    rng = random.Random(9)
    for window in ((0, 1), (-1, 1), (1, 2), (0, 1)):
        g = random_connected_graph(rng.randint(2, 4), rng, max_extra_edges=1)
        dp = with_labels(g, rng.sample([1, 2, 4, 8], g.m))
        D = dp.total_weight
        samples = [simulate_spectrum(dp, q, *window, 256) for q in (101, 1009)]
        for q, a in zip((101, 1009), cluster_and_assign(samples)):
            levels = {Fraction(q) ** (1 - r): fraction_monic_from_roots(v)
                      for r, v in a.levels.items()}
            got = recover_spectral_poly(a, q, D)
            assert got.polynomial == spectral_polynomial(dp)
            _assert_identical(got, fraction_interpolate(levels, D))
