"""Clustering on (mantissa, exponent) points against the mpf route.

The reference is the mpf clustering kept in naive_oracles; the integer
route must reproduce its level multisets bit for bit, its gap floats
exactly and its error types, and its comparison predicates must agree
with exact Fraction arithmetic.
"""
import dataclasses
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

from graphspectra.catalog import connected_graphs, star_graph, with_labels
from graphspectra.errors import AmbiguousClusteringError
from graphspectra.realroots import _align
from graphspectra.spectra import (SpectrumSample, _ascending, _branch_constant,
                                  _close, _gap_diagnostics, _point_of,
                                  cluster_and_assign, simulate_spectrum)
from naive_oracles import mpf_cluster_and_assign


def criterion_5_arrangements():
    """Every connected graph on 2 to 4 vertices with at most 4 edges, with
    the first m of the labels {1, 2, 4, 8} in every order: 69 in all."""
    return [(g, labels) for n in range(2, 5) for g in connected_graphs(n)
            if g.m <= 4 for labels in permutations([1, 2, 4, 8][:g.m])]


def assert_same_as_oracle(samples):
    # the oracle does mpf arithmetic: it gets the equal mpf values, exactly
    as_mpf = [dataclasses.replace(s, values=tuple(mp.make_mpf(v._mpf_)
                                                  for v in s.values))
              for s in samples]
    try:
        expected = mpf_cluster_and_assign(as_mpf)
    except Exception as exc:
        with pytest.raises(type(exc)):
            cluster_and_assign(samples)
        return type(exc)
    got = cluster_and_assign(samples)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.q, a.precision_bits) == (b.q, b.precision_bits)
        assert list(a.levels) == list(b.levels)
        for r in b.levels:
            assert [v._mpf_ for v in a.levels[r]] == [v._mpf_ for v in b.levels[r]]
        assert a.min_intercluster_gap == b.min_intercluster_gap
        assert a.max_intracluster_gap == b.max_intracluster_gap
    return None


def test_criterion_5_arrangements_match_oracle():
    arrangements = criterion_5_arrangements()
    assert len(arrangements) == 69
    for g, labels in arrangements:
        dp = with_labels(g, list(labels))
        D = dp.total_weight
        samples = [simulate_spectrum(dp, q, 1 - D, 1, 512) for q in (101, 1009)]
        assert assert_same_as_oracle(samples) is None, (g.sorted_edges(), labels)


def _straddling_samples(edges, labels):
    n = max(max(e) for e in edges)
    g = next(g for g in connected_graphs(n) if tuple(g.sorted_edges()) == edges)
    dp = with_labels(g, list(labels))
    return [simulate_spectrum(dp, q, -2, 3, 256) for q in (101, 1009)]


@pytest.mark.parametrize("edges, labels, error", [
    (((1, 3), (2, 3)), (1, 2), None),
    (((1, 3), (2, 4), (3, 4)), (1, 2, 4), None),
    (((1, 4), (2, 4), (3, 4)), (2, 1, 4), None),
    (((1, 2), (1, 3), (2, 3)), (1, 2, 4), None),
])
def test_window_beyond_level_one_matches_oracle(edges, labels, error):
    # levels r > 1 hold values below 1, so the common exponent is negative
    # and far from the exponents of the levels r < 1
    samples = _straddling_samples(edges, labels)
    assert assert_same_as_oracle(samples) is error


@pytest.mark.parametrize("edges, labels", [
    (((1, 3), (2, 3)), (1, 2)),
    pytest.param(((1, 3), (2, 4), (3, 4)), (1, 2, 4),
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP open item 4: the level assignment is not "
                     "certified, and 4 levels miss their traces here"))),
    (((1, 4), (2, 4), (3, 4)), (2, 1, 4)),
    (((1, 2), (1, 3), (2, 3)), (1, 2, 4)),
])
def test_window_beyond_level_one_levels_match_traces(edges, labels):
    # levels below 1 and above 1 follow different asymptotics, so each side
    # is factored on its own; every level's sum is then its trace within a
    # relative 2^-(p/2 - 2), p the least precision
    for a in cluster_and_assign(_straddling_samples(edges, labels)):
        for r, values in a.levels.items():
            trace = 2 * sum(Fraction(a.q) ** ((1 - r) * x) for x in labels)
            total = sum(_exact(*_point_of(v)) for v in values if v)
            bound = trace / 2 ** (a.precision_bits // 2 - 2)
            assert abs(total - trace) <= bound, (a.q, r)


def test_exponents_on_a_side_without_levels_raise_like_oracle():
    # values above level 1 that grow with q, as only levels below 1 can
    def sample(q):
        values = (0, 0, 0, 2, 2 * q, 2 * q * q)
        return SpectrumSample(q, 1, 3, 64, tuple(map(mp.mpf, values)))

    samples = [sample(5), sample(7)]
    assert assert_same_as_oracle(samples) is AmbiguousClusteringError


def test_three_samples_match_oracle():
    for g, labels in criterion_5_arrangements()[::7]:
        dp = with_labels(g, list(labels))
        samples = [simulate_spectrum(dp, q, -2, 1, 256) for q in (101, 103, 1009)]
        assert assert_same_as_oracle(samples) is None, (g.sorted_edges(), labels)


def test_star_at_small_primes_raises_like_oracle():
    dp = with_labels(star_graph(4), [1, 1, 1], require_distinct_labels=False)
    samples = [simulate_spectrum(dp, q, -1, 1, 160) for q in (3, 5)]
    assert assert_same_as_oracle(samples) is AmbiguousClusteringError


@pytest.mark.parametrize("units, error", [
    (1, None), (2, None), (3, AmbiguousClusteringError),
    (4, AmbiguousClusteringError)])
def test_level_one_tolerance(units, error):
    # at 512 bits level-1 values match within a relative 2^-(512-5), the
    # bound that two certified values of one root are proved to meet:
    # 1 and 1 + units * 2^-508 match for 1 and 2 units, not for 3 or 4
    def sample(q, one):
        zero = mp.mpf(0)
        return SpectrumSample(q, 0, 1, 512, (zero, zero, one, mp.mpf(2 * q)))

    near_one = mp.make_mpf(from_man_exp((1 << 508) + units, -508))
    samples = [sample(5, mp.mpf(1)), sample(7, near_one)]
    assert assert_same_as_oracle(samples) is error


def test_beyond_float_range():
    # a gap ratio beyond the float range saturates to inf, as float(mpf)
    # does; a branch constant there cannot be compared, so it is ambiguous
    points = [(1, 0), (1, 1100)]
    assert _gap_diagnostics({0: [0], -1: [1]}, points) == (float("inf"), 1.0)
    assert _gap_diagnostics({0: [0, 1]}, points) == (float("inf"), float("inf"))
    assert _branch_constant((1, 1000), 3, -2) == float(
        Fraction(9 << 1100, 1 << 100))
    with pytest.raises(AmbiguousClusteringError, match="float range"):
        _branch_constant((1, 1100), 3, -2)


def test_gap_walk_orders_equal_values_by_level():
    # 1 at levels -1 and 0, then 3 at level 0: walked as (1, -1), (1, 0),
    # (3, 0), the ratio 3 is within level 0
    points = [(1, 0), (1, 0), (3, 0)]
    assert _gap_diagnostics({0: [0, 2], -1: [1]}, points) == (1.0, 3.0)


def test_one_tiny_value_stays_small():
    # one value 2^-200000 among 3,999 ones against 4,000 ones: every
    # integer is bounded by its own value, not by the least exponent
    tiny = mp.make_mpf(from_man_exp(1, -200000))
    samples = [SpectrumSample(5, 0, 1, 512, (tiny,) + (mp.mpf(1),) * 3999),
               SpectrumSample(7, 0, 1, 512, (mp.mpf(1),) * 4000)]
    tracemalloc.start()
    try:
        with pytest.raises(AmbiguousClusteringError, match="level-1"):
            cluster_and_assign(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def _exact(m, e):
    return Fraction(m) * Fraction(2) ** e


dyadic = st.tuples(st.integers(-2 ** 200, 2 ** 200), st.integers(-1200, 1200))


@st.composite
def dyadic_pairs(draw):
    """Two values m * 2^e: independent, or the second within a few units
    of the first at a finer exponent, so that both outcomes of the
    closeness test occur."""
    a = draw(dyadic)
    if draw(st.booleans()):
        return a, draw(dyadic)
    k = draw(st.integers(0, 400))
    return a, ((a[0] << k) + draw(st.integers(-2 ** 20, 2 ** 20)), a[1] - k)


@given(dyadic_pairs(), st.integers(1, 400))
@example(((3, -1100), (3, 1100)), 171)        # exponents far apart
@example(((2 ** 171 - 1, 0), (1, 171)), 171)   # exactly at the tolerance
@example(((2 ** 171 + 2, 0), (1, 171)), 171)   # just beyond it
@example(((2 ** 171, 0), (1, 171)), 171)       # equal values, unequal exponents
def test_closeness_and_order_agree_with_fractions(pair, t):
    x, y = pair
    m, n, _ = _align(x, y)
    fa, fb = _exact(*x), _exact(*y)
    assert (m < n) == (fa < fb)
    assert (m == n) == (fa == fb)
    assert _close(m, n, t) == (abs(fa - fb) * 2 ** t <= max(abs(fa), abs(fb)))
    # a sample's nonzero values sort by exact value
    values = [mp.make_mpf(from_man_exp(abs(m), e)) for m, e in (y, x)]
    points, _ = _ascending(SpectrumSample(5, 0, 1, 512, tuple(values)))
    assert [_exact(*p) for p in points] == sorted(abs(v) for v in (fa, fb) if v)
