"""Arbitrary-precision spectra of level Laplacians and their recovery.

The block operator attached to a diffusion pair acts as one weighted-graph
Laplacian per integer level r, with edge weights q^(label*(1-r)); its
spectrum is the union of the level spectra (each level reported once —
the function-space multiplicity is collapsed, since recovery only needs
the level multisets).  This module simulates windows of levels, clusters
a simulated union back into per-level multisets using two samples at
distinct primes, rebuilds the spectral polynomial from the clusters, and
runs the first-order perturbation experiment that separates isospectral
graph pairs.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import log
from operator import mul

# Numerators and powers 2^k in game replies pass the default int<->str limit
# of 4,300 digits from about n = 12 (hex dyadic files are not limited).
# Python before 3.10.7 has no limit, and a limit of 0 means switched off.
if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 2_000_000:
    sys.set_int_max_str_digits(2_000_000)

from .errors import (MAX_WEIGHT_BITS, AmbiguousClusteringError, PrecisionError,
                     ValidationError, parse_fields, parse_ints)
from .graphs import edge_set_laplacian, seminorm_sq
from .polynomials import _as_is, interpolate_spectral_poly, laplacian_charpoly
from .realroots import ZERO, Dyadic, _align, real_roots, sorted_values


# ---------------------------------------------------------------------------
# Exact conversions between values and strings: hex dyadics for files,
# dyadic fractions for the game protocol and JSON reports.  A value is a
# Dyadic or anything else that carries an mpf tuple, an mpf among them.


def hex_dyadic(x):
    """The finite value x = m * 2^e, m odd, as [-]0x<m in lowercase hex>p<e>,
    or 0: one string per value, written and read in linear time.  An
    exponent of more than seven digits, which parse_hex_dyadic refuses,
    raises ValidationError."""
    sign, man, exp, _ = x._mpf_
    if not man:
        if exp:
            raise ValidationError("non-finite value")
        return "0"
    if abs(exp) >= 10 ** 7:
        raise ValidationError(f"exponent {exp} has more than seven digits")
    return f"{'-' if sign else ''}0x{int(man):x}p{exp}"


_HEX_DYADIC = re.compile(
    r"-?0x(?:[1-9a-f][0-9a-f]*)?[13579bdf]p(?:0|-?[1-9][0-9]{0,6})")


def parse_hex_dyadic(s):
    """The Dyadic written as hex_dyadic(s), exactly.  The exponent has at most
    seven digits, which bounds the integers that exact arithmetic on one
    value builds; any other string, including another spelling of the same
    value, raises ValidationError."""
    if s == "0":
        return ZERO
    if _HEX_DYADIC.fullmatch(s) is None:
        raise ValidationError(f"not a hex dyadic value: {s[:40]!r}")
    man, exp = s.split("p")
    return Dyadic(int(man, 16), int(exp))


def dyadic_fraction(x):
    """The finite value x = m * 2^e, m odd, as the game protocol writes it:
    0, an integer in decimal, or [-]m/2^-e in decimal when e < 0.  Every
    exact-rational reader, fractions.Fraction among them, parses it."""
    sign, man, exp, _ = x._mpf_
    if not man:
        if exp:
            raise ValidationError("non-finite value")
        return "0"
    m = -int(man) if sign else int(man)
    return str(m << exp) if exp >= 0 else f"{m}/{1 << -exp}"


_DYADIC_FRACTION = re.compile(r"0|-?[1-9][0-9]*(?:/[1-9][0-9]*)?")


def parse_dyadic_fraction(s):
    """The Dyadic written as dyadic_fraction(s), exactly.  Any other string,
    including another spelling of the same value (-0, +1, 01, 2/4, 1/1,
    0.5, 1e3), and a numeral past the interpreter's int<->str digit limit
    raise ValidationError."""
    if _DYADIC_FRACTION.fullmatch(s) is None:
        raise ValidationError(f"not a canonical fraction m/2^k: {s[:40]!r}")
    num, _, den = s.partition("/")
    try:
        m, d = int(num), int(den or 1)
    except ValueError:  # the only failure left after the match
        raise ValidationError("value has more digits than can be read") from None
    k = d.bit_length() - 1
    if den and (d != 1 << k or k == 0 or m % 2 == 0):
        raise ValidationError(f"not a canonical fraction m/2^k: {s[:40]!r}")
    return Dyadic(m, -k)


# ---------------------------------------------------------------------------
# Numeric eigenvalues and eigenvectors: mpmath's eigsy


def sym_eigs(M, precision_bits, want_vectors=False):
    """Eigenvalues (ascending) of a symmetric int, Fraction or mpf matrix,
    as mpf.  With separation_experiment, the only code that loads mpmath.

    mpmath's eigsy (Householder tridiagonalisation, then implicit QL) runs
    at precision_bits plus 64 guard bits, without a certificate; the
    eigenvalue sum must match the trace within 2^-(precision_bits/2) times
    the Frobenius norm, and a failure to converge raises PrecisionError.
    With want_vectors=True returns (values, vectors), vectors[i] being the
    unit eigenvector for values[i].  Certified eigenvalues of a weighted
    Laplacian are the real_roots of its _scaled_charpoly instead.
    """
    n = len(M)
    for i, row in enumerate(M):
        if len(row) != n:
            raise ValidationError("matrix is not square")
        for j in range(i):
            if M[i][j] != M[j][i]:
                raise ValidationError("matrix is not symmetric")
    if n == 0:
        return ([], []) if want_vectors else []
    from mpmath import mp
    with mp.workprec(precision_bits + 64):
        A = mp.matrix([[_entry_to_mpf(mp, x) for x in row] for row in M])
        try:
            if want_vectors:
                E, Q = mp.eigsy(A)
            else:
                E = mp.eigsy(A, eigvals_only=True)
        except RuntimeError as exc:
            raise PrecisionError(f"eigsy did not converge: {exc}") from None
        vals = [E[i] for i in range(n)]
        trace = mp.fsum(A[i, i] for i in range(n))
        if abs(mp.fsum(vals) - trace) > mp.ldexp(mp.mnorm(A, "f"),
                                                  -(precision_bits // 2)):
            raise PrecisionError("eigenvalue sum drifted from the trace; "
                                 "precision too low for this matrix")
        if want_vectors:
            return vals, [tuple(Q[k, i] for k in range(n)) for i in range(n)]
        return vals


def _entry_to_mpf(mp, x):
    if isinstance(x, int):
        return mp.mpf(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return mp.mpf(x.numerator)
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


# ---------------------------------------------------------------------------
# Spectrum simulation


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_power(q):
    """Whether q = p^k for a prime p and k >= 1, for q < 2^64.

    Tries every k with 2^k <= q: q is a prime power iff for some k its
    integer k-th root r has r^k = q and is prime.  Primality is
    Miller-Rabin with the first 12 primes as witnesses, which is
    deterministic below 2^64 (Sorenson and Webster 2017), so larger q
    raises ValidationError."""
    if q.bit_length() > 64:
        raise ValidationError(
            f"q={q} is too large: prime powers are checked only below 2^64")
    if q < 2:
        return False
    for k in range(1, q.bit_length()):
        r = _integer_root(q, k)
        if r ** k == q and _is_prime(r):
            return True
    return False


def _integer_root(q, k):
    """The largest r with r^k <= q, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime(p):
    """Deterministic Miller-Rabin for 2 <= p < 2^64."""
    for w in _WITNESSES:
        if p % w == 0:
            return p == w
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SpectrumSample:
    """A window of level spectra: n values per level, globally sorted."""

    q: int
    r_min: int
    r_max: int
    precision_bits: int  # the least precision of any level's values
    values: tuple  # ascending values (Dyadic or mpf), one level-spectrum per level

    def __post_init__(self):
        header = (self.q, self.r_min, self.r_max, self.precision_bits)
        if any(type(v) is not int for v in header):
            raise ValidationError(f"spectrum header fields must be integers, "
                                  f"got {header}")
        if self.q < 2:
            raise ValidationError(f"q={self.q} is below 2")
        if not self.r_min <= 1 <= self.r_max:
            raise ValidationError("window must satisfy r_min <= 1 <= r_max")
        if self.precision_bits < 8:
            raise ValidationError(f"{self.precision_bits} bits cannot certify "
                                  f"a value; at least 8 are needed")
        if any(v._mpf_[0] for v in self.values):  # the sign bit
            raise ValidationError("spectrum values must be non-negative, as "
                                  "Laplacian eigenvalues are")

    @property
    def width(self):
        return self.r_max - self.r_min + 1

    @property
    def n_per_level(self):
        if len(self.values) % self.width:
            raise ValidationError("value count is not a multiple of the window width")
        return len(self.values) // self.width

    def zero_values(self):
        return [v for v in self.values if v._mpf_ == ZERO._mpf_]

    def nonzero_values(self):
        return [v for v in self.values if v._mpf_ != ZERO._mpf_]

    @property
    def zeros_per_level(self):
        z = len(self.zero_values())
        if z % self.width:
            raise ValidationError("zero count is not a multiple of the window width")
        return z // self.width


def simulate_spectrum(dp, q, r_min, r_max, precision_bits=0):
    """Union of the level spectra for r in [r_min, r_max], each level once.

    Each level's eigenvalues are the certified roots of its exact
    characteristic polynomial (see _scaled_charpoly); the zero count is
    the X-adic valuation, checked against the graph's component count.
    Recovery multiplies the values of a level back into the coefficients
    of that polynomial alone and rounds them at the level's decode node,
    so each level is refined only as far as that decode reads.  With
    bits_r the bit size of the largest integer rounded at level r's node
    (see _level_charpoly), level 1 is refined at
    p_1 = max(precision_bits, bits_1 + 64) and every other level at
    max(p_1, bits_r + G(n)), G(n) = bit_length(n - 1) + 25.

    Why G(n) suffices: real_roots puts the root x of a value v in
    v*(1 -/+ d), d = 2^-(p-4), so |v - x| <= x*d' with d' = d/(1 - d).
    The roots are nonnegative, so the product of the j <= n - 1 nonzero
    factors (X - v) moves each coefficient by at most its own size times
    (1 + d')^j - 1 <= j*d'*(1 + 2^-20), and the rounded integer N,
    |N| < 2^bits_r, moves by less than
    2^bits_r * 2^(bit_length(n-1) - p + 4) * (1 + 2^-19) < 2^-20 at
    p = bits_r + G(n): below one half, so rounding finds N, and below
    polynomials.SNAP_TOL = 10^-6 > 2^-20, so the decode accepts it.  The
    verification at every other node is relative, |o - e| <= |e| times the
    same factor, so it passes at any p >= G(n), which every level meets.

    Level 1 keeps 64 guard bits and is the floor for the whole window
    because its precision alone is the header (and a game reply's
    precision_bits), which readers bound every value by, and it sets
    cluster_and_assign's cross-prime match at t = p - 5.  A level whose
    roots cannot be told apart at its precision is refined once more at
    the window's largest precision before PrecisionError propagates.

    The sample records the least precision used, to which every value is
    certified: level 1's unless level 1 fell back.  The zeros of every
    level come first, as one shared value; only the nonzero values are
    sorted.  Level weights whose bit size would pass MAX_WEIGHT_BITS raise
    ValidationError before any is built (see _check_weight_size).
    """
    if not is_prime_power(q):
        raise ValidationError(f"q={q} is not a prime power")
    if not r_min <= 1 <= r_max:
        raise ValidationError("window must satisfy r_min <= 1 <= r_max")
    _check_weight_size(dp, q, r_min, r_max)
    b0 = dp.graph.component_count()
    levels = range(r_min, r_max + 1)
    charpolys = [_level_charpoly(dp, q, r) for r in levels]
    level_one = max(precision_bits, charpolys[1 - r_min][1] + 64)
    guard = (dp.graph.n - 1).bit_length() + 25
    precisions = [level_one if r == 1 else max(level_one, bits + guard)
                  for r, (_, bits) in zip(levels, charpolys)]
    window_bits = max(precisions)
    nonzero = []
    least = window_bits
    for r, (coeffs, _), wp in zip(levels, charpolys, precisions):
        zeros = next(i for i, c in enumerate(coeffs) if c)
        if zeros != b0:
            raise PrecisionError(
                f"level {r}: characteristic polynomial has {zeros} zero "
                f"roots, but the graph has {b0} components")
        try:
            roots = real_roots(coeffs, wp)
        except PrecisionError:
            if wp == window_bits:
                raise
            wp = window_bits
            roots = real_roots(coeffs, wp)
        nonzero.extend(roots[zeros:])  # a Laplacian has no negative roots
        least = min(least, wp)
    values = (ZERO,) * (b0 * len(levels)) + tuple(sorted_values(nonzero))
    return SpectrumSample(q, r_min, r_max, least, values)


def _check_weight_size(dp, q, r_min, r_max):
    """Raise ValidationError when a level weight or scale of the window
    could pass MAX_WEIGHT_BITS bits.  The largest is q^(|1-r| A) at the
    window's farthest level, A the largest label (see _level_weights), and
    has at most |1-r| A bit_length(q) bits, read off without building it."""
    top = max((a for _, a in dp.labels), default=0)
    bits = max(1 - r_min, r_max - 1) * top * q.bit_length()
    if bits > MAX_WEIGHT_BITS:
        raise ValidationError(
            f"level weights of up to {bits} bits (q={q}, largest label {top}, "
            f"window [{r_min}, {r_max}]) exceed the cap of {MAX_WEIGHT_BITS}")


def _level_charpoly(dp, q, r):
    """_scaled_charpoly of the level-r Laplacian, and bits_r: the bit size
    of the largest integer that the digit decode rounds at its node.

    For r <= 1 the node is y = q^(1-r), s = 1, and that integer is the
    largest |a_i(y)|.  For r > 1 it is b^D a_i(1/b) at b = q^(r-1), D the
    labels' total weight; the scaled coefficients are
    c_i = s^(n-k) a_i(1/b), s = b^A, whose leading one is s^(n-k) (A the
    largest label, k the vertices without an edge), so that integer is
    c_i b^D / c_n = c_i b^(D - A(n-k)), rounded."""
    s, weights = _level_weights(dp, q, r)
    coeffs = _scaled_charpoly(dp.graph.n, s, weights)
    top, lead = max(map(abs, coeffs)), coeffs[-1]
    if r > 1:
        top *= q ** ((r - 1) * dp.total_weight)
    return coeffs, ((2 * top + lead) // (2 * lead)).bit_length()


def _level_weights(dp, q, r):
    """(s, [((u, v), w)]): the edge weights of the level-r Laplacian scaled
    by the least s >= 1 that makes every weight an integer.

    For r <= 1 the weights q^((1-r)*a) are integers and s = 1.  For r > 1,
    with t = q^(r-1) and A the largest label, the weights 1/t^a become
    t^(A-a) and s = t^A: the edge labelled A alone makes an off-diagonal
    entry -1/t^A, so no smaller s clears the denominators.
    """
    if r <= 1:
        y = q ** (1 - r)
        return 1, [(e, y ** a) for e, a in dp.labels]
    t = q ** (r - 1)
    top = max((a for _, a in dp.labels), default=0)
    return t ** top, [(e, t ** (top - a)) for e, a in dp.labels]


def _scaled_charpoly(n, s, weights):
    """s^(n-k) * det(X*I - L) as ascending ints, for the Laplacian L on
    vertices 1..n whose edges ((u, v), w) carry the weights w / s with w
    an integer, k the number of vertices without an edge.

    Its roots are L's eigenvalues, certified by real_roots; it is
    det(Y*I - s*L), which laplacian_charpoly computes, at Y = s*X, over
    s^k.  Each isolated vertex is a factor X of det(X*I - L), so only the
    part over the vertices with edges is scaled, and k zero coefficients
    go in front."""
    coeffs = laplacian_charpoly(n, weights, mul, _as_is)
    k = n - len({u for e, _ in weights for u in e})
    return [0] * k + [c * s ** i for i, c in enumerate(coeffs[k:])]


# ---------------------------------------------------------------------------
# Clustering: union of levels -> per-level multisets


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-level value multisets for one sample, plus gap diagnostics."""

    q: int
    precision_bits: int
    levels: dict  # r -> ascending tuple of values (zeros re-attached)
    min_intercluster_gap: float
    max_intracluster_gap: float

    def level(self, r):
        return self.levels[r]


# A cross-prime pair's scaling exponent must lie within _EXPONENT_TOL of an
# integer, and its two branch constants within a relative _CONSTANT_TOL.
_EXPONENT_TOL = 0.25
_CONSTANT_TOL = 0.18


def cluster_and_assign(samples):
    """Split >= 2 same-window samples at distinct primes into level multisets.

    The level-1 multiset is prime-independent, so it is extracted by
    cross-sample value matching within a relative 2^-(p-5), p the least
    sample precision, which is level 1's (see simulate_spectrum).  That is
    the certificate's own bound: real_roots puts the root x of a value v in
    v*(1 -/+ 2^-(p-4)), so two values v, w of one root differ by
    |v - x| + |x - w| < (v + w) * 2^-(p-4) <= max(v, w) * 2^-(p-5): the
    tightest test that every such pair is proved to pass.

    The remaining values are matched across primes: a value pair belonging
    to the same eigenvalue branch and level satisfies v1/v2 = (q1/q2)^e for
    an integer e = (1-r)*s, with a shared leading constant; grouping by
    constant and factoring each group's exponents into complete
    progressions s*(1-r), separately for the levels below and above 1,
    identifies the levels.  Inconsistencies raise AmbiguousClusteringError
    - the caller's move is to retry with a larger prime.  The gap
    diagnostics are the least ratio of adjacent nonzero values from
    different levels and the largest ratio of adjacent values from one
    level, each correctly rounded to a float (inf beyond the float range).

    Each nonzero value is read once as the point (m, e) of realroots, and
    every comparison, exponent, constant and ratio is exact integer
    arithmetic on two points at their common exponent; the levels hold the
    samples' own values.
    """
    if len(samples) < 2:
        raise ValidationError("need at least two samples at distinct primes")
    qs = [s.q for s in samples]
    if len(set(qs)) != len(qs):
        raise ValidationError("samples must use distinct primes")
    window = {(s.r_min, s.r_max) for s in samples}
    if len(window) != 1:
        raise ValidationError("samples must share the level window")
    r_min, r_max = window.pop()
    ns = {s.n_per_level for s in samples}
    if len(ns) != 1:
        raise ValidationError("samples disagree on matrix size")
    n = ns.pop()
    b0s = {s.zeros_per_level for s in samples}
    if len(b0s) != 1:
        raise AmbiguousClusteringError("samples disagree on zero counts")
    b0 = b0s.pop()
    k = n - b0  # nonzero values per level

    t = min(s.precision_bits for s in samples) - 5
    forms = [_ascending(s) for s in samples]

    # Level 1 is the prime-independent multiset.  Values are identified by
    # their positions in the sample's ascending order.
    level_one = []
    rest = []
    for i, (points, _) in enumerate(forms):
        shared = [True] * len(points)
        for j, (other, _) in enumerate(forms):
            if j != i:
                matched = _match_multisets(points, other, t)
                shared = [f and m for f, m in zip(shared, matched)]
        ones = [p for p, f in enumerate(shared) if f]
        if len(ones) != k:
            raise AmbiguousClusteringError(
                f"sample q={samples[i].q}: expected {k} shared level-1 values, "
                f"found {len(ones)}; retry with a larger prime")
        level_one.append(ones)
        rest.append([p for p, f in enumerate(shared) if not f])

    out = []
    other_levels = [r for r in range(r_min, r_max + 1) if r != 1]
    for i, (sample, (points, values)) in enumerate(zip(samples, forms)):
        levels = {1: level_one[i]}
        if len(other_levels) == 1:
            levels[other_levels[0]] = rest[i]
        elif other_levels:
            mate = max((j for j in range(len(samples)) if j != i),
                       key=lambda j: samples[j].q)
            tags = _tag_exponents(rest[i], points, sample.q, rest[mate],
                                  forms[mate][0], samples[mate].q)
            # levels below 1 (positive exponents) follow Y -> infinity and
            # levels above 1 (negative exponents) Y -> 0, each with its own
            # scales and constants, so each side is factored on its own;
            # a value on a side with no level leaves some level short
            assigned = {}
            for side in ([r for r in other_levels if r < 1],
                         [r for r in other_levels if r > 1]):
                if side:
                    assigned.update(_assign_levels(
                        [t for t in tags if (t[1] > 0) == (side[0] < 1)], side))
            for r in other_levels:
                vals = assigned.get(r, [])
                if len(vals) != k:
                    raise AmbiguousClusteringError(
                        f"sample q={sample.q}: level {r} received {len(vals)} values, "
                        f"expected {k}")
                levels[r] = sorted(vals)
        inter, intra = _gap_diagnostics(levels, points)
        zeros = (ZERO,) * b0
        levels = {r: zeros + tuple(values[p] for p in ps)
                  for r, ps in levels.items()}
        out.append(ClusterAssignment(sample.q, sample.precision_bits, levels,
                                     inter, intra))
    return out


def _point_of(v):
    """The finite value v as the pair (m, e), v = m * 2^e."""
    sign, man, exp, _ = v._mpf_
    if not man and exp:
        raise ValidationError("non-finite value")
    return (-int(man) if sign else int(man)), exp


def _ascending(sample):
    """A sample's nonzero values in ascending order, as (points, the
    sample's own value objects)."""
    values = sorted_values([v for v in sample.values if _point_of(v)[0]])
    return list(map(_point_of, values)), values


def _match_multisets(a, b, t):
    """Greedy two-pointer matching of ascending point lists within a
    relative 2^-t: whether each element of a found a partner in b."""
    out = [False] * len(a)
    j = 0
    for i, v in enumerate(a):
        while j < len(b):
            m, n, _ = _align(b[j], v)
            if _close(m, n, t):
                out[i] = True
                j += 1
                break
            if m > n:
                break
            j += 1
    return out


def _close(a, b, t):
    """Whether the integers a and b agree within a relative 2^-t."""
    return abs(a - b) << t <= max(abs(a), abs(b))


def _tag_exponents(values, points, q_self, mates, mate_points, q_mate):
    """Tag each position p in values with (p, e, c): points[p] = c * q_self^e.

    Values of the same hidden pair sort identically at both primes once q
    exceeds the spread of the branch constants (the exponent dominates the
    ordering), so the two ascending lists of positions (the mates indexing
    mate_points) correspond positionally; each pair then determines its
    integer scaling exponent e and constant c, a correctly rounded float.
    """
    if len(values) != len(mates):
        raise AmbiguousClusteringError("samples disagree on value counts")
    lq_self, lq_mate = log(q_self), log(q_mate)
    tags = []
    for p, w in zip(values, mates):
        x, y = points[p], mate_points[w]
        m, n, _ = _align(x, y)
        e_real = (log(m) - log(n)) / (lq_self - lq_mate)
        e = round(e_real)
        if e == 0 or abs(e_real - e) > _EXPONENT_TOL:
            raise AmbiguousClusteringError(
                f"cross-prime pair {_nstr(x)} / {_nstr(y)} has "
                f"non-integer scaling exponent {e_real:.4f}; retry with a "
                f"larger prime")
        c_self = _branch_constant(x, q_self, e)
        c_mate = _branch_constant(y, q_mate, e)
        if abs(c_self - c_mate) > _CONSTANT_TOL * max(c_self, c_mate):
            raise AmbiguousClusteringError(
                f"cross-prime pair {_nstr(x)} / {_nstr(y)} has "
                f"inconsistent branch constants; retry with a larger prime")
        tags.append((p, e, c_self))
    return tags


def _branch_constant(x, q, e):
    """The point x over q^e, correctly rounded to a float."""
    m, k = x
    num, den = (m << k, 1) if k >= 0 else (m, 1 << -k)
    if e > 0:
        den *= q ** e
    else:
        num *= q ** -e
    try:
        return num / den
    except OverflowError:
        raise AmbiguousClusteringError(
            f"branch constant of {_nstr(x)} at q={q} is beyond the float "
            f"range") from None


def _nstr(x):
    """The point x = (m, e) to 8 significant digits, or as m*2^e beyond
    the float range."""
    m, e = x
    if not -1000 < e + abs(m).bit_length() < 1000:
        return f"{m}*2^{e}"
    return f"{(m << e if e >= 0 else m / (1 << -e)):.8g}"


def _assign_levels(tags, other_levels):
    """Group tags by branch constant, factor exponents into progressions.

    Each eigenvalue branch contributes one value per level, with exponents
    scale*(1-r); within a constant group the exponent multiset must be a
    disjoint union of such progressions.  When one exponent slot holds
    values from several branches, the value with the constant nearest the
    branch seed is taken, which resolves collisions whenever the branch
    constants are separated beyond the finite-prime corrections.
    """
    multipliers = sorted(1 - r for r in other_levels)
    tags = sorted(tags, key=lambda t: t[2])
    groups = []
    for t in tags:
        if groups and t[2] <= groups[-1][-1][2] * (1 + 2 * _CONSTANT_TOL):
            groups[-1].append(t)
        else:
            groups.append([t])
    assigned = {}
    for group in groups:
        pool = sorted(group, key=lambda t: t[1])
        while pool:
            e0, c0 = pool[0][1], pool[0][2]
            t0 = multipliers[0]
            if e0 % t0:
                raise AmbiguousClusteringError(
                    f"exponent {e0} incompatible with window multiplier {t0}")
            scale = e0 // t0
            for t_mult in multipliers:
                want = scale * t_mult
                slot = [idx for idx, tag in enumerate(pool) if tag[1] == want]
                if not slot:
                    raise AmbiguousClusteringError(
                        f"branch with scale {scale}: no value with exponent {want}")
                idx = min(slot, key=lambda idx: abs(pool[idx][2] - c0))
                assigned.setdefault(1 - t_mult, []).append(pool[idx][0])
                pool.pop(idx)
    return assigned


def _gap_diagnostics(levels, points):
    """Min gap ratio between adjacent cross-level values, max within a level.

    levels maps r to positions in points, the sample's nonzero values in
    ascending order; equal values are ordered by level.  Each ratio is an
    int/int true division at the pair's common exponent, correctly rounded,
    and inf when beyond the float range."""
    # equal values share their first position, so they sort by level
    first = {x: p for p, x in reversed(list(enumerate(points)))}
    ordered = sorted((first[points[p]], r)
                     for r, ps in levels.items() for p in ps)
    inter = float("inf")
    intra = 1.0
    for (a, ra), (b, rb) in zip(ordered, ordered[1:]):
        m, n, _ = _align(points[b], points[a])
        try:
            ratio = m / n
        except OverflowError:
            ratio = float("inf")
        if ra == rb:
            intra = max(intra, ratio)
        else:
            inter = min(inter, ratio)
    return inter, intra


# ---------------------------------------------------------------------------
# Recovery: clusters -> spectral polynomial


def recover_spectral_poly(assignment, q, degree_bound):
    """Rebuild the integer spectral polynomial from one cluster assignment.

    Per level r the monic polynomial with the cluster values as roots is
    multiplied out exactly in integers (see _monic_from_roots), attached to
    the node y = q^(1-r), and handed to interpolate_spectral_poly as
    integer numerators over a power-of-two denominator.  That digit
    decodes at the smallest base q^(1-r) >= 3 over levels r < 1, else at
    the smallest base q^(r-1) >= 3 over levels r > 1, and verifies against
    every other level within polynomials.SNAP_TOL, all in integer
    arithmetic; only the reported snapping residual is a Fraction.  Any
    window holding level 1 and a second level has such a node, except at
    q = 2 with a window inside [0, 2], which raises ValidationError.  The
    decode needs only that node, not degree_bound+1 levels.

    Before any product, every level's values are checked against the range
    its eigenvalues can take (see _check_level_range).
    """
    for r, values in assignment.levels.items():
        _check_level_range(values, q, r, degree_bound)
    samples = {Fraction(q) ** (1 - r): _monic_from_roots(values)
               for r, values in assignment.levels.items()}
    return interpolate_spectral_poly(samples, degree_bound)


def _check_level_range(values, q, r, degree_bound):
    """Raise AmbiguousClusteringError unless every nonzero value lies in
    [4w / n^2, 2DW], with n = len(values), D = degree_bound, and w and W the
    least and the largest weight q^((1-r)a), 1 <= a <= D.

    That range holds every nonzero eigenvalue of a level-r Laplacian on n
    vertices whose positive integer labels sum to at most D.  The largest
    is at most the trace, twice a sum of at most D weights.  L is at least
    w times the Laplacian of its simple graph (Loewner order), whose
    nonzero eigenvalues are at least 4/n^2 (Mohar's 4/(n diam)).  The check
    compares binary magnitudes, a bit wider than the range, so a value
    m * 2^e that passes costs _monic_from_roots at most about
    D |1-r| log2(q) + 2 bits(m) bits, whatever its exponent claims."""
    span = degree_bound * abs(1 - r) * q.bit_length()
    hi = (span if r < 1 else 0) + (2 * degree_bound).bit_length() + 2
    lo = -(span if r > 1 else 0) - 2 * len(values).bit_length()
    for m, e in map(_point_of, values):
        if m and not lo <= e + abs(m).bit_length() <= hi:
            raise AmbiguousClusteringError(
                f"level {r}: value of binary magnitude 2^{e + abs(m).bit_length()} "
                f"outside [2^{lo}, 2^{hi}], where no eigenvalue of that level "
                f"lies at degree bound {degree_bound}")


def _monic_from_roots(roots):
    """(X - r_1)...(X - r_k) for the values r_i, exactly, as (ascending integer
    numerators, power-of-two denominator).

    A root m * 2^e is the zero of the integer factor 2^a X - m 2^(e+a),
    a = max(-e, 0), so the product of the factors, multiplied pairwise (a
    product tree, see _poly_mul), is the polynomial times the roots' own
    powers of two.  Its leading coefficient is the least denominator:
    modulo 2 each factor with a > 0 is the constant m (a mantissa is
    odd) and every other factor is monic, so some coefficient is odd."""
    polys = [[-(m << max(e, 0)), 1 << max(-e, 0)]
             for m, e in map(_point_of, roots)]
    while len(polys) > 1:
        paired = [_poly_mul(f, g) for f, g in zip(polys[::2], polys[1::2])]
        polys = paired + polys[len(paired) * 2:]
    nums = polys[0] if polys else [1]
    return nums, nums[-1]


def _poly_mul(a, b):
    """Product of two ascending integer coefficient lists whose leading
    coefficients are powers of two, by which the other terms are shifted."""
    sa, sb = a[-1].bit_length() - 1, b[-1].bit_length() - 1
    a, b = a[:-1], b[:-1]
    out = [0] * (len(a) + len(b)) + [1 << (sa + sb)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
            out[i + len(b)] += x << sb
    for j, y in enumerate(b):
        out[len(a) + j] += y << sa
    return out


# ---------------------------------------------------------------------------
# Matrix perturbation experiment


@dataclass(frozen=True)
class SeparationReport:
    """First-order eigenvalue response of U(C) + eps*U(C_i) for i = 1, 2."""

    epsilon: object
    common_edges: tuple
    extra_edges: tuple  # (C_1, C_2)
    spectra: tuple  # (eigenvalues of L_eps_1, eigenvalues of L_eps_2)
    hausdorff_distance: object
    separating_vector: tuple | None
    separating_seminorms: tuple | None
    predictions: tuple  # per i: ascending first-order predictions
    max_prediction_error: tuple  # per i


SEPARATION_BITS = 192  # working precision of the perturbation experiment


def separation_experiment(g1, g2, epsilon):
    """Perturb the common-edge Laplacian toward each graph and compare.

    C = E1 & E2, C_i = E_i - C.  U(C)'s eigenvalues are the certified roots
    of its charpoly (see _scaled_charpoly), whose runs of equal roots group
    eigsy's ascending eigenvectors by eigenspace; an eigsy value farther
    from its root than the 2^-(bits/2) scale sym_eigs checks raises
    PrecisionError.  In each eigenspace the compression W_i of U(C_i) gives
    the predictions lambda + eps*mu, mu an eigenvalue of W_i, which match
    those of U(C) + eps*U(C_i) up to O(eps^2) (Kato, Perturbation Theory
    for Linear Operators, ch. II), and a separating eigenvector (its two
    seminorms differ) exists iff some W_1 - W_2 is not zero.  The perturbed
    spectra are certified roots too, so exactly isospectral perturbations
    read a Hausdorff distance of 0; only eigenvectors and compressions are
    numeric.  The certified roots enter mpmath as the equal mpf, exactly.
    """
    if g1.n != g2.n:
        raise ValidationError("graphs must share the vertex range")
    n = g1.n
    E1, E2 = set(g1.edges), set(g2.edges)
    C = sorted(E1 & E2)
    C1 = sorted(E1 - E2)
    C2 = sorted(E2 - E1)
    if not C1 and not C2:
        raise ValidationError("graphs are equal: nothing to separate")
    eps_f = Fraction(epsilon)
    if eps_f <= 0:
        raise ValidationError("epsilon must be positive")
    UC = edge_set_laplacian(n, C)
    U1 = edge_set_laplacian(n, C1)
    U2 = edge_set_laplacian(n, C2)
    base = real_roots(_scaled_charpoly(n, 1, [(e, 1) for e in C]),
                      SEPARATION_BITS)
    from mpmath import mp
    with mp.workprec(SEPARATION_BITS + 64):
        base = [mp.make_mpf(v._mpf_) for v in base]
        numeric, vecs = sym_eigs(UC, SEPARATION_BITS, want_vectors=True)
        scale = mp.ldexp(mp.sqrt(sum(x * x for row in UC for x in row)),
                         -(SEPARATION_BITS // 2))
        if any(abs(a - b) > scale for a, b in zip(numeric, base)):
            raise PrecisionError("eigsy's eigenvalues of U(C) strayed from "
                                 "their certified roots")
        eps = mp.mpf(eps_f.numerator) / mp.mpf(eps_f.denominator)
        predictions = ([], [])
        sep_vec = sep_norms = None
        best = mp.ldexp(1, -(SEPARATION_BITS // 4))
        for lam, run in groupby(zip(base, vecs), key=lambda pair: pair[0]):
            basis = [u for _, u in run]
            W1, W2 = _compression(U1, basis), _compression(U2, basis)
            for preds, W in zip(predictions, (W1, W2)):
                preds.extend(lam + eps * mu
                             for mu in sym_eigs(W, SEPARATION_BITS))
            Wd = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(W1, W2)]
            for mu, w in zip(*sym_eigs(Wd, SEPARATION_BITS, want_vectors=True)):
                if abs(mu) > best:
                    best = abs(mu)
                    sep_vec = tuple(mp.fsum(c * u[i] for c, u in zip(w, basis))
                                    for i in range(n))
        predictions = [sorted(p) for p in predictions]
        # eps = p/d: d times the perturbed Laplacian weighs C by d, C_i by p
        d = eps_f.denominator
        spectra = [[mp.make_mpf(v._mpf_) for v in real_roots(_scaled_charpoly(
            n, d, [(e, d) for e in C] + [(e, eps_f.numerator) for e in Ci]),
            SEPARATION_BITS)] for Ci in (C1, C2)]
        errors = tuple(
            max(abs(a - p) for a, p in zip(spectra[i], predictions[i]))
            for i in range(2))
        hausdorff = _hausdorff(spectra[0], spectra[1])
        if sep_vec is not None:
            sep_norms = tuple(mp.mpf(seminorm_sq(sep_vec, Ci)) for Ci in (C1, C2))
    return SeparationReport(
        epsilon=eps_f,
        common_edges=tuple(C),
        extra_edges=(tuple(C1), tuple(C2)),
        spectra=(tuple(spectra[0]), tuple(spectra[1])),
        hausdorff_distance=hausdorff,
        separating_vector=sep_vec,
        separating_seminorms=sep_norms,
        predictions=(tuple(predictions[0]), tuple(predictions[1])),
        max_prediction_error=errors,
    )


def prediction_error_ratio(g1, g2, epsilon):
    """Max first-order error at eps divided by the error at eps/2.

    Analytic perturbation makes the first-order error O(eps^2), so the
    ratio approaches 4 from below as eps shrinks.
    """
    eps = Fraction(epsilon)
    full = separation_experiment(g1, g2, eps)
    half = separation_experiment(g1, g2, eps / 2)
    err_full = max(full.max_prediction_error)
    err_half = max(half.max_prediction_error)
    if err_half == 0:
        return full, half, float("inf")
    return full, half, err_full / err_half


def _compression(U, basis):
    """The symmetrised matrix of u^T U v over the vectors u, v of basis."""
    from mpmath import mp
    W = [[mp.fsum(u[i] * x * v[j] for i, row in enumerate(U)
                  for j, x in enumerate(row) if x) for v in basis] for u in basis]
    return [[(W[a][b] + W[b][a]) / 2 for b in range(len(W))]
            for a in range(len(W))]


def _hausdorff(a, b):
    from mpmath import mp
    d = mp.mpf(0)
    for x in a:
        d = max(d, min(abs(x - y) for y in b))
    for y in b:
        d = max(d, min(abs(x - y) for x in a))
    return d


# ---------------------------------------------------------------------------
# Text format: header "spectrum q=<q> rmin=<r> rmax=<r> prec=<bits>",
# then one hex dyadic value per line, ascending.


def spectrum_to_text(sample):
    lines = [f"spectrum q={sample.q} rmin={sample.r_min} rmax={sample.r_max} "
             f"prec={sample.precision_bits}"]
    lines.extend(map(hex_dyadic, sample.values))
    return "\n".join(lines) + "\n"


def spectrum_from_text(text):
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not rows or not rows[0].startswith("spectrum "):
        raise ValidationError("missing spectrum header")
    fields = parse_fields(rows[0].split()[1:], rows[0])
    try:
        q, r_min, r_max, prec = parse_ints(
            [fields[k] for k in ("q", "rmin", "rmax", "prec")], rows[0])
    except KeyError as exc:
        raise ValidationError(f"spectrum header missing field {exc}")
    values = tuple(map(parse_hex_dyadic, rows[1:]))
    return SpectrumSample(q, r_min, r_max, prec, values)
