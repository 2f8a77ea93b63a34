"""The bivariate spectral polynomial P(X, Y) = det(X*I - L(Y)) and friends.

P is monic in X of degree n with integer coefficients and zero constant
term (graph Laplacians are singular).  Each X-coefficient a_i is a sparse
integer polynomial in Y of degree at most the sum of all edge labels.

Sign convention is fixed once: the characteristic polynomial is always
det(X*I - M), so coefficient signs alternate against the spanning-forest
counts (see forests.buslov_polynomial).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import lshift, mul

from .errors import (PrecisionError, ValidationError, check_vertex_count,
                     parse_ints)
from .unipoly import UniPoly


# ---------------------------------------------------------------------------
# Spectral polynomials


@dataclass(frozen=True)
class SpectralPolynomial:
    """P(X, Y) = sum a_i(Y) X^i, monic in X, integer coefficients, a_0 = 0."""

    n: int
    coeffs: tuple  # a_0 .. a_n as UniPoly in Y

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n={self.n} is not a positive vertex count")
        if len(self.coeffs) != self.n + 1:
            raise ValidationError("need exactly n+1 coefficient polynomials")
        for a in self.coeffs:
            if not isinstance(a, UniPoly):
                raise ValidationError("coefficients must be UniPoly")
            if not a.is_integer():
                raise ValidationError("coefficients must be integer polynomials")
        if self.coeffs[self.n] != UniPoly.const(1):
            raise ValidationError("polynomial must be monic in X")
        if not self.coeffs[0].is_zero():
            raise ValidationError("constant term a_0 must vanish")

    @property
    def y_degree(self):
        return max(a.degree for a in self.coeffs)

    def coefficient(self, i):
        return self.coeffs[i]

    def monomials(self):
        """Yield (c, xdeg, ydeg) over all nonzero monomials."""
        for i, a in enumerate(self.coeffs):
            for k, c in a.terms.items():
                yield c, i, k

    def format(self):
        parts = []
        for i in range(self.n, -1, -1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            ay = a.format("Y")
            if i == 0:
                parts.append(ay)
            else:
                x = "X" if i == 1 else f"X^{i}"
                parts.append(x if ay == "1" else f"({ay})*{x}")
        return " + ".join(parts) if parts else "0"


# Packed size up to which spectral_polynomial substitutes Y = 2^B.  On
# powers-of-two graphs with n = 5..8 (CPU time, 2-vCPU x86 machine) the
# packed run was 1.6x to 11x as fast as the Z[Y] run up to 2^16 bits, and
# 0.28x to 2.5x as fast from 126,992 to 617,747 bits, where CPython's
# Karatsuba products are mostly zero digits.
_PACKED_MAX_BITS = 1 << 16


def spectral_polynomial(dp):
    """Exact P(X, Y) of a diffusion pair.

    One run of laplacian_charpoly on the labelled edges, in one of two
    rings.  Every coefficient of a_i(Y) has the sign (-1)^(n-i)
    (all-minors matrix-tree theorem), so their absolute values sum to at
    most sum_i |a_i(1)| = det(I + L(1)) <= prod_v (1 + deg v) (Hadamard).
    With 2^(B-1) above that product, the integer a_i(2^B) holds the
    coefficients of a_i as B-bit digits.  While the packed integers have at
    most _PACKED_MAX_BITS bits, the recursion runs on them
    (`_packed_charpoly`); beyond that, where the products are mostly zero
    digits, it runs over Z[Y], whose cost follows the sparse supports of
    the entries rather than the label weight.
    """
    n = dp.graph.n
    width = prod(1 + d for d in dp.graph.degrees()).bit_length() + 1
    # a forest has at most n - 1 edges, which bounds every Y-degree
    count = 1 + sum(sorted(dp.label_values(), reverse=True)[:n - 1])
    if width * count <= _PACKED_MAX_BITS:
        return SpectralPolynomial(n, _packed_charpoly(n, dp.labels, width, count))
    edges = [(e, UniPoly.monomial(1, a)) for e, a in dp.labels]
    # the leading 1 and the zeros of isolated vertices come back as plain
    # ints; lift every a_i into Z[Y], the zeros as one shared polynomial
    zero = UniPoly.zero()
    return SpectralPolynomial(n, tuple(
        zero + c if c else zero
        for c in laplacian_charpoly(n, edges, mul, _as_is)))


def laplacian_charpoly(n, weighted_edges, scale, reduce):
    """a_0 .. a_n of det(X*I - L) for the Laplacian L on vertices 1..n
    with entry -w at (u, v) and (v, u) for each edge ((u, v), w), parallel
    edges adding up, and row sums zero, by Berkowitz's division-free
    recursion on the edge list.  Every exact spectrum in the package comes
    from this routine.

    The weights stand for ring elements: scale(x, w) is x times the weight
    w, and reduce maps a ring element to a congruent one no larger (the
    identity where nothing needs cutting).  Every off-diagonal entry is -w
    and every diagonal entry a sum of weights, so products with entries are
    scale calls on the edges alone; only the Toeplitz step multiplies two
    ring elements.

    An isolated vertex adds a zero row and column, so det(X*I - L) is X^k
    times the determinant over the n - k vertices with edges: the
    recursion runs on those alone, and k zero coefficients go in front.
    """
    active = sorted({u for (e, _) in weighted_edges for u in e})
    if len(active) < n:
        index = {u: i for i, u in enumerate(active, 1)}
        core = laplacian_charpoly(
            len(active), [((index[u], index[v]), w) for (u, v), w in weighted_edges],
            scale, reduce) if active else [1]
        return [0] * (n - len(active)) + core
    # the edges at each vertex as (other end, weight) pairs
    star = [[] for _ in range(n)]
    for (u, v), w in weighted_edges:
        star[u - 1].append((v - 1, w))
        star[v - 1].append((u - 1, w))

    # charpoly of the leading k x k block, descending powers of X
    C = [1, -sum(scale(1, w) for _, w in star[0])]
    for k in range(1, n):
        below = [(i, w) for i, w in star[k] if i < k]
        v = [0] * k  # the column above the diagonal entry L[k][k]
        for i, w in below:
            v[i] -= scale(1, w)
        t = [1, -sum(scale(1, w) for _, w in star[k])]
        for j in range(k):
            # -R * v, where row k left of the diagonal is -w at each neighbour
            t.append(reduce(sum(scale(v[i], w) for i, w in below)))
            if j < k - 1:
                # M * v: each edge at i adds w (v_i - v_l), v_l only inside the block
                v = [reduce(sum(scale(x - v[l] if l < k else x, w) for l, w in star[i]))
                     for i, x in enumerate(v)]
        # C_new = T * C with T lower-triangular Toeplitz, first column t:
        # C_new[i] = sum_j t[i - j] * C[j], a dot product with t reversed
        t.reverse()
        C = [reduce(sum(map(mul, t[k + 1 - i:], C))) for i in range(k + 2)]
    C.reverse()
    return C


def _as_is(x):
    return x


def _packed_charpoly(n, labels, width, count):
    """a_0 .. a_n of det(X*I - L(Y)) for the Laplacian of the labelled
    edges ((u, v), a), given that its coefficients are B-bit digits
    (B = width) of Y-degree below count, by laplacian_charpoly on integers
    at Y = 2^B (Kronecker substitution).

    Y -> 2^B followed by reduction mod 2^N, N = B * count, is a ring map,
    so the recursion runs on residues: a value is cut to its balanced
    residue once it outgrows N bits.  Each edge weight Y^a is the shift
    B * a, so products with entries are shifts and adds.  Since
    |a_i(2^B)| < 2^(N-1), the balanced residue of a_i is a_i(2^B) itself.
    """
    N = width * count
    mask = (1 << N) - 1

    def residue(x):
        x &= mask
        return x - (1 << N) if x >> (N - 1) else x

    def cut(x):
        return residue(x) if x.bit_length() > N else x

    shifts = [(e, width * a) for e, a in labels]
    coeffs = []
    zero = UniPoly.zero()  # shared by the X^k factor of isolated vertices
    for x in laplacian_charpoly(n, shifts, lshift, cut):
        x = residue(x)
        if not x:
            coeffs.append(zero)
            continue
        digits = _digits(abs(x), width)
        coeffs.append(UniPoly({k: -d for k, d in digits.items()} if x < 0 else digits))
    return tuple(coeffs)


def _digits(x, width):
    """The nonzero base-2^width digits of x >= 0 as {position: digit}; a
    run of zero digits is skipped in one shift."""
    out = {}
    low = (1 << width) - 1
    k = 0
    while x:
        if x & low:
            out[k] = x & low
            x >>= width
            k += 1
        else:
            zeros = ((x & -x).bit_length() - 1) // width
            x >>= width * zeros
            k += zeros
    return out


def evaluate_y(P, y):
    """Substitute an exact rational for Y; returns a UniPoly in X."""
    y = Fraction(y)
    out = {}
    for i, a in enumerate(P.coeffs):
        v = a(y) if not a.is_zero() else 0
        if v:
            out[i] = v if isinstance(v, int) else (int(v) if v.denominator == 1 else v)
    return UniPoly(out)


@dataclass(frozen=True)
class HomogeneousPart:
    """Monomials of a fixed total degree d in (X, Y)."""

    degree: int
    terms: tuple  # sorted tuple of (xdeg, ydeg, coeff)

    def format(self):
        parts = []
        for j, k, c in self.terms:
            piece = f"{c}"
            if j:
                piece += f"*X^{j}" if j > 1 else "*X"
            if k:
                piece += f"*Y^{k}" if k > 1 else "*Y"
            parts.append(piece)
        return " + ".join(parts).replace("+ -", "- ")


def tangent_cone(P):
    """Homogeneous part of minimal total degree of P (its cone at the origin)."""
    monos = list(P.monomials())
    if not monos:
        raise ValidationError("zero polynomial has no tangent cone")
    d = min(i + k for _, i, k in monos)
    terms = tuple(sorted((i, k, c) for c, i, k in monos if i + k == d))
    return HomogeneousPart(d, terms)


# ---------------------------------------------------------------------------
# Interpolation from sampled characteristic polynomials


SNAP_TOL = Fraction(1, 10 ** 6)  # largest accepted snapping residual


@dataclass(frozen=True)
class InterpolationResult:
    polynomial: SpectralPolynomial
    snap_residual: Fraction  # max distance of any fitted coefficient from its integer


def interpolate_spectral_poly(samples, degree_bound):
    """Fit integer polynomials a_i(Y) through sampled values at exact nodes.

    samples maps a rational node y to the polynomial in X observed there
    (all monic of a common X-degree): a UniPoly with int or Fraction
    coefficients, or a pair (numerators, denominator) of ascending integer
    coefficient numerators over one positive common denominator, the form
    spectra.recover_spectral_poly builds.  A UniPoly is brought to that
    form once, on entry; from there on every step is integer arithmetic.
    The coefficients are read off by balanced digit decoding at one decode
    node, with D = degree_bound:

    * at an integer node y = b >= 3, the integer nearest to a_i(b) holds
      the coefficients of a_i as its balanced base-b digits;
    * at a reciprocal node y = 1/b, b >= 3, the integer nearest to
      b^D * a_i(1/b) holds them in reverse digit order.

    Decoding needs every |coefficient| < b/2.  Integer nodes are tried
    first, then reciprocal ones, each in ascending b.  A candidate is kept
    only if every node reproduces it within SNAP_TOL; the snapping residual
    reported (an exact Fraction) is the larger of the rounding distance and
    that deviation.  Decoding tolerates per-node relative noise, which a
    linear solve through geometric nodes amplifies catastrophically.

    Raises ValidationError when no node is b or 1/b with b >= 3 (q = 2 with
    a window inside [0, 2] gives only the nodes 1/2, 1 and 2), and
    PrecisionError when every decode fails, so that a caller can retry with
    a larger prime.
    """
    nodes = {}
    for y, sample in samples.items():
        y = Fraction(y)
        if y in nodes:
            raise ValidationError(f"duplicate node {y}")
        nodes[y] = _integer_form(sample) if isinstance(sample, UniPoly) else sample
    if not nodes:
        raise ValidationError("no sample nodes")
    degrees = {len(nums) - 1 for nums, _ in nodes.values()}
    if len(degrees) != 1:
        raise ValidationError("sample polynomials disagree on X-degree")
    n = degrees.pop()
    if n < 1:
        raise ValidationError("sample polynomials must have positive X-degree")

    decode_nodes = sorted(y for y in nodes if y.denominator == 1 and y >= 3)
    decode_nodes += sorted(
        (y for y in nodes if y.numerator == 1 and y.denominator >= 3), reverse=True)
    if not decode_nodes:
        raise ValidationError(
            f"insufficient nodes: digit decoding needs a node b or 1/b with "
            f"b >= 3, got {[str(y) for y in sorted(nodes)]}")
    for node in decode_nodes:
        result = _decode_at_base(nodes, n, node, degree_bound)
        if result is not None:
            return result
    raise PrecisionError(
        f"digit decode failed at every node {[str(y) for y in decode_nodes]}")


def _integer_form(poly):
    """A UniPoly in X as (ascending integer numerators, common denominator)."""
    coeffs = [Fraction(poly.coefficient(i)) for i in range(poly.degree + 1)]
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _decode_at_base(nodes, n, node, degree_bound):
    """Balanced base-b digit decode at the node b or 1/b, verified against
    all other nodes.

    With h = floor(b/2) and H = h*(b^(D+1) - 1)/(b - 1), the ordinary base-b
    digits of B + H are the balanced digits of B plus h, so B has at most
    D+1 balanced digits iff 0 <= B + H < b^(D+1)."""
    reciprocal = node < 1
    base = node.denominator if reciprocal else node.numerator
    scale = base ** degree_bound if reciprocal else 1
    nums, den = nodes[node]
    half = base // 2
    width = base ** (degree_bound + 1)
    offset = half * ((width - 1) // (base - 1))
    worst = 0  # largest rounding distance, over den
    dyadic = den & (den - 1) == 0  # true of every recover_spectral_poly sample
    shift = den.bit_length() - 1
    rows = []
    for c in nums:
        N = c * scale
        B, dist = (N >> shift, N & (den - 1)) if dyadic else divmod(N, den)
        if 2 * dist > den or (2 * dist == den and B & 1):  # half to even
            B, dist = B + 1, den - dist
        if _exceeds_tol(dist, den):
            return None
        worst = max(worst, dist)
        if not 0 <= B + offset < width:
            return None
        row = [d - half for d in _radix_digits(B + offset, base, degree_bound + 1)]
        if reciprocal:
            row.reverse()
        rows.append(row)
    try:
        candidate = SpectralPolynomial(
            n, tuple(UniPoly(dict(enumerate(row))) for row in rows))
    except ValidationError:
        return None
    dev, dev_den = _verification_residual(rows, nodes, node)
    if _exceeds_tol(dev, dev_den):
        return None
    if _greater(dev, dev_den, worst, den):
        worst, den = dev, dev_den
    return InterpolationResult(candidate, Fraction(worst, den))


def _radix_digits(N, base, count):
    """The count lowest base-`base` digits of N >= 0, least significant
    first, split off from the top at base^(2^k) (divide and conquer)."""
    powers = [base]
    while 1 << len(powers) < count:
        powers.append(powers[-1] ** 2)
    parts = [N]
    for p in reversed(powers):
        parts = [x for part in parts for x in reversed(divmod(part, p))]
    return parts[:count]


def _verification_residual(rows, nodes, decode_node):
    """Max relative deviation |o - e| / max(1, |e|) of the samples o from
    the candidate's values e = a_i(y), over every node but the decode node
    and every coefficient, as (numerator, denominator); rows[i] holds a_i's
    ascending coefficients.

    At the decode node b the candidate's value is exactly the rounded
    integer B (B / b^D at 1/b), so the deviation there is at most the
    rounding distance that _decode_at_base reports already."""
    worst, worst_den = 0, 1
    for y, (nums, den) in nodes.items():
        if y == decode_node:
            continue
        u, v = y.numerator, y.denominator
        for row, o in zip(rows, nums):
            E, W = _evaluate(row, u, v)
            dev = abs(o * W - E * den)
            dev_den = den * max(W, abs(E))
            if _greater(dev, dev_den, worst, worst_den):
                worst, worst_den = dev, dev_den
    return worst, worst_den


def _evaluate(row, u, v):
    """a(u/v) = E / v^d as (E, v^d), d the degree of a, whose ascending
    coefficients are row; homogeneous Horner in integers."""
    d = len(row) - 1
    while d > 0 and not row[d]:
        d -= 1
    E, power = 0, 1  # power = v^(d - k) at coefficient k
    for k in range(d, -1, -1):
        E *= u
        if row[k]:
            E += row[k] * power
        power *= v
    return E, power // v


def _exceeds_tol(num, den):
    return _greater(num, den, SNAP_TOL.numerator, SNAP_TOL.denominator)


def _greater(a, b, c, d):
    """a/b > c/d for a, c >= 0 and b, d > 0.  The bit lengths put log2(a/b)
    within 1 of len(a) - len(b), which settles all but near ties without
    multiplying."""
    if not (a and c):
        return a > c
    gap = a.bit_length() - b.bit_length() - c.bit_length() + d.bit_length()
    if abs(gap) > 1:
        return gap > 1
    return a * d > c * b


# ---------------------------------------------------------------------------
# Text format: header "spoly n=<n>", then one monomial per line "c j k"
# meaning c * X^j * Y^k, sorted by (j descending, k ascending).


def spectral_poly_to_text(P):
    lines = [f"spoly n={P.n}"]
    monos = sorted(P.monomials(), key=lambda t: (-t[1], t[2]))
    for c, j, k in monos:
        lines.append(f"{c} {j} {k}")
    return "\n".join(lines) + "\n"


def spectral_poly_from_text(text):
    rows = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not rows or not rows[0].startswith("spoly n="):
        raise ValidationError("missing 'spoly n=<n>' header")
    [n] = parse_ints([rows[0].split("=", 1)[1]], rows[0])
    check_vertex_count(n, rows[0])
    coeffs = {}
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValidationError(f"bad monomial line {ln!r}")
        try:
            c, j, k = map(int, parts)
        except ValueError:
            raise ValidationError(f"non-integer token in {ln!r}") from None
        if not 0 <= j <= n:
            raise ValidationError(f"X-degree {j} outside 0..{n}")
        if k < 0:
            raise ValidationError(f"negative Y-degree {k}")
        terms = coeffs.setdefault(j, {})
        if k in terms:
            raise ValidationError(f"duplicate monomial X^{j} Y^{k}")
        terms[k] = c
    # a dict only for the X-degrees present: absent degrees share one zero
    # (nothing mutates .terms), so a large n costs a pointer per degree
    a = [UniPoly.zero()] * (n + 1)
    for j, terms in coeffs.items():
        if not all(terms.values()):
            terms = {k: c for k, c in terms.items() if c}
        a[j] = UniPoly._of(terms)
    return SpectralPolynomial(n, tuple(a))
