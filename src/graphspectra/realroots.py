"""Certified real roots of integer polynomials whose roots are all real.

The characteristic polynomial of a real symmetric matrix has only real
roots, and so do its square-free factors.  For such a polynomial Descartes'
rule of signs, applied to the Taylor expansion at a point x, counts the
roots above x exactly; roots are isolated by these exact counts at dyadic
points (geometric bisection across the dynamic range, arithmetic bisection
inside a few octaves).  Each isolated root is refined by Newton's method at
doubling precision, every function value computed exactly, and a value x
is accepted only after an exact sign change of its factor across
x -/+ 2^(e-(bits-4)), 2^e <= |x| < 2^(e+1), an interval inside
x*(1 -/+ 2^-(bits-4)).  Those intervals are then checked to be pairwise
disjoint, so the degree of the factor proves that each holds exactly one
root.  Repeated roots are split off first by Yun's square-free
decomposition, and zero roots come from the X-adic valuation, exactly.

Polynomials are lists of int coefficients, lowest degree first, with a
nonzero leading coefficient; the zero polynomial is [].  A point is a pair
(m, e) of ints, the dyadic m * 2^e with m > 0 odd.  Isolation, bisection,
Newton steps, bracket and convergence tests and certificates are integer
arithmetic on such pairs, compared at a common exponent; a Newton step
rounds half to even, as mpmath's round_nearest does.  Each returned root
is a Dyadic, the package's one exact value type.
"""
from __future__ import annotations

import operator
import sys
from math import gcd

from .errors import PrecisionError

# Prime for the modular test that skips Yun's exact gcds on square-free input.
_MODULUS = (1 << 61) - 1
_NEWTON_MIN_BITS = 64


# ---------------------------------------------------------------------------
# The value type


class Dyadic:
    """The exact value m * 2^e, held as mpmath's raw tuple (sign, man, exp,
    bc) in the attribute _mpf_: man odd, bc its bit count, and (0, 0, 0, 0)
    for zero.  _mpf_ is mpmath's conversion protocol, so mpmath operators
    accept a Dyadic and mp.make_mpf(v._mpf_) is the equal mpf, exactly
    (mp.mpf(v) rounds to the context precision).  Orders and compares
    exactly against ints and anything with an _mpf_; hashes as the equal
    int or Fraction does; scales by an int."""

    __slots__ = ("_mpf_",)

    def __init__(self, m=0, e=0):
        if not m:
            self._mpf_ = (0, 0, 0, 0)
            return
        man = abs(m)
        z = (man & -man).bit_length() - 1
        man >>= z
        self._mpf_ = (int(m < 0), man, e + z, man.bit_length())

    @property
    def pair(self):
        """(m, e) with the value m * 2^e, m signed and odd, or (0, 0)."""
        sign, man, exp, _ = self._mpf_
        return (-man if sign else man), exp

    def __repr__(self):
        return "Dyadic(%d, %d)" % self.pair

    def __bool__(self):
        return self._mpf_[1] != 0

    def __float__(self):
        m, e = self.pair
        try:
            return float(m << e) if e >= 0 else m / (1 << -e)
        except OverflowError:
            return float("-inf") if m < 0 else float("inf")

    def __mul__(self, k):
        if type(k) is not int:
            return NotImplemented
        m, e = self.pair
        return Dyadic(m * k, e)

    __rmul__ = __mul__

    def __hash__(self):
        m, e = self.pair
        modulus = sys.hash_info.modulus
        h = hash(abs(m)) * pow(2, e, modulus) % modulus
        h = -h if m < 0 else h
        return -2 if h == -1 else h

    def _compare(self, other, op):
        """op(the sign of self - other, 0), or NotImplemented for another
        type or a non-finite mpf, which mpmath's reflected operator takes."""
        if isinstance(other, int):
            y = (other, 0)
        else:
            t = getattr(other, "_mpf_", None)
            if t is None or (not t[1] and t[2]):
                return NotImplemented
            y = (-t[1] if t[0] else t[1]), t[2]
        d = _difference(self.pair, y)[0]
        return op((d > 0) - (d < 0), 0)

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)


ZERO = Dyadic()


def sorted_values(values):
    """Finite values with an _mpf_ (Dyadic or mpf), sorted by exact value.

    The key is the sign, then the binary magnitude exp + bc, then the
    mantissa shifted to the width of the widest one: a tuple that sorts at
    C speed, where a comparison written in Python costs 1.6 times as much."""
    width = max((v._mpf_[3] for v in values), default=0)

    def key(v):
        sign, man, exp, bc = v._mpf_
        if sign:
            return -1, -exp - bc, -(man << (width - bc))
        return (1 if man else 0), exp + bc, man << (width - bc)

    return sorted(values, key=key)


# ---------------------------------------------------------------------------
# Certified roots


def real_roots(coeffs, bits):
    """Roots of sum coeffs[i]*X^i, ascending and with multiplicity, as
    Dyadic values.

    Zero roots are one shared exact zero, placed after the negative roots
    without sorting.  Every other root is returned as a value x
    of at most `bits` bits such that its square-free factor changes sign
    across a certificate interval inside x*(1 -/+ 2^-(bits-4)) holding no
    other root.  Raises PrecisionError when two roots of one factor lie too
    close to be told apart at `bits` bits, or when the polynomial turns out
    to have non-real roots.
    """
    if bits < 8:
        raise PrecisionError(f"{bits} bits cannot certify a root")
    v = next(i for i, c in enumerate(coeffs) if c)
    roots = []
    for mult, factor in square_free_factors(coeffs[v:]):
        for m, e in _simple_roots(factor, bits):
            roots.extend([Dyadic(m, e)] * mult)
    roots = sorted_values(roots)
    below = sum(1 for x in roots if x._mpf_[0])  # the negative roots
    roots[below:below] = [ZERO] * v
    return roots


# ---------------------------------------------------------------------------
# Integer polynomial arithmetic


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _sub(f, g):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] -= c
    return _trim(out)


def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    if not f:
        return f
    c = gcd(*f)
    if f[-1] < 0:
        c = -c
    return [x // c for x in f]


def _pseudo_remainder(f, g):
    """A nonzero multiple of the remainder of f by g, by integer steps only."""
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    while r and len(r) - 1 >= dg:
        shift, lr = len(r) - 1 - dg, r[-1]
        r = [c * lg for c in r]
        for i, c in enumerate(g):
            r[shift + i] -= lr * c
        _trim(r)
    return r


def _gcd(f, g):
    """Primitive greatest common divisor (primitive remainder sequence)."""
    while g:
        f, g = g, _primitive(_pseudo_remainder(f, g))
    return _primitive(f)


def _exact_quotient(f, g):
    """f / g for g dividing f; integral when g is primitive (Gauss's lemma)."""
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], lg)
        if rem:
            raise ArithmeticError("polynomial division is not exact")
        q[k] = c
        for i, gc in enumerate(g):
            r[k + i] -= c * gc
    if any(r):
        raise ArithmeticError("polynomial division is not exact")
    return _trim(q)


def _coprime_mod_p(f, g):
    """True when gcd(f mod p, g mod p) is constant, which proves gcd(f, g)
    constant over Q as long as p does not divide the leading coefficient of f."""
    p = _MODULUS
    if f[-1] % p == 0:
        return False
    a = [c % p for c in f]
    b = _trim([c % p for c in g])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            shift, t = len(a) - len(b), a[-1] * inv % p
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - t * c) % p
            _trim(a)
        a, b = b, a
    return len(a) == 1


def square_free_factors(f):
    """Yun's decomposition: [(i, a_i)] with f = const * prod a_i^i, the a_i
    primitive, pairwise coprime and square-free, of positive degree."""
    f = _primitive(list(f))
    df = _derivative(f)
    if len(f) < 2 or _coprime_mod_p(f, df):
        return [(1, f)] if len(f) > 1 else []
    a = _gcd(f, df)
    b = _exact_quotient(f, a)
    d = _sub(_exact_quotient(df, a), _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _gcd(b, d)
        b = _exact_quotient(b, a)
        d = _sub(_exact_quotient(d, a), _derivative(b))
        if len(a) > 1:
            out.append((i, a))
        i += 1
    return out


# ---------------------------------------------------------------------------
# Points: integer pairs (m, e) for the dyadic m * 2^e


def _point(m, e):
    """(m, e) for m > 0 with trailing zero bits moved into e: m is odd."""
    z = (m & -m).bit_length() - 1
    return m >> z, e + z


def _top(x):
    """t with 2^(t-1) <= x < 2^t."""
    return x[0].bit_length() + x[1]


def _align(x, y):
    """(mx, my, e) with x = mx * 2^e and y = my * 2^e, e the smaller exponent."""
    (m, e), (n, f) = x, y
    if e >= f:
        return m << (e - f), n, f
    return m, n << (f - e), e


def _difference(x, y):
    """(d, e) with x - y = d * 2^e: the sign of d compares x with y."""
    m, n, e = _align(x, y)
    return m - n, e


def _round(n, bits, sticky=False):
    """(m, k) with m * 2^k the value n > 0 rounded to `bits` bits, half to
    even; `sticky` marks a value a little above n (a nonzero remainder
    below its last bit), which needs n of more than `bits` bits."""
    k = n.bit_length() - bits
    if k <= 0:
        return n, 0
    m, rest = n >> k, n & ((1 << k) - 1)
    half = 1 << (k - 1)
    if rest > half or (rest == half and (sticky or m & 1)):
        m += 1
    return m, k


def _newton_point(x, num, den, prec):
    """x * num/den for num, den > 0: num and den are first rounded to
    prec + 8 bits, then the quotient to prec bits, each half to even."""
    (m, e), (nm, ne), (dm, de) = x, _round(num, prec + 8), _round(den, prec + 8)
    a = m * nm
    s = prec + 2 - a.bit_length() + dm.bit_length()  # quotient of prec+2.. bits
    q, r = divmod(a << s, dm) if s >= 0 else divmod(a, dm << -s)
    qm, k = _round(q, prec, r != 0)
    return _point(qm, e + ne - de - s + k)


# ---------------------------------------------------------------------------
# Exact evaluation, counting and bounds


def _evaluate(f, x):
    """(V, E) with f(x) = V * 2^E exactly, for a point x."""
    man, exp = x
    if exp >= 0:
        X = man << exp
        v = 0
        for c in reversed(f):
            v = v * X + c
        return v, 0
    k = -exp
    d = len(f) - 1
    v = 0
    for j in range(d, -1, -1):
        v = v * man + (f[j] << (k * (d - j)))
    return v, exp * d


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _roots_above(f, x):
    """Number of roots of f greater than the point x, exact when f is
    real-rooted: the sign changes of the Taylor coefficients of f at x."""
    man, exp = x
    d = len(f) - 1
    if exp >= 0:
        step = man << exp
        a = [c * step ** j for j, c in enumerate(f)]
    else:
        k = -exp
        a = [(c * man ** j) << (k * (d - j)) for j, c in enumerate(f)]
    for i in range(d):  # a(t) -> a(1 + t)
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
    return _sign_changes(a)


def _root_exponent(f):
    """e with |x| <= 2^e for every root x of f (Fujiwara's bound)."""
    d, lead = len(f) - 1, abs(f[-1]).bit_length()
    worst = max(-(-(abs(c).bit_length() - lead + 1) // (d - j))
                for j, c in enumerate(f[:-1]) if c)
    return worst + 1


def _split(a, b):
    """A point inside (a, b): a power of two near the geometric mean when
    b/a >= 16, else the midpoint."""
    top_a, top_b = _top(a), _top(b)
    if top_b - top_a < 4:
        m, n, e = _align(a, b)
        return _point(m + n, e - 1)
    return 1, (top_a + top_b) // 2


# ---------------------------------------------------------------------------
# Isolation, refinement, certification


def _simple_roots(f, bits):
    """Certified roots (signed pairs, ascending) of a square-free
    real-rooted f with f(0) != 0."""
    reflected = [-c if j % 2 else c for j, c in enumerate(f)]  # f(-x)
    roots = ([(-m, e) for m, e in reversed(_positive_roots(reflected, bits))]
             + _positive_roots(f, bits))
    if len(roots) != len(f) - 1:
        raise PrecisionError(f"polynomial of degree {len(f) - 1} has only "
                             f"{len(roots)} real roots")
    return roots


def _positive_roots(f, bits):
    """Certified positive roots (points, ascending) of a square-free
    real-rooted f with f(0) != 0; Descartes' rule gives their number."""
    count = _sign_changes(f)
    if not count:
        return []
    lo = (1, -_root_exponent(f[::-1]) - 1)
    hi = (1, _root_exponent(f))
    df = _derivative(f)
    roots = [_refine(f, df, a, b, i, bits)
             for i, (a, b) in enumerate(_isolate(f, lo, hi, count, bits))]
    # Disjoint sign-change intervals, one per root of f: each holds one root.
    for x, y in zip(roots, roots[1:]):
        if _difference(_certificate_interval(x, bits)[1],
                       _certificate_interval(y, bits)[0])[0] >= 0:
            raise PrecisionError(f"two roots agree to {bits} bits; "
                                 f"raise the working precision")
    return roots


def _isolate(f, lo, hi, count, bits):
    """Intervals (a, b], ascending, each holding exactly one root of f;
    all `count` positive roots lie in (lo, hi]."""
    out = []
    stack = [(lo, hi, count, 0)]
    while stack:  # depth first, left half first: intervals come out ascending
        a, b, above_a, above_b = stack.pop()
        inside = above_a - above_b
        if inside == 0:
            continue
        if inside == 1:
            out.append((a, b))
            continue
        width, e = _difference(b, a)
        if width << (bits - 4) < a[0] << (a[1] - e):  # b - a < a * 2^-(bits-4)
            raise PrecisionError(f"{inside} roots cannot be told apart at "
                                 f"{bits} bits (or are not real)")
        m = _split(a, b)
        above_m = _roots_above(f, m)
        stack.append((m, b, above_m, above_b))
        stack.append((a, m, above_a, above_m))
    return out


def _certificate_interval(x, bits):
    """(x - delta, x + delta), delta the largest power of two not above
    x * 2^-(bits-4): inside x*(1 -/+ 2^-(bits-4)), and its end points
    carry no more bits than x does."""
    m, d, e = _align(x, (1, _top(x) - 1 - (bits - 4)))
    return _point(m - d, e), _point(m + d, e)


def _refine(f, df, a, b, below, bits):
    """The root of f in (a, b], rounded to `bits` bits and certified.

    `below` roots of f lie under a.  On a graded polynomial those are tiny
    next to the root sought and act like a factor x^below, so Newton's
    method runs on f/x^below, which is then close to linear: the next
    iterate is x*(x*f' - (below+1)*f) / (x*f' - below*f), numerator and
    denominator computed exactly.  f is evaluated exactly at each iterate,
    which shrinks the bracket; an iterate that leaves the bracket is
    replaced by a bisection point.  Once a step at the starting precision
    (65 to 128 bits) has moved less than half of its bits, the precision
    doubles with each step up to `bits`, and steps at `bits` repeat until
    the sign-change certificate holds.  A root within half a grid step of
    an end of its bracket makes every rounded iterate land on that end;
    once the bracket is narrower than the grid, the precision climbs at
    once, and at `bits` that iterate is tested for the certificate.
    """
    fb, _ = _evaluate(f, b)
    if fb == 0:
        return b
    positive_above = fb > 0  # sign of f between the root and b
    schedule = [bits]  # precisions, descending by halves
    while schedule[-1] > 2 * _NEWTON_MIN_BITS:
        schedule.append(schedule[-1] // 2 + 2)
    prec = schedule.pop()
    climbing = False
    x = _split(a, b)
    for _ in range(4 * bits + 64):
        v, ev = _evaluate(f, x)
        if v == 0:
            return x
        if (v > 0) == positive_above:
            b = x
        else:
            a = x
        w, _ = _evaluate(df, x)
        man, exp = x
        xw = (man << exp) * w if exp >= 0 else man * w  # x*f'(x) / 2^ev
        num, den = xw - (below + 1) * v, xw - below * v
        if not num or not den or (num < 0) != (den < 0):
            x = _split(a, b)  # no step, or one to a point <= 0 < a
            continue
        y = _newton_point(x, abs(num), abs(den), prec)
        if y != x and (_difference(y, a)[0] <= 0 or _difference(y, b)[0] >= 0):
            width, e = _difference(b, a)
            if width << prec < a[0] << (a[1] - e):  # b - a < a * 2^-prec
                # narrower than the prec-bit grid: bisecting cannot help
                if prec < bits:
                    climbing = True
                    prec = schedule.pop()
                elif _sign_change(f, y, bits):
                    return y
            x = _split(a, b)
            continue
        step, e = _difference(y, x)
        converged = abs(step) << (prec // 2) <= man << (exp - e)
        x = y
        if prec < bits and (converged or climbing):
            climbing = True
            prec = schedule.pop()
        elif prec == bits and converged and _sign_change(f, x, bits):
            return x
    raise PrecisionError(f"Newton iteration did not certify a root at {bits} bits")


def _sign_change(f, x, bits):
    lo, hi = (_evaluate(f, end)[0] for end in _certificate_interval(x, bits))
    return (lo < 0 < hi) or (hi < 0 < lo)
