"""Independent brute-force implementations used only as test oracles.

Deliberately different algorithms and representations from the package:
bivariate polynomials as plain (xdeg, ydeg) -> coeff dicts, determinants
by recursive cofactor expansion, isomorphism by exhaustive permutation,
recovery from level spectra in reduced Fractions throughout, real
roots with every point a raw mpf tuple, and clustering with every value
an mpf.
"""
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, log

from mpmath import mp
from mpmath.libmp import (from_man_exp, mpf_abs, mpf_add, mpf_cmp, mpf_div,
                          mpf_mul, mpf_neg, mpf_shift, mpf_sub, round_nearest)

from graphspectra.errors import (AmbiguousClusteringError, PrecisionError,
                                 ValidationError)
from graphspectra.graphs import Graph, _normalize_edge
from graphspectra.polynomials import (SNAP_TOL, InterpolationResult,
                                      SpectralPolynomial, evaluate_y)
from graphspectra.realroots import (_NEWTON_MIN_BITS, _derivative,
                                    _root_exponent, _sign_changes,
                                    square_free_factors)
from graphspectra.spectra import (_CONSTANT_TOL, _EXPONENT_TOL,
                                  ClusterAssignment)
from graphspectra.unipoly import UniPoly


def biv_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def biv_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def biv_neg(a):
    return {k: -c for k, c in a.items()}


def level_laplacian(dp, q, r):
    """The level-r Laplacian in Fractions, entry by entry: -q^((1-r)*a) off
    the diagonal for an edge labelled a, row sums zero."""
    if q < 2:
        raise ValidationError("q must be at least 2")
    n = dp.graph.n
    weight = {}
    for (u, v), a in dp.labels:
        weight[u - 1, v - 1] = weight[v - 1, u - 1] = Fraction(q) ** ((1 - r) * a)
    return [[-weight.get((i, j), 0) if i != j
             else sum((w for (k, _), w in weight.items() if k == i), Fraction(0))
             for j in range(n)] for i in range(n)]


def assemble_laplacian(n, weighted_edges, zero):
    """The dense matrix sum of w * (e_u - e_v)(e_u - e_v)^T over
    ((u, v), w) pairs; entries are rebound, never mutated in place, so the
    shared zero is safe for any immutable ring element."""
    L = [[zero] * n for _ in range(n)]
    for (u, v), w in weighted_edges:
        L[u - 1][v - 1] -= w
        L[v - 1][u - 1] -= w
        L[u - 1][u - 1] += w
        L[v - 1][v - 1] += w
    return L


def symbolic_laplacian(dp):
    """L(Y) over Z[Y]: entry -Y^a off the diagonal for an edge labelled a,
    row sums zero."""
    return assemble_laplacian(
        dp.graph.n, ((e, UniPoly.monomial(1, a)) for e, a in dp.labels),
        UniPoly.zero())


def integer_level_laplacian(dp, q, r):
    """(s, s * L_r) as a dense int matrix, s the least scale >= 1 that
    clears the denominators of the level-r Laplacian: 1 for r <= 1, and
    t^A for r > 1 with t = q^(r-1) and A the largest label."""
    if q < 2:
        raise ValidationError("q must be at least 2")
    if r <= 1:
        y = q ** (1 - r)
        return 1, assemble_laplacian(
            dp.graph.n, ((e, y ** a) for e, a in dp.labels), 0)
    t = q ** (r - 1)
    top = max((a for _, a in dp.labels), default=0)
    return t ** top, assemble_laplacian(
        dp.graph.n, ((e, t ** (top - a)) for e, a in dp.labels), 0)


def cofactor_det(rows, cols, matrix, memo):
    if not rows:
        return {(0, 0): 1}
    key = (rows, cols)
    if key in memo:
        return memo[key]
    r = rows[0]
    rest = rows[1:]
    total = {}
    for idx, c in enumerate(cols):
        entry = matrix[r][c]
        if not entry:
            continue
        sub = cofactor_det(rest, cols[:idx] + cols[idx + 1:], matrix, memo)
        term = biv_mul(entry, sub)
        total = biv_add(total, term if idx % 2 == 0 else biv_neg(term))
    memo[key] = total
    return total


def naive_spectral_polynomial(dp):
    """det(X*I - L(Y)) by memoized cofactor expansion over {(i,j): c} dicts."""
    n = dp.graph.n
    label = dp.label_map()
    matrix = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        matrix[i][i] = {(1, 0): 1}
    for (u, v), a in dp.labels:
        matrix[u - 1][v - 1] = biv_add(matrix[u - 1][v - 1], {(0, a): 1})
        matrix[v - 1][u - 1] = biv_add(matrix[v - 1][u - 1], {(0, a): 1})
        matrix[u - 1][u - 1] = biv_add(matrix[u - 1][u - 1], {(0, a): -1})
        matrix[v - 1][v - 1] = biv_add(matrix[v - 1][v - 1], {(0, a): -1})
    return cofactor_det(tuple(range(n)), tuple(range(n)), matrix, {})


def as_monomial_dict(P):
    return {(i, k): c for c, i, k in P.monomials()}


def naive_charpoly(M):
    """det(X*I - M) by cofactor expansion; returns {deg: coeff}."""
    n = len(M)
    matrix = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = -M[i][j]
            d = {}
            if c:
                d[(0, 0)] = c
            if i == j:
                d[(1, 0)] = d.get((1, 0), 0) + 1
            matrix[i][j] = d
    det = cofactor_det(tuple(range(n)), tuple(range(n)), matrix, {})
    return {i: c for (i, _), c in det.items()}


def charpoly_division_free(M):
    """Characteristic polynomial det(X*I - M) of an exact square matrix.

    Division-free (Berkowitz 1984): only +, -, * on the entries, so it is
    exact over any commutative ring - ints, Fractions, or UniPoly entries
    for matrices over Z[Y].  Returns a UniPoly in X.
    """
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValidationError("matrix is not square")
    if n == 0:
        return UniPoly.const(1)
    # coeffs of charpoly of the leading k x k block, descending powers of X
    C = [1, -M[0][0]]
    for k in range(1, n):
        R = M[k][:k]
        S = [M[i][k] for i in range(k)]
        t = [1, -M[k][k]]
        v = S
        for _ in range(k):
            t.append(-sum(R[l] * v[l] for l in range(k)))
            v = [sum(M[i][l] * v[l] for l in range(k)) for i in range(k)]
        # C_new = T * C with T lower-triangular Toeplitz, first column t
        C_new = [0] * (k + 2)
        for i in range(k + 2):
            acc = 0
            for j in range(max(0, i - len(t) + 1), min(i, k) + 1):
                acc = acc + t[i - j] * C[j]
            C_new[i] = acc
        C = C_new
    return UniPoly({n - i: c for i, c in enumerate(C) if c})


def dense_scaled_charpoly(M):
    """What spectra._scaled_charpoly returns, for any exact symmetric
    matrix M, by charpoly_division_free on the dense s*M, s the lcm of M's
    denominators: s^n * det(X*I - M) as ascending ints, and the bit size
    of the largest coefficient of det(X*I - s*M)."""
    s = lcm(*(Fraction(x).denominator for row in M for x in row))
    P = charpoly_division_free([[int(x * s) for x in row] for row in M])
    coeffs = [P.coefficient(i) for i in range(len(M) + 1)]
    bits = max(abs(c).bit_length() for c in coeffs)
    return [c * s ** i for i, c in enumerate(coeffs)], bits


def brute_tree_count(n, edges):
    """Spanning trees of the multigraph on 1..n with the edge list `edges`,
    parallel edges distinct: the (n-1)-edge subsets, taken by position,
    that join every vertex, each checked by union-find."""
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n + 1))

        def find(u):
            while parent[u] != u:
                u = parent[u]
            return u

        joins = 0
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                joins += 1
        count += joins == n - 1
    return count


def exhaustive_isomorphic(g1, g2):
    if g1.n != g2.n or g1.m != g2.m:
        return False
    for p in permutations(range(1, g1.n + 1)):
        mapping = {u: p[u - 1] for u in range(1, g1.n + 1)}
        mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g1.edges}
        if mapped == g2.edges:
            return True
    return False


def refine_colors(g):
    """1-dimensional color refinement; returns a stable vertex coloring."""
    colors = {u: g.degree(u) for u in range(1, g.n + 1)}
    adj = {u: g.neighbors(u) for u in range(1, g.n + 1)}
    while True:
        signature = {
            u: (colors[u], tuple(sorted(colors[w] for w in adj[u])))
            for u in range(1, g.n + 1)
        }
        palette = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        new = {u: palette[signature[u]] for u in signature}
        if new == colors:
            return colors
        colors = new


def unpruned_canonical_form(g):
    """Canonical edge list: equal for two graphs iff they are isomorphic.

    Vertices are placed color class by color class (refined colors are
    isomorphism-invariant), maximizing the concatenated adjacency-bit code
    with branch-and-bound on prefixes.  Twin vertices (identical adjacency
    up to each other) yield identical subtrees and are collapsed.  No other
    automorphism prunes the search.
    """
    n = g.n
    colors = refine_colors(g)
    adj = {u: g.neighbors(u) for u in range(1, n + 1)}
    by_color = {}
    for u in range(1, n + 1):
        by_color.setdefault(colors[u], []).append(u)
    block_order = sorted(by_color)
    best = {"code": None, "order": None}

    def search(placed, code):
        if best["code"] is not None:
            ref = best["code"][: len(code)]
            if code < ref:
                return
        if len(placed) == n:
            if best["code"] is None or code > best["code"]:
                best["code"] = code
                best["order"] = list(placed)
            return
        placed_set = set(placed)
        block = next(c for c in block_order
                     if any(u not in placed_set for u in by_color[c]))
        candidates = [u for u in by_color[block] if u not in placed_set]
        pruned = []
        for u in candidates:
            if any(adj[u] - {w} == adj[w] - {u} for w in pruned):
                continue
            pruned.append(u)
        scored = sorted(
            ((tuple(1 if p in adj[u] else 0 for p in placed), u) for u in pruned),
            reverse=True)
        for bits, u in scored:
            search(placed + [u], code + bits)

    search([], ())
    order = best["order"]
    relabel = {u: i + 1 for i, u in enumerate(order)}
    return tuple(sorted(_normalize_edge(relabel[u], relabel[v]) for u, v in g.edges))


def unpruned_all_graphs(n):
    """One representative per isomorphism class of graphs on n vertices.

    Built by edge augmentation: every (m+1)-edge class contains a class
    from level m plus one edge, so growing canonical representatives level
    by level visits each class once.  Every non-edge of every class is
    tried.
    """
    pairs = list(combinations(range(1, n + 1), 2))
    level = {(): Graph(n)}
    reps = [Graph(n)]
    for _ in range(len(pairs)):
        next_level = {}
        for g in level.values():
            for e in pairs:
                if e in g.edges:
                    continue
                h = Graph(n, g.edges | {e})
                key = unpruned_canonical_form(h)
                if key not in next_level:
                    next_level[key] = Graph.of(n, key)
        reps.extend(next_level.values())
        level = next_level
    return tuple(reps)


def brute_subset_sums_distinct(labels):
    sums = []
    for mask in range(1 << len(labels)):
        sums.append(sum(a for i, a in enumerate(labels) if mask >> i & 1))
    return len(set(sums)) == len(sums)


def brute_forests(g: Graph):
    """All acyclic edge subsets by checking every subset for cycles."""
    edges = g.sorted_edges()
    out = {}
    for mask in range(1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        parent = list(range(g.n + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[rv] = ru
        if not acyclic:
            continue
        comps = {}
        for u in range(1, g.n + 1):
            comps.setdefault(find(u), []).append(u)
        gamma = 1
        for vs in comps.values():
            gamma *= len(vs)
        out.setdefault(len(comps), set()).add((frozenset(subset), gamma))
    return out


# ---------------------------------------------------------------------------
# Recovery in Fractions: roots -> level polynomials -> digit decode


def fraction_monic_from_roots(roots):
    """(X - r1)...(X - rk) from mpf roots, one root at a time in Fractions."""
    coeffs = [Fraction(1)]
    for root in roots:
        sign, man, exp, _ = root._mpf_
        fr = Fraction(int(man) << exp) if exp >= 0 else Fraction(int(man), 1 << -exp)
        fr = -fr if sign else fr
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= fr * coeffs[i + 1]
    return UniPoly({i: c for i, c in enumerate(coeffs) if c})


def fraction_interpolate(samples, degree_bound):
    """Digit decode over the package's node order; None when every decode
    fails.  samples maps nodes to UniPolys in X."""
    nodes = {Fraction(y): poly.map_coefficients(Fraction)
             for y, poly in samples.items()}
    n = next(iter(nodes.values())).degree
    decode_nodes = sorted(y for y in nodes if y.denominator == 1 and y >= 3)
    decode_nodes += sorted(
        (y for y in nodes if y.numerator == 1 and y.denominator >= 3), reverse=True)
    for node in decode_nodes:
        result = fraction_decode_at_base(nodes, n, node, degree_bound)
        if result is not None:
            return result
    return None


def fraction_decode_at_base(nodes, n, node, degree_bound):
    """Balanced base-b digits of the nearest integers, one digit at a time."""
    reciprocal = node < 1
    base = node.denominator if reciprocal else node.numerator
    scale = base ** degree_bound if reciprocal else 1
    values = nodes[node]
    coeffs = []
    worst = Fraction(0)
    for i in range(n + 1):
        b = values.coefficient(i) * scale
        B = nearest_integer(b)
        dist = abs(b - B)
        if dist > SNAP_TOL:
            return None
        worst = max(worst, dist)
        digits = []
        while B:
            d = ((B + base // 2) % base) - (base // 2)
            digits.append(d)
            B = (B - d) // base
            if B and len(digits) > degree_bound:
                return None
        if reciprocal:
            digits = digits + [0] * (degree_bound + 1 - len(digits))
            digits.reverse()
        coeffs.append(UniPoly(dict(enumerate(digits))))
    try:
        candidate = SpectralPolynomial(n, tuple(coeffs))
    except ValidationError:
        return None
    deviation = fraction_verification_residual(candidate, nodes)
    if deviation > SNAP_TOL:
        return None
    return InterpolationResult(candidate, max(worst, deviation))


def fraction_verification_residual(P, nodes):
    """Max relative deviation of P's values from the samples at the nodes."""
    worst = Fraction(0)
    for y, observed in nodes.items():
        predicted = evaluate_y(P, y)
        for i in range(P.n + 1):
            e = Fraction(predicted.coefficient(i))
            o = Fraction(observed.coefficient(i))
            worst = max(worst, abs(o - e) / max(Fraction(1), abs(e)))
    return worst


def nearest_integer(x):
    """Nearest integer to a Fraction, ties to even."""
    fl = x.numerator // x.denominator
    rem = x - fl
    half = Fraction(1, 2)
    return fl + 1 if rem > half else (fl if rem < half else fl + (fl % 2))


# ---------------------------------------------------------------------------
# Real roots on mpf tuples: the route realroots took before its points became
# integer pairs.  Every step rounds as the integer route must, so the two
# agree bit for bit.


def mpf_real_roots(coeffs, bits):
    """realroots.real_roots with every point a raw mpf tuple."""
    if bits < 8:
        raise PrecisionError(f"{bits} bits cannot certify a root")
    v = next(i for i, c in enumerate(coeffs) if c)
    roots = [mp.mpf(0)] * v
    for mult, factor in square_free_factors(coeffs[v:]):
        for x in _mpf_simple_roots(factor, bits):
            roots.extend([mp.make_mpf(x)] * mult)
    roots.sort()
    return roots


def _mpf_evaluate(f, x):
    """(V, E) with f(x) = V * 2^E exactly, for a raw mpf x."""
    sign, man, exp, _ = x
    if sign:
        man = -man
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


def _mpf_roots_above(f, x):
    """Number of roots of f greater than the positive dyadic x, exact when f
    is real-rooted: the sign changes of the Taylor coefficients of f at x."""
    _, man, exp, _ = x
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


def _mpf_power_of_two(e):
    return from_man_exp(1, e)


def _mpf_split(a, b):
    """A point inside (a, b): a power of two near the geometric mean when
    b/a >= 16, else the midpoint."""
    top_a, top_b = a[2] + a[3], b[2] + b[3]
    if top_b - top_a < 4:
        return mpf_shift(mpf_add(a, b), -1)
    return _mpf_power_of_two((top_a + top_b) // 2)


def _mpf_simple_roots(f, bits):
    """Certified roots (raw mpf, ascending) of a square-free real-rooted f
    with f(0) != 0."""
    reflected = [-c if j % 2 else c for j, c in enumerate(f)]  # f(-x)
    roots = ([mpf_neg(x) for x in reversed(_mpf_positive_roots(reflected, bits))]
             + _mpf_positive_roots(f, bits))
    if len(roots) != len(f) - 1:
        raise PrecisionError(f"polynomial of degree {len(f) - 1} has only "
                             f"{len(roots)} real roots")
    return roots


def _mpf_positive_roots(f, bits):
    """Certified positive roots (raw mpf, ascending) of a square-free
    real-rooted f with f(0) != 0; Descartes' rule gives their number."""
    count = _sign_changes(f)
    if not count:
        return []
    lo = _mpf_power_of_two(-_root_exponent(f[::-1]) - 1)
    hi = _mpf_power_of_two(_root_exponent(f))
    df = _derivative(f)
    roots = [_mpf_refine(f, df, a, b, i, bits)
             for i, (a, b) in enumerate(_mpf_isolate(f, lo, hi, count, bits))]
    # Disjoint sign-change intervals, one per root of f: each holds one root.
    for x, y in zip(roots, roots[1:]):
        if mpf_cmp(_mpf_certificate_interval(x, bits)[1],
                   _mpf_certificate_interval(y, bits)[0]) >= 0:
            raise PrecisionError(f"two roots agree to {bits} bits; "
                                 f"raise the working precision")
    return roots


def _mpf_isolate(f, lo, hi, count, bits):
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
        if mpf_cmp(mpf_sub(b, a), mpf_shift(a, -(bits - 4))) < 0:
            raise PrecisionError(f"{inside} roots cannot be told apart at "
                                 f"{bits} bits (or are not real)")
        m = _mpf_split(a, b)
        above_m = _mpf_roots_above(f, m)
        stack.append((m, b, above_m, above_b))
        stack.append((a, m, above_a, above_m))
    return out


def _mpf_certificate_interval(x, bits):
    """(x - delta, x + delta), delta the largest power of two not above
    x * 2^-(bits-4): inside x*(1 -/+ 2^-(bits-4)), and its end points
    carry no more bits than x does."""
    delta = _mpf_power_of_two(x[2] + x[3] - 1 - (bits - 4))
    return mpf_sub(x, delta), mpf_add(x, delta)


def _mpf_refine(f, df, a, b, below, bits):
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
    the sign-change certificate holds.
    """
    fb, _ = _mpf_evaluate(f, b)
    if fb == 0:
        return b
    positive_above = fb > 0  # sign of f between the root and b
    schedule = [bits]  # precisions, descending by halves
    while schedule[-1] > 2 * _NEWTON_MIN_BITS:
        schedule.append(schedule[-1] // 2 + 2)
    prec = schedule.pop()
    climbing = False
    x = _mpf_split(a, b)
    for _ in range(4 * bits + 64):
        v, ev = _mpf_evaluate(f, x)
        if v == 0:
            return x
        if (v > 0) == positive_above:
            b = x
        else:
            a = x
        w, _ = _mpf_evaluate(df, x)
        _, man, exp, _ = x
        xw = (man << exp) * w if exp >= 0 else man * w  # x*f'(x) / 2^ev
        num, den = xw - (below + 1) * v, xw - below * v
        if den == 0:
            x = _mpf_split(a, b)
            continue
        y = mpf_div(mpf_mul(x, from_man_exp(num, 0, prec + 8, round_nearest)),
                    from_man_exp(den, 0, prec + 8, round_nearest),
                    prec, round_nearest)
        if y != x and (mpf_cmp(y, a) <= 0 or mpf_cmp(y, b) >= 0):
            x = _mpf_split(a, b)
            continue
        converged = mpf_cmp(mpf_abs(mpf_sub(y, x)), mpf_shift(x, -(prec // 2))) <= 0
        x = y
        if prec < bits and (converged or climbing):
            climbing = True
            prec = schedule.pop()
        elif prec == bits and converged and _mpf_sign_change(f, x, bits):
            return x
    raise PrecisionError(f"Newton iteration did not certify a root at {bits} bits")


def _mpf_sign_change(f, x, bits):
    lo, hi = (_mpf_evaluate(f, end)[0] for end in _mpf_certificate_interval(x, bits))
    return (lo < 0 < hi) or (hi < 0 < lo)


# ---------------------------------------------------------------------------
# Clustering in mpf: the route cluster_and_assign took before it read the
# values as integers over a common power of two.  Comparisons, logarithms
# and branch constants are mpf operations at the default 53-bit context.


def mpf_cluster_and_assign(samples):
    """spectra.cluster_and_assign with every value an mpf."""
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
    k = n - b0

    tol1 = mp.ldexp(1, -min(s.precision_bits for s in samples) // 3)
    nonzero = [sorted(s.nonzero_values()) for s in samples]
    shared_flags = []
    for i, s in enumerate(samples):
        flags = [True] * len(nonzero[i])
        for j, other in enumerate(samples):
            if j == i:
                continue
            matched = _mpf_match_multisets(nonzero[i], nonzero[j], tol1)
            flags = [f and (m is not None) for f, m in zip(flags, matched)]
        shared_flags.append(flags)
    level_one = []
    rest = []
    for i in range(len(samples)):
        ones = [v for v, f in zip(nonzero[i], shared_flags[i]) if f]
        others = [v for v, f in zip(nonzero[i], shared_flags[i]) if not f]
        if len(ones) != k:
            raise AmbiguousClusteringError(
                f"sample q={samples[i].q}: expected {k} shared level-1 values, "
                f"found {len(ones)}")
        level_one.append(ones)
        rest.append(others)

    out = []
    other_levels = [r for r in range(r_min, r_max + 1) if r != 1]
    for i, s in enumerate(samples):
        levels = {1: tuple(level_one[i])}
        if len(other_levels) == 1:
            levels[other_levels[0]] = tuple(rest[i])
        elif other_levels:
            mate = max((j for j in range(len(samples)) if j != i),
                       key=lambda j: samples[j].q)
            tags = _mpf_tag_exponents(rest[i], samples[i].q, rest[mate],
                                      samples[mate].q)
            assigned = {}
            for side in ([r for r in other_levels if r < 1],
                         [r for r in other_levels if r > 1]):
                if side:
                    assigned.update(_mpf_assign_levels(
                        [t for t in tags if (t[1] > 0) == (side[0] < 1)], side))
            for r in other_levels:
                vals = assigned.get(r, [])
                if len(vals) != k:
                    raise AmbiguousClusteringError(
                        f"sample q={s.q}: level {r} received {len(vals)} "
                        f"values, expected {k}")
                levels[r] = tuple(sorted(vals))
        for r in levels:
            levels[r] = tuple(sorted(list(levels[r]) + [mp.mpf(0)] * b0))
        inter, intra = _mpf_gap_diagnostics(levels)
        out.append(ClusterAssignment(s.q, s.precision_bits, levels, inter, intra))
    return out


def _mpf_match_multisets(a, b, rel_tol):
    out = [None] * len(a)
    used = [False] * len(b)
    j = 0
    for i, v in enumerate(a):
        while j < len(b) and (used[j] or (b[j] < v and not _mpf_close(b[j], v, rel_tol))):
            j += 1
        if j < len(b) and _mpf_close(b[j], v, rel_tol):
            out[i] = j
            used[j] = True
            j += 1
    return out


def _mpf_close(a, b, rel_tol):
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def _mpf_tag_exponents(values, q_self, mates, q_mate):
    if len(values) != len(mates):
        raise AmbiguousClusteringError("samples disagree on value counts")
    lq_self, lq_mate = log(q_self), log(q_mate)
    tags = []
    for v, w in zip(sorted(values), sorted(mates)):
        e_real = float((mp.log(v) - mp.log(w)) / (lq_self - lq_mate))
        e = round(e_real)
        if e == 0 or abs(e_real - e) > _EXPONENT_TOL:
            raise AmbiguousClusteringError("non-integer scaling exponent")
        c_self = v / mp.power(q_self, e)
        c_mate = w / mp.power(q_mate, e)
        if abs(c_self - c_mate) > _CONSTANT_TOL * max(c_self, c_mate):
            raise AmbiguousClusteringError("inconsistent branch constants")
        tags.append((v, e, c_self))
    return tags


def _mpf_assign_levels(tags, other_levels):
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


def _mpf_gap_diagnostics(levels):
    ordered = sorted((v, r) for r, vals in levels.items() for v in vals if v)
    inter = float("inf")
    intra = 1.0
    for (a, ra), (b, rb) in zip(ordered, ordered[1:]):
        ratio = float(b / a)
        if ra == rb:
            intra = max(intra, ratio)
        else:
            inter = min(inter, ratio)
    return inter, intra
