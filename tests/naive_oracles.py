"""Independent brute-force implementations used only as test oracles.

Deliberately different algorithms and representations from the package:
bivariate polynomials as plain (xdeg, ydeg) -> coeff dicts, determinants
by recursive cofactor expansion, isomorphism by exhaustive permutation,
and recovery from level spectra in reduced Fractions throughout.
"""
from fractions import Fraction
from itertools import permutations

from graphspectra.errors import ValidationError
from graphspectra.graphs import Graph
from graphspectra.polynomials import (SNAP_TOL, InterpolationResult,
                                      SpectralPolynomial, evaluate_y)
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


def exhaustive_isomorphic(g1, g2):
    if g1.n != g2.n or g1.m != g2.m:
        return False
    for p in permutations(range(1, g1.n + 1)):
        mapping = {u: p[u - 1] for u in range(1, g1.n + 1)}
        mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g1.edges}
        if mapped == g2.edges:
            return True
    return False


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
