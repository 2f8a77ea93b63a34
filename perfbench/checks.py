"""Correctness checks, run after the timed passes.

Every check compares an operation's output with a computation made apart
from the library (networkx isomorphism, a sympy characteristic polynomial,
traces and a_(n-1) written down from the labels) or with a property the
method must have.  The library's own forest route (``buslov_polynomial``)
and ``spectral_polynomial`` serve as references only where the curve
workload has already checked them against the independent computations.
Nothing is compared with a stored copy of earlier output.
"""
from __future__ import annotations

from fractions import Fraction

import networkx as nx
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from graphspectra import forests, polynomials
from workloads import monomials

SNAP_TOL = Fraction(1, 10 ** 6)


class CheckFailed(AssertionError):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent references


def isomorphic(graph, submitted):
    """networkx isomorphism between a library Graph and an (n, edges) pair."""
    if submitted is None:
        return False
    a = nx.Graph()
    a.add_nodes_from(range(1, graph.n + 1))
    a.add_edges_from(graph.edges)
    b = nx.Graph()
    b.add_nodes_from(range(1, submitted[0] + 1))
    b.add_edges_from(submitted[1])
    return nx.is_isomorphic(a, b)


def plain_charpoly(n, edges):
    """Ascending integer coefficients of det(X*I - L) for the plain Laplacian,
    by sympy's exact dense charpoly over ZZ."""
    L = [[0] * n for _ in range(n)]
    for u, v in edges:
        L[u - 1][v - 1] -= 1
        L[v - 1][u - 1] -= 1
        L[u - 1][u - 1] += 1
        L[v - 1][v - 1] += 1
    desc = DomainMatrix([[ZZ(x) for x in row] for row in L], (n, n), ZZ).charpoly()
    return [int(c) for c in reversed(desc)]


def level_trace(labels, q, r):
    """Trace of the level-r Laplacian: each edge adds 2 * q^(label*(1-r))."""
    y = Fraction(q) ** (1 - r)
    return sum((2 * y ** a for a in labels), Fraction(0))


def parse_spoly_text(text):
    """The spoly format read without the library: header, then 'c j k' lines."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    expect(rows and rows[0][0] == "spoly", "spoly text lacks its header")
    try:
        monos = [(int(c), int(j), int(k)) for c, j, k in rows[1:]]
    except ValueError:
        raise CheckFailed("spoly text has a malformed monomial line") from None
    return tuple(sorted(monos, key=lambda t: (t[1], t[2])))


def _close(value, exact, bits):
    """value within a relative 2^-(bits/2 - 2) of the exact trace, the
    eigenvalue-sum tolerance the eigensolver promises at that precision."""
    return abs(value - exact) <= abs(exact) / Fraction(2) ** (bits // 2 - 2)


# ---------------------------------------------------------------------------
# properties of a spectral polynomial


def check_polynomial(monos, n, labels, edges):
    """Monic, a_0 = 0, a_(n-1) = -2 * sum Y^label, and P(X, 1) equal to the
    characteristic polynomial of the plain Laplacian."""
    coeffs = [dict() for _ in range(n + 1)]
    for c, j, k in monos:
        expect(0 <= j <= n, f"X-degree {j} outside 0..{n}")
        coeffs[j][k] = c
    expect(coeffs[n] == {0: 1}, "P is not monic in X")
    expect(not coeffs[0], "a_0 is not zero")
    if n > 1:
        expect(coeffs[n - 1] == {a: -2 for a in labels},
               "a_(n-1) differs from -2 * sum of Y^label")
    at_one = [sum(c.values()) for c in coeffs]
    expect(at_one == plain_charpoly(n, edges),
           "P(X, 1) differs from the charpoly of the plain Laplacian")


# ---------------------------------------------------------------------------
# game


def game_reference(inp):
    g, _ = inp
    return {"graph": g, "labels": [1 << i for i in range(g.m)]}


def check_game(ref, d):
    g = ref["graph"]
    expect(d["won"] and d["verdict"] == "win", f"game lost: verdict {d['verdict']}")
    expect(isomorphic(g, d["graph"]), "submitted graph is not isomorphic to the hidden one")
    expect(2 <= d["primes"] <= 3, f"{d['primes']} primes used")
    expect(len(d["replies"]) == d["primes"], "one spectrum reply per prime expected")
    for rep in d["replies"]:
        width = rep["r_max"] - rep["r_min"] + 1
        expect(rep["count"] == g.n * width, "spectrum reply has the wrong value count")
        expect(rep["zeros"] == width, "a connected graph has one zero per level")
        expect(rep["ascending"], "spectrum values are not ascending")
        trace = sum(level_trace(ref["labels"], rep["q"], r)
                    for r in range(rep["r_min"], rep["r_max"] + 1))
        expect(_close(rep["sum"], trace, rep["bits"]),
               f"q={rep['q']}: spectrum sum differs from the sum of level traces")


# ---------------------------------------------------------------------------
# curve


def curve_reference(inp):
    dp, rebuild = inp
    return {"dp": dp, "rebuild": rebuild,
            "forest_route": monomials(forests.buslov_polynomial(dp))}


def check_curve(ref, d):
    dp = ref["dp"]
    g = dp.graph
    expect(d["n"] == g.n, "P has the wrong X-degree")
    check_polynomial(d["monos"], g.n, dp.label_values(), g.edges)
    expect(d["monos"] == ref["forest_route"], "P differs from the forest route")
    expect(parse_spoly_text(d["text"]) == d["monos"], "spoly text does not hold P")
    expect(d["parsed_equal"], "reading the spoly text back does not give P")
    if ref["rebuild"]:
        expect(isomorphic(g, d["graph"]), "reconstructed graph is not isomorphic")


# ---------------------------------------------------------------------------
# recovery


def recovery_reference(dp):
    P = polynomials.spectral_polynomial(dp)
    monos = monomials(P)
    check_polynomial(monos, dp.graph.n, dp.label_values(), dp.graph.edges)
    return {"dp": dp, "P": monos}


def check_recovery(ref, d):
    dp = ref["dp"]
    n, labels, D = dp.graph.n, dp.label_values(), dp.total_weight
    expect(d["parsed_equal"], "spectrum text does not read back to the same sample")
    for s in d["samples"]:
        expect((s["r_min"], s["r_max"]) == (1 - D, 1), "sample window is not [1-D, 1]")
        expect(s["count"] == n * (D + 1), "sample has the wrong value count")
        trace = sum(level_trace(labels, s["q"], r) for r in range(1 - D, 2))
        expect(_close(s["sum"], trace, s["bits"]),
               f"q={s['q']}: spectrum sum differs from the sum of level traces")
    for a in d["levels"]:
        expect(sorted(a["sums"]) == list(range(1 - D, 2)), "levels missing from the clusters")
        for r, (count, total) in a["sums"].items():
            expect(count == n, f"q={a['q']} level {r}: {count} values, expected {n}")
            expect(_close(total, level_trace(labels, a["q"], r), a["bits"]),
                   f"q={a['q']} level {r}: eigenvalue sum differs from the trace")
    for monos, residual in d["recovered"]:
        expect(monos == ref["P"], "recovered polynomial differs from P")
        expect(residual < SNAP_TOL, f"snapping residual {float(residual):.3g} too large")


CHECKS = {
    "game": (game_reference, check_game),
    "curve": (curve_reference, check_curve),
    "recovery": (recovery_reference, check_recovery),
}
