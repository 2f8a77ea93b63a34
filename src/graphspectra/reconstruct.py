"""Rebuild a labeled graph from its spectral polynomial.

By the all-minors matrix-tree theorem P(X, Y) is the signed forest sum
sum over spanning forests F of (-1)^(n-i) * gamma(F) * Y^(labels of F) *
X^i, with i the number of components of F and gamma(F) the product of
their sizes.  Under distinct-subset-sum labels distinct forests sit at
distinct exponents, so a labeled graph has polynomial P exactly when its
forest polynomial (forests.buslov_polynomial) equals P, and that equality
is the one check a reconstruction passes.

The labels are the exponents of a_(n-1), whose forests are single edges.
Each isolated vertex multiplies P by X, so with c the X-adic valuation of P
the search runs on a connected core of n - c + 1 vertices.  The labels are
drawn from two facts P holds: which labels share a vertex (two-edge forests
of component product 3, against 4 for disjoint labels), which is the line
graph, and which pairwise adjacent triples are triangles (those missing
from the three-edge forests).  By Whitney's theorem (H. Whitney, "Congruent
graphs and the connectivity of graphs", Amer. J. Math. 54, 1932) these
determine a connected graph up to renumbering its vertices.  Uniqueness of
the result up to isomorphism is exactly the reconstruction guarantee this
package demonstrates.
"""
from __future__ import annotations

from itertools import combinations

from .errors import RealizationError, ValidationError
from .forests import EDGE_CAP, buslov_polynomial
from .graphs import build_diffusion_pair, is_subset_sum_distinct
from .polynomials import SpectralPolynomial


def _edge_labels(edge_coeff):
    """The labels read off a_(n-1), whose monomials are -2 * Y^label."""
    for k, c in edge_coeff.terms.items():
        if c != -2:
            raise ValidationError(
                f"single-edge coefficient at Y^{k} is {c}, expected -2")
        if k <= 0:
            raise ValidationError(f"single-edge exponent {k} is not a positive label")
    labels = tuple(sorted(edge_coeff.terms))
    if len(labels) > EDGE_CAP:
        raise ValidationError(
            f"{len(labels)} edge labels above the enumeration cap {EDGE_CAP}")
    if not is_subset_sum_distinct(labels):
        raise ValidationError("labels are not subset-sum distinct")
    return labels


def reconstruct_labeled(P):
    """The labeled graph (a DiffusionPair) whose spectral polynomial is P:
    a connected core on vertices 1..n - c + 1 and c - 1 isolated vertices
    after it, c the X-adic valuation of P.

    Raises ValidationError when the labels read off a_(n-1) are malformed,
    more than forests.EDGE_CAP or not subset-sum distinct, and
    RealizationError when no drawing of them has P as its forest polynomial.
    """
    n = P.n
    c = next(i for i, a in enumerate(P.coeffs) if a.terms)
    core = SpectralPolynomial(n - c + 1, P.coeffs[c - 1:])
    labels = _edge_labels(P.coefficient(n - 1))
    if core.n > len(labels) + 1:
        raise RealizationError(
            f"{len(labels)} labels cannot connect {core.n} vertices")
    pairs = {a + b: frozenset((a, b)) for a, b in combinations(labels, 2)}
    triples = {sum(t): frozenset(t) for t in combinations(labels, 3)}
    # below three vertices the floor reads a_0, which is zero
    adjacent = {pairs[k] for k, g in P.coefficient(max(n - 2, 0)).terms.items()
                if abs(g) == 3 and k in pairs}
    stars = {triples[k] for k in P.coefficient(max(n - 3, 0)).terms
             if k in triples}
    for edge_labels in _drawings(core.n, labels, adjacent, stars):
        weighted = [(u, v, a) for (u, v), a in edge_labels.items()]
        if buslov_polynomial(build_diffusion_pair(core.n, weighted)) == core:
            return build_diffusion_pair(n, weighted)
    raise RealizationError("no drawing of the labels reproduces the polynomial")


def reconstruct_from_polynomial(P):
    """The graph of reconstruct_labeled(P), unique up to isomorphism."""
    return reconstruct_labeled(P).graph


def _drawings(n, labels, adjacent, stars):
    """Every placement of the labels as edges on vertices 1..n, as an
    edge -> label dict, whose adjacencies (label pairs in `adjacent`) and
    triangles (adjacent triples missing from `stars`) agree with the two-
    and three-edge forests, vertices numbered in order of first use.

    Labels are drawn in breadth-first order of the line graph from the
    smallest, which is the edge (1, 2); each further label takes an endpoint
    of its already drawn parent, and its other end is a drawn vertex or the
    next fresh one, never past n.  A real graph's polynomial has at most two
    drawings, mirror images through the edge (1, 2).
    """
    order, parent = list(labels[:1]), dict.fromkeys(labels[:1])
    for a in order:
        for b in labels:
            if b not in parent and frozenset((a, b)) in adjacent:
                parent[b] = a
                order.append(b)
    if len(order) < len(labels):
        return  # the line graph of a connected graph is connected
    sigma = {}

    def fits(a, e, near):
        # e touches exactly the drawn labels adjacent to a, and passes
        # through the shared vertex of two adjacent ones b, c exactly when
        # a, b, c form a star (a three-edge forest) rather than a triangle
        touching = {b for b, f in sigma.items() if e[0] in f or e[1] in f}
        return touching == near and all(
            (frozenset((a, b, c)) in stars) == (set(sigma[b]) & set(sigma[c]) <= set(e))
            for b, c in combinations(near, 2) if frozenset((b, c)) in adjacent)

    def extend(i, drawn):
        if i == len(order):
            yield {e: a for a, e in sigma.items()}
            return
        a = order[i]
        near = {b for b in sigma if frozenset((a, b)) in adjacent}
        for u in (1,) if parent[a] is None else sigma[parent[a]]:
            for w in range(1, min(drawn + 1, n) + 1):
                e = (min(u, w), max(u, w))
                if w != u and e not in sigma.values() and fits(a, e, near):
                    sigma[a] = e
                    yield from extend(i + 1, max(drawn, w))
                    del sigma[a]

    yield from extend(0, 1)
