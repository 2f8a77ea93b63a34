"""Brute-force combinatorial ground truth: spanning forests and tree counts.

These routines validate the determinant-based spectral polynomial from the
opposite direction.  The coefficient formula used here is

    a_i(Y) = (-1)^(n-i) * sum over spanning forests F with i components of
             gamma(F) * Y^(sum of labels of F)

where gamma(F) is the product of the component vertex counts.  The gamma
factor is forced by the determinant: the single-edge graph on two vertices
has char poly X^2 - 2XY, not X^2 - XY.  Under distinct-subset-sum labels
the monomial SUPPORT is still in bijection with the forest sets, which is
what lets the reconstruction check a drawing against P.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul

from .errors import ValidationError
from .graphs import quotient_graph
from .polynomials import SpectralPolynomial, _as_is, laplacian_charpoly
from .unipoly import UniPoly

EDGE_CAP = 20


@dataclass(frozen=True)
class ForestFamily:
    """All acyclic edge subsets of a graph, grouped by component count.

    families maps i (number of connected components, counting isolated
    vertices) to a tuple of (edge frozenset, gamma) records.  A forest with
    k edges on n vertices has i = n - k components, and families[n] is
    always the single empty forest with gamma 1.
    """

    n: int
    families: dict

    def record(self, i):
        return self.families.get(i, ())


def forest_masks(n, edges):
    """Every acyclic subset of `edges` on vertices 1..n, as a list of
    (components, bit mask over indices into `edges`, gamma) records.

    Depth-first over the edges in the given order with union-find pruning,
    so only forests (plus one rejected extension each) are ever visited.
    Gamma, the component-size product, is carried through each union of
    sizes a and b as gamma * (a + b) / (a * b), exact because a * b divides
    it.  More than EDGE_CAP edges raise ValidationError.
    """
    if len(edges) > EDGE_CAP:
        raise ValidationError(
            f"edge count {len(edges)} above enumeration cap {EDGE_CAP}")
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    out = []

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    def explore(start, i, mask, gamma):
        out.append((i, mask, gamma))
        for j in range(start, len(edges)):
            u, v = edges[j]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            a, b = size[ru], size[rv]
            if a < b:
                ru, rv, a, b = rv, ru, b, a
            parent[rv] = ru
            size[ru] = a + b
            explore(j + 1, i - 1, mask | 1 << j, gamma // (a * b) * (a + b))
            size[ru] = a
            parent[rv] = rv

    explore(0, n, 0, 1)
    return out


def enumerate_forests(g):
    """Every acyclic edge subset of g with its component-size product gamma,
    enumerated by forest_masks over the sorted edge list.  A graph with more
    than EDGE_CAP edges raises ValidationError.
    """
    edges = g.sorted_edges()
    families = {}
    for i, mask, gamma in forest_masks(g.n, edges):
        chosen = frozenset(e for j, e in enumerate(edges) if mask >> j & 1)
        families.setdefault(i, []).append((chosen, gamma))
    return ForestFamily(g.n, {i: tuple(recs) for i, recs in families.items()})


def buslov_polynomial(dp):
    """Spectral polynomial assembled from the spanning forests: each forest
    with i components adds (-1)^(n-i) * gamma * Y^(sum of its labels) to a_i.

    Must agree exactly with the determinant route (spectral_polynomial);
    the pair forms the package's central dual-route check.  A forest's
    label sum is read from two subset-sum tables, one per half of the
    edge list.
    """
    n = dp.graph.n
    edges = [e for e, _ in dp.labels]
    labels = [a for _, a in dp.labels]
    h = len(labels) // 2
    lo, hi = _subset_sums(labels[:h]), _subset_sums(labels[h:])
    low = (1 << h) - 1
    coeffs = [{} for _ in range(n + 1)]
    for i, mask, gamma in forest_masks(n, edges):
        w = lo[mask & low] + hi[mask >> h]
        terms = coeffs[i]
        terms[w] = terms.get(w, 0) + (-1) ** (n - i) * gamma
    return SpectralPolynomial(n, tuple(map(UniPoly, coeffs)))


def _subset_sums(labels):
    """sums[mask]: the sum of labels[j] over the bits j set in mask."""
    sums = [0]
    for a in labels:
        sums += [s + a for s in sums]
    return sums


def tree_count(mg):
    """Number of spanning trees of a graph or multigraph (parallel edges
    count as distinct), 0 for disconnected input.

    By the matrix-tree theorem every principal (n-1)-minor of the Laplacian
    is the count, so the X coefficient of det(X*I - L), which sums those
    minors, is a_1 = (-1)^(n-1) * n * count.
    """
    a = laplacian_charpoly(mg.n, [(e, 1) for e in mg.edges], mul, _as_is)
    return (-1) ** (mg.n - 1) * a[1] // mg.n


def kelmans_coefficients(g):
    """Quotient-graph tree-count coefficients c_1 .. c_(n-1).

    c_k sums the spanning-tree counts of the multigraph quotients g/S over
    all vertex subsets S of size n-k.  They satisfy, exactly,

        det(X*I - L) = X^n + sum_k (-1)^k c_k X^(n-k),

    with every c_k nonnegative; this orientation is validated against the
    characteristic polynomial in the test suite.
    """
    n = g.n
    out = []
    for k in range(1, n):
        total = 0
        for S in combinations(range(1, n + 1), n - k):
            total += tree_count(quotient_graph(g, S))
        out.append(total)
    return out

