"""Brute-force combinatorial ground truth: spanning forests and tree counts.

These routines validate the determinant-based spectral polynomial from the
opposite direction.  The coefficient formula used here is

    a_i(Y) = (-1)^(n-i) * sum over spanning forests F with i components of
             gamma(F) * Y^(sum of labels of F)

where gamma(F) is the product of the component vertex counts.  The gamma
factor is forced by the determinant: the single-edge graph on two vertices
has char poly X^2 - 2XY, not X^2 - XY.  Under distinct-subset-sum labels
the monomial SUPPORT is still in bijection with the forest sets, which is
what the reconstruction decoder relies on.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError
from .graphs import Graph, Multigraph, quotient_graph
from .polynomials import SpectralPolynomial, charpoly_division_free
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

    def as_label_families(self, label_map):
        """Re-express edge subsets through an edge -> label map."""
        out = {}
        for i, recs in self.families.items():
            out[i] = frozenset(
                (frozenset(label_map[e] for e in edges), gamma)
                for edges, gamma in recs)
        return out


def enumerate_forests(g):
    """Every acyclic edge subset of g with its component-size product gamma.

    Depth-first over the sorted edge list with union-find pruning, so only
    forests (plus one rejected extension each) are ever visited.  A graph
    with more than EDGE_CAP edges raises ValidationError.
    """
    if g.m > EDGE_CAP:
        raise ValidationError(
            f"edge count {g.m} above enumeration cap {EDGE_CAP}")
    edges = g.sorted_edges()
    n = g.n
    parent = list(range(n + 1))
    size = [1] * (n + 1)

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    families = {}

    def record(chosen):
        i = n - len(chosen)
        gamma = 1
        for u in range(1, n + 1):
            if find(u) == u:
                gamma *= size[u]
        families.setdefault(i, []).append((frozenset(chosen), gamma))

    chosen = []

    def explore(start):
        record(chosen)
        for j in range(start, len(edges)):
            u, v = edges[j]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            chosen.append(edges[j])
            explore(j + 1)
            chosen.pop()
            size[ru] -= size[rv]
            parent[rv] = rv

    explore(0)
    return ForestFamily(n, {i: tuple(recs) for i, recs in families.items()})


def buslov_polynomial(dp):
    """Spectral polynomial assembled from the spanning-forest families.

    Must agree exactly with the determinant route (spectral_polynomial);
    the pair forms the package's central dual-route check.
    """
    fam = enumerate_forests(dp.graph)
    label_map = dp.label_map()
    n = dp.graph.n
    coeffs = []
    for i in range(n + 1):
        sign = (-1) ** (n - i)
        terms = {}
        for edges, gamma in fam.record(i):
            w = sum(label_map[e] for e in edges)
            terms[w] = terms.get(w, 0) + sign * gamma
        coeffs.append(UniPoly(terms))
    return SpectralPolynomial(n, tuple(coeffs))


def tree_count(mg):
    """Number of spanning trees of a multigraph, via the matrix-tree minor.

    Multiplicities act as integer edge weights; 0 for disconnected input.
    The minor's determinant is (-1)^(n-1) times the constant term of its
    characteristic polynomial det(X*I - minor).
    """
    if isinstance(mg, Graph):
        mg = Multigraph(mg.n, tuple(mg.sorted_edges()))
    minor = [row[1:] for row in mg.laplacian()[1:]]
    return (-1) ** (mg.n - 1) * charpoly_division_free(minor).coefficient(0)


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


def forest_family_to_text(fam, label_map=None):
    """Fixture dump: one line 'i gamma e1 e2 ...' per forest, sorted."""
    lines = []
    for i in sorted(fam.families):
        rows = []
        for edges, gamma in fam.families[i]:
            if label_map is None:
                toks = sorted(f"{u}-{v}" for u, v in edges)
            else:
                toks = [str(a) for a in sorted(label_map[e] for e in edges)]
            rows.append((toks, gamma))
        for toks, gamma in sorted(rows):
            lines.append(" ".join([str(i), str(gamma)] + toks))
    return "\n".join(lines) + "\n"
