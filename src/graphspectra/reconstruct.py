"""Rebuild a graph from its spectral polynomial.

Under distinct-subset-sum edge labels each monomial of each coefficient
a_i(Y) names exactly one spanning forest: the exponent is the sum of the
forest's labels (decoded back into a unique label subset) and the
magnitude is the forest's component-size product.  The edge labels
themselves are the exponents of a_(n-1), whose forests are single edges.
The labeled graph is then drawn from two facts the family holds: which
labels share a vertex (two-edge forests of component product 3, against
4 for disjoint labels), which is its line graph, and which pairwise
adjacent triples are triangles (those missing from the three-edge
forests).  By Whitney's theorem (H. Whitney, "Congruent graphs and the
connectivity of graphs", Amer. J. Math. 54, 1932) these determine a
connected graph up to renumbering its vertices.  A drawing is accepted
only if its full forest family reproduces the decoded one.  Uniqueness of
the result up to isomorphism is exactly the reconstruction guarantee this
package demonstrates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import RealizationError, ValidationError
from .forests import enumerate_forests
from .graphs import Graph


@dataclass(frozen=True)
class DecodedFamily:
    """Forest family over label subsets, as read off a spectral polynomial."""

    n: int
    labels: tuple  # sorted distinct positive ints
    families: dict  # i -> frozenset of (frozenset of labels, magnitude)


@dataclass(frozen=True)
class Realization:
    graph: Graph
    edge_labels: dict  # (u, v) -> label


@lru_cache(maxsize=None)
def _component_size_products(n, parts):
    """All products of partitions of n into exactly `parts` positive parts."""
    if parts == 1:
        return frozenset({n})
    out = set()
    for first in range(1, n - parts + 2):
        for rest in _component_size_products(n - first, parts - 1):
            out.add(first * rest)
    return frozenset(out)


def _subset_with_sum(labels, target, limit=2):
    """Label subsets summing to target, at most `limit` collected."""
    labels = sorted(labels, reverse=True)
    suffix = [0] * (len(labels) + 1)
    for i in range(len(labels) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + labels[i]
    found = []

    def walk(i, t, chosen):
        if len(found) >= limit:
            return
        if t == 0:
            found.append(frozenset(chosen))
            return
        if i == len(labels) or t < 0 or t > suffix[i]:
            return
        if labels[i] <= t:
            chosen.append(labels[i])
            walk(i + 1, t - labels[i], chosen)
            chosen.pop()
        walk(i + 1, t, chosen)

    walk(0, target, [])
    return found


def decode_forest_family(P):
    """Read labels and the complete forest family out of a spectral polynomial.

    Fails loudly when an exponent has no label-subset decomposition, when a
    decomposition is not unique (labels were not subset-sum distinct), or
    when a magnitude cannot be a component-size product.
    """
    n = P.n
    if n == 1:
        return DecodedFamily(1, (), {1: frozenset({(frozenset(), 1)})})
    edge_coeff = P.coefficient(n - 1)
    labels = tuple(sorted(edge_coeff.terms))
    for k, c in edge_coeff.terms.items():
        if c != -2:
            raise ValidationError(
                f"single-edge coefficient at Y^{k} is {c}, expected -2")
    families = {}
    for i in range(1, n + 1):
        sign = (-1) ** (n - i)
        records = set()
        for k, c in P.coefficient(i).terms.items():
            if c * sign < 0:
                raise ValidationError(
                    f"coefficient of X^{i} Y^{k} has the wrong sign")
            if k == 0:
                subset = frozenset()
            else:
                hits = _subset_with_sum(labels, k)
                if not hits:
                    raise ValidationError(
                        f"exponent {k} in a_{i} has no label-subset decomposition")
                if len(hits) > 1:
                    raise ValidationError(
                        f"exponent {k} in a_{i} decomposes into several label "
                        f"subsets; labels are not subset-sum distinct")
                subset = hits[0]
            if len(subset) != n - i:
                raise ValidationError(
                    f"exponent {k} in a_{i} decodes to {len(subset)} edges, "
                    f"expected {n - i}")
            gamma = abs(c)
            if gamma not in _component_size_products(n, i):
                raise ValidationError(
                    f"magnitude {gamma} in a_{i} is not a product of component "
                    f"sizes for {i} components on {n} vertices")
            records.add((subset, gamma))
        if records:
            families[i] = frozenset(records)
    if n not in families:
        raise ValidationError("missing empty forest (a_n must be 1)")
    return DecodedFamily(n, labels, families)


def realize_graph(fam):
    """A labeled graph whose forest family equals the decoded one.

    Two labels share a vertex exactly when their two-edge forest has
    component product 3 (4 when disjoint), which gives the line graph; three
    pairwise adjacent labels form a triangle exactly when they are missing
    from the three-edge forests.  By Whitney (1932) these determine a
    connected graph up to renumbering its vertices, so the first drawing
    that agrees with them is, for a family read off a real graph, that
    graph.  A drawing is accepted only if its enumerated forest family
    equals the decoded one, which also rejects every family that no graph
    has (disconnected, not downward closed, wrong magnitudes).
    """
    for edge_labels in _drawings(fam):
        graph = Graph.of(fam.n, list(edge_labels))
        produced = enumerate_forests(graph).as_label_families(edge_labels)
        if produced == fam.families:
            return Realization(graph, edge_labels)
    raise RealizationError("no graph realizes the decoded forest family")


def reconstruct_from_polynomial(P):
    """Decode the family and realize it; the graph is unique up to isomorphism."""
    return realize_graph(decode_forest_family(P)).graph


def _drawings(fam):
    """Every placement of the labels as edges on vertices 1..n, as an
    edge -> label dict, whose adjacencies and triangles agree with the two-
    and three-edge forests, vertices numbered in order of first use.

    Labels are drawn in breadth-first order of the line graph from the
    smallest, which is the edge (1, 2); each further label takes an endpoint
    of its already drawn parent, and its other end is a drawn vertex or the
    next fresh one, never past n.  A real graph's family has at most two
    drawings, mirror images through the edge (1, 2).
    """
    n, labels = fam.n, fam.labels
    adjacent = {edges for edges, g in fam.families.get(n - 2, ()) if g == 3}
    stars = {edges for edges, _ in fam.families.get(n - 3, ())}
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
