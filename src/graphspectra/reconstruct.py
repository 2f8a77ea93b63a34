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
from .forests import EDGE_CAP, forest_masks
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


def _subset_decoder(labels):
    """A function from a target to the bit masks (bit j for labels[j]) of
    the label subsets summing to it, at most two collected: two mean the
    labels are not subset-sum distinct.

    Labels are tried largest first, depth first on an explicit stack: each
    branch takes labels while it can, stacking the branch that skips one
    instead whenever the labels after it still reach the target.
    """
    order = sorted(range(len(labels)), key=labels.__getitem__, reverse=True)
    values = [labels[j] for j in order]
    bits = [1 << j for j in order]
    suffix = [0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    depth = len(values)

    def subsets(target):
        if target == 0:
            return [0]
        found = []
        stack = [(0, target, 0)] if target <= suffix[0] else []
        while stack and len(found) < 2:
            i, t, mask = stack.pop()  # 0 < t <= suffix[i]
            for j in range(i, depth):
                v = values[j]
                if t <= suffix[j + 1]:
                    if v > t:
                        continue
                    stack.append((j + 1, t, mask))
                elif v > t:
                    break
                t -= v
                mask |= bits[j]
                if not t:
                    found.append(mask)
                    break
        return found

    return subsets


def decode_forest_family(P):
    """Read labels and the complete forest family out of a spectral polynomial.

    Fails loudly when there are more than forests.EDGE_CAP labels (no
    family that large is realized, and the subset search is exponential in
    the label count), when an exponent has no label-subset decomposition,
    when a decomposition is not unique (labels were not subset-sum
    distinct), or when a magnitude cannot be a component-size product.
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
    if len(labels) > EDGE_CAP:
        raise ValidationError(
            f"{len(labels)} edge labels above the enumeration cap {EDGE_CAP}")
    subsets = _subset_decoder(labels)
    families = {}
    for i in range(1, n + 1):
        sign = (-1) ** (n - i)
        products = _component_size_products(n, i)
        records = set()
        for k, c in P.coefficient(i).terms.items():
            if c * sign < 0:
                raise ValidationError(
                    f"coefficient of X^{i} Y^{k} has the wrong sign")
            if k == 0:
                subset = frozenset()
            else:
                hits = subsets(k)
                if not hits:
                    raise ValidationError(
                        f"exponent {k} in a_{i} has no label-subset decomposition")
                if len(hits) > 1:
                    raise ValidationError(
                        f"exponent {k} in a_{i} decomposes into several label "
                        f"subsets; labels are not subset-sum distinct")
                subset = frozenset(
                    [a for j, a in enumerate(labels) if hits[0] >> j & 1])
            if len(subset) != n - i:
                raise ValidationError(
                    f"exponent {k} in a_{i} decodes to {len(subset)} edges, "
                    f"expected {n - i}")
            gamma = abs(c)
            if gamma not in products:
                raise ValidationError(
                    f"magnitude {gamma} in a_{i} is not a product of component "
                    f"sizes for {i} components on {n} vertices")
            records.add((subset, gamma))
        if records:
            families[i] = frozenset(records)
    if n not in families:
        raise ValidationError("missing empty forest (a_n must be 1)")
    return DecodedFamily(n, labels, families)


def _label_masks(fam):
    """fam.families as a set of (components, label bit mask, gamma), or None
    when no graph's family equals it: a subset holds a label outside
    fam.labels, or some component count has no forest listed.  A subset
    listed with two gammas gives two records, which no graph's set has.
    """
    if not all(fam.families.values()):
        return None
    bit = {a: 1 << j for j, a in enumerate(fam.labels)}
    try:
        return {(i, sum(map(bit.__getitem__, subset)), gamma)
                for i, records in fam.families.items()
                for subset, gamma in records}
    except KeyError:
        return None


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
    has (disconnected, not downward closed, wrong magnitudes).  The drawing's
    edges are enumerated in fam.labels order, so its edge masks are label
    masks and both families compare as sets of (components, mask, gamma).
    """
    target = _label_masks(fam)
    for edge_labels in _drawings(fam):
        graph = Graph.of(fam.n, list(edge_labels))
        edge_of = {a: e for e, a in edge_labels.items()}
        edges = [edge_of[a] for a in fam.labels]
        if set(forest_masks(fam.n, edges)) == target:
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
