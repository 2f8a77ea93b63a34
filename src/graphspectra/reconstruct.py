"""Rebuild a graph from its spectral polynomial.

Under distinct-subset-sum edge labels each monomial of each coefficient
a_i(Y) names exactly one spanning forest: the exponent is the sum of the
forest's labels (decoded back into a unique label subset) and the
magnitude is the forest's component-size product.  The edge labels
themselves are the exponents of a_(n-1), whose forests are single edges.
A graph realizing the decoded family is then built: one decoded spanning
tree is drawn edge by edge from its label adjacency (which labels share a
vertex), the remaining labels are placed on the endpoints of their
fundamental-circuit paths, and the candidate is accepted only if its full
forest family reproduces the decoded one.  Uniqueness of the result up to
isomorphism is exactly the reconstruction guarantee this package
demonstrates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    Fix the lexicographically smallest decoded spanning tree S.  Its
    pairwise label adjacency (component products 3 = sharing a vertex,
    4 = disjoint) is the line graph of the realizing tree, so every way of
    drawing S is found by attaching its labels one at a time; the
    fundamental circuit of every non-tree label then forces its endpoints.
    A candidate survives only if its enumerated family matches exactly.
    """
    n = fam.n
    if 1 not in fam.families or not fam.families[1]:
        raise RealizationError("no spanning tree in the family: graph not "
                               "connected or family invalid")
    if n == 1:
        return Realization(Graph(1), {})
    _check_downward_closed(fam)
    trees = sorted(sorted(edges) for edges, _ in fam.families[1])
    S = tuple(trees[0])
    if n == 2:
        return Realization(Graph.of(2, [(1, 2)]), {(1, 2): S[0]})
    non_tree = [a for a in fam.labels if a not in S]
    circuits = {e: _fundamental_circuit(fam, S, e) for e in non_tree}
    share = _label_adjacency(fam, S)
    for sigma in _tree_drawings(S, share):
        candidate = _place_non_tree_edges(n, sigma, circuits)
        if candidate is None:
            continue
        graph, edge_labels = candidate
        produced = enumerate_forests(graph).as_label_families(edge_labels)
        if produced == fam.families:
            return Realization(graph, edge_labels)
    raise RealizationError("no graph realizes the decoded forest family")


def reconstruct_from_polynomial(P):
    """Decode the family and realize it; the graph is unique up to isomorphism."""
    return realize_graph(decode_forest_family(P)).graph


def _check_downward_closed(fam):
    for i, records in fam.families.items():
        if i >= fam.n:
            continue
        larger = {edges for edges, _ in records}
        smaller = {edges for edges, _ in fam.families.get(i + 1, frozenset())}
        for edges in larger:
            for e in edges:
                if edges - {e} not in smaller:
                    raise ValidationError(
                        f"family not downward closed: {sorted(edges)} present "
                        f"but {sorted(edges - {e})} missing")


def _fundamental_circuit(fam, S, e):
    """Labels s of S with (S - s) + e a spanning tree: the circuit of e minus e."""
    trees = {edges for edges, _ in fam.families[1]}
    circuit = frozenset(
        s for s in S if (frozenset(S) - {s}) | {e} in trees)
    if not circuit:
        raise ValidationError(
            f"label {e} closes no circuit over the chosen tree; family invalid")
    return circuit


def _label_adjacency(fam, S):
    n = fam.n
    pair_gamma = {edges: g for edges, g in fam.families.get(n - 2, frozenset())}
    share = {}
    for a in S:
        for b in S:
            if a == b:
                continue
            g = pair_gamma.get(frozenset({a, b}))
            if g is None:
                raise ValidationError(
                    f"pair {{{a},{b}}} missing from the two-edge family")
            if g not in (3, 4):
                raise ValidationError(
                    f"two-edge forest {{{a},{b}}} has magnitude {g}, "
                    f"expected 3 or 4")
            share[(a, b)] = 1 if g == 3 else 0
    return share


def _tree_drawings(S, share):
    """Every drawing of the labels of S as a tree on vertices 1..len(S)+1
    whose edge adjacency is `share`, up to renumbering the vertices.

    S[0] is the edge (1, 2); each further label, in breadth-first order of
    the label adjacency, shares an endpoint with its already drawn
    predecessor and brings the next fresh vertex.  Which endpoint is forced
    by the labels it shares a vertex with, except for the first step, so a
    tree has at most a few drawings and no labeled tree is enumerated.
    """
    order, parent = [S[0]], {S[0]: None}
    for a in order:
        for b in S:
            if b not in parent and share[(a, b)]:
                parent[b] = a
                order.append(b)
    if len(order) < len(S):
        return  # the edge adjacency of a tree is connected
    sigma = {S[0]: (1, 2)}

    def extend(i):
        if i == len(order):
            yield dict(sigma)
            return
        a, fresh = order[i], i + 2
        for u in sigma[parent[a]]:
            if all(share[(a, b)] == (u in e) for b, e in sigma.items()):
                sigma[a] = (u, fresh)
                yield from extend(i + 1)
                del sigma[a]

    yield from extend(1)


def _place_non_tree_edges(n, sigma, circuits):
    edge_labels = {e: a for a, e in sigma.items()}
    for label, circuit in circuits.items():
        path_edges = [sigma[s] for s in circuit]
        endpoints = _path_endpoints(path_edges)
        if endpoints is None:
            return None
        u, v = endpoints
        e = (u, v) if u < v else (v, u)
        if e in edge_labels:
            return None
        edge_labels[e] = label
    graph = Graph.of(n, list(edge_labels))
    return graph, edge_labels


def _path_endpoints(path_edges):
    """Endpoints if the edges form one simple path, else None."""
    degree = {}
    for u, v in path_edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    odd = sorted(u for u, d in degree.items() if d == 1)
    if len(odd) != 2 or any(d > 2 for d in degree.values()):
        return None
    # connectivity: walk from one endpoint
    adj = {}
    for u, v in path_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {odd[0]}
    stack = [odd[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(degree):
        return None
    return odd[0], odd[1]
