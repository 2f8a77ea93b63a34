"""Named graphs, exhaustive enumeration at small sizes, and random samplers.

Includes the standard 8-vertex pair of non-isomorphic cospectral graphs
(smallest bridgeless example, first Betti number 3) with the label choice
that separates their bivariate spectral polynomials: one distinguished
edge in each graph carries weight Y^2, all others Y.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from .errors import ValidationError
from .graphs import Graph, _canonical_search, build_diffusion_pair


def path_graph(n):
    return Graph.of(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    if n < 3:
        raise ValidationError("cycle needs at least 3 vertices")
    return Graph.of(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n):
    return Graph.of(n, list(combinations(range(1, n + 1), 2)))


def star_graph(n):
    return Graph.of(n, [(1, i) for i in range(2, n + 1)])


_COSPECTRAL_LEFT = [
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 7), (1, 8), (6, 7), (6, 8),
    (7, 8),
]
_COSPECTRAL_RIGHT = [
    (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (1, 8),
    (6, 8),
]


def cospectral_pair_graphs():
    """The 8-vertex isospectral, non-isomorphic, bridgeless pair."""
    return Graph.of(8, _COSPECTRAL_LEFT), Graph.of(8, _COSPECTRAL_RIGHT)


def cospectral_pair():
    """The same pair as diffusion pairs: weight 2 on edge 7-8 (left) and 6-8
    (right), weight 1 elsewhere.  Their univariate characteristic polynomials
    coincide at Y=1 while the bivariate polynomials differ."""
    left = build_diffusion_pair(
        8, [(u, v, 2 if (u, v) == (7, 8) else 1) for u, v in _COSPECTRAL_LEFT],
        require_distinct_labels=False)
    right = build_diffusion_pair(
        8, [(u, v, 2 if (u, v) == (6, 8) else 1) for u, v in _COSPECTRAL_RIGHT],
        require_distinct_labels=False)
    return left, right


def with_powers_of_two(g):
    """Label the sorted edges of g with 1, 2, 4, ...; subset sums distinct."""
    return build_diffusion_pair(
        g.n, [(u, v, 1 << i) for i, (u, v) in enumerate(g.sorted_edges())],
        check_subset_sums=True)


def with_labels(g, labels, **kwargs):
    """Assign the given labels to the sorted edges of g."""
    if len(labels) != g.m:
        raise ValidationError("need one label per edge")
    return build_diffusion_pair(
        g.n, [(u, v, a) for (u, v), a in zip(g.sorted_edges(), labels)], **kwargs)


@lru_cache(maxsize=None)
def all_graphs(n):
    """One representative per isomorphism class of graphs on n vertices.

    Built by edge augmentation: every (m+1)-edge class contains a class
    from level m plus one edge, so growing canonical representatives level
    by level visits each class once.  Non-edges in one orbit of a class's
    automorphisms give isomorphic graphs, so only the first of each orbit
    (under the automorphisms its canonical search met) is tried; every class
    still first appears at the same (class, non-edge) pair.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    pairs = list(combinations(range(n), 2))
    level = [_canonical_class([0] * n, _canonical_search([0] * n))]
    reps = [Graph(n)]
    for _ in range(len(pairs)):
        next_level = {}
        for adj, gens in level:
            tried = set()
            for u, v in pairs:
                if adj[u] >> v & 1 or (u, v) in tried:
                    continue
                tried |= _pair_orbit(u, v, gens)
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                found = _canonical_search(adj)
                if found[0] not in next_level:
                    next_level[found[0]] = _canonical_class(adj, found)
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
        level = list(next_level.values())
        reps.extend(Graph.of(n, [(u + 1, v + 1) for u, v in pairs if adj[u] >> v & 1])
                    for adj, _ in level)
    return tuple(reps)


def _canonical_class(adj, found):
    """Adjacency rows and automorphisms of adj relabelled by the search's
    vertex order, so that vertex order[i] becomes i."""
    _, order, gens = found
    position = [0] * len(order)
    for i, u in enumerate(order):
        position[u] = i
    rows = [sum(1 << position[w] for w in range(len(order)) if adj[u] >> w & 1)
            for u in order]
    return rows, [tuple(position[perm[u]] for u in order) for perm in gens]


def _pair_orbit(u, v, gens):
    orbit = {(u, v)}
    stack = [(u, v)]
    while stack:
        a, b = stack.pop()
        for perm in gens:
            x, y = perm[a], perm[b]
            e = (x, y) if x < y else (y, x)
            if e not in orbit:
                orbit.add(e)
                stack.append(e)
    return orbit


@lru_cache(maxsize=None)
def connected_graphs(n):
    return tuple(g for g in all_graphs(n) if g.is_connected())


def random_connected_graph(n, rng, max_extra_edges=3):
    """Random spanning tree (random Pruefer word) plus a few extra edges."""
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph.of(2, [(1, 2)])
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    edges = set(_pruefer_to_edges(n, seq))
    missing = [e for e in combinations(range(1, n + 1), 2) if e not in edges]
    rng.shuffle(missing)
    for e in missing[: rng.randrange(0, max_extra_edges + 1)]:
        edges.add(e)
    return Graph.of(n, edges)


def _pruefer_to_edges(n, seq):
    """Decode a Pruefer word over 1..n into the n-1 edges of its tree."""
    import heapq

    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [u for u in range(1, n + 1) if degree[u] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges

