"""Graphs, diffusion pairs, and their Laplacian-type matrices.

A diffusion pair is a finite simple graph together with distinct positive
integer edge labels; edge {u,v} with label a carries the symbolic weight
Y^a.  Everything here is exact: matrices hold ints, never floats.
Vertices are 1-based and edges are stored as (u, v) with u < v.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError, parse_ints


def _normalize_edge(u, v):
    if u == v:
        raise ValidationError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("vertex count must be positive")
        normalized = set()
        for e in self.edges:
            u, v = e
            e = _normalize_edge(u, v)
            if not (1 <= e[0] and e[1] <= self.n):
                raise ValidationError(f"edge {e} outside 1..{self.n}")
            if e in normalized:
                raise ValidationError(f"duplicate edge {e}")
            normalized.add(e)
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def of(cls, n, edge_list):
        return cls(n, frozenset(_normalize_edge(u, v) for u, v in edge_list))

    @property
    def m(self):
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)

    def neighbors(self, u):
        return {b if a == u else a for a, b in self.edges if u in (a, b)}

    def degree(self, u):
        return sum(1 for e in self.edges if u in e)

    def degree_sequence(self):
        return tuple(sorted(self.degree(u) for u in range(1, self.n + 1)))

    def components(self):
        """Vertex sets of connected components, as sorted tuples."""
        seen = set()
        comps = []
        adj = {u: set() for u in range(1, self.n + 1)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        for s in range(1, self.n + 1):
            if s in seen:
                continue
            stack, comp = [s], set()
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(adj[u] - comp)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self):
        return len(self.components()) == 1

    def component_count(self):
        return len(self.components())


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph: parallel edges kept, loops dropped on construction."""

    n: int
    edges: tuple = ()  # sorted tuple of (u, v) pairs, repeats = multiplicity

    def __post_init__(self):
        cleaned = []
        for u, v in self.edges:
            if u == v:
                continue
            e = _normalize_edge(u, v)
            if not (1 <= e[0] and e[1] <= self.n):
                raise ValidationError(f"edge {(u, v)} outside 1..{self.n}")
            cleaned.append(e)
        object.__setattr__(self, "edges", tuple(sorted(cleaned)))

    def multiplicity(self, u, v):
        e = _normalize_edge(u, v)
        return sum(1 for f in self.edges if f == e)


@dataclass(frozen=True)
class DiffusionPair:
    """A graph plus a positive integer label per edge (symbolic weight Y^label)."""

    graph: Graph
    labels: tuple = ()  # sorted tuple of ((u, v), label)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))

    def label_map(self):
        return dict(self.labels)

    def label(self, u, v):
        return self.label_map()[_normalize_edge(u, v)]

    def label_values(self):
        return [a for _, a in self.labels]

    @property
    def total_weight(self):
        """Sum of all edge labels: the Y-degree bound of the spectral polynomial."""
        return sum(a for _, a in self.labels)

    def relabeled(self, new_labels, **kwargs):
        """Same graph with a different label assignment (sorted-edge order)."""
        if len(new_labels) != self.graph.m:
            raise ValidationError(
                f"need {self.graph.m} labels, got {len(new_labels)}")
        return build_diffusion_pair(
            self.graph.n,
            [(u, v, a) for (u, v), a in zip(self.graph.sorted_edges(), new_labels)],
            **kwargs,
        )


def build_diffusion_pair(n, weighted_edges, require_distinct_labels=True,
                         check_subset_sums=False):
    """Validate and build a diffusion pair from (u, v, label) triples.

    Distinct labels are required by default; disable only for oracle-style
    uses (e.g. uniform weights).  With check_subset_sums=True the strictly
    stronger distinct-subset-sum property is verified too.
    """
    edges = []
    labels = []
    for u, v, a in weighted_edges:
        e = _normalize_edge(u, v)
        if not isinstance(a, int) or a <= 0:
            raise ValidationError(f"label {a!r} on edge {e} is not a positive integer")
        edges.append(e)
        labels.append((e, a))
    graph = Graph.of(n, edges)
    if len(edges) != len(set(edges)):
        raise ValidationError("duplicate edge in weighted edge list")
    values = [a for _, a in labels]
    if require_distinct_labels and len(set(values)) != len(values):
        raise ValidationError("duplicate label (labels must be pairwise distinct)")
    if check_subset_sums and not is_subset_sum_distinct(values):
        raise ValidationError("labels do not have distinct subset sums")
    return DiffusionPair(graph, tuple(labels))


def laplacian_matrix(g):
    """Unweighted integer Laplacian of a plain graph."""
    return edge_set_laplacian(g.n, g.edges)


def edge_set_laplacian(n, pairs):
    """Sum of single-edge Laplacians over the pairs (repeats add up); positive semidefinite."""
    L = [[0] * n for _ in range(n)]
    for u, v in pairs:
        u, v = _normalize_edge(u, v)
        if v > n:
            raise ValidationError(f"pair {(u, v)} outside 1..{n}")
        L[u - 1][v - 1] -= 1
        L[v - 1][u - 1] -= 1
        L[u - 1][u - 1] += 1
        L[v - 1][v - 1] += 1
    return L


def seminorm_sq(v, pairs):
    """Sum of (v_k - v_l)^2 over pairs (1-based indices); equals v^T U(E) v."""
    total = 0
    for k, l in pairs:
        if not (1 <= k <= len(v) and 1 <= l <= len(v)):
            raise ValidationError(f"pair {(k, l)} outside vector of length {len(v)}")
        d = v[k - 1] - v[l - 1]
        total += d * d
    return total


def quotient_graph(g, S):
    """Identify all vertices of S with one vertex; drop loops, keep multiplicities.

    The merged vertex gets the smallest index after compacting, matching the
    relabeling (V \\ S first in order, merged vertex last).
    """
    S = set(S)
    if not S:
        raise ValidationError("S must be nonempty")
    if not S <= set(range(1, g.n + 1)):
        raise ValidationError("S contains vertices outside the graph")
    rest = [u for u in range(1, g.n + 1) if u not in S]
    index = {u: i + 1 for i, u in enumerate(rest)}
    star = len(rest) + 1
    edges = []
    for u, v in g.edges:
        a = index.get(u, star)
        b = index.get(v, star)
        if a != b:
            edges.append((a, b))
    return Multigraph(star, tuple(edges))


def cartesian_product(g, h):
    """Box product: (u,x) ~ (v,y) iff u=v and x~y, or x=y and u~v.

    Vertex (u, x) maps to index (u-1)*h.n + x, so the product Laplacian is
    the Kronecker sum L(g) (x) I + I (x) L(h).
    """
    def idx(u, x):
        return (u - 1) * h.n + x

    edges = []
    for u in range(1, g.n + 1):
        for x, y in h.edges:
            edges.append((idx(u, x), idx(u, y)))
    for u, v in g.edges:
        for x in range(1, h.n + 1):
            edges.append((idx(u, x), idx(v, x)))
    return Graph.of(g.n * h.n, edges)


def sum_distinct_labels(m):
    """The labels 1, 2, 4, ..., 2^(m-1) for m edges: their subset sums are
    pairwise distinct."""
    if m < 1:
        raise ValidationError("need at least one edge")
    return [1 << i for i in range(m)]


def is_subset_sum_distinct(labels):
    """True iff all 2^m subset sums are pairwise distinct.

    Superincreasing labels (sorted, each larger than the sum of all smaller
    ones, as powers of two are) answer at once: the largest label of a
    subset exceeds every sum without it.  Any other input builds the sums."""
    labels = list(labels)
    if len(labels) > 24:
        raise ValidationError("subset-sum check capped at 24 labels")
    below = 0
    for a in sorted(labels):
        if a <= below:
            break
        below += a
    else:
        return True
    sums = {0}
    for a in labels:
        shifted = {s + a for s in sums}
        if sums & shifted:
            return False
        sums |= shifted
    return True


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms


def _refine_colors(g):
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


def is_isomorphic(g1, g2):
    """Equal canonical forms, after the cheap invariants: vertex count, edge
    count and degree sequence."""
    return (g1.n == g2.n and g1.m == g2.m
            and g1.degree_sequence() == g2.degree_sequence()
            and canonical_form(g1) == canonical_form(g2))


def canonical_form(g):
    """Canonical edge list: equal for two graphs iff they are isomorphic.

    Vertices are placed color class by color class (refined colors are
    isomorphism-invariant), maximizing the concatenated adjacency-bit code
    with branch-and-bound on prefixes.  Twin vertices (identical adjacency
    up to each other) yield identical subtrees and are collapsed.
    """
    n = g.n
    colors = _refine_colors(g)
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


def relabel_graph(g, permutation):
    """Apply a vertex permutation given as a dict old -> new."""
    return Graph.of(g.n, [(permutation[u], permutation[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# Text format
#
# Line 1: "n m"; then m lines "u v alpha" (alpha optional on input, always
# written); '#' starts a comment line.  Writing is canonical (edges sorted),
# so write -> read -> write round-trips bit-exactly.


def graph_to_text(obj):
    if isinstance(obj, DiffusionPair):
        graph, label_map = obj.graph, obj.label_map()
    else:
        graph, label_map = obj, {e: 1 for e in obj.edges}
    lines = [f"{graph.n} {graph.m}"]
    for u, v in graph.sorted_edges():
        lines.append(f"{u} {v} {label_map[(u, v)]}")
    return "\n".join(lines) + "\n"


def graph_from_text(text):
    """Parse the graph format; returns a DiffusionPair (labels default to 1).

    Duplicate labels are accepted here (defaulted labels collide); callers
    that need distinctness should rebuild with build_diffusion_pair.
    """
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValidationError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValidationError(f"bad header {rows[0]!r}")
    n, m = parse_ints(head, rows[0])
    if len(rows) - 1 != m:
        raise ValidationError(f"expected {m} edge lines, found {len(rows) - 1}")
    weighted = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise ValidationError(f"bad edge line {ln!r}")
        u, v, *a = parse_ints(parts, ln)
        weighted.append((u, v, a[0] if a else 1))
    return build_diffusion_pair(n, weighted, require_distinct_labels=False)
