"""Graphs, diffusion pairs, and their Laplacian-type matrices.

A diffusion pair is a finite simple graph together with distinct positive
integer edge labels; edge {u,v} with label a carries the symbolic weight
Y^a.  Everything here is exact: matrices hold ints, never floats.
Vertices are 1-based and edges are stored as (u, v) with u < v.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError, check_vertex_count, parse_ints


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

    def degrees(self):
        """The degrees of the vertices 1..n, in one pass over the edges."""
        out = [0] * (self.n + 1)
        for a, b in self.edges:
            out[a] += 1
            out[b] += 1
        return out[1:]

    def degree_sequence(self):
        return tuple(sorted(self.degrees()))

    def is_connected(self):
        return self.component_count() == 1

    def component_count(self):
        """By union-find over the edges: a vertex without an edge costs
        nothing beyond the count."""
        parent = {}

        def root(u):
            r = u
            while r in parent:
                r = parent[r]
            while u != r:  # path compression
                parent[u], u = r, parent[u]
            return r

        count = self.n
        for a, b in self.edges:
            ra, rb = root(a), root(b)
            if ra != rb:
                parent[ra] = rb
                count -= 1
        return count


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


def _refine_colors(nbrs):
    """1-dimensional color refinement over 0-based neighbour lists; returns a
    stable coloring, each color the rank of its vertex's sorted signature."""
    colors = [len(ws) for ws in nbrs]
    while True:
        signature = [(colors[u], tuple(sorted(colors[w] for w in ws)))
                     for u, ws in enumerate(nbrs)]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new = [palette[sig] for sig in signature]
        if new == colors:
            return colors
        colors = new


def _canonical_search(adj):
    """Maximum adjacency code of the graph with rows adj (bitmasks over
    0-based vertices); returns (code, order, automorphisms).

    Vertices are placed color class by color class (refined colors are
    isomorphism-invariant); each placed vertex appends its adjacency bits to
    the vertices already placed, the first placed most significant, and the
    maximum is found by branch and bound on prefixes.  Two leaves with equal
    codes differ by an automorphism, which is recorded, as is each vertex's
    transposition with its first twin (identical adjacency up to each
    other); these generate every permutation of each twin class.  Any
    automorphism fixing the placed vertices maps one child's subtree onto
    another with the same codes, so after a child is searched every
    candidate in its orbit under the recorded automorphisms that fix the
    placed vertices is skipped.  Each automorphism is a tuple mapping vertex
    v to perm[v].
    """
    n = len(adj)
    nbrs = [[w for w in range(n) if a >> w & 1] for a in adj]
    colors = _refine_colors(nbrs)
    blocks = [[] for _ in range(max(colors) + 1)]
    for u, c in enumerate(colors):
        blocks[c].append(u)
    block_at = [block for block in blocks for _ in block]
    total = n * (n - 1) // 2
    gens = []  # (perm, mask of moved vertices)

    def record(perm):
        gens.append((perm, sum(1 << v for v in range(n) if perm[v] != v)))

    for block in blocks:
        for i, u in enumerate(block):
            for w in block[:i]:
                if (adj[u] ^ adj[w]) & ~(1 << u | 1 << w) == 0:
                    perm = list(range(n))
                    perm[u], perm[w] = w, u
                    record(tuple(perm))
                    break

    rows = [0] * n  # bit n-1-i of rows[u] is set when u ~ placed[i]
    placed = []
    best = [-1, None]

    def search(depth, placed_mask, code):
        if depth == n:
            if code > best[0]:
                best[0], best[1] = code, list(placed)
            else:
                perm = [0] * n
                for u, v in zip(placed, best[1]):
                    perm[u] = v
                record(tuple(perm))
            return
        shift = n - depth
        bound_shift = total - (depth + 1) * depth // 2
        candidates = sorted(((rows[u] >> shift, u) for u in block_at[depth]
                             if not placed_mask >> u & 1), reverse=True)
        explored = []
        orbit = None
        merged = 0
        for bits, u in candidates:
            child = code << depth | bits
            if child < best[0] >> bound_shift:
                break  # candidates come in decreasing code order
            if explored:
                if orbit is None:
                    orbit = list(range(n))
                for perm, moved in gens[merged:]:
                    if moved & placed_mask == 0:
                        _merge_orbits(orbit, perm, moved)
                merged = len(gens)
                root = _orbit_root(orbit, u)
                if any(_orbit_root(orbit, w) == root for w in explored):
                    continue
            bit = 1 << (n - 1 - depth)
            for w in nbrs[u]:
                rows[w] |= bit
            placed.append(u)
            search(depth + 1, placed_mask | 1 << u, child)
            placed.pop()
            for w in nbrs[u]:
                rows[w] ^= bit
            explored.append(u)

    search(0, 0, 0)
    return best[0], best[1], [perm for perm, _ in gens]


def _orbit_root(orbit, v):
    while orbit[v] != v:
        orbit[v] = orbit[orbit[v]]
        v = orbit[v]
    return v


def _merge_orbits(orbit, perm, moved):
    while moved:
        low = moved & -moved
        v = low.bit_length() - 1
        moved ^= low
        a, b = _orbit_root(orbit, v), _orbit_root(orbit, perm[v])
        if a != b:
            orbit[max(a, b)] = min(a, b)


def is_isomorphic(g1, g2):
    """Equal canonical forms, after the cheap invariants: vertex count, edge
    count and degree sequence."""
    return (g1.n == g2.n and g1.m == g2.m
            and g1.degree_sequence() == g2.degree_sequence()
            and canonical_form(g1) == canonical_form(g2))


def canonical_form(g):
    """Canonical edge list: equal for two graphs iff they are isomorphic.

    The vertex order of the maximum adjacency code (`_canonical_search`)
    relabels the edges.
    """
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    _, order, _ = _canonical_search(adj)
    relabel = {u + 1: i + 1 for i, u in enumerate(order)}
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
    check_vertex_count(n, rows[0])
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
