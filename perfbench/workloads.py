"""Corpora and operations of the three workloads.

Each workload is a closed loop with one caller: the corpus (one pass) is
built from the seed during set-up, and a run repeats whole passes in the
same seeded order.  An operation calls the library only through module
attributes (``game.solve_game``, ``spectra.sym_eigs`` ...), which is where
the traced run rebinds them.  ``span(name)`` brackets the benchmark's own
calls into a layer (text write and read); it does nothing when untraced.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

from graphspectra import catalog, game, polynomials, reconstruct, spectra
from graphspectra.graphs import Graph

RECOVERY_PRIMES = (101, 1009)
RECOVERY_FLOOR_BITS = 512


def _graph_with_edges(n, m, rng):
    """Uniform random labeled tree on n vertices plus m - (n - 1) random edges."""
    tree = catalog.random_connected_graph(n, rng, max_extra_edges=0)
    missing = [e for e in combinations(range(1, n + 1), 2) if e not in tree.edges]
    extra = rng.sample(missing, m - (n - 1))
    return Graph.of(n, sorted(tree.edges) + extra)


def monomials(P):
    """P's (coefficient, X-degree, Y-degree) triples in a fixed order."""
    return tuple(sorted(P.monomials(), key=lambda t: (t[1], t[2])))


def _bytes(text):
    return len(text.encode("utf-8"))


def exact_value(x):
    """An mpf as an exact Fraction, read from its (sign, mantissa, exponent)."""
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man) << exp) if exp >= 0 else Fraction(int(man), 1 << -exp)
    return -v if sign else v


# ---------------------------------------------------------------------------
# game: hello -> labels -> spectra -> recovery -> reconstruction -> verdict


class Game:
    """Hidden graphs: the 21 connected 5-vertex graphs, plus one seeded
    6-vertex graph for each edge count m = 5..8 (the cost of a game grows
    steeply with the largest label 2^(m-1), so every pass holds the same
    mix).  The server's private edge order is fixed for the 5-vertex games
    and seeded for the 6-vertex ones: the order alone moves the cost of
    one K5 game by 40 %, which would make the 5-vertex half of a pass
    differ from seed to seed by more than the bound."""

    name = "game"
    SIX_VERTEX_EDGES = (5, 6, 7, 8)

    def build(self, seed):
        rng = random.Random(seed)
        corpus = [(g, i) for i, g in enumerate(catalog.connected_graphs(5))]
        corpus += [(_graph_with_edges(6, m, rng), rng.randrange(2 ** 31))
                   for m in self.SIX_VERTEX_EDGES]
        rng.shuffle(corpus)
        return corpus

    def warmup_input(self):
        return (catalog.cycle_graph(5), 0)

    def run(self, inp, span):
        g, server_seed = inp
        session = game.GameSession(g, game.GameConfig(seed=server_seed))
        return game.solve_game(game.LoopbackEndpoint(session))

    def digest(self, inp, res):
        """Verdict, submitted graph, and per spectrum reply its header plus the
        exact sum, count, zero count and order of the decimal values."""
        replies = []
        wire = 0
        for direction, text in res.transcript:
            if direction != "recv":
                continue
            wire += _bytes(text) + 1  # one newline per line on the wire
            msg = json.loads(text)
            if msg.get("type") != "spectrum":
                continue
            vals = [Fraction(s) for s in msg["values"]]
            replies.append({
                "q": msg["q"], "r_min": msg["r_min"], "r_max": msg["r_max"],
                "bits": msg["precision_bits"], "count": len(vals),
                "zeros": sum(1 for v in vals if v == 0),
                "ascending": all(a <= b for a, b in zip(vals, vals[1:])),
                "sum": sum(vals, Fraction(0))})
        graph = res.graph
        return {"won": res.won, "verdict": res.verdict,
                "graph": None if graph is None else (graph.n, tuple(graph.sorted_edges())),
                "primes": len(res.primes_used), "replies": replies,
                "bytes": wire}


# ---------------------------------------------------------------------------
# curve: graph -> P -> spoly text -> P -> graph


class Curve:
    """Every connected graph with 2 to 6 vertices (142) with distinct labels
    drawn from 1..16, which keeps the total weight within the
    evaluation-interpolation path; plus one seeded random connected graph
    for each (n, m) in POW2_SHAPES with shuffled powers-of-two labels, which
    goes through the realization search.  Total weights 63 and 127 take the
    evaluation-interpolation path, 255 and above the recursion over Z[Y]."""

    name = "curve"
    POW2_SHAPES = ((7, 6), (7, 7), (7, 8), (7, 9), (8, 7), (8, 8), (8, 9), (8, 10))

    def build(self, seed):
        rng = random.Random(seed)
        corpus = []
        for n in range(2, 7):
            for g in catalog.connected_graphs(n):
                labels = rng.sample(range(1, 17), g.m)
                corpus.append((catalog.with_labels(g, labels), False))
        for n, m in self.POW2_SHAPES:
            g = _graph_with_edges(n, m, rng)
            labels = [1 << i for i in range(m)]
            rng.shuffle(labels)
            corpus.append((catalog.with_labels(g, labels, check_subset_sums=True), True))
        rng.shuffle(corpus)
        return corpus

    def warmup_input(self):
        g = catalog.cycle_graph(6)
        return (catalog.with_labels(g, [1 << i for i in range(g.m)]), True)

    def run(self, inp, span):
        dp, rebuild = inp
        P = polynomials.spectral_polynomial(dp)
        with span("polynomials.spoly_text"):
            text = polynomials.spectral_poly_to_text(P)
            back = polynomials.spectral_poly_from_text(text)
        graph = reconstruct.reconstruct_from_polynomial(back) if rebuild else None
        return P, text, back, graph

    def digest(self, inp, out):
        P, text, back, graph = out
        return {"n": P.n,
                "monos": monomials(P),
                "text": text, "parsed_equal": back == P,
                "graph": None if graph is None else (graph.n, tuple(graph.sorted_edges())),
                "bytes": _bytes(text)}


# ---------------------------------------------------------------------------
# recovery: level spectra over the full window -> text -> clusters -> P


# Label arrangements (labels in sorted-edge order) on which
# cluster_and_assign moves eigenvalues between levels at q = 101 or 1009:
# two levels hold values with the same q-exponent and nearly equal branch
# constants, the level sums then miss their traces, while the recovered
# polynomial is still right.  Found by running all 69 arrangements; they
# are left out of the seeded draw so that no operation fails on any seed.
CLUSTER_SWAPS = {
    ((1, 3), (2, 4), (3, 4)): {(2, 4, 1), (4, 2, 1)},
    ((1, 2), (1, 3), (2, 4), (3, 4)): {
        (1, 4, 8, 2), (1, 8, 4, 2), (2, 4, 8, 1), (2, 8, 4, 1),
        (4, 1, 2, 8), (4, 2, 1, 8), (8, 1, 2, 4), (8, 2, 1, 4)},
    ((1, 4), (2, 3), (2, 4), (3, 4)): {
        (4, 8, 1, 2), (4, 8, 2, 1), (8, 4, 1, 2), (8, 4, 2, 1)},
}


class Recovery:
    """Criterion-5 shape: every connected graph with 2 to 4 vertices and at
    most 4 edges, labels the first m of {1, 2, 4, 8}, each in seeded edge
    arrangements; spectra over the full window [1 - D, 1] at q = 101 and
    1009.  The 4-edge graphs (C4 and the paw, D = 15) carry most of the
    cost and their arrangements differ in cost by up to 50 %, so they get
    three distinct arrangements per pass, the rest two (the single edge
    has only one)."""

    name = "recovery"
    ARRANGEMENTS = {1: 1, 2: 2, 3: 2, 4: 3}  # per graph, by edge count

    def build(self, seed):
        rng = random.Random(seed)
        corpus = []
        for n in range(2, 5):
            for g in catalog.connected_graphs(n):
                if g.m > 4:
                    continue
                swaps = CLUSTER_SWAPS.get(tuple(g.sorted_edges()), set())
                allowed = [p for p in permutations([1, 2, 4, 8][: g.m])
                           if p not in swaps]
                for labels in rng.sample(allowed, self.ARRANGEMENTS[g.m]):
                    corpus.append(catalog.with_labels(g, list(labels)))
        rng.shuffle(corpus)
        return corpus

    def warmup_input(self):
        return catalog.with_labels(catalog.path_graph(4), [1, 2, 4])

    def run(self, dp, span):
        D = dp.total_weight
        samples = [spectra.simulate_spectrum(dp, q, 1 - D, 1, RECOVERY_FLOOR_BITS)
                   for q in RECOVERY_PRIMES]
        with span("spectra.spectrum_text"):
            texts = [spectra.spectrum_to_text(s) for s in samples]
            back = [spectra.spectrum_from_text(t) for t in texts]
        assignments = spectra.cluster_and_assign(back)
        recovered = [spectra.recover_spectral_poly(a, q, D)
                     for q, a in zip(RECOVERY_PRIMES, assignments)]
        return samples, texts, back, assignments, recovered

    def digest(self, dp, out):
        samples, texts, back, assignments, recovered = out
        return {
            "parsed_equal": back == samples,
            "samples": [{"q": s.q, "r_min": s.r_min, "r_max": s.r_max,
                         "bits": s.precision_bits, "count": len(s.values),
                         "sum": sum(map(exact_value, s.values), Fraction(0))}
                        for s in samples],
            "levels": [{"q": a.q, "bits": a.precision_bits,
                        "sums": {r: (len(v), sum(map(exact_value, v), Fraction(0)))
                                 for r, v in a.levels.items()}}
                       for a in assignments],
            "recovered": [(monomials(res.polynomial), res.snap_residual)
                          for res in recovered],
            "bytes": sum(_bytes(t) for t in texts)}


WORKLOADS = {w.name: w for w in (Game(), Curve(), Recovery())}
