"""Splitting spectra by perturbing the common edges - and when it fails.

For two graphs on one vertex set, write C for the shared edges and C_i
for each side's private ones.  The spectra of U(C) + eps*U(C_i) move, to
first order in eps, by the seminorms ||v||^2_{C_i} of U(C)'s eigenvectors,
so different seminorms split the perturbed spectra.  The error of the
first-order prediction shrinks like eps^2.

The second half turns to the catalog cospectral pair, where C itself
depends on how the two vertex sets are identified.  Under the standard
vertex labeling the two perturbed matrices are *exactly* isospectral for
every eps: their characteristic polynomials agree identically over
Z[eps][X], and no eigenvector of U(C) carries different seminorms.
Exchanging vertices 2 and 3 of the right graph gives another
identification, with C1 = {(1,7),(3,4)} and C2 = {(1,3),(2,4)}; there the
exact polynomials differ and the experiment separates the pair.
"""
from fractions import Fraction
from operator import mul

from mpmath import mp

from graphspectra import (UniPoly, laplacian_charpoly, prediction_error_ratio,
                          separation_experiment)
from graphspectra.catalog import cospectral_pair_graphs
from graphspectra.graphs import Graph, relabel_graph

print("--- a pair the perturbation separates ---")
ga = Graph.of(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
gb = Graph.of(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
full, half, ratio = prediction_error_ratio(ga, gb, Fraction(1, 1000))
print("C  =", full.common_edges)
print("C1 =", full.extra_edges[0], " C2 =", full.extra_edges[1])
print("Hausdorff distance:", mp.nstr(full.hausdorff_distance, 8))
s1, s2 = full.separating_seminorms
print("separating seminorms:", mp.nstr(s1, 8), "vs", mp.nstr(s2, 8))
print("prediction error ratio eps/(eps/2): %.4f (eps^2 decay -> 4)" % ratio)



def perturbed_charpolys(g1, g2):
    """det(X*I - U(C) - eps*U(C_i)) for i = 1, 2, exactly over Z[eps][X]:
    the Laplacian with weight 1 on C and eps on C_i, as UniPolys in eps."""
    E1, E2 = set(g1.edges), set(g2.edges)
    one, eps = UniPoly.const(1), UniPoly.monomial(1, 1)
    common = [(e, one) for e in E1 & E2]
    return [laplacian_charpoly(g1.n, common + [(e, eps) for e in Ci], mul, lambda x: x)
            for Ci in (E1 - E2, E2 - E1)]


print("\n--- the catalog cospectral pair, standard labeling: it resists ---")
g1, g2 = cospectral_pair_graphs()
rep = separation_experiment(g1, g2, Fraction(1, 1000))
print("C1 =", rep.extra_edges[0], " C2 =", rep.extra_edges[1])
print("Hausdorff distance:", mp.nstr(rep.hausdorff_distance, 8),
      "(numerically zero)")
print("separating eigenvector found:", rep.separating_vector is not None)
p1, p2 = perturbed_charpolys(g1, g2)
print("charpolys equal identically in eps:", p1 == p2)

print("\n--- the same pair, vertices 2 and 3 of the right graph exchanged ---")
g2 = relabel_graph(g2, {v: v for v in range(1, 9)} | {2: 3, 3: 2})
p1, p2 = perturbed_charpolys(g1, g2)
print("charpolys equal identically in eps:", p1 == p2)
full, half, ratio = prediction_error_ratio(g1, g2, Fraction(1, 1000))
print("C1 =", full.extra_edges[0], " C2 =", full.extra_edges[1])
print("Hausdorff distance:", mp.nstr(full.hausdorff_distance, 8))
s1, s2 = full.separating_seminorms
print("separating seminorms:", mp.nstr(s1, 8), "vs", mp.nstr(s2, 8))
print("prediction error ratio eps/(eps/2): %.4f" % ratio)
