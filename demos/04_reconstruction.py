"""The polynomial remembers the whole graph.

With subset-sum-distinct labels (powers of two), every monomial names one
spanning forest: the labels are the exponents of the single-edge
coefficient a_(n-1), two-edge forests in a_(n-2) tell which labels share
a vertex, and three-edge forests in a_(n-3) tell triangles from stars.
That is enough to draw the graph, unique up to isomorphism, and a drawing
is accepted only when its own forest polynomial equals P.
"""
import random

from graphspectra import (is_isomorphic, reconstruct_from_polynomial,
                          reconstruct_labeled, spectral_polynomial)
from graphspectra.catalog import (cospectral_pair_graphs,
                                  random_connected_graph, with_powers_of_two)

g1, g2 = cospectral_pair_graphs()
dp = with_powers_of_two(g1)
P = spectral_polynomial(dp)
n = P.n
print("labels read from a_(n-1):", sorted(P.coefficient(n - 1).terms))
print("spanning trees (terms of a_1):    ", len(P.coefficient(1).terms))
print("single edges (terms of a_(n-1)):  ", len(P.coefficient(n - 1).terms))

back = reconstruct_labeled(P)
print("\nreconstructed labeled graph:", list(back.labels))
print("its polynomial is P:", spectral_polynomial(back) == P)
print("isomorphic to the hidden one:", is_isomorphic(back.graph, g1))
print("isomorphic to its cospectral twin:", is_isomorphic(back.graph, g2))

print("\nrandom round trips:")
rng = random.Random(7)
for trial in range(5):
    g = random_connected_graph(rng.randint(3, 7), rng)
    h = reconstruct_from_polynomial(
        spectral_polynomial(with_powers_of_two(g)))
    print(f"  n={g.n} m={g.m:2d}: reconstructed isomorphic ->",
          is_isomorphic(g, h))
