"""Three independent routes to the same coefficients.

The X^i coefficient of det(X*I - L(Y)) is a signed sum over spanning
forests with i components: each forest contributes its component-size
product gamma times Y to the sum of its edge labels.  The two-vertex graph
pins the gamma factor (its polynomial is X^2 - 2XY, not X^2 - XY).  At
Y = 1 the same coefficients are sums of spanning-tree counts of quotient
graphs.  This demo computes all three and watches them agree.
"""
from operator import mul

from graphspectra import (buslov_polynomial, enumerate_forests,
                          kelmans_coefficients, laplacian_charpoly,
                          spectral_polynomial, tree_count)
from graphspectra.catalog import complete_graph, with_labels

g = complete_graph(4)
dp = with_labels(g, [1, 2, 4, 8, 16, 32])

fam = enumerate_forests(g)
print("spanning forests of K4 by component count:")
for i in sorted(fam.families):
    gammas = sorted(gamma for _, gamma in fam.families[i])
    print(f"  {i} components: {len(fam.families[i])} forests, gammas {gammas}")
print("tree count via the matrix-tree theorem:", tree_count(g))

P_det = spectral_polynomial(dp)      # division-free determinant
P_forest = buslov_polynomial(dp)     # forest enumeration
print("\ndeterminant route == forest route:", P_det == P_forest)
print("P(X,Y) =", P_det.format())

print("\nquotient tree counts vs the charpoly at Y = 1:")
cs = kelmans_coefficients(g)
# unit weights: scale(x, 1) = x * 1, nothing to reduce
cp = laplacian_charpoly(g.n, [(e, 1) for e in g.edges], mul, lambda x: x)
for k, c in enumerate(cs, start=1):
    lhs = cp[g.n - k]
    print(f"  c_{k} = {c:4d}   charpoly coeff of X^{g.n - k} = {lhs:5d} "
          f"= (-1)^{k} * c_{k}: {lhs == (-1) ** k * c}")
