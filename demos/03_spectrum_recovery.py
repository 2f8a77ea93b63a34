"""From floating spectra back to an exact integer polynomial.

One operator per integer level r, with edge weights q^(label*(1-r)); its
level spectra land on the curve det(X*I - L(Y)) = 0 at Y = q^(1-r).  Given
only the unlabeled union of level spectra at two primes, the level-1 part
is the prime-independent piece, the rest is attributed to levels by
cross-prime scaling exponents, and exact integer digit decoding at the
node Y = q turns high-precision floats back into the exact polynomial.
"""
from mpmath import mp

from graphspectra import (cluster_and_assign, recover_spectral_poly,
                          simulate_spectrum, spectral_polynomial)
from graphspectra.catalog import cycle_graph, with_labels

dp = with_labels(cycle_graph(4), [1, 2, 4, 8])
D = dp.total_weight
print("hidden pair: C4 with labels 1,2,4,8; total weight D =", D)

samples = [simulate_spectrum(dp, q, 1 - D, 1, 512) for q in (101, 1009)]
for s in samples:
    print(f"\nq={s.q}: {len(s.values)} values over levels "
          f"[{s.r_min}, {s.r_max}], each refined as far as its digit decode "
          f"reads; all certified to {s.precision_bits} bits (level 1's)")
    print("  smallest:", [mp.nstr(v, 8) for v in s.values[:6]])
    print("  largest: ", [mp.nstr(v, 8) for v in s.values[-2:]])

assignments = cluster_and_assign(samples)
a = assignments[0]
print(f"\nlevel assignment at q={a.q}:")
for r in sorted(a.levels, reverse=True)[:4]:
    print(f"  r={r:3d}:", [mp.nstr(v, 8) for v in a.levels[r]])
print("  ... down to r =", min(a.levels))

result = recover_spectral_poly(a, a.q, D)
P = spectral_polynomial(dp)
print("\nrecovered == exact polynomial:", result.polynomial == P)
print("snapping residual:", mp.nstr(mp.mpf(float(result.snap_residual)), 5))
print("P(X,Y) =", P.format())
