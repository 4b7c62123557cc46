#!/usr/bin/env python3
"""Spectral gaps: computed two ways, compared against the closed forms.

The gaps are 2 (AG_n, n >= 4), 2n-3 (EAG_n) and n^2-2n (CAG_n).  The dense
solver diagonalizes the small divisor matrix of the graph's colour-refinement
quotient (k x k, k <= 28 at n = 7), never the order x order adjacency matrix,
and stops at the dense cap (n <= 7); the iterative one only ever touches the
(degree, order) array of generator rows, so it scales to much larger orders.
"""

from altspectra import build_family, dense_spectrum, lambda2_iterative, predicted

print(f"{'graph':>8} {'lam1':>6} {'lam2 (iter)':>12} {'lam2 (dense)':>13} {'gap':>6} {'predicted':>18}")
for family in ("AG", "EAG", "CAG"):
    for n in (4, 5, 6):
        G = build_family(family, n)
        lam2 = lambda2_iterative(G, tol=1e-10)
        dense = dense_spectrum(G).lambda2
        l1, l2, gap = predicted(family, n)
        print(
            f"{family + '_' + str(n):>8} {G.degree:>6} {lam2:>12.8f} {dense:>13.8f} "
            f"{G.degree - lam2:>6.2f} {str((l1, l2, gap)):>18}"
        )

print()
print("orders beyond the dense cap only get the iterative treatment:")
for family in ("AG", "EAG"):
    G = build_family(family, 8)
    lam2 = lambda2_iterative(G, tol=1e-8)
    _, l2, gap = predicted(family, 8)
    print(
        f"  {family}_8: order {G.order}, degree {G.degree}, "
        f"lambda2 = {lam2:.8f} (closed form {l2}), gap {G.degree - lam2:.2f} (closed form {gap})"
    )

print()
print("full spectrum of AG_4 (the distinct values are 4, 2, 0, -2):")
rep = dense_spectrum(build_family("AG", 4))
print(" ", [round(v, 8) for v in rep.eigenvalues])
print("  multiplicities:", rep.multiplicities)
