#!/usr/bin/env python3
"""Isoperimetric numbers: canonical cuts, spectral brackets, exact minima.

Cutting along a defining block gives ratios 2, 2n-4 and n^2-3n+2 for the
three families, which are the upper bounds; the algebraic connectivity
halved is the lower bound.  On orders small enough to enumerate, the exact
minimum is computed by exhaustion over all proper subsets.
"""

from altspectra import (
    boundary_size,
    brute_force_h,
    build_family,
    canonical_cut,
    cheeger_bounds,
    corollary_bounds,
    cut_ratio,
    dense_spectrum,
)

print("canonical cuts (block with the pinned value 1):")
for family in ("AG", "EAG", "CAG"):
    for n in (4, 5):
        G = build_family(family, n)
        S = canonical_cut(family, n, 1)
        r = cut_ratio(G, S, description=f"{family} block")
        print(
            f"  {family}_{n}: |S| = {r.subset_size:>3}, boundary {r.boundary:>4}, "
            f"ratio {str(r.ratio):>3}, bracket {tuple(map(str, corollary_bounds(family, n)))}"
        )

print()
print("exact minima on the order-12 graphs (2^11 - 1 proper splits each):")
for family in ("AG", "EAG", "CAG"):
    G = build_family(family, 4)
    h, witness = brute_force_h(G)
    mu = dense_spectrum(G).gap
    lower, upper = cheeger_bounds(mu, G.degree)
    print(
        f"  h({family}_4) = {h} attained by {witness}; "
        f"spectral bracket [{lower:.4f}, {upper:.4f}]"
    )

print()
print("boundary symmetry: a set and its complement cut the same edges")
G = build_family("AG", 4)
S = list(range(5))
comp = list(range(5, 12))
print(f"  |bd S| = {boundary_size(G, S)}, |bd complement| = {boundary_size(G, comp)}")
