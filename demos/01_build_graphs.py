#!/usr/bin/env python3
"""Build the three graph families and inspect their basic shape.

AG_n, EAG_n and CAG_n all live on the n!/2 even permutations of {1..n};
they differ only in which 3-cycles generate the edges.  Degrees are
2n-4, (n-1)(n-2) and 2*C(n,3), and every graph is connected.
"""

from altspectra import build_family, export_edges, is_connected
from altspectra.cayley import generating_set

print("generating sets at n = 5")
for family in ("AG", "EAG", "CAG"):
    gens = generating_set(family, 5)
    shown = ", ".join(str(g) for g in gens.elements[:4])
    print(f"  {family}: {gens.size} elements, e.g. {shown}, ...")

print()
print(f"{'graph':>8} {'order':>7} {'degree':>7} {'edges':>8} {'connected':>10}")
for family in ("AG", "EAG", "CAG"):
    for n in (3, 4, 5, 6):
        G = build_family(family, n)
        print(
            f"{family + '_' + str(n):>8} {G.order:>7} {G.degree:>7} "
            f"{G.edge_count:>8} {str(is_connected(G)):>10}"
        )

print()
print("AG_3 is the triangle: every pair of vertices is adjacent.")
G = build_family("AG", 3)
for v in range(G.order):
    print(f"  vertex {v}: neighbors {sorted(int(u) for u in G.perms[:, v])}")

export_edges(build_family("AG", 4), "/tmp/ag4_edges.txt")
print()
print("edge list of AG_4 written to /tmp/ag4_edges.txt (u v pairs, 0-based ranks)")
