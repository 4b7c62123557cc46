#!/usr/bin/env python3
"""Equitable partitions and their divisor matrices.

Pinning where a value i sits splits the vertices into blocks with constant
neighbor counts between them.  The resulting small matrix (the divisor
matrix) has a closed form per family, and its eigenvalues all reappear in
the full graph spectrum.
"""

import numpy as np

from altspectra import (
    Quotient,
    VertexPartition,
    blocks_AG,
    blocks_Xij,
    build_family,
    check_equitable,
    dense_spectrum,
    divisor_closed_form,
    divisor_spectrum,
)

n = 5
G = build_family("AG", n)
P = blocks_AG(n, 1)
print(f"AG_{n} split by the blocks {P.labels}, sizes {P.sizes()}")
Q = check_equitable(G, P)
assert isinstance(Q, Quotient)
print("counted divisor matrix:")
print(np.array(Q.B))
print("closed form:")
print(np.array(divisor_closed_form("AG", n).B))
print("eigenvalues:", divisor_spectrum(Q))

print()
E = build_family("EAG", 4)
Q = check_equitable(E, blocks_Xij(4, i=2))
assert isinstance(Q, Quotient)
print("EAG_4 with the value 2 pinned per position:")
print(np.array(Q.B))
print("eigenvalues:", divisor_spectrum(Q))

print()
print("an arbitrary split is almost never equitable:")
rng = np.random.default_rng(1)
block_of = np.ones(12, dtype=np.int32)  # vertex v lies in block block_of[v]
block_of[rng.choice(12, size=5, replace=False)] = 0
witness = check_equitable(E, VertexPartition(block_of=block_of, labels=("A", "B")))
print(f"  {witness}")

print()
print("every divisor eigenvalue lifts into the graph spectrum (AG_5):")
graph_vals = np.asarray(dense_spectrum(G).eigenvalues)
for mu in divisor_spectrum(check_equitable(G, P)):
    nearest = graph_vals[np.abs(graph_vals - mu).argmin()]
    print(f"  divisor {mu:+.6f} -> nearest graph eigenvalue {nearest:+.6f}")
