"""Vertex block families, the equitable-partition check, and divisor matrices.

A partition of the vertex set is stored as one block index per vertex
(``VertexPartition.block_of``), the characteristic-matrix view of Godsil and
Royle, *Algebraic Graph Theory*, ch. 9, which cannot express overlapping or
uncovered vertices.  It is equitable when the number of neighbors a vertex
has in each block depends only on the vertex's own block.  The k x k matrix
B of those counts, kept with the block sizes in a :class:`Quotient`, is the
divisor matrix: A C = C B, so each eigenvalue of B is one of the graph's.
:func:`check_equitable` counts those neighbors from one-hot block rows in
one pass over the graph's rows, whatever the number of blocks.

Block families used throughout, all read from the image tuples of the
ranked vertices of A_n:

- ``blocks_AG(n, i)``: the four blocks {g_n = i}, {g_1 = i}, {g_2 = i} and
  the rest, labelled X(i), Y(i), Z(i), W(i).
- ``blocks_Xij(n, i=...)``: the n blocks {g : g_1 = i}, ..., {g : g_n = i}
  that pin where the value i sits (equitable for AG_n, EAG_n and CAG_n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, factorial

import numpy as np

from .cayley import PARTITION_LEAST, Graph, check_block, check_family
from .perm import alternating_images


@dataclass(frozen=True)
class VertexPartition:
    """Vertex v lies in the block labelled ``labels[block_of[v]]``."""

    block_of: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        b = np.asarray(self.block_of)
        if b.ndim != 1 or b.dtype.kind not in "biu":
            raise ValueError("block_of must hold one block index per vertex, as integers")
        if b.size and (b.min() < 0 or b.max() >= self.k):
            raise ValueError(f"block index outside 0..{self.k - 1}")
        if np.bincount(b, minlength=self.k).min(initial=1) == 0:
            raise ValueError("empty block in partition")
        b = b.astype(np.int32, copy=False)
        b.setflags(write=False)
        object.__setattr__(self, "block_of", b)

    @property
    def k(self) -> int:
        return len(self.labels)

    def sizes(self) -> tuple[int, ...]:
        return tuple(int(s) for s in np.bincount(self.block_of, minlength=self.k))


@dataclass(frozen=True)
class Quotient:
    """An equitable partition's block sizes and divisor matrix B, in Python ints: a
    vertex of block r has ``B[r][c]`` neighbors in block c.  ``root`` is the
    index of vertex 0's block when that block is {0} alone, else None."""

    sizes: tuple[int, ...]
    B: tuple[tuple[int, ...], ...]
    root: int | None = None

    def __post_init__(self):
        B = tuple(tuple(map(int, row)) for row in self.B)
        if any(len(row) != len(B) for row in B) or len(self.sizes) != len(B):
            raise ValueError("a quotient needs a square B with one size per block")
        object.__setattr__(self, "sizes", tuple(map(int, self.sizes)))
        object.__setattr__(self, "B", B)

    def certify(self, spectrum: dict[int, int]) -> dict[str, bool]:
        """``annihilated``: prod (A - theta) e_0 = 0; ``moments_match``: N (A^k)_00
        = sum m theta^k for k < len(spectrum), N = sum(sizes).  Both read
        A^k e_0 = C B^k e_root off B alone, in Python ints; with no root, neither holds."""
        if self.root is None:
            return {"annihilated": False, "moments_match": False}
        B, e, N = np.array(self.B, dtype=object), self.root, sum(self.sizes)
        killed = walk = np.eye(len(B), dtype=object)[e]
        moments_match = True
        for power, theta in enumerate(spectrum):
            moments_match &= N * walk[e] == sum(x * t**power for t, x in spectrum.items())
            killed, walk = B @ killed - theta * killed, B @ walk
        return {"annihilated": not killed.any(), "moments_match": moments_match}


@dataclass(frozen=True)
class EquitableWitness:
    """Two same-block vertices with different neighbor counts toward a block."""

    block_index: int
    block_label: str
    target_index: int
    target_label: str
    vertex_a: int
    vertex_b: int
    count_a: int
    count_b: int

    def __str__(self) -> str:
        return (
            f"vertices {self.vertex_a} and {self.vertex_b} of block "
            f"{self.block_label} have {self.count_a} vs {self.count_b} "
            f"neighbors in block {self.target_label}"
        )


def _value_positions(n: int, i: int) -> np.ndarray:
    """Zero-based position of the value i in every vertex's image tuple."""
    return (alternating_images(n) == i).argmax(axis=1)


def blocks_AG(n: int, i: int) -> VertexPartition:
    """The four-block partition pinning where the value i appears."""
    check_family("AG", n, PARTITION_LEAST, block=i)
    block_at = np.full(n, 3, dtype=np.int32)
    block_at[[n - 1, 0, 1]] = 0, 1, 2
    return VertexPartition(
        block_of=block_at[_value_positions(n, i)],
        labels=(f"X({i})", f"Y({i})", f"Z({i})", f"W({i})"),
    )


def blocks_Xij(n: int, *, i: int) -> VertexPartition:
    """The n blocks X_i(1), ..., X_i(n) by the position holding the value i;
    every block has (n-1)!/2 vertices."""
    if n < 3:
        raise ValueError(f"partitions need n >= 3, got {n}")
    check_block(n, i)
    return VertexPartition(
        block_of=_value_positions(n, i),
        labels=tuple(f"X_{i}({j})" for j in range(1, n + 1)),
    )


def check_equitable(G: Graph, P: VertexPartition) -> Quotient | EquitableWitness:
    """The quotient by P when P is equitable, else the first counterexample.

    Each vertex holds the one-hot row of its block, padded with zero columns
    to a multiple of 8 (a record size numpy's take copies fast), and one
    :meth:`Graph.gather_sum` pass adds those rows over its neighbors: v's
    count in block t is ``counts[v, t]``.  The counterexample is the lowest
    vertex whose counts differ from the lowest vertex of its own block; ties
    on the vertex break by the lowest target block.
    """
    block_of = P.block_of
    if block_of.size != G.order:
        raise ValueError(f"partition labels {block_of.size} vertices, graph has {G.order}")
    if not P.k:
        raise ValueError("partition has no blocks")
    width = -(-P.k // 8) * 8
    onehot = np.eye(P.k, width, dtype=np.min_scalar_type(G.degree))
    counts = G.gather_sum(onehot.take(block_of, axis=0))
    _, lowest = np.unique(block_of, return_index=True)
    differs = (counts != counts.take(lowest.take(block_of), axis=0)).ravel()
    first = int(differs.argmax())  # row-major: the lowest vertex, then its lowest block
    if differs[first]:
        v, t = divmod(first, width)
        b, u = int(block_of[v]), int(lowest[block_of[v]])
        return EquitableWitness(b, P.labels[b], t, P.labels[t], u, v, *counts[[u, v], t].tolist())
    sizes, b0 = P.sizes(), int(block_of[0])
    return Quotient(sizes, counts[lowest, : P.k].tolist(), b0 if sizes[b0] == 1 else None)


def divisor_closed_form(family: str, n: int) -> Quotient:
    """Each family's quotient by its defining blocks as a formula in n (AG from
    n = 4): (n-1)!/2 vertices a block, (n-3) times that in AG's W."""
    check_family(family, n, PARTITION_LEAST)
    size = factorial(n - 1) // 2
    if family == "AG":
        B = [2 * n - 6, 1, 1, 0], [1, 0, n - 2, n - 3], [1, n - 2, 0, n - 3], [0, 1, 1, 2 * n - 6]
        return Quotient((size, size, size, (n - 3) * size), B)
    if family == "EAG":
        B = np.full((n, n), 1)
        B[0] = B[:, 0] = n - 2
        np.fill_diagonal(B, (n - 2) * (n - 3))
        B[0, 0] = 0
    else:
        B = np.full((n, n), n - 2)
        np.fill_diagonal(B, 2 * comb(n - 1, 3))
    return Quotient((size,) * n, B)


def divisor_eigenvalues_closed_form(family: str, n: int) -> list[int]:
    """Eigenvalues of the closed-form divisor matrix, descending with
    multiplicity (AG from n = 4)."""
    check_family(family, n, PARTITION_LEAST)
    if family == "AG":
        return [2 * n - 4, 2 * n - 6, n - 4, 2 - n]
    if family == "EAG":
        return [(n - 1) * (n - 2)] + [n * n - 5 * n + 5] * (n - 2) + [2 - n]
    return [2 * comb(n, 3)] + [n * (n - 2) * (n - 4) // 3] * (n - 1)


def divisor_spectrum(Q: Quotient) -> list[int]:
    """The integer eigenvalues of Q's divisor matrix B, descending with multiplicity.

    det(xI - B) comes from Faddeev-LeVerrier in Python ints (each division
    is exact); its integer roots are divided out by Horner, scanning from
    the largest absolute row sum r (Gershgorin) down to -r.  A root that is
    not an integer is left out, so the list is then shorter than k.
    """
    A, eye = np.array(Q.B, dtype=object), np.eye(len(Q.B), dtype=object)
    poly, AM = [1], 0 * eye
    for m in range(1, len(Q.B) + 1):
        AM = A @ (AM + poly[-1] * eye)
        poly.append(-AM.trace() // m)
    r = max((sum(map(abs, row)) for row in Q.B), default=0)
    roots, theta = [], r
    while len(poly) > 1 and theta >= -r:
        *quotient, remainder = accumulate(poly, lambda acc, c: acc * theta + c)
        if remainder:
            theta -= 1
        else:
            poly = quotient
            roots.append(theta)
    return roots
