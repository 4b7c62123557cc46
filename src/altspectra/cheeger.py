"""Edge boundaries, canonical cuts, spectral bounds on the isoperimetric
number, and an exact brute-force oracle for small graphs.

Ratios are kept as exact fractions (integer boundary over integer side
size) so near-ties order correctly; floats appear only when reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from .cayley import PARTITION_LEAST, Graph, block_labels, check_family
from .errors import OrderCapError

# Largest order brute_force_h enumerates; fixed, since 2^59 subsets of A_5 are out of reach.
BRUTE_ORDER_CAP = 20


@dataclass(frozen=True)
class CutReport:
    subset_size: int
    boundary: int
    ratio: Fraction
    description: str

    def __post_init__(self):
        if self.subset_size <= 0:
            raise ValueError("cut subset must be nonempty and proper")

    def to_dict(self) -> dict:
        return {
            "subset_size": self.subset_size,
            "boundary": self.boundary,
            "ratio": str(self.ratio),
            "ratio_float": float(self.ratio),
            "description": self.description,
        }


def _subset_mask(G: Graph, S) -> np.ndarray:
    S = np.asarray(S, dtype=np.int64)
    if S.size and (S.min() < 0 or S.max() >= G.order):
        raise ValueError("subset contains out-of-range vertices")
    mask = np.bincount(S, minlength=G.order) > 0
    if not 0 < np.count_nonzero(mask) < G.order:
        raise ValueError("subset must be nonempty and proper")
    return mask


def _mask_boundary(G: Graph, masks: np.ndarray) -> np.ndarray:
    """Arcs out of each 0/1 mask on the first (vertex) axis: its degrees minus
    its neighbors inside, counted in the smallest signed type that holds the
    degree."""
    masks = masks.astype(np.min_scalar_type(-1 - G.degree), copy=False)
    return G.degree * masks.sum(0) - (G.gather_sum(masks) * masks).sum(0)


def boundary_size(G: Graph, S) -> int:
    """Number of edges with exactly one endpoint in S."""
    return int(_mask_boundary(G, _subset_mask(G, S)))


def cut_ratio(G: Graph, S, description: str = "subset") -> CutReport:
    mask = _subset_mask(G, S)
    size = int(mask.sum())
    boundary = int(_mask_boundary(G, mask))
    return CutReport(
        subset_size=size,
        boundary=boundary,
        ratio=Fraction(boundary, min(size, G.order - size)),
        description=description,
    )


def canonical_cut(family: str, n: int, i: int = 1) -> np.ndarray:
    """The family's distinguished block X(i), ascending: the vertices that
    :func:`altspectra.cayley.block_labels` labels i."""
    check_family(family, n, block=i)
    return np.flatnonzero(block_labels(family, n) == i)


def canonical_boundary(family: str, n: int) -> int:
    """Exact boundary size of the canonical cut: (n-1)!, (n-2)(n-1)! or
    (n-1)(n-2)(n-1)!/2."""
    check_family(family, n)
    if family == "AG":
        return factorial(n - 1)
    if family == "EAG":
        return (n - 2) * factorial(n - 1)
    return (n - 1) * (n - 2) * factorial(n - 1) // 2


def cheeger_bounds(mu: float, delta: float) -> tuple[float, float]:
    """Spectral bracket (mu/2, sqrt(mu(2*delta - mu))) on the isoperimetric
    number.

    The lower bound holds for any graph with at least two vertices; the
    upper bound fails only for K_1, K_2 and K_3, which callers must exclude
    themselves.
    """
    if mu < 0 or mu > 2 * delta:
        raise ValueError(f"algebraic connectivity {mu} outside [0, {2 * delta}]")
    return (mu / 2, sqrt(mu * (2 * delta - mu)))


def corollary_bounds(family: str, n: int) -> tuple[Fraction, Fraction]:
    """Exact rational bracket on the isoperimetric number of each family (AG from n = 4)."""
    check_family(family, n, PARTITION_LEAST)
    if family == "AG":
        return (Fraction(1), Fraction(2))
    if family == "EAG":
        return (Fraction(2 * n - 3, 2), Fraction(2 * n - 4))
    return (Fraction(n * n - 2 * n, 2), Fraction(n * n - 3 * n + 2))


def _check_brute_order(order: int) -> None:
    if order > BRUTE_ORDER_CAP:
        raise OrderCapError(f"order {order} above the fixed brute-force cap {BRUTE_ORDER_CAP}")


def brute_force_h(G: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact isoperimetric number by exhaustion, with a minimizing subset.

    Evaluates the boundary of every proper subset containing vertex 0 (each
    {S, complement} pair has exactly one such representative) in one batched
    pass.  Ties break toward the subset whose sorted index tuple is
    lexicographically least; that subset always contains vertex 0, so the
    representative is also the lex-least member of its pair.
    """
    order = G.order
    _check_brute_order(order)
    if order < 2:
        raise ValueError("isoperimetric number needs at least two vertices")
    # Column r holds vertex 0 and the binary digits of r on vertices 1.., the
    # last column (every vertex) dropped; int8 keeps the masks at one byte an entry.
    masks = np.ones((order, 2 ** (order - 1) - 1), dtype=np.int8)
    masks[1:] = np.indices((2,) * (order - 1), dtype=np.int8).reshape(order - 1, -1)[:, :-1]
    boundary = _mask_boundary(G, masks)
    size = masks.sum(0)
    side = np.minimum(size, order - size)
    h = min(Fraction(int(boundary[side == d].min()), d) for d in range(1, order // 2 + 1))
    ties = masks[:, boundary * h.denominator == h.numerator * side].T == 1
    members = np.sort(np.where(ties, np.arange(order), order), axis=-1)
    members[members == order] = -1  # a tuple's proper prefix sorts before it
    witness = members[np.lexsort(members.T[::-1])[0]]
    return h, tuple(witness[witness >= 0].tolist())
