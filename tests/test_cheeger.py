import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from altspectra.cayley import Graph, block_labels
from altspectra.cheeger import (
    boundary_size,
    brute_force_h,
    canonical_boundary,
    canonical_cut,
    cheeger_bounds,
    corollary_bounds,
    cut_ratio,
)
from altspectra.errors import OrderCapError
from altspectra.spectra import dense_spectrum


def _circulant(order, *steps):
    v = np.arange(order)
    return Graph(perms=np.array([(v + s) % order for t in steps for s in (t, -t)], dtype=np.int32))


def _boundary_via_edge_filter(G, S):
    inside = set(int(v) for v in np.asarray(S).ravel())
    return sum(1 for u, v in G.edges_array() if (int(u) in inside) != (int(v) in inside))


def test_boundary_sizes_of_canonical_cuts(graph):
    assert boundary_size(graph("AG", 4), canonical_cut("AG", 4, 1)) == 6
    assert boundary_size(graph("EAG", 4), canonical_cut("EAG", 4, 1)) == 12
    assert boundary_size(graph("CAG", 4), canonical_cut("CAG", 4, 1)) == 18


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_canonical_cut_is_a_label_class(family, n):
    labels = block_labels(family, n)
    for i in range(1, n + 1):
        assert np.array_equal(canonical_cut(family, n, i), np.flatnonzero(labels == i))


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5])
def test_boundary_matches_formula_and_edge_filter(graph, family, n):
    G = graph(family, n)
    S = canonical_cut(family, n, 1)
    b = boundary_size(G, S)
    assert b == canonical_boundary(family, n)
    assert b == _boundary_via_edge_filter(G, S)


def test_boundary_is_symmetric_under_complement(graph):
    G = graph("EAG", 4)
    rng = random.Random(5)
    for _ in range(10):
        size = rng.randrange(1, G.order)
        S = rng.sample(range(G.order), size)
        comp = sorted(set(range(G.order)) - set(S))
        assert boundary_size(G, S) == boundary_size(G, comp)


def test_cut_ratio_counts_the_boundary_of_its_subset(graph):
    G = graph("CAG", 5)
    rng = random.Random(9)
    for _ in range(10):
        # Repeated and unsorted members: the subset is their set.
        S = rng.choices(range(G.order), k=rng.randrange(1, G.order))
        size = len(set(S))
        report = cut_ratio(G, S)
        assert (report.subset_size, report.boundary) == (size, boundary_size(G, S))
        assert report.ratio == Fraction(report.boundary, min(size, G.order - size))


def test_boundary_rejects_improper_subsets(graph):
    G = graph("AG", 4)
    with pytest.raises(ValueError):
        boundary_size(G, [])
    with pytest.raises(ValueError):
        boundary_size(G, list(range(12)))


@pytest.mark.parametrize(
    "family,expected",
    [("AG", lambda n: 2), ("EAG", lambda n: 2 * n - 4), ("CAG", lambda n: n * n - 3 * n + 2)],
)
@pytest.mark.parametrize("n", [4, 5])
def test_canonical_cut_ratios(graph, family, expected, n):
    G = graph(family, n)
    report = cut_ratio(G, canonical_cut(family, n, 1), description="canonical")
    assert report.ratio == Fraction(expected(n))


def test_cheeger_bounds_values():
    lower, upper = cheeger_bounds(2, 4)
    assert lower == 1.0
    assert upper == pytest.approx(12 ** 0.5)
    assert cheeger_bounds(0, 5) == (0.0, 0.0)
    lower, upper = cheeger_bounds(2 * 5 - 3, (5 - 1) * (5 - 2))
    assert (lower, upper) == (3.5, pytest.approx((7 * 17) ** 0.5))
    with pytest.raises(ValueError):
        cheeger_bounds(-1, 4)
    with pytest.raises(ValueError):
        cheeger_bounds(9, 4)


def test_brute_force_K3(graph):
    h, witness = brute_force_h(graph("AG", 3))
    assert h == Fraction(2)
    assert witness == (0,)


def test_brute_force_K2():
    from altspectra.cayley import Graph

    K2 = Graph(perms=np.array([[1, 0]], dtype=np.int32))
    h, witness = brute_force_h(K2)
    assert h == Fraction(1)
    assert witness == (0,)


def test_brute_force_AG4_frozen_value(graph):
    # Exhaustion over the 2^11 - 1 proper splits; value pinned from the
    # independent enumeration below.
    h, witness = brute_force_h(graph("AG", 4))
    assert h == Fraction(4, 3)
    assert witness == (0, 1, 3, 5, 7, 9)
    assert Fraction(1) <= h <= Fraction(2)


HAND_MADE = {
    "C10(1,3)": _circulant(10, 1, 3),
    "C13(1,5)": _circulant(13, 1, 5),
    # A 4-cycle whose edges 0-1 and 2-3 are doubled.
    "C4 doubled": Graph(perms=np.array([[1, 2, 3, 0], [3, 0, 1, 2], [1, 0, 3, 2]], dtype=np.int32)),
    # Degree 128: a neighbor count of 128 leaves int8.
    "matching x128": Graph(perms=np.tile(np.array([1, 0, 3, 2], dtype=np.int32), (128, 1))),
}


def _graph(graph, name):
    if name in HAND_MADE:
        return HAND_MADE[name]
    family, n = name.split("_")
    return graph(family, int(n))


@pytest.mark.parametrize("name", ["AG_4", "EAG_4", "CAG_4", "C10(1,3)", "C13(1,5)"])
def test_brute_force_matches_plain_enumeration(graph, name):
    """Every subset holding vertex 0, one per {S, complement} pair; ties go
    to the lexicographically least sorted tuple."""
    G = _graph(graph, name)
    edges = [tuple(map(int, e)) for e in G.edges_array()]
    best = None
    for size in range(1, G.order):
        for rest in combinations(range(1, G.order), size - 1):
            S = (0, *rest)
            inside = set(S)
            bnd = sum(1 for u, v in edges if (u in inside) != (v in inside))
            candidate = (Fraction(bnd, min(size, G.order - size)), S)
            if best is None or candidate < best:
                best = candidate
    assert brute_force_h(G) == best


def test_brute_force_cap(graph):
    with pytest.raises(OrderCapError):
        brute_force_h(graph("AG", 5))


def test_brute_force_memory_at_the_cap():
    G = _circulant(20, 1, 9)
    tracemalloc.start()
    try:
        brute_force_h(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6  # one (2^19, 20) int64 temporary alone is 84 MB


WITNESSES = {
    "EAG_4": (Fraction(8, 3), (0, 1, 3, 4, 6, 9)),
    "C4 doubled": (Fraction(1), (0, 1)),
    "matching x128": (Fraction(0), (0, 1)),
}


@pytest.mark.parametrize("name", list(WITNESSES))
def test_brute_force_witness_boundary_consistent(graph, name):
    G = _graph(graph, name)
    h, witness = brute_force_h(G)
    size = len(witness)
    assert Fraction(boundary_size(G, list(witness)), min(size, G.order - size)) == h
    assert cut_ratio(G, list(witness)).ratio == h
    assert (h, witness) == WITNESSES[name]


@pytest.mark.parametrize(
    "family,n,expected",
    [
        ("AG", 6, (Fraction(1), Fraction(2))),
        ("EAG", 6, (Fraction(9, 2), Fraction(8))),
        ("CAG", 6, (Fraction(12), Fraction(20))),
    ],
)
def test_corollary_bounds(family, n, expected):
    assert corollary_bounds(family, n) == expected


def test_corollary_bounds_reject_small_n():
    with pytest.raises(ValueError):
        corollary_bounds("AG", 3)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_spectral_bracket_contains_exact_h(graph, family):
    G = graph(family, 4)
    h, _ = brute_force_h(G)
    mu = dense_spectrum(G).gap
    lower, upper = cheeger_bounds(mu, G.degree)
    assert float(h) >= lower - 1e-9
    assert float(h) <= upper + 1e-9
