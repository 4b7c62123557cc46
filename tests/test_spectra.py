import dataclasses
import json
import random
import warnings
from collections import Counter
from fractions import Fraction
from math import factorial, lcm, prod

import numpy as np
import pytest

from conftest import adjacency
from altspectra.cayley import FAMILIES, GeneratingSet, Graph, build_cayley, build_family, export_edges
from altspectra.cheeger import canonical_cut
from altspectra.errors import ConvergenceError, OrderCapError
from altspectra.partition import EquitableWitness, Quotient
from altspectra import cayley, spectra
from altspectra.perm import from_cycle, parse_generator_list
from test_partition import assert_quotient_invariants
from test_verify import _doctorings, _random_swaps, _swap_arcs
from altspectra.spectra import (
    SpectrumReport,
    certify_spectrum,
    dense_spectrum,
    exact_spectrum,
    gap_report,
    integrality_check,
    lambda2_iterative,
    predicted,
)


def _rayleigh(G, f):
    """Quotient f^T A f / f^T f for a vertex-indexed vector."""
    return float(f @ G.matvec(f)) / float(f @ f)


def test_dense_AG4_distinct_values(graph):
    rep = dense_spectrum(graph("AG", 4))
    ends = np.cumsum([0, *rep.multiplicities])
    distinct = [np.mean(rep.eigenvalues[a:b]) for a, b in zip(ends[:-1], ends[1:])]
    assert np.allclose(distinct, [4, 2, 0, -2], atol=1e-8)
    # multiplicity of the degree eigenvalue is 1, the rest carry 11
    assert rep.multiplicities[0] == 1
    assert sum(rep.multiplicities[1:]) == 11


def _clusters_by_loop(values_desc, threshold):
    """Run lengths of consecutive values closer than ``threshold``."""
    runs = [1]
    for a in range(1, len(values_desc)):
        if values_desc[a - 1] - values_desc[a] < threshold:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n,tol", [(3, 1e-8), (4, 1e-8), (5, 1e-8), (5, 0.02), (5, 1e-13)])
def test_dense_multiplicities_match_loop_clustering(graph, family, n, tol):
    # tol bounds only the residual: the clusters break at the fixed gap.
    rep = dense_spectrum(graph(family, n), tol=tol)
    assert list(rep.multiplicities) == _clusters_by_loop(rep.eigenvalues, spectra.CLUSTER_GAP)
    assert rep.multiplicities == dense_spectrum(graph(family, n)).multiplicities
    # Clusters that merge distinct values still list each value itself.
    expected = np.linalg.eigvalsh(adjacency(graph(family, n)))[::-1]
    assert np.abs(np.array(rep.eigenvalues) - expected).max() < 1e-9


def test_dense_K3(graph):
    rep = dense_spectrum(graph("AG", 3))
    assert np.allclose(rep.eigenvalues, [2, -1, -1], atol=1e-10)
    assert rep.gap == pytest.approx(3.0, abs=1e-10)


def test_dense_spectrum_sums_to_zero(graph):
    for family in ("AG", "EAG", "CAG"):
        rep = dense_spectrum(graph(family, 4))
        assert abs(sum(rep.eigenvalues)) < rep.order * 1e-8
        assert min(rep.eigenvalues) >= -rep.degree - 1e-8


def test_dense_residuals_within_tolerance(graph):
    G = graph("EAG", 4)
    A = adjacency(G)
    vals, vecs = np.linalg.eigh(A)
    resid = np.linalg.norm(A @ vecs - vecs * vals, axis=0).max()
    assert resid <= 1e-8 * G.degree


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_dense_spectrum_matches_exact_spectrum(graph, family, n):
    rep = dense_spectrum(graph(family, n))
    ends = np.cumsum([0, *rep.multiplicities])
    values = [rep.eigenvalues[a] for a in ends[:-1]]
    assert {round(v): m for v, m in zip(values, rep.multiplicities)} == exact_spectrum(family, n)
    assert max(abs(v - round(v)) for v in rep.eigenvalues) < 1e-9


def test_dense_spectrum_matches_the_oracle_on_a_low_symmetry_set():
    # A 3-cycle and a 5-cycle at n = 6: an irrational spectrum, 33 blocks.
    gens = [from_cycle(6, c) for c in ([1, 2, 3], [1, 3, 2], [1, 2, 3, 4, 5], [1, 5, 4, 3, 2])]
    G = build_cayley(6, GeneratingSet(6, tuple(gens)))
    expected = np.linalg.eigvalsh(adjacency(G))[::-1]
    rep = dense_spectrum(G)
    assert np.abs(np.array(rep.eigenvalues) - expected).max() < 1e-9
    assert list(rep.multiplicities) == _clusters_by_loop(expected, 100 * 1e-8)
    assert len(rep.multiplicities) > 10 and rep.tolerance < 1e-12


def test_dense_spectrum_refuses_graphs_that_are_no_cayley_graph_on_A_n(graph):
    with pytest.raises(ValueError, match="left translations"):
        dense_spectrum(_swapped_AG5(graph))
    with pytest.raises(ValueError, match="left translations"):
        dense_spectrum(_circulant7())


def test_dense_spectrum_fails_loudly(graph, monkeypatch):
    with pytest.raises(ConvergenceError, match="residual"):
        dense_spectrum(graph("EAG", 5), tol=1e-30)
    # K_4's quotient on the order-3 K_3 gives multiplicities 3/4 and 9/4.
    monkeypatch.setattr(spectra, "_refine", lambda G: Quotient((1, 3), ((0, 3), (1, 2)), root=0))
    with pytest.raises(ConvergenceError, match="not positive integers"):
        dense_spectrum(graph("AG", 3))


def _AG4_with_entry(value):
    """AG_4's rows made by hand, as int32, with one entry set to ``value``."""
    perms = build_family("AG", 4).perms.astype(np.int32)
    perms[0, 5] = value
    return Graph(perms=perms)


@pytest.mark.parametrize("value", [99, 12, -1, -13])
def test_rows_that_hold_a_non_vertex_fail_typed(value):
    # An entry outside 0..order-1 is no vertex: the graph is refused when it
    # is built, so no certificate or dense solve ever meets such rows.
    with pytest.raises(ValueError, match="perms name a vertex outside 0..11"):
        _AG4_with_entry(value)


def test_dense_order_cap(graph):
    # AG_8 (order 20,160) is the smallest family graph over the fixed cap.
    with pytest.raises(OrderCapError, match="fixed dense cap"):
        dense_spectrum(graph("AG", 8))


@pytest.mark.parametrize(
    "family,n,expected",
    [("AG", 5, 4.0), ("EAG", 5, 5.0), ("CAG", 5, 5.0), ("AG", 4, 2.0), ("EAG", 4, 1.0), ("CAG", 4, 0.0)],
)
def test_lambda2_iterative_matches_closed_form(graph, family, n, expected):
    assert lambda2_iterative(graph(family, n), tol=1e-8) == pytest.approx(expected, abs=1e-7)


@pytest.mark.parametrize("family,n,expected", [("AG", 6, 2.0), ("EAG", 6, 9.0), ("CAG", 6, 24.0)])
def test_spectral_gap(graph, family, n, expected):
    G = graph(family, n)
    assert G.degree - lambda2_iterative(G, tol=1e-8) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_dense_and_iterative_agree(graph, family, n):
    G = graph(family, n)
    dense = dense_spectrum(G).lambda2
    iterative = lambda2_iterative(G, tol=1e-8)
    assert abs(dense - iterative) < 1e-6


def test_a_graph_made_by_hand_reports_family_custom(tmp_path):
    # The built AG_4 is solved on the pairs {g, g*k} and its copy by hand on
    # its vertices, so their lambda2 (the gap report's second eigenvalue)
    # and gap may differ in the last bits.
    built = build_family("AG", 4)
    by_hand = Graph(perms=built.perms)
    for report in (gap_report, dense_spectrum):
        want = {**report(built).to_dict(), "family": "custom", "n": None}
        got = report(by_hand).to_dict()
        for key in ("lambda2", "gap", "eigenvalues"):
            assert got.pop(key) == pytest.approx(want.pop(key), abs=1e-12)
        assert got == want
    export_edges(by_hand, tmp_path / "edges.txt")
    header = (tmp_path / "edges.txt").read_text().splitlines()[0]
    assert header == "# family=custom n=None order=12 degree=4"


def test_predicted_values():
    assert predicted("AG", 7) == (10, 8, 2)
    assert predicted("EAG", 7) == (30, 19, 11)
    assert predicted("CAG", 7) == (70, 35, 35)
    assert predicted("AG", 3) == (2, -1, 3)
    assert predicted("EAG", 3) == (2, -1, 3)
    assert predicted("CAG", 3) == (2, -1, 3)
    with pytest.raises(ValueError):
        predicted("AG", 2)


@pytest.mark.parametrize("n", [4, 5])
def test_CAG_spectrum_is_integral(graph, n):
    ok, worst = integrality_check(dense_spectrum(graph("CAG", n)))
    assert ok and worst < 1e-8


def test_integrality_check_rejects_halves():
    rep = SpectrumReport(
        family=None, n=None, order=2, degree=1, solver="dense", tolerance=0.0,
        seed=None, eigenvalues=(1.5, -0.5), multiplicities=(1, 1),
        lambda1=1.5, lambda2=-0.5, gap=2.0,
    )
    ok, worst = integrality_check(rep)
    assert not ok and worst == pytest.approx(0.5)


def test_divisor_values_appear_in_AG_spectrum(graph):
    for n in (4, 5):
        vals = np.asarray(dense_spectrum(graph("AG", n)).eigenvalues)
        for target in (2 * n - 4, 2 * n - 6, n - 4, 2 - n):
            assert np.abs(vals - target).min() < 1e-6


@pytest.mark.parametrize("n", [4, 5])
def test_EAG_second_value_multiplicity(graph, n):
    vals = np.asarray(dense_spectrum(graph("EAG", n)).eigenvalues)
    target = n * n - 5 * n + 5
    assert np.count_nonzero(np.abs(vals - target) < 1e-6) >= n - 2


@pytest.mark.parametrize("n", [4, 5])
def test_CAG_second_value_multiplicity(graph, n):
    vals = np.asarray(dense_spectrum(graph("CAG", n)).eigenvalues)
    target = n * (n - 2) * (n - 4) // 3
    assert np.count_nonzero(np.abs(vals - target) < 1e-6) >= n - 1


def test_rayleigh_all_ones(graph):
    G = graph("AG", 4)
    assert _rayleigh(G, np.ones(G.order)) == pytest.approx(4.0, abs=1e-12)


def test_rayleigh_reproduces_eigenvalues(graph):
    G = graph("EAG", 4)
    vals, vecs = np.linalg.eigh(adjacency(G))
    for k in (0, 3, G.order - 1):
        assert _rayleigh(G, vecs[:, k]) == pytest.approx(vals[k], abs=1e-10)


def test_rayleigh_of_centered_block_indicator_is_bounded(graph):
    G = graph("AG", 4)
    f = np.zeros(G.order)
    f[canonical_cut("AG", 4, 1)] = 1.0
    f -= f.mean()
    lam2 = dense_spectrum(G).lambda2
    assert _rayleigh(G, f) <= lam2 + 1e-8


def test_lambda2_flags_disconnected_graph():
    gens = GeneratingSet(4, (from_cycle(4, [1, 2, 3]), from_cycle(4, [1, 3, 2])))
    G = build_cayley(4, gens)
    with pytest.warns(UserWarning, match="disconnected"):
        lam2 = lambda2_iterative(G, tol=1e-8)
    assert lam2 == pytest.approx(2.0, abs=1e-7)


def test_lambda2_iteration_cap(graph, monkeypatch):
    monkeypatch.setattr(spectra, "ITERATION_CAP", 2)
    with pytest.raises(ConvergenceError) as exc:
        lambda2_iterative(graph("AG", 5), tol=1e-12)
    assert exc.value.residual is not None


def test_lambda2_deterministic_per_seed(graph):
    G = graph("EAG", 5)
    a = lambda2_iterative(G, seed=7)
    b = lambda2_iterative(G, seed=7)
    c = lambda2_iterative(G, seed=8)
    assert a == b
    assert a == pytest.approx(c, abs=1e-7)


def _splitmix64(x):
    """Reference SplitMix64 finalizer in Python integers."""
    x %= 2**64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    x = (x ^ x >> 27) * 0x94D049BB133111EB % 2**64
    return x ^ x >> 31


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1, 2**63, 10**30])
def test_start_vector_is_splitmix64_of_the_seed(seed):
    v = spectra._start_vector(40, seed)
    again = spectra._start_vector(40, seed)
    assert v.tobytes() == again.tobytes()
    assert v.min() >= -1.0 and v.max() < 1.0
    expected = [(_splitmix64(seed * 0x9E3779B97F4A7C15 + i) >> 11) * 2.0**-52 - 1 for i in range(40)]
    assert v.tolist() == expected


def test_start_vectors_differ_between_seeds():
    vectors = {spectra._start_vector(360, seed).tobytes() for seed in range(64)}
    assert len(vectors) == 64


def test_lambda2_rejects_a_negative_seed(graph):
    with pytest.raises(ValueError, match="non-negative"):
        lambda2_iterative(graph("AG", 4), seed=-1)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_lambda2_matches_closed_form_for_every_seed(graph, family, n):
    # A start vector with no lambda_2 component would converge, residual
    # and all, to a lower eigenvalue; only the closed form can tell.
    G = graph(family, n)
    for seed in range(32):
        assert lambda2_iterative(G, seed=seed) == pytest.approx(predicted(family, n)[1], abs=1e-8)


def test_report_json_schema(graph):
    rep = gap_report(graph("AG", 5))
    data = json.loads(json.dumps(rep.to_dict()))
    assert list(data) == [
        "family", "n", "order", "degree", "solver", "tolerance", "seed",
        "eigenvalues", "multiplicities", "lambda1", "lambda2", "gap",
    ]
    assert data["solver"] == "iterative"
    assert data["gap"] == pytest.approx(2.0, abs=1e-7)
    assert rep.gap == rep.degree - rep.lambda2


def _count_matvecs(monkeypatch):
    """Every product a solve makes, in order: "rows" for ``Graph.matvec`` (on
    G's rows, or on a built graph's rows folded onto the pairs), "stars" for
    the star-row product, folded or not."""
    calls = []
    matvec, star_matvec = Graph.matvec, cayley.star_matvec

    def counted(self, v, *args, **kwargs):
        calls.append("rows")
        return matvec(self, v, *args, **kwargs)

    def counted_stars(G, **fold):
        product = star_matvec(G, **fold)
        return product and (lambda *args: (calls.append("stars"), product(*args))[1])

    monkeypatch.setattr(Graph, "matvec", counted)
    monkeypatch.setattr(spectra, "star_matvec", counted_stars)
    monkeypatch.setattr(cayley, "star_matvec", counted_stars)
    return calls


def _solve_counts(monkeypatch, G):
    """The value, the row products and the certificate products of one
    solve: each Krylov step diagonalizes one tridiagonal matrix, and every
    product that is no Krylov step is a certificate."""
    calls, steps, eigh = _count_matvecs(monkeypatch), [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda T: (steps.append(1), eigh(T))[1])
    value = lambda2_iterative(G)
    monkeypatch.undo()
    return value, calls.count("rows"), len(calls) - len(steps)


def test_star_steps_leave_the_rows_to_the_certificate(monkeypatch):
    # On CAG_6's own rows in another order, every Krylov step takes the
    # star-row product and only the certificates read the rows.
    G = build_family("CAG", 6)
    control = Graph(_doctorings(G)["rows reordered"], n=6, family_tag="CAG")
    value, rows, certificates = _solve_counts(monkeypatch, control)
    assert value == pytest.approx(predicted("CAG", 6)[1], abs=1e-8)
    assert rows == certificates >= 1


def test_a_doctored_family_graph_is_solved_on_its_own_rows(monkeypatch):
    # The star-row product is CAG_6's, not the doctored rows'; their
    # certificate fails and the solve goes on with the rows, to the value
    # of the same rows solved as a graph made by hand.
    perms = _random_swaps(build_family("CAG", 6), random.Random(6), 20).perms
    tagged, rows, certificates = _solve_counts(monkeypatch, Graph(perms, n=6, family_tag="CAG"))
    assert rows > certificates
    assert tagged == pytest.approx(lambda2_iterative(Graph(perms)), abs=1e-8)


# The --gens sets of tools/argv_sweep.py: all of A_n's generators lie in A_4
# or A_3 for the first two, so at n >= 5 those graphs are disconnected.
SWEEP_GENS = (
    "(1,2,3),(1,3,2)",
    "(2,3,4),(2,4,3),(1,2)(3,4)",
    "(1,2,3),(1,3,2),(1,3,4),(1,4,3),(2,3,4),(2,4,3)",
)


def _distinct(values):
    """The distinct values of a sorted array, clusters within 1e-6 merged."""
    return np.array([c.mean() for c in np.split(values, np.flatnonzero(np.diff(values) > 1e-6) + 1)])


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("name", [*FAMILIES, *SWEEP_GENS])
def test_the_fold_keeps_every_distinct_eigenvalue(n, name):
    # On the vectors constant on each pair {g, g*k}, k = (1 2)(3 4), A is the
    # symmetric n!/4 x n!/4 matrix B, and every eigenvalue of A is one of B's.
    if name in FAMILIES:
        G = build_family(name, n)
    else:
        G = build_cayley(n, GeneratingSet(n, tuple(parse_generator_list(name, n))))
    product, coset_of = cayley.folded_matvec(G)
    m = G.order // 2
    assert np.array_equal(np.bincount(coset_of), np.full(m, 2))
    out, scratch = np.empty((2, m))
    B = np.stack([product(e, out, scratch).copy() for e in np.eye(m)], axis=1)
    assert np.array_equal(B, B.T)
    x = np.random.default_rng(n).standard_normal(m)  # B x is A x on the pairs
    assert np.allclose(G.matvec(x.take(coset_of)), (B @ x).take(coset_of))
    folded, full = _distinct(np.linalg.eigvalsh(B)), _distinct(np.linalg.eigvalsh(adjacency(G)))
    assert folded.shape == full.shape and np.allclose(folded, full, atol=1e-9)


def _krylov_steps(monkeypatch, G):
    """lambda2 and the Krylov steps of one solve, one tridiagonal eigh each."""
    steps, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda T: (steps.append(1), eigh(T))[1])
    value = lambda2_iterative(G)
    monkeypatch.undo()
    return value, len(steps)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_the_folded_solve_takes_the_steps_of_the_full_one(graph, monkeypatch, family, n):
    # The Krylov space is spent at the number of distinct eigenvalues, and
    # the fold keeps them all: half-length steps, as many of them.
    G = graph(family, n)
    assert cayley.folded_matvec(G)[1].size == G.order
    assert cayley.folded_matvec(Graph(G.perms)) is None
    folded, full = _krylov_steps(monkeypatch, G), _krylov_steps(monkeypatch, Graph(G.perms))
    assert folded[1] == full[1]
    assert folded[0] == pytest.approx(full[0], abs=1e-9)


def test_doctored_AG5_rows_are_solved_unfolded(graph):
    # Neither a replace of the build nor a hand-made copy with n set carries
    # the generating set, so neither folds the doctored rows: each solve
    # returns lambda2 of the rows it was given.
    built = graph("AG", 5)
    rows = _random_swaps(built, random.Random(5), 4).perms
    for G in (dataclasses.replace(built, perms=rows), Graph(rows, n=5, family_tag="AG")):
        assert G.gens is None and cayley.folded_matvec(G) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a doctored graph may fall apart
            value = lambda2_iterative(G)
        assert value == pytest.approx(np.linalg.eigvalsh(adjacency(G))[-2], abs=1e-9)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_lambda2_matches_dense_eigvalsh(graph, family, n):
    G = graph(family, n)
    expected = np.linalg.eigvalsh(adjacency(G))[-2]
    assert abs(lambda2_iterative(G) - expected) < 1e-9


def test_lambda2_custom_set_needs_restarts(monkeypatch):
    # An irrational second eigenvalue that takes more Lanczos steps than
    # one basis holds, so the solve goes through at least one restart.
    cycles = ([1, 2, 3], [1, 3, 2], [1, 2, 3, 4, 5, 6, 7], [1, 7, 6, 5, 4, 3, 2])
    G = build_cayley(7, GeneratingSet(7, tuple(from_cycle(7, c) for c in cycles)))
    expected = np.linalg.eigvalsh(adjacency(G))[-2]
    assert expected == pytest.approx(3.71161754263538, abs=1e-12)
    calls = _count_matvecs(monkeypatch)
    assert abs(lambda2_iterative(G) - expected) < 1e-9
    assert len(calls) > 32


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_lambda2_matvec_budget_at_n8(graph, monkeypatch, family):
    G = graph(family, 8)
    calls = _count_matvecs(monkeypatch)
    assert lambda2_iterative(G) == pytest.approx(predicted(family, 8)[1], abs=1e-8)
    assert len(calls) <= 25


def test_lambda2_respects_matvec_cap(graph, monkeypatch):
    calls = _count_matvecs(monkeypatch)
    monkeypatch.setattr(spectra, "ITERATION_CAP", 5)
    with pytest.raises(ConvergenceError):
        lambda2_iterative(graph("AG", 7), tol=1e-14)
    assert len(calls) == 5


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_lambda2_rejects_tol_that_is_not_positive_and_finite(graph, monkeypatch, tol):
    # Zero, negative and nan never pass the residual test, so the solve
    # would run to the matvec cap; inf would accept the first Ritz value.
    G = graph("AG", 6)
    calls = _count_matvecs(monkeypatch)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        lambda2_iterative(G, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        spectra.gap_report(G, tol=tol)
    assert calls == []


def test_lambda2_zero_on_CAG4(graph):
    assert abs(lambda2_iterative(graph("CAG", 4))) < 1e-12


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_spectrum_matches_eigvalsh(graph, family, n):
    values = np.rint(np.linalg.eigvalsh(adjacency(graph(family, n)))).astype(int)
    counts = Counter(values.tolist())
    assert exact_spectrum(family, n) == {theta: counts[theta] for theta in sorted(counts, reverse=True)}


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", range(3, 13))
def test_exact_spectrum_traces_and_top_two(family, n):
    spectrum = exact_spectrum(family, n)
    order = factorial(n) // 2
    degree, lambda2, _ = predicted(family, n)
    assert sum(spectrum.values()) == order
    assert sum(m * theta for theta, m in spectrum.items()) == 0
    assert sum(m * theta**2 for theta, m in spectrum.items()) == order * degree
    assert list(spectrum.items())[0] == (degree, 1)
    assert list(spectrum)[1] == lambda2
    assert list(spectrum) == sorted(spectrum, reverse=True)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_certify_spectrum_passes(graph, family, n):
    certificate = certify_spectrum(graph(family, n), exact_spectrum(family, n))
    assert certificate == {"left_invariant": True, "annihilated": True, "moments_match": True}


def test_certify_spectrum_passes_beyond_int64():
    # AG_9's highest compared moment needs 68 bits: int64 walk counts would
    # wrap there, while every moment up to n = 8 fits in 62 bits.
    spectrum = exact_spectrum("AG", 9)
    assert sum(m * theta ** (len(spectrum) - 1) for theta, m in spectrum.items()) > 2**63
    certificate = certify_spectrum(build_family("AG", 9), spectrum)
    assert certificate == {"left_invariant": True, "annihilated": True, "moments_match": True}


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_certify_spectrum_fails_without_one_eigenvalue(graph, family):
    spectrum = exact_spectrum(family, 5)
    for theta in spectrum:
        partial = {t: m for t, m in spectrum.items() if t != theta}
        certificate = certify_spectrum(graph(family, 5), partial)
        assert certificate["left_invariant"]
        assert not certificate["annihilated"]


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_certify_spectrum_fails_on_moved_multiplicity(graph, family):
    spectrum = exact_spectrum(family, 5)
    thetas = list(spectrum)
    moved = {**spectrum, thetas[1]: spectrum[thetas[1]] - 2, thetas[2]: spectrum[thetas[2]] + 2}
    certificate = certify_spectrum(graph(family, 5), moved)
    assert certificate == {"left_invariant": True, "annihilated": True, "moments_match": False}


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_certify_spectrum_checks_the_top_moment(graph, family):
    # Lagrange weights 1/prod(theta_i - theta_j) sum to zero against every
    # power below m - 1, so moving the multiplicities along them changes
    # only the highest moment the certificate compares.
    spectrum = exact_spectrum(family, 5)
    thetas = list(spectrum)
    weights = [prod(Fraction(1, t - s) for s in thetas if s != t) for t in thetas]
    scale = lcm(*(w.denominator for w in weights))
    moved = {t: spectrum[t] + int(w * scale) for t, w in zip(thetas, weights)}
    certificate = certify_spectrum(graph(family, 5), moved)
    assert certificate == {"left_invariant": True, "annihilated": True, "moments_match": False}


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_certify_spectrum_fails_when_the_weights_cannot_split(graph, family, monkeypatch):
    # Equal weights merge every vertex into one block: that partition is
    # equitable, but without {0} as a block it proves nothing about e_0.
    monkeypatch.setattr(spectra, "_start_vector", lambda order, seed: np.zeros(order))
    certificate = certify_spectrum(graph(family, 5), exact_spectrum(family, 5))
    assert certificate == {"left_invariant": True, "annihilated": False, "moments_match": False}


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_certify_spectrum_fails_on_an_unequitable_partition(graph, family, monkeypatch):
    witness = EquitableWitness(0, "0", 0, "0", 0, 1, 0, 1)
    monkeypatch.setattr(spectra, "check_equitable", lambda G, P: witness)
    certificate = certify_spectrum(graph(family, 5), exact_spectrum(family, 5))
    assert certificate == {"left_invariant": True, "annihilated": False, "moments_match": False}


def _swapped_AG5(graph):
    """AG_5 with two arcs of one row swapped: every row is still a bijection
    with an inverse row, but row 0 is no longer a left translation."""
    perms = graph("AG", 5).perms.copy()
    x = next(
        x
        for x in range(1, perms.shape[1])
        if len({0, perms[0, 0], x, perms[0, x]}) == 4
        and perms[0, x] not in perms[:, 0]
        and perms[0, 0] not in perms[:, x]
    )
    _swap_arcs(perms, 0, 0, x)
    return Graph(perms=perms, n=5)


def _circulant7():
    """The 7-cycle as rows v + 1 and v - 1 mod 7: regular, but of no order n!/2."""
    return Graph(perms=(np.arange(7) + np.array([[1], [-1]])) % 7)


def test_certify_spectrum_fails_on_swapped_arcs(graph):
    certificate = certify_spectrum(_swapped_AG5(graph), exact_spectrum("AG", 5))
    assert certificate["left_invariant"] is False


def test_certify_spectrum_on_graphs_made_by_hand(graph):
    # A graph made by hand has no n: it comes from an order of n!/2, and
    # any other order is not left invariant.
    by_hand = Graph(perms=graph("AG", 4).perms)
    certificate = certify_spectrum(by_hand, exact_spectrum("AG", 4))
    assert certificate == {"left_invariant": True, "annihilated": True, "moments_match": True}
    certificate = certify_spectrum(_circulant7(), {2: 1})
    assert certificate["left_invariant"] is False


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_certify_spectrum_refines_to_a_rooted_quotient(graph, family, n, monkeypatch):
    # The refinement keeps {0} a block of its own, so its quotient has a
    # root, and that quotient alone gives the certificate's exact fields.
    quotients = []
    check_equitable = spectra.check_equitable

    def recorded(G, P):
        quotients.append((check_equitable(G, P), P))
        return quotients[-1][0]

    monkeypatch.setattr(spectra, "check_equitable", recorded)
    G, spectrum = graph(family, n), exact_spectrum(family, n)
    certificate = certify_spectrum(G, spectrum)
    [(Q, P)] = quotients
    assert isinstance(Q, Quotient) and Q.root == P.block_of[0]
    assert_quotient_invariants(Q, G.order)
    assert Q.certify(spectrum) == {k: certificate[k] for k in ("annihilated", "moments_match")}


def test_quotient_certify_needs_no_graph():
    # K_4 split into {0} and the rest: sizes (1, 3), spectrum 3, -1, -1, -1.
    Q = Quotient((1, 3), ((0, 3), (1, 2)), root=0)
    assert Q.certify({3: 1, -1: 3}) == {"annihilated": True, "moments_match": True}
    assert Q.certify({3: 4}) == {"annihilated": False, "moments_match": True}  # one moment only
    assert Q.certify({3: 2, -1: 2}) == {"annihilated": True, "moments_match": False}
    unrooted = Quotient((1, 3), ((0, 3), (1, 2)))
    assert unrooted.certify({3: 1, -1: 3}) == {"annihilated": False, "moments_match": False}
