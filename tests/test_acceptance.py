"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import subprocess
import sys
from fractions import Fraction

import numpy as np

from conftest import adjacency
from altspectra.cheeger import (
    brute_force_h,
    canonical_boundary,
    canonical_cut,
    corollary_bounds,
    cut_ratio,
)
from altspectra.partition import (
    Quotient,
    blocks_AG,
    blocks_Xij,
    check_equitable,
    divisor_closed_form,
    divisor_eigenvalues_closed_form,
    divisor_spectrum,
)
from altspectra.spectra import (
    dense_spectrum,
    integrality_check,
    lambda2_iterative,
)
from altspectra.verify import (
    check_edge_decomposition,
    check_matchings,
    check_subgraph_isomorphism,
)

FAMILIES = ("AG", "EAG", "CAG")


def conclude(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {status}: {description}")
    assert not failures, failures


def test_criterion_01_ag_second_eigenvalue(graph):
    failures = []
    for n in (4, 5, 6, 7):
        lam2 = lambda2_iterative(graph("AG", n), tol=1e-8)
        if abs(lam2 - (2 * n - 6)) > 1e-6:
            failures.append(f"iterative lambda2(AG_{n}) = {lam2}")
        if n <= 6:
            dense = dense_spectrum(graph("AG", n)).lambda2
            if abs(dense - (2 * n - 6)) > 1e-6:
                failures.append(f"dense lambda2(AG_{n}) = {dense}")
    conclude(1, "lambda2(AG_n) = 2n-6 for n=4..7, dense cross-check n<=6", failures)


def test_criterion_02_eag_second_eigenvalue_and_gap(graph):
    failures = []
    for n in (4, 5, 6, 7):
        G = graph("EAG", n)
        lam2 = lambda2_iterative(G, tol=1e-8)
        if abs(lam2 - (n * n - 5 * n + 5)) > 1e-6:
            failures.append(f"lambda2(EAG_{n}) = {lam2}")
        gap = G.degree - lam2
        if abs(gap - (2 * n - 3)) > 2e-6:
            failures.append(f"gap(EAG_{n}) = {gap}")
    conclude(2, "lambda2(EAG_n) = n^2-5n+5 and gap = 2n-3 for n=4..7", failures)


def test_criterion_03_cag_second_eigenvalue(graph):
    failures = []
    for n in (4, 5, 6):
        lam2 = lambda2_iterative(graph("CAG", n), tol=1e-8)
        if abs(lam2 - n * (n - 2) * (n - 4) / 3) > 1e-6:
            failures.append(f"lambda2(CAG_{n}) = {lam2}")
    lam2_k3 = lambda2_iterative(graph("CAG", 3), tol=1e-8)
    if abs(lam2_k3 - (-1.0)) > 1e-6:
        failures.append(f"lambda2(CAG_3) = {lam2_k3}")
    conclude(3, "lambda2(CAG_n) = n(n-2)(n-4)/3 for n=4..6 and CAG_3 = -1", failures)


def test_criterion_03b_cag7_second_eigenvalue(graph):
    lam2 = lambda2_iterative(graph("CAG", 7), tol=1e-8)
    failures = [] if abs(lam2 - 35.0) <= 1e-6 else [f"lambda2(CAG_7) = {lam2}"]
    conclude(3, "lambda2(CAG_7) = 35", failures)


def test_criterion_04_divisor_matrices(graph):
    failures = []
    for family in FAMILIES:
        for n in range(4, 10):
            G = graph(family, n)
            values = (1, n) if n >= 6 else tuple(range(1, n + 1))
            for i in values:
                P = blocks_AG(n, i) if family == "AG" else blocks_Xij(n, i=i)
                Q = check_equitable(G, P)
                if not isinstance(Q, Quotient):
                    failures.append(f"{family}_{n} i={i}: not equitable ({Q})")
                elif Q.B != divisor_closed_form(family, n).B:
                    failures.append(f"{family}_{n} i={i}: divisor matrix mismatch")
            spec = divisor_spectrum(divisor_closed_form(family, n))
            target = divisor_eigenvalues_closed_form(family, n)
            if spec != target:
                failures.append(f"{family}_{n}: divisor spectrum {spec} != {target}")
    conclude(4, "equitable partitions give the printed divisor matrices, n=4..9", failures)


def test_criterion_05_divisor_values_lift(graph):
    failures = []
    for family in FAMILIES:
        for n in (4, 5):
            spectrum = np.asarray(dense_spectrum(graph(family, n)).eigenvalues)
            for mu in divisor_eigenvalues_closed_form(family, n):
                if np.abs(spectrum - mu).min() > 1e-6:
                    failures.append(f"{family}_{n}: {mu} missing from spectrum")
    conclude(5, "every divisor eigenvalue appears in the graph spectrum, n=4,5", failures)


def test_criterion_06_eigenvector_block_sums(graph):
    failures = []
    cases = [
        ("AG", 5, [blocks_AG(5, i) for i in range(1, 6)]),
        ("EAG", 4, [blocks_Xij(4, i=i) for i in range(1, 5)]),
    ]
    for family, n, partitions in cases:
        G = graph(family, n)
        vals, vecs = np.linalg.eigh(adjacency(G))
        divisor_values = np.asarray(divisor_eigenvalues_closed_form(family, n), dtype=float)
        checked = 0
        for k in range(G.order):
            if np.abs(divisor_values - vals[k]).min() <= 1e-6:
                continue
            checked += 1
            f = vecs[:, k]
            for P in partitions:
                sums = np.bincount(P.block_of, weights=f, minlength=P.k)
                for label, s in zip(P.labels, np.abs(sums)):
                    if s > 1e-6:
                        failures.append(
                            f"{family}_{n}: eigenvector {k} (value {vals[k]:.6f}) "
                            f"sums to {s:.2e} on {label}"
                        )
        if checked == 0:
            failures.append(f"{family}_{n}: no eigenvalues outside the divisor set")
    conclude(6, "non-divisor eigenvectors sum to zero on every block", failures)


def test_criterion_07_exact_spectrum_pins(graph):
    failures = []
    rep = dense_spectrum(graph("AG", 4))
    ends = np.cumsum([0, *rep.multiplicities])
    distinct = [float(np.mean(rep.eigenvalues[a:b])) for a, b in zip(ends[:-1], ends[1:])]
    if not np.allclose(distinct, [4, 2, 0, -2], atol=1e-8):
        failures.append(f"AG_4 distinct eigenvalues {distinct}")
    k3 = dense_spectrum(graph("AG", 3)).eigenvalues
    if not np.allclose(k3, [2, -1, -1], atol=1e-8):
        failures.append(f"K_3 spectrum {k3}")
    for n in (4, 5):
        ok, worst = integrality_check(dense_spectrum(graph("CAG", n)), tol=1e-8)
        if not ok:
            failures.append(f"CAG_{n} spectrum not integral (offset {worst:.2e})")
    conclude(7, "AG_4 = {4,2,0,-2}, K_3 = {2,-1,-1}, CAG_4/5 integral", failures)


def test_criterion_08_canonical_cuts(graph):
    failures = []
    ratio_formula = {"AG": lambda n: 2, "EAG": lambda n: 2 * n - 4, "CAG": lambda n: n * n - 3 * n + 2}
    for family in FAMILIES:
        for n in (4, 5, 6, 7):
            G = graph(family, n)
            report = cut_ratio(G, canonical_cut(family, n, 1))
            if report.ratio != Fraction(ratio_formula[family](n)):
                failures.append(f"{family}_{n}: ratio {report.ratio}")
            if report.boundary != canonical_boundary(family, n):
                failures.append(f"{family}_{n}: boundary {report.boundary}")
    conclude(8, "canonical cut ratios and boundary sizes are exact, n=4..7", failures)


def test_criterion_09_isoperimetric_bracketing(graph):
    failures = []
    h_ag4, _ = brute_force_h(graph("AG", 4))
    if not Fraction(1) <= h_ag4 <= Fraction(2):
        failures.append(f"h(AG_4) = {h_ag4} outside [1, 2]")
    for family in FAMILIES:
        G = graph(family, 4)
        h, _ = brute_force_h(G)
        mu = dense_spectrum(G).gap
        _, upper = corollary_bounds(family, 4)
        if float(h) < mu / 2 - 1e-9:
            failures.append(f"{family}_4: h = {h} below mu/2 = {mu / 2}")
        if h > upper:
            failures.append(f"{family}_4: h = {h} above corollary bound {upper}")
    conclude(9, "h(AG_4) in [1,2]; mu/2 <= h <= corollary bound at n=4", failures)


def test_criterion_10_structural_suite(graph):
    failures = []
    for n in (4, 5, 6):
        for i in (1, n):
            r = check_matchings(n, i)
            if not r.passed:
                failures.append(f"matchings AG_{n} i={i}")
        for family in ("EAG", "CAG"):
            r = check_edge_decomposition(family, n)
            if not r.passed:
                failures.append(f"decomposition {family}_{n}")
        for family in FAMILIES:
            r = check_subgraph_isomorphism(family, n, 1)
            if not r.passed:
                failures.append(f"isomorphism {family}_{n}")
    # counting identities along the way
    eag4 = check_edge_decomposition("EAG", 4).observed
    if not (eag4["total_edges"] == 36 and eag4["spanning_subgraph_edges"] == 24 and sum(eag4["block_edges"]) == 12):
        failures.append(f"EAG_4 edge counts {eag4}")
    eag5 = check_edge_decomposition("EAG", 5).observed
    if not (eag5["total_edges"] == 360 and eag5["spanning_subgraph_edges"] == 180 and sum(eag5["block_edges"]) == 180):
        failures.append(f"EAG_5 edge counts {eag5}")
    conclude(10, "matchings, edge decompositions and block isomorphisms, n=4..6", failures)


def test_criterion_11_induction_inequalities(graph):
    failures = []
    for n in (4, 5, 6):
        eag = lambda2_iterative(graph("EAG", n), tol=1e-8)
        eag_prev = lambda2_iterative(graph("EAG", n - 1), tol=1e-8)
        ag = lambda2_iterative(graph("AG", n), tol=1e-8)
        if eag > eag_prev + ag + 1e-6:
            failures.append(f"EAG_{n}: {eag} > {eag_prev} + {ag}")
        cag = lambda2_iterative(graph("CAG", n), tol=1e-8)
        cag_prev = lambda2_iterative(graph("CAG", n - 1), tol=1e-8)
        if cag > eag + cag_prev + 1e-6:
            failures.append(f"CAG_{n}: {cag} > {eag} + {cag_prev}")
    conclude(11, "second-eigenvalue subadditivity across decompositions, n=4..6", failures)


def test_criterion_12_cli_determinism():
    cmd = [
        sys.executable, "-m", "altspectra.cli",
        "verify", "--family", "EAG", "--n", "5", "--seed", "42", "--format", "json",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    failures = []
    if first.returncode != 0:
        failures.append(f"exit code {first.returncode}: {first.stderr.decode()[:200]}")
    if first.stdout != second.stdout:
        failures.append("stdout differs between runs")
    conclude(12, "verify CLI output is byte-identical across runs", failures)
