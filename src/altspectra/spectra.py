"""Adjacency spectra: dense solves for small orders, iterative second
eigenvalue for large ones, and the closed-form predictions per family.

The iterative solver is Lanczos with full reorthogonalization on the
complement of the all-ones vector.  For a connected regular graph the
all-ones vector spans the top eigenspace, so the largest eigenvalue on its
complement is lambda_2 whatever the sign of lambda_min (AG_4 already has
lambda_min = -lambda_2).  Deflation is enforced by re-projecting every new
Lanczos vector off the all-ones vector, the matrix-vector product works
directly on the neighbor array, and no dense matrix is ever formed in this
mode.  A result is certified by the explicit eigenpair residual of the
returned Ritz pair.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from math import comb

import numpy as np

from .cayley import CayleyGraph, Graph, is_connected
from .errors import ConvergenceError, OrderCapError

DENSE_ORDER_CAP = 3000
ITERATION_CAP = 200_000
# Lanczos basis vectors kept before a restart; bounds solver memory at
# LANCZOS_BASIS * order float64 values.
LANCZOS_BASIS = 32


@dataclass(frozen=True)
class SpectrumReport:
    family: str | None
    n: int | None
    order: int
    degree: int
    solver: str
    tolerance: float
    seed: int | None
    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...] | None
    lambda1: float
    lambda2: float
    gap: float

    def to_dict(self) -> dict:
        return asdict(self)


def _meta(G: Graph) -> tuple[str | None, int | None, int]:
    if isinstance(G, CayleyGraph):
        return G.family_tag, G.n, G.degree
    return None, None, G.degree


def dense_spectrum(G: Graph, tol: float = 1e-8, order_cap: int = DENSE_ORDER_CAP) -> SpectrumReport:
    """Full spectrum by dense symmetric diagonalization.

    The achieved tolerance recorded in the report is the largest eigenpair
    residual ||A v - lambda v|| divided by the degree; it must come in
    under ``tol`` or the solve is treated as failed.
    """
    family, n, degree = _meta(G)
    if G.order > order_cap:
        raise OrderCapError(
            f"order {G.order} above dense cap {order_cap}; use the iterative solver"
        )
    A = G.adjacency_dense()
    vals, vecs = np.linalg.eigh(A)
    resid = float(np.linalg.norm(A @ vecs - vecs * vals, axis=0).max())
    achieved = resid / max(degree, 1)
    if achieved > tol:
        raise ConvergenceError(
            f"dense solve residual {achieved:.3e} above tolerance {tol:.3e}", achieved
        )
    desc = vals[::-1].copy()
    lambda1 = float(desc[0])
    lambda2 = float(desc[1]) if len(desc) > 1 else float("nan")
    if is_connected(G) and abs(lambda1 - degree) > max(tol * max(degree, 1), achieved * 10):
        raise ConvergenceError(
            f"largest eigenvalue {lambda1} differs from degree {degree}", achieved
        )
    return SpectrumReport(
        family=family,
        n=n,
        order=G.order,
        degree=degree,
        solver="dense",
        tolerance=achieved,
        seed=None,
        eigenvalues=tuple(float(x) for x in desc),
        multiplicities=tuple(cluster_multiplicities(desc, 100 * tol)),
        lambda1=lambda1,
        lambda2=lambda2,
        gap=lambda1 - lambda2,
    )


def cluster_multiplicities(values_desc: np.ndarray, threshold: float) -> list[int]:
    """Group consecutive eigenvalues closer than ``threshold`` into one cluster."""
    mults = []
    run = 1
    for a in range(1, len(values_desc)):
        if values_desc[a - 1] - values_desc[a] < threshold:
            run += 1
        else:
            mults.append(run)
            run = 1
    mults.append(run)
    return mults


def lambda2_iterative(
    G: Graph,
    tol: float = 1e-8,
    seed: int = 42,
    max_iterations: int = ITERATION_CAP,
) -> float:
    """Second-largest adjacency eigenvalue of a connected regular graph.

    Lanczos with full reorthogonalization on the complement of the all-ones
    vector, restarted from the top Ritz vector whenever the basis is full.
    ``max_iterations`` caps the matrix-vector products over all restarts.
    A Ritz pair is accepted only when its explicit eigenpair residual
    ||A x - rho x|| is below tol; for a symmetric matrix that residual
    bounds the eigenvalue error directly.  A result within 10*tol of the
    degree is flagged with a warning: it usually means the graph was not
    connected.
    """
    if G.order < 2:
        raise ValueError("graph must have at least two vertices")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(G.order)
    x -= x.mean()
    basis = np.empty((min(LANCZOS_BASIS, G.order - 1), G.order))
    matvecs = 0
    resid = np.inf

    def product(v):
        nonlocal matvecs
        if matvecs == max_iterations:
            raise ConvergenceError(
                f"no convergence in {max_iterations} matvecs (residual {resid:.3e})", resid
            )
        matvecs += 1
        return G.matvec(v)

    while True:
        basis[0] = x / np.linalg.norm(x)
        alpha: list[float] = []
        beta: list[float] = []
        for k in range(basis.shape[0]):
            w = product(basis[k])
            w -= w.mean()
            V = basis[: k + 1]
            # Two passes of classical Gram-Schmidt against the whole basis.
            h = V @ w
            w -= h @ V
            h2 = V @ w
            w -= h2 @ V
            alpha.append(float(h[k] + h2[k]))
            b = float(np.linalg.norm(w))
            _, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            # Ritz residual of the top pair; b ~ 0 means the Krylov space is invariant.
            resid = abs(b * s[-1, -1])
            converged = resid < tol or b < 1e-12
            if converged or k + 1 == basis.shape[0]:
                break
            beta.append(b)
            basis[k + 1] = w / b
        # Restart from (or certify) the top Ritz vector.
        x = s[:, -1] @ V
        x -= x.mean()
        if converged:
            x /= np.linalg.norm(x)
            ax = product(x)
            rq = float(x @ ax)
            resid = float(np.linalg.norm(ax - rq * x))
            if resid < tol:
                break
    if abs(rq - G.degree) <= 10 * tol:
        warnings.warn(
            "second eigenvalue equals the degree; the graph is likely disconnected",
            stacklevel=2,
        )
    return rq


def spectral_gap(G: Graph, tol: float = 1e-8, seed: int = 42) -> float:
    """Degree minus the second-largest adjacency eigenvalue."""
    return G.degree - lambda2_iterative(G, tol=tol, seed=seed)


def gap_report(G: Graph, tol: float = 1e-8, seed: int = 42) -> SpectrumReport:
    """Iterative-solver report carrying just the top two eigenvalues."""
    family, n, degree = _meta(G)
    lam2 = lambda2_iterative(G, tol=tol, seed=seed)
    return SpectrumReport(
        family=family,
        n=n,
        order=G.order,
        degree=degree,
        solver="iterative",
        tolerance=tol,
        seed=seed,
        eigenvalues=(float(degree), lam2),
        multiplicities=None,
        lambda1=float(degree),
        lambda2=lam2,
        gap=degree - lam2,
    )


def predicted(family: str, n: int) -> tuple[int, int, int]:
    """Closed-form (lambda1, lambda2, gap) for each family; exact integers."""
    if family == "AG":
        if n == 3:
            return (2, -1, 3)
        if n < 3:
            raise ValueError(f"AG is defined for n >= 3, got {n}")
        return (2 * n - 4, 2 * n - 6, 2)
    if family == "EAG":
        if n < 3:
            raise ValueError(f"EAG is defined for n >= 3, got {n}")
        return ((n - 1) * (n - 2), n * n - 5 * n + 5, 2 * n - 3)
    if family == "CAG":
        if n < 3:
            raise ValueError(f"CAG is defined for n >= 3, got {n}")
        lam2 = n * (n - 2) * (n - 4) // 3
        return (2 * comb(n, 3), lam2, n * n - 2 * n)
    raise ValueError(f"unknown family {family!r}")


def integrality_check(report: SpectrumReport, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether every eigenvalue sits within tol of an integer, plus the worst offset."""
    vals = np.asarray(report.eigenvalues)
    distances = np.abs(vals - np.round(vals))
    worst = float(distances.max(initial=0.0))
    return worst <= tol, worst
