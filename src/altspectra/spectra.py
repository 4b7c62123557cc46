"""Adjacency spectra: closed forms, exact spectra certified on an equitable
quotient in Python ints, full spectra by a dense solve of that quotient (the
colour refinement of {{0}, rest}, on rows checked to be left translations of
A_n; no order x order matrix), and iterative second eigenvalues.

The iterative solver is Lanczos with full reorthogonalization on the
complement of the all-ones vector.  For a connected regular graph the
all-ones vector spans the top eigenspace, so the largest eigenvalue on its
complement is lambda_2 whatever the sign of lambda_min (AG_4 already has
lambda_min = -lambda_2).  Deflation is enforced by re-projecting every new
Lanczos vector off the all-ones vector, the matrix-vector product works
directly on the neighbor array, and no dense matrix is ever formed in this
mode.  It starts from a SplitMix64 hash of the seed (no ``numpy.random``).
A result is certified by the explicit eigenpair residual of the returned
Ritz pair.  A solve allocates its work vectors once (the restart vector,
the product and one scratch vector, which the matvec reuses as its own
buffers) and its basis in blocks of 16 rows, each when it first reaches it.
At n >= 4 the Krylov steps of a named EAG_n or CAG_n (star-row square sums,
:func:`~altspectra.cayley.star_matvec`) and of a built graph (its rows) run
on the n!/4 pairs {g, g*(1 2)(3 4)} (:func:`~altspectra.cayley.folded_matvec`):
half-length vectors and basis, every eigenvalue kept.  The top Ritz vector
is lifted back to the vertices by one gather, and the certificate is always
``G.matvec`` on the full rows.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from math import comb, factorial, prod

import numpy as np

from .cayley import Graph, check_family, folded_matvec, star_matvec
from .errors import ConvergenceError, OrderCapError
from .partition import Quotient, VertexPartition, check_equitable
from .perm import MAX_POINTS, alternating_images, alternating_order, alternating_ranks, from_cycle

# Fixed work caps.  A_n orders jump 2,520 -> 20,160; the dense cap keeps `spectrum`
# and `lambda2_exact` at n <= 7, the range they had while A was solved densely.
DENSE_ORDER_CAP = 3000
ITERATION_CAP = 200_000
# Lanczos basis vectors kept before a restart; bounds solver memory at
# LANCZOS_BASIS * order float64 values.  The basis is held in blocks of
# LANCZOS_BLOCK rows, each allocated when a solve first reaches it.  Below
# order 32,768 (n <= 8) a block is under numpy's 4 MiB huge-page madvise
# threshold, so a solve is billed for the rows it touches in 4 KB pages,
# not in 2 MB ones.
LANCZOS_BASIS = 32
LANCZOS_BLOCK = 16
# The dense solve's resolution, whatever its residual bound (tol): clusters of
# eigenvalues break at gaps of CLUSTER_GAP, and each multiplicity must lie
# within MULTIPLICITY_TOL of a positive integer.
CLUSTER_GAP, MULTIPLICITY_TOL = 1e-6, 1e-8


@dataclass(frozen=True)
class SpectrumReport:
    family: str
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

    @classmethod
    def of(cls, G: Graph, solver: str, tolerance: float, seed, eigenvalues, multiplicities=None):
        """G's report on its descending ``eigenvalues``; lambda1, lambda2 are the first two."""
        lambda1, lambda2 = [*map(float, eigenvalues[:2]), float("nan")][:2]
        head = (G.family_tag, G.n, G.order, G.degree, solver, tolerance, seed)
        return cls(*head, tuple(eigenvalues), multiplicities, lambda1, lambda2, lambda1 - lambda2)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_dense_order(order: int) -> None:
    if order > DENSE_ORDER_CAP:
        raise OrderCapError(
            f"order {order} above the fixed dense cap {DENSE_ORDER_CAP}; use the iterative solver"
        )


def dense_spectrum(G: Graph, tol: float = 1e-8) -> SpectrumReport:
    """Full spectrum of a Cayley graph on A_n by dense diagonalization of the
    k x k S = D^1/2 B D^-1/2 of its refinement quotient (B, block sizes D),
    not of the order x order A.  Right translations are automorphisms, so
    theta's multiplicity is N (E_theta)_00 = N sum u_root^2 over its cluster
    (values within ``CLUSTER_GAP``) of S's unit eigenvectors u; each
    eigenvalue of S is listed N u_root^2 times, rounded along the running
    sum.  The achieved tolerance, S's largest eigenpair residual (that of the
    lifted pairs C D^-1/2 u of A) over the degree, must be under ``tol``, and
    each multiplicity within ``MULTIPLICITY_TOL`` of a positive integer.
    Refuses orders above ``DENSE_ORDER_CAP`` (n <= 7) and rows that are not
    left translations.
    """
    _check_dense_order(G.order)
    if not _left_invariant(G):
        raise ValueError("rows are not left translations of A_n; no quotient spectrum")
    Q = _refine(G)
    if Q.root is None:
        raise ConvergenceError("colour refinement gave no equitable quotient", float("inf"))
    half = np.sqrt(Q.sizes)  # D^1/2
    S = np.array(Q.B) * half[:, None] / half
    vals, vecs = np.linalg.eigh(-S)  # descending
    vals = -vals
    achieved = float(np.linalg.norm(S @ vecs - vecs * vals, axis=0).max()) / max(G.degree, 1)
    if achieved > tol:
        raise ConvergenceError(
            f"dense solve residual {achieved:.3e} above tolerance {tol:.3e}", achieved
        )
    # A cluster of eigenvalues starts wherever a value is not within
    # CLUSTER_GAP of the one before.
    starts = np.flatnonzero(np.r_[True, ~(vals[:-1] - vals[1:] < CLUSTER_GAP)])
    share = G.order * vecs[Q.root] ** 2
    counts = np.add.reduceat(share, starts)
    mult = np.rint(counts).astype(int)
    if np.abs(counts - mult).max() > MULTIPLICITY_TOL or mult.min() < 1:
        raise ConvergenceError(f"multiplicities {counts} are not positive integers", achieved)
    desc = np.repeat(vals, np.diff(np.rint(np.cumsum(share)), prepend=0).astype(int))
    return SpectrumReport.of(G, "dense", achieved, None, desc.tolist(), tuple(mult.tolist()))


def _start_vector(order: int, seed: int) -> np.ndarray:
    """SplitMix64 (Steele et al. 2014) of seed * golden + i, top 53 bits to [-1, 1)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    z = np.arange(order, dtype=np.uint64) + np.uint64(seed * 0x9E3779B97F4A7C15 % 2**64)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-52 - 1.0


def lambda2_iterative(G: Graph, tol: float = 1e-8, seed: int = 42) -> float:
    """Second-largest adjacency eigenvalue of a connected regular graph.

    Lanczos with full reorthogonalization on the complement of the all-ones
    vector, restarted from the top Ritz vector whenever the basis is full.
    It starts from ``_start_vector(order, seed)``, centred.  ``ITERATION_CAP``
    caps the matrix-vector products over all restarts.  A Ritz pair is
    accepted only when its explicit eigenpair residual ||A x - rho x|| is
    below tol; for a symmetric matrix that residual bounds the eigenvalue
    error directly.  It is always taken on ``G``'s own rows.  A result whose
    certified interval (within tol) holds the degree is flagged with a
    warning: it usually means the graph was not connected.

    The Krylov steps run on the pairs {g, g*k}, k = (1 2)(3 4), where that
    is proved to keep every eigenvalue: at n >= 4, for a named EAG_n or
    CAG_n (the steps read the family's star rows, folded) and for a graph
    that carries ``gens`` (a build, so its rows fold); n = 3 and rows made
    by hand step on the full rows (or the star rows) as before.  The proof:
    with left multiplication, every right translation g -> g*h is an
    automorphism, so each eigenspace of A on the complement of the all-ones
    vector is a right A_n-module.  k acts as -1 on no irreducible A_n-module
    for n >= 4: for n >= 5 A_n is simple, so a nontrivial module is
    faithful, and -1 is central while A_n's centre is trivial; the
    1-dimensional modules of A_4 hold V_4, and k, in their kernel.  So every eigenvalue, lambda_2
    included, has an eigenvector constant on the pairs, and on those
    vectors A is the symmetric n!/4 x n!/4 matrix of the fold.  The
    converged Ritz vector is lifted by ``x.take(coset_of)`` and certified on
    G's rows; should that certificate fail (the star rows are the family's,
    not G's), the solve goes on from the lifted vector on G's full rows.
    """
    if G.order < 2:
        raise ValueError("graph must have at least two vertices")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    # The Krylov steps' product and, when it acts on the pairs, each vertex's pair.
    steps, coset_of = folded_matvec(G) or (star_matvec(G) or G.matvec, None)
    # The work vectors: the start or restart vector, the product, a scratch.
    x = _start_vector(G.order if coset_of is None else G.order // 2, seed)
    x -= x.mean()
    w, tmp = np.empty((2, len(x)))
    size = min(LANCZOS_BASIS, len(x) - 1)
    blocks: list[np.ndarray] = []  # the basis, LANCZOS_BLOCK rows per block
    matvecs = 0
    resid = np.inf

    def product(v, multiply):
        nonlocal matvecs
        if matvecs == ITERATION_CAP:
            raise ConvergenceError(
                f"no convergence in {ITERATION_CAP} matvecs (residual {resid:.3e})", resid
            )
        matvecs += 1
        return multiply(v, w, tmp)

    def row(k):  # basis row k, its block allocated when first reached
        if k == len(blocks) * LANCZOS_BLOCK:
            blocks.append(np.empty((min(LANCZOS_BLOCK, size - k), len(x))))
        return blocks[k // LANCZOS_BLOCK][k % LANCZOS_BLOCK]

    def spans(k):  # (first row, rows) of basis rows 0..k-1, block by block
        return [(i, block[: k - i]) for i, block in zip(range(0, k, LANCZOS_BLOCK), blocks)]

    while True:
        np.divide(x, np.linalg.norm(x), out=row(0))
        alpha: list[float] = []
        beta: list[float] = []
        for k in range(size):
            product(row(k), steps)
            w -= w.mean()
            # Two passes of classical Gram-Schmidt against the whole basis.
            V = spans(k + 1)
            alpha.append(0.0)
            for _ in range(2):
                h = np.concatenate([rows @ w for _, rows in V])
                for i, rows in V:
                    w -= np.dot(h[i : i + len(rows)], rows, out=tmp)
                alpha[k] += float(h[k])
            b = float(np.linalg.norm(w))
            _, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            # Ritz residual of the top pair; b ~ 0 means the Krylov space is invariant.
            resid = abs(b * s[-1, -1])
            converged = resid < tol or b < 1e-12
            if converged or k + 1 == size:
                break
            beta.append(b)
            np.divide(w, b, out=row(k + 1))
        # Restart from (or certify) the top Ritz vector.
        x[:] = 0.0
        for i, rows in V:
            x += np.dot(s[i : i + len(rows), -1], rows, out=tmp)
        x -= x.mean()
        if converged:
            if coset_of is not None:  # free the pairs' basis, then lift it
                del V, rows
                blocks.clear()
                x, coset_of, steps = x.take(coset_of), None, G.matvec
                w, tmp = np.empty((2, G.order))
                size = min(LANCZOS_BASIS, G.order - 1)
            x /= np.linalg.norm(x)
            ax = product(x, G.matvec)
            rq = float(x @ ax)
            resid = float(np.linalg.norm(np.subtract(ax, np.multiply(x, rq, out=tmp), out=tmp)))
            if resid < tol:
                break
            steps = G.matvec  # G's rows may not be its family's: go on with them
    if abs(rq - G.degree) <= tol:
        warnings.warn(
            "second eigenvalue equals the degree; the graph is likely disconnected",
            stacklevel=2,
        )
    return rq


def gap_report(G: Graph, tol: float = 1e-8, seed: int = 42) -> SpectrumReport:
    """Iterative-solver report carrying just the top two eigenvalues."""
    lam2 = lambda2_iterative(G, tol=tol, seed=seed)
    return SpectrumReport.of(G, "iterative", tol, seed, (float(G.degree), lam2))


def predicted(family: str, n: int) -> tuple[int, int, int]:
    """Closed-form (lambda1, lambda2, gap) for each family; exact integers."""
    check_family(family, n)
    if family == "AG":
        return (2, -1, 3) if n == 3 else (2 * n - 4, 2 * n - 6, 2)
    if family == "EAG":
        return ((n - 1) * (n - 2), n * n - 5 * n + 5, 2 * n - 3)
    return (2 * comb(n, 3), n * (n - 2) * (n - 4) // 3, n * n - 2 * n)


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples of row lengths."""
    if n == 0:
        yield ()
    for first in range(min(n, largest or n), 0, -1):
        yield from ((first, *rest) for rest in _partitions(n - first, first))


def _dimension(shape: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of ``shape`` (hook-length formula)."""
    cols = [sum(r > j for r in shape) for j in range(max(shape, default=0))]
    hooks = (r - j + cols[j] - i - 1 for i, r in enumerate(shape) for j in range(r))
    return factorial(sum(shape)) // prod(hooks)


def _corners(shape: tuple[int, ...]):
    """(content, shape without it) for each removable cell of ``shape``."""
    for i, r in enumerate(shape):
        if r and (i + 1 == len(shape) or shape[i + 1] < r):
            yield r - 1 - i, (*shape[:i], r - 1, *shape[i + 1 :])


def exact_spectrum(family: str, n: int) -> dict[int, int]:
    """Eigenvalue -> multiplicity of the family graph on A_n, descending.

    Each partition lambda of n (d_lambda its hook-length dimension, a and b
    contents of removable cells) contributes, with half its S_n weight:
    CAG, the sum of squared contents - C(n,2), weight d_lambda^2; EAG,
    a^2 - (n-1), weight d_lambda d_(lambda-a); AG = sY + Ys - 2I (s = (1 2),
    Y = sum of (1 i)) with n, n-1 in cells a, b, weight d_lambda
    d_(lambda-a-b): 2a - 2 in one row, -2a - 2 in one column, else
    -1 +- |a + b| once per pair.
    """
    check_family(family, n)
    counts: Counter[int] = Counter()
    for shape in _partitions(n):
        d = _dimension(shape)
        if family == "CAG":
            squares = sum((j - i) ** 2 for i, r in enumerate(shape) for j in range(r))
            counts[squares - comb(n, 2)] += d * d
            continue
        for a, rest in _corners(shape):
            if family == "EAG":
                counts[a * a - (n - 1)] += d * _dimension(rest)
                continue
            for b, base in _corners(rest):  # contents of corners fall row by row
                weight = d * _dimension(base)
                if abs(a - b) == 1:
                    counts[2 * a - 2 if b < a else -2 * a - 2] += weight
                elif b < a:
                    counts[-1 + abs(a + b)] += weight
                    counts[-1 - abs(a + b)] += weight
    return {theta: counts[theta] // 2 for theta in sorted(counts, reverse=True)}


def _left_invariant(G: Graph) -> bool:
    """Whether G's order is n!/2 and each row commutes with right translation by
    (1 2 3) and (1 2 ... n) (odd n) or (2 3 ... n) (even n), generators of A_n:
    then rows are left translations, right translations automorphisms."""
    n = next((m for m in range(3, MAX_POINTS + 1) if alternating_order(m) == G.order), None)
    if n is None:
        return False
    verts = alternating_images(n)
    rights = (
        alternating_ranks(np.array([0, *from_cycle(n, cycle).images], np.uint8)[verts])
        for cycle in ([1, 2, 3], range(2 - n % 2, n + 1))
    )
    return all(np.array_equal(row.take(r), r.take(row)) for r in rights for row in G.perms)


def _refine(G: Graph) -> Quotient:
    """The quotient by the colour refinement of {{0}, rest} (keyed by hashed block
    weights) if :func:`check_equitable` certifies it, else the empty one, with no
    root."""
    block_of, k = np.minimum(np.arange(G.order), 1), 2
    while True:  # own-block and neighbour weights are drawn apart, so the two cannot trade
        weight = (_start_vector(2 * k, k) * 2**51).astype(np.int64)
        key = weight[k:].take(block_of) + G.gather_sum(weight[:k].take(block_of))
        keys, block_of = np.unique(key, return_inverse=True)
        if keys.size <= k:
            break
        k = keys.size
    Q = check_equitable(G, VertexPartition(block_of, tuple(map(str, range(keys.size)))))
    return Q if isinstance(Q, Quotient) else Quotient((), ())


def certify_spectrum(G: Graph, spectrum: dict[int, int]) -> dict[str, bool]:
    """Exact proof that ``spectrum`` (eigenvalue -> multiplicity) is that of G:
    ``left_invariant`` (:func:`_left_invariant`) makes p(A) e_0 = 0 give
    p(A) = 0, and :meth:`Quotient.certify` tests p(A) e_0 on :func:`_refine`."""
    return {"left_invariant": _left_invariant(G), **_refine(G).certify(spectrum)}


def integrality_check(report: SpectrumReport, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether every eigenvalue sits within tol of an integer, plus the worst offset."""
    vals = np.asarray(report.eigenvalues)
    distances = np.abs(vals - np.round(vals))
    worst = float(distances.max(initial=0.0))
    return worst <= tol, worst
