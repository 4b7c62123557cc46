"""Verification harness: structural and spectral checks per family and n.

Each check records the predicted value, the observed value, the tolerance
it was judged at, and a pass flag; a report is the ordered list of checks
plus their conjunction.  Check failures are recorded, never raised;
infrastructure failures (a solver that does not converge, a cap that is
exceeded) propagate as exceptions since no meaningful report exists then.
The structural checks take a family's defining blocks from per-vertex
labels (:func:`altspectra.cayley.block_labels`) and compare the graphs'
generator rows; they build no subgraphs, so a doctored graph fails a check.

Reports are deterministic: given the same seed, two runs produce identical
values.  Wall-clock timings are measured and kept on the result objects but
serialized as null unless explicitly requested, so emitted reports stay
byte-identical across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from . import cheeger as _cheeger
from .cayley import (
    DEFAULT_MAX_ORDER,
    PARTITION_LEAST,
    SPANNING,
    Graph,
    block_labels,
    build_family,
    check_family,
    graph_invariant_violations,
    is_connected,
    phi_isomorphism,
)
from .partition import (
    DivisorMatrix,
    blocks_AG,
    blocks_Xij,
    check_equitable,
    divisor_closed_form,
    divisor_eigenvalues_closed_form,
    divisor_spectrum,
)
from .spectra import (
    DENSE_ORDER_CAP,
    certify_spectrum,
    exact_spectrum,
    lambda2_iterative,
    predicted,
)


@dataclass
class CheckResult:
    name: str
    ref: str
    predicted: object
    observed: object
    tolerance: float | None
    passed: bool
    millis: float

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.ref,
            "predicted": self.predicted,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "millis": round(self.millis, 3) if include_timings else None,
        }


@dataclass
class VerificationReport:
    family: str
    n: int
    seed: int
    block: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "block": self.block,
            "checks": [c.to_dict(include_timings) for c in self.checks],
            "overall": self.overall,
        }


def _timed(name: str, ref: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    predicted_value, observed_value, tolerance, passed = fn()
    millis = (time.perf_counter() - t0) * 1000.0
    return CheckResult(
        name=name,
        ref=ref,
        predicted=predicted_value,
        observed=observed_value,
        tolerance=tolerance,
        passed=bool(passed),
        millis=millis,
    )


class _GraphCache:
    """Family graphs within ``max_order`` and their second eigenvalues, each made once."""

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER):
        self.max_order = max_order
        self._graphs: dict[tuple[str, int], Graph] = {}
        self._lambda2: dict[tuple[str, int, float, int], float] = {}

    def get(self, family: str, n: int) -> Graph:
        key = (family, n)
        if key not in self._graphs:
            self._graphs[key] = build_family(family, n, max_order=self.max_order)
        return self._graphs[key]

    def lambda2(self, family: str, n: int, tol: float, seed: int) -> float:
        key = (family, n, tol, seed)
        if key not in self._lambda2:
            self._lambda2[key] = lambda2_iterative(self.get(family, n), tol=tol, seed=seed)
        return self._lambda2[key]


def check_matchings(n: int, i: int, cache=None) -> CheckResult:
    """The edges between X(i), the vertices with the value i last, and each of
    Y(i) and Z(i), with i first and second, are perfect matchings: every X(i)
    vertex has exactly one neighbor in Y(i) and one in Z(i), and every Y(i)
    and Z(i) vertex exactly one in X(i).  Each matching size is its edge count."""
    check_family("AG", n, 4, block=i)
    cache = cache or _GraphCache()
    G = cache.get("AG", n)

    def run():
        block_of = blocks_AG(n, i).block_of
        masks = np.stack([block_of == b for b in range(3)])  # X(i), Y(i), Z(i)
        counts = G.gather_sum(masks.view(np.uint8))
        problems, sizes = [], []
        for b, label in ((1, "Y"), (2, "Z")):
            problems += [
                f"vertex {v} has {counts[b, v]} neighbors in {label}({i})"
                for v in np.flatnonzero(masks[0] & (counts[b] != 1))
            ]
            problems += [
                f"vertex {v} of {label}({i}) has {counts[0, v]} neighbors in X({i})"
                for v in np.flatnonzero(masks[b] & (counts[0] != 1))
            ]
            sizes.append(int(counts[b][masks[0]].sum()))
        size = factorial(n - 1) // 2
        observed = {"matching_size_Y": sizes[0], "matching_size_Z": sizes[1], "problems": problems}
        predicted_value = {"matching_size_Y": size, "matching_size_Z": size, "problems": []}
        return predicted_value, observed, None, observed == predicted_value

    return _timed("matchings", "one-to-one edges between adjacent blocks", run)


def check_edge_decomposition(family: str, n: int, cache=None) -> CheckResult:
    """Exact edge-set split of EAG_n (resp. CAG_n) into the n block
    subgraphs plus AG_n (resp. EAG_n).

    Block i's edges are the arcs whose ends both carry the block label i.
    Each spanning row must equal the row of the whole graph that sends
    vertex 0 to the same place; no such row may have an arc inside a block,
    and every other row must stay inside the blocks at every vertex.  The
    edge count of the graph and the sum of the parts' edge counts must both
    equal the closed form n!/2 * d/2, with d the family degree.
    """
    check_family(family, n, 4, families=tuple(SPANNING))
    cache = cache or _GraphCache()

    def run():
        G = cache.get(family, n)
        spanning = cache.get(SPANNING[family], n)
        label = block_labels(family, n)
        inside_count = np.zeros(G.order, dtype=np.int64)
        row_any, row_all = np.zeros((2, G.degree), dtype=bool)
        for c, row in enumerate(G.perms):
            inside = label.take(row) == label
            inside_count += inside
            row_any[c], row_all[c] = inside.any(), inside.all()
        arcs = np.bincount(label, weights=inside_count, minlength=n + 1)
        block_edges = [int(a) // 2 for a in arcs[1:]]
        match = np.argmax(spanning.perms[:, :1] == G.perms[:, 0], axis=1)
        equal = np.array([np.array_equal(G.perms[m], row) for m, row in zip(match, spanning.perms)])
        matched = np.isin(np.arange(G.degree), match[equal])
        disjoint = not row_any[matched].any()
        union_equals_total = bool(equal.all() and np.all(matched | row_all))
        observed = {
            "total_edges": G.edge_count,
            "spanning_subgraph_edges": spanning.edge_count,
            "block_edges": block_edges,
            "sum_of_parts": spanning.edge_count + sum(block_edges),
            "disjoint": disjoint,
            "union_equals_total": union_equals_total,
        }
        edges = factorial(n) // 2 * predicted(family, n)[0] // 2
        predicted_value = {"total_edges": edges, "sum_of_parts": edges}
        passed = (
            disjoint
            and union_equals_total
            and observed["total_edges"] == observed["sum_of_parts"] == edges
        )
        return predicted_value, observed, None, passed

    return _timed(
        "edge_decomposition",
        "edge set splits into block subgraphs plus a spanning subgraph",
        run,
    )


def check_subgraph_isomorphism(family: str, n: int, i: int, cache=None) -> CheckResult:
    """The defining block induces a graph isomorphic to the (n-1)-point
    family graph, via the explicit relabeling map.

    The rows that meet the block, renamed through the map, must be the
    smaller graph's rows: both sets are put in the order of where each row
    sends vertex 0 and compared entry for entry.  A row that leaves the
    block part way keeps a -1 and matches none.  Both edge counts are held to
    (n-1)!/2 * d/2, d the (n-1)-point degree.  A doctored graph yields a
    failed check, not an exception.
    """
    check_family(family, n, 4, block=i)
    cache = cache or _GraphCache()

    def run():
        G = cache.get(family, n)
        H = cache.get(family, n - 1)
        edges = factorial(n - 1) // 2 * predicted(family, n - 1)[0] // 2
        block, image = phi_isomorphism(n, i, family)
        rename = np.full(G.order, -1, dtype=np.int32)
        rename[block] = image
        rows = np.stack([rename.take(row.take(block)) for row in G.perms])
        inside = rows >= 0
        mapped = rows[inside.any(axis=1)][:, np.argsort(image)]
        mapped = mapped[np.argsort(mapped[:, 0])]
        observed = {
            "block_size": int(block.size),
            "mapped_edges": int(np.count_nonzero(inside)) // 2,
            "target_edges": H.edge_count,
            "edge_sets_equal": np.array_equal(mapped, H.perms[np.argsort(H.perms[:, 0])]),
            "bijective": np.array_equal(np.sort(image), np.arange(H.order)),
        }
        predicted_value = {
            "block_size": H.order,
            "mapped_edges": edges,
            "target_edges": edges,
            "edge_sets_equal": True,
            "bijective": True,
        }
        return predicted_value, observed, None, observed == predicted_value

    return _timed(
        "subgraph_isomorphism",
        "defining block induces the next-smaller family graph",
        run,
    )


def check_decomposition_bound(
    family: str, n: int, tol: float = 1e-8, seed: int = 42, cache=None
) -> CheckResult:
    """Solver-level subadditivity of the second eigenvalue across the edge
    decomposition (the induction step behind the closed forms)."""
    check_family(family, n, 4, families=tuple(SPANNING))
    cache = cache or _GraphCache()

    def run():
        whole = cache.lambda2(family, n, tol, seed)
        if family == "EAG":
            part1 = cache.lambda2("EAG", n - 1, tol, seed)
            part2 = cache.lambda2("AG", n, tol, seed)
            label = ("EAG_{n-1}", "AG_n")
        else:
            part1 = cache.lambda2("EAG", n, tol, seed)
            part2 = cache.lambda2("CAG", n - 1, tol, seed)
            label = ("EAG_n", "CAG_{n-1}")
        bound = part1 + part2
        observed = {"lambda2": whole, label[0]: part1, label[1]: part2, "bound": bound}
        predicted_value = {"lambda2_at_most": bound}
        return predicted_value, observed, tol, whole <= bound + tol

    return _timed(
        "decomposition_bound",
        "second eigenvalue is subadditive across the edge decomposition",
        run,
    )


def structural_checks(family: str, n: int, i: int, cache: _GraphCache):
    """Yield the matchings (AG) or edge-decomposition (EAG, CAG) check, then the subgraph
    isomorphism check, each run when reached; ``verify`` adds the bound after the first."""
    check_family(family, n, 4, block=i)
    if family == "AG":
        yield check_matchings(n, i, cache=cache)
    else:
        yield check_edge_decomposition(family, n, cache=cache)
    yield check_subgraph_isomorphism(family, n, i, cache=cache)


def verify_family(
    family: str,
    n: int,
    tol: float = 1e-8,
    seed: int = 42,
    max_order: int = DEFAULT_MAX_ORDER,
    block_index: int = 1,
) -> VerificationReport:
    """Run the full check battery for one family at one n.

    Order: graph invariants, equitable partition vs the closed form, the
    integer spectrum of the divisor matrix that check measured on the graph
    vs the closed form, second eigenvalue (iterative always; exact when the
    order is within the fixed ``spectra.DENSE_ORDER_CAP``, n <= 7), spectral
    gap, canonical cut ratio, isoperimetric bracket (order within
    ``cheeger.BRUTE_ORDER_CAP``), then the structural checks.  Every check
    reads the built graph, so each can fail.  A battery builds each graph,
    the (n-1)-point ones included, once and within ``max_order``, and
    solves each second eigenvalue once.  The exact check proves the exact
    spectrum on the graph (:func:`~altspectra.spectra.certify_spectrum`)
    and gives the isoperimetric bracket its gap; no dense matrix is formed.
    """
    check_family(family, n, block=block_index)
    if not 0 < tol < 0.5:
        # Every named-family spectrum is integral: a residual under 1/2 ties
        # lambda2 to a single integer, a larger one lets any value pass.
        raise ValueError(f"tol must be in (0, 0.5), got {tol}")
    cache = _GraphCache(max_order)
    report = VerificationReport(family=family, n=n, seed=seed, block=block_index)
    G = cache.get(family, n)
    degree, lam2_pred, gap_pred = predicted(family, n)

    def invariants():
        violations = graph_invariant_violations(G)
        observed = {
            "order": G.order,
            "degree": G.degree,
            "edges": G.edge_count,
            "violations": violations,
            "connected": is_connected(G),
        }
        predicted_value = {
            "order": factorial(n) // 2,
            "degree": degree,
            "edges": factorial(n) // 2 * degree // 2,
            "violations": [],
            "connected": True,
        }
        return predicted_value, observed, None, observed == predicted_value

    report.checks.append(_timed("graph_invariants", "regular Cayley graph structure", invariants))

    partition_applies = n >= PARTITION_LEAST[family]
    if partition_applies:
        measured = None

        def equitable():
            nonlocal measured
            P = blocks_AG(n, block_index) if family == "AG" else blocks_Xij(n, i=block_index)
            result = check_equitable(G, P)
            B = divisor_closed_form(family, n)
            if isinstance(result, DivisorMatrix):
                measured = result
                ok = np.array_equal(result.entries, B.entries)
                observed = result.entries.tolist()
            else:
                ok = False
                observed = str(result)
            return B.entries.tolist(), observed, None, ok

        report.checks.append(
            _timed("equitable_partition", "block neighbor counts are constant", equitable)
        )

        def divisor_eigs():
            values = None if measured is None else divisor_spectrum(measured)
            target = divisor_eigenvalues_closed_form(family, n)
            return target, values, None, values == target

        report.checks.append(
            _timed("divisor_spectrum", "quotient matrix eigenvalues", divisor_eigs)
        )

    def lam2_iter():
        value = cache.lambda2(family, n, tol, seed)
        return lam2_pred, value, tol, abs(value - lam2_pred) <= max(tol, 1e-6)

    report.checks.append(
        _timed("lambda2_iterative", "closed-form second-largest eigenvalue", lam2_iter)
    )

    exact_lambda2 = None
    if G.order <= DENSE_ORDER_CAP:

        def lam2_exact():
            nonlocal exact_lambda2
            spectrum = exact_spectrum(family, n)
            exact_lambda2 = list(spectrum)[1]
            certificate = certify_spectrum(G, spectrum)
            observed = {"lambda2": exact_lambda2, **certificate}
            predicted_value = {"lambda2": lam2_pred, **dict.fromkeys(certificate, True)}
            return predicted_value, observed, None, observed == predicted_value

        report.checks.append(
            _timed("lambda2_exact", "closed-form second-largest eigenvalue", lam2_exact)
        )

    def gap():
        value = degree - cache.lambda2(family, n, tol, seed)
        return gap_pred, value, 2 * tol, abs(value - gap_pred) <= max(2 * tol, 2e-6)

    report.checks.append(_timed("spectral_gap", "closed-form adjacency spectral gap", gap))

    if partition_applies:

        def cut():
            S = _cheeger.canonical_cut(family, n, block_index)
            cr = _cheeger.cut_ratio(G, S)
            _, upper = _cheeger.corollary_bounds(family, n)
            boundary_pred = _cheeger.canonical_boundary(family, n)
            ok = cr.ratio == upper and cr.boundary == boundary_pred
            predicted_value = {"ratio": str(upper), "boundary": boundary_pred}
            observed = {"ratio": str(cr.ratio), "boundary": cr.boundary}
            return predicted_value, observed, None, ok

        report.checks.append(
            _timed("canonical_cut_ratio", "edge boundary of the defining block", cut)
        )

    if G.order <= _cheeger.BRUTE_ORDER_CAP:

        def bracket():
            h, witness = _cheeger.brute_force_h(G)
            mu = degree - exact_lambda2
            lower = mu / 2
            ok = float(h) >= lower - 1e-9
            observed = {"h": str(h), "witness": list(witness), "lower": lower}
            predicted_value = {"h_at_least": lower}
            if G.order > 3:
                _, upper = _cheeger.cheeger_bounds(mu, degree)
                predicted_value["h_at_most"] = upper
                observed["upper"] = upper
                ok = ok and float(h) <= upper + 1e-9
            return predicted_value, observed, 1e-9, ok

        report.checks.append(
            _timed("isoperimetric_bracket", "spectral bounds on the exact cut minimum", bracket)
        )

    if n >= 4:
        for check in structural_checks(family, n, block_index, cache):
            report.checks.append(check)
            if check.name == "edge_decomposition":
                bound = check_decomposition_bound(family, n, tol=tol, seed=seed, cache=cache)
                report.checks.append(bound)

    return report
