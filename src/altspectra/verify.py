"""Verification harness: structural and spectral checks per family and n.

Every check is one function in one shape: decorated with ``@_check(name,
ref)``, it returns the predicted value, the observed value, the tolerance
it was judged at, and a pass flag, and the decorator times the call and
wraps those in a :class:`CheckResult`.  A report is the ordered list of
checks plus their conjunction.  Check failures are recorded, never raised
(a :class:`~altspectra.cayley.Graph` refuses rows that name a non-vertex
when it is built, so no check meets one); infrastructure failures (a solver
that does not converge, a cap that is exceeded) propagate as exceptions
since no meaningful report exists then.
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
from functools import wraps

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
    generating_set,
    graph_invariant_violations,
    is_connected,
    phi_isomorphism,
)
from .partition import (
    Quotient,
    blocks_AG,
    blocks_Xij,
    check_equitable,
    divisor_closed_form,
    divisor_eigenvalues_closed_form,
    divisor_spectrum,
)
from .perm import alternating_order
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


def _check(name: str, ref: str):
    """Make a function that returns (predicted, observed, tolerance, passed)
    return that check's timed :class:`CheckResult` instead."""

    def decorate(fn):
        @wraps(fn)
        def timed(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            wanted, observed, tolerance, passed = fn(*args, **kwargs)
            millis = (time.perf_counter() - t0) * 1000.0
            return CheckResult(name, ref, wanted, observed, tolerance, bool(passed), millis)

        return timed

    return decorate


class _GraphCache:
    """Family graphs within ``max_order`` and their second eigenvalues, each
    made once; every solve runs to the battery's ``tol`` from its ``seed``.
    A held EAG_n or CAG_n serves its spanning graph (:data:`SPANNING`) as a
    view by generator prefix: its first rows, when the generating set it was
    built from starts with the spanning graph's.  Each built row maps every
    vertex g to rank(t*g) for its own generator t, so those rows are the
    spanning graph's; a hand-made (doctored or reordered) graph, or one built
    from other generators first, gets a full build."""

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER, tol: float = 1e-8, seed: int = 42):
        self.max_order, self.tol, self.seed = max_order, tol, seed
        self._graphs: dict[tuple[str, int], Graph] = {}
        self._lambda2: dict[tuple[str, int], float] = {}

    def get(self, family: str, n: int) -> Graph:
        key = (family, n)
        if key not in self._graphs:
            view = self._prefix_view(family, n)
            self._graphs[key] = view or build_family(family, n, max_order=self.max_order)
        return self._graphs[key]

    def _prefix_view(self, family: str, n: int) -> Graph | None:
        """The first rows of a held graph that ``family``'s graph spans, when
        its generators start with ``family``'s; else None."""
        whole = next((self._graphs.get((f, n)) for f, s in SPANNING.items() if s == family), None)
        if whole is None or whole.gens is None:
            return None
        gens = generating_set(family, n)
        if whole.gens.elements[: gens.size] == gens.elements:
            return Graph._built(whole.perms[: gens.size], gens)

    def lambda2(self, family: str, n: int) -> float:
        key = (family, n)
        if key not in self._lambda2:
            self._lambda2[key] = lambda2_iterative(self.get(*key), tol=self.tol, seed=self.seed)
        return self._lambda2[key]


def _edges(family: str, n: int) -> int:
    """Closed-form edge count of the family graph on A_n: |A_n| * d / 2."""
    return alternating_order(n) * predicted(family, n)[0] // 2


@_check("matchings", "one-to-one edges between adjacent blocks")
def check_matchings(n: int, i: int, cache=None) -> CheckResult:
    """The edges between X(i), the vertices with the value i last, and each of
    Y(i) and Z(i), with i first and second, are perfect matchings: every X(i)
    vertex has exactly one neighbor in Y(i) and one in Z(i), and every Y(i)
    and Z(i) vertex exactly one in X(i).  Each matching size is its edge count."""
    check_family("AG", n, 4, block=i)
    G = (cache or _GraphCache()).get("AG", n)
    block_of = blocks_AG(n, i).block_of  # X(i), Y(i), Z(i), W(i) as 0..3
    # Each vertex's neighbors in the four blocks, one 4-byte record a vertex.
    counts = G.gather_sum(np.eye(4, dtype=np.uint8).take(block_of, axis=0))
    in_x = block_of == 0
    problems, sizes = [], []
    for b, label in ((1, "Y"), (2, "Z")):
        problems += [
            f"vertex {v} has {counts[v, b]} neighbors in {label}({i})"
            for v in np.flatnonzero(in_x & (counts[:, b] != 1))
        ]
        problems += [
            f"vertex {v} of {label}({i}) has {counts[v, 0]} neighbors in X({i})"
            for v in np.flatnonzero((block_of == b) & (counts[:, 0] != 1))
        ]
        sizes.append(int(counts[in_x, b].sum()))
    size = alternating_order(n - 1)
    observed = {"matching_size_Y": sizes[0], "matching_size_Z": sizes[1], "problems": problems}
    predicted_value = {"matching_size_Y": size, "matching_size_Z": size, "problems": []}
    return predicted_value, observed, None, observed == predicted_value


@_check("edge_decomposition", "edge set splits into block subgraphs plus a spanning subgraph")
def check_edge_decomposition(family: str, n: int, cache=None) -> CheckResult:
    """Exact edge-set split of EAG_n (resp. CAG_n) into the n block
    subgraphs plus AG_n (resp. EAG_n).

    Block i's edges are the arcs whose ends both carry the block label i.
    Each spanning row must equal the row of the whole graph that sends
    vertex 0 to the same place; no such row may have an arc inside a block,
    and every other row must stay inside the blocks at every vertex.  The
    edge count of the graph and the sum of the parts' edge counts must both
    equal the closed form n!/2 * d/2, with d the family degree.  Both graphs
    come from the cache, the spanning one as a view of G's first rows by
    generator prefix.
    """
    check_family(family, n, 4, families=tuple(SPANNING))
    cache = cache or _GraphCache()
    G = cache.get(family, n)
    spanning = cache.get(SPANNING[family], n)
    label = block_labels(family, n)
    inside_count = np.zeros(G.order, dtype=np.min_scalar_type(G.degree))
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
    edges = _edges(family, n)
    predicted_value = {"total_edges": edges, "sum_of_parts": edges}
    passed = disjoint and union_equals_total and G.edge_count == observed["sum_of_parts"] == edges
    return predicted_value, observed, None, passed


@_check("subgraph_isomorphism", "defining block induces the next-smaller family graph")
def check_subgraph_isomorphism(family: str, n: int, i: int, cache=None) -> CheckResult:
    """The defining block induces a graph isomorphic to the (n-1)-point
    family graph, via the explicit relabeling map.

    The rows that meet the block, renamed through the map one at a time,
    must be the smaller graph's rows, each the one that sends vertex 0 to
    the same place (as :func:`check_edge_decomposition` matches them), each
    matched once and every one matched.  A row that leaves the block part
    way keeps a -1 and equals none.  Both edge counts are held to
    (n-1)!/2 * d/2, d the (n-1)-point degree.  A doctored graph, or a map
    that is no bijection onto the smaller graph's vertices, yields a failed
    check, not an exception: no row is compared through such a map.
    """
    check_family(family, n, 4, block=i)
    cache = cache or _GraphCache()
    G = cache.get(family, n)
    H = cache.get(family, n - 1)
    edges = _edges(family, n - 1)
    block, image = phi_isomorphism(n, i, family)
    bijective = np.array_equal(np.sort(image), np.arange(H.order))
    rename = np.full(G.order, -1, dtype=np.int32)
    rename[block] = image
    zero = np.argmin(image)  # the block member renamed to vertex 0
    unmatched = {v: m for m, v in enumerate(H.perms[:, 0].tolist())}  # H's rows by image of 0
    arcs, matched, equal = 0, 0, bijective
    for row in G.perms:
        mapped = rename.take(row.take(block))
        inside = np.count_nonzero(mapped >= 0)
        if inside:
            arcs, matched = arcs + inside, matched + 1
            m = unmatched.pop(int(mapped[zero]), None)
            equal = equal and m is not None and np.array_equal(H.perms[m].take(image), mapped)
    observed = {
        "block_size": int(block.size),
        "mapped_edges": arcs // 2,
        "target_edges": H.edge_count,
        "edge_sets_equal": equal and matched == H.degree,
        "bijective": bijective,
    }
    predicted_value = {
        "block_size": H.order,
        "mapped_edges": edges,
        "target_edges": edges,
        "edge_sets_equal": True,
        "bijective": True,
    }
    return predicted_value, observed, None, observed == predicted_value


@_check("decomposition_bound", "second eigenvalue is subadditive across the edge decomposition")
def check_decomposition_bound(family: str, n: int, cache=None) -> CheckResult:
    """Solver-level subadditivity of the second eigenvalue across the edge
    decomposition (the induction step behind the closed forms), judged at
    the cache's tolerance."""
    check_family(family, n, 4, families=tuple(SPANNING))
    cache = cache or _GraphCache()
    whole = cache.lambda2(family, n)
    if family == "EAG":  # AG_n first: the pairs at n are held until the (n-1)-point build
        part2, part1 = cache.lambda2("AG", n), cache.lambda2("EAG", n - 1)
        label = ("EAG_{n-1}", "AG_n")
    else:
        part1, part2 = cache.lambda2("EAG", n), cache.lambda2("CAG", n - 1)
        label = ("EAG_n", "CAG_{n-1}")
    bound = part1 + part2
    observed = {"lambda2": whole, label[0]: part1, label[1]: part2, "bound": bound}
    return {"lambda2_at_most": bound}, observed, cache.tol, whole <= bound + cache.tol


def _spanning_check(family: str, n: int, i: int, cache: _GraphCache) -> CheckResult:
    """The matchings (AG) or edge-decomposition (EAG, CAG) check."""
    if family == "AG":
        return check_matchings(n, i, cache)
    return check_edge_decomposition(family, n, cache)


def structural_checks(family: str, n: int, i: int, cache: _GraphCache) -> list[CheckResult]:
    """The matchings (AG) or edge-decomposition (EAG, CAG) check, then the
    subgraph isomorphism check; ``verify`` runs the bound between them."""
    check_family(family, n, 4, block=i)
    return [_spanning_check(family, n, i, cache), check_subgraph_isomorphism(family, n, i, cache)]


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
    ``cheeger.BRUTE_ORDER_CAP``), then the structural checks and the bound
    between them, run in that order.  Every check reads the built graph, so
    each can fail.  A battery builds each graph, the (n-1)-point ones
    included, once and within ``max_order``, but takes the spanning graph of
    EAG_n or CAG_n as a view of its first rows by generator prefix
    (:class:`_GraphCache`); it solves each second eigenvalue once.  The exact
    check proves the exact spectrum on the graph
    (:func:`~altspectra.spectra.certify_spectrum`) and the isoperimetric
    bracket reads its gap from it; no dense matrix is formed.
    """
    check_family(family, n, block=block_index)
    if not 0 < tol < 0.5:
        # Every named-family spectrum is integral: a residual under 1/2 ties
        # lambda2 to a single integer, a larger one lets any value pass.
        raise ValueError(f"tol must be in (0, 0.5), got {tol}")
    cache = _GraphCache(max_order, tol, seed)
    G = cache.get(family, n)
    degree, lam2_pred, gap_pred = predicted(family, n)
    exact = exact_spectrum(family, n) if G.order <= DENSE_ORDER_CAP else None
    measured = None

    @_check("graph_invariants", "regular Cayley graph structure")
    def invariants():
        observed = {
            "order": G.order,
            "degree": G.degree,
            "edges": G.edge_count,
            "violations": graph_invariant_violations(G),
            "connected": is_connected(G),
        }
        predicted_value = {
            "order": alternating_order(n),
            "degree": degree,
            "edges": _edges(family, n),
            "violations": [],
            "connected": True,
        }
        return predicted_value, observed, None, observed == predicted_value

    @_check("equitable_partition", "block neighbor counts are constant")
    def equitable():
        nonlocal measured
        P = blocks_AG(n, block_index) if family == "AG" else blocks_Xij(n, i=block_index)
        result = check_equitable(G, P)
        closed = divisor_closed_form(family, n)
        if not isinstance(result, Quotient):
            return closed.B, str(result), None, False
        measured = result
        ok = (result.sizes, result.B) == (closed.sizes, closed.B)  # roots differ at n = 3
        return closed.B, result.B, None, ok

    @_check("divisor_spectrum", "quotient matrix eigenvalues")
    def divisor_eigs():
        values = None if measured is None else divisor_spectrum(measured)
        target = divisor_eigenvalues_closed_form(family, n)
        return target, values, None, values == target

    @_check("lambda2_iterative", "closed-form second-largest eigenvalue")
    def lam2_iter():
        value = cache.lambda2(family, n)
        return lam2_pred, value, tol, abs(value - lam2_pred) <= max(tol, 1e-6)

    @_check("lambda2_exact", "closed-form second-largest eigenvalue")
    def lam2_exact():
        certificate = certify_spectrum(G, exact)
        observed = {"lambda2": list(exact)[1], **certificate}
        predicted_value = {"lambda2": lam2_pred, **dict.fromkeys(certificate, True)}
        return predicted_value, observed, None, observed == predicted_value

    @_check("spectral_gap", "closed-form adjacency spectral gap")
    def gap():
        value = degree - cache.lambda2(family, n)
        return gap_pred, value, 2 * tol, abs(value - gap_pred) <= max(2 * tol, 2e-6)

    @_check("canonical_cut_ratio", "edge boundary of the defining block")
    def cut():
        cr = _cheeger.cut_ratio(G, _cheeger.canonical_cut(family, n, block_index))
        _, upper = _cheeger.corollary_bounds(family, n)
        boundary_pred = _cheeger.canonical_boundary(family, n)
        ok = cr.ratio == upper and cr.boundary == boundary_pred
        predicted_value = {"ratio": str(upper), "boundary": boundary_pred}
        return predicted_value, {"ratio": str(cr.ratio), "boundary": cr.boundary}, None, ok

    @_check("isoperimetric_bracket", "spectral bounds on the exact cut minimum")
    def bracket():
        h, witness = _cheeger.brute_force_h(G)
        mu = degree - list(exact)[1]  # the brute-force cap is below the dense one
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

    partition_applies = n >= PARTITION_LEAST[family]
    checks = [invariants()]
    if partition_applies:
        checks += [equitable(), divisor_eigs()]
    checks.append(lam2_iter())
    if G.order <= DENSE_ORDER_CAP:
        checks.append(lam2_exact())
    checks.append(gap())
    if partition_applies:
        checks.append(cut())
    if G.order <= _cheeger.BRUTE_ORDER_CAP:
        checks.append(bracket())
    if n >= 4:  # in report order: EAG_n is solved before any (n-1)-point build
        checks.append(_spanning_check(family, n, block_index, cache))
        if family in SPANNING:
            checks.append(check_decomposition_bound(family, n, cache))
        checks.append(check_subgraph_isomorphism(family, n, block_index, cache))
    return VerificationReport(family, n, seed, block_index, checks)
