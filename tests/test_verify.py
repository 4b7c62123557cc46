import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from altspectra.cayley import (
    FAMILIES,
    SPANNING,
    GeneratingSet,
    Graph,
    block_labels,
    build_cayley,
    build_family,
    generating_set,
    induced_subgraph,
    phi_isomorphism,
)
from altspectra.cheeger import canonical_cut
from altspectra.partition import blocks_AG
from altspectra.perm import alternating_order, parse_generator_list
from altspectra import cayley, spectra, verify
from altspectra.spectra import predicted
from altspectra.verify import (
    CheckResult,
    VerificationReport,
    _GraphCache,
    check_decomposition_bound,
    check_edge_decomposition,
    check_matchings,
    check_subgraph_isomorphism,
    structural_checks,
    verify_family,
)


def _swap_arcs(perms, c, a, x):
    """Arcs a -> b and x -> d of row c become a -> d and x -> b, and their
    reverse arcs move in the inverse row, so every row stays a bijection
    with an inverse row."""
    back = np.argmax(perms[:, perms[c, 0]] == 0)
    b, d = perms[c, a], perms[c, x]
    perms[c, a], perms[c, x] = d, b
    perms[back, d], perms[back, b] = a, x


@pytest.mark.parametrize("n,i,size", [(4, 1, 3), (5, 2, 12)])
def test_matchings_pass(graph, n, i, size):
    result = check_matchings(n, i)
    assert result.passed
    assert result.observed["matching_size_Y"] == size
    assert result.observed["matching_size_Z"] == size
    assert result.observed == _matchings_by_loops(graph("AG", n), n, i)


def test_matchings_fail_after_swapping_edges(graph):
    # Swap the X-Y arc a -> b of row c with a W-W arc v -> d of the same
    # row: every degree is kept, but a loses its only Y neighbor and b its
    # only X neighbor.
    G = graph("AG", 4)
    x, y, _, w = _ag_blocks(4, 1)
    perms = G.perms.copy()
    a = int(x[0])
    c = next(c for c in range(G.degree) if perms[c, a] in y)
    b = perms[c, a]
    v = next(
        v for v in w if perms[c, v] in w and perms[c, v] not in perms[:, a] and b not in perms[:, v]
    )
    _swap_arcs(perms, c, a, v)
    doctored = Graph(perms=perms)
    result = check_matchings(4, 1, cache=_FixedGraphs({("AG", 4): doctored}))
    assert not result.passed
    assert f"vertex {a} has 0 neighbors in Y(1)" in result.observed["problems"]
    assert f"vertex {b} of Y(1) has 0 neighbors in X(1)" in result.observed["problems"]
    assert result.observed == _matchings_by_loops(doctored, 4, 1)


def _random_swaps(G, rng, count):
    """``count`` random arc swaps that add no self-loop or repeated neighbor."""
    perms = G.perms.copy()
    done = 0
    while done < count:
        c = rng.randrange(G.degree)
        a, x = rng.sample(range(G.order), 2)
        b, d = perms[c, a], perms[c, x]
        if len({a, b, x, d}) < 4 or d in perms[:, a] or b in perms[:, x]:
            continue
        _swap_arcs(perms, c, a, x)
        done += 1
    return Graph(perms=perms)


def test_matchings_agree_with_loops_after_random_swaps(graph):
    rng = random.Random(7)
    kinds = set()
    for _ in range(20):
        doctored = _random_swaps(graph("AG", 5), rng, 20)
        cache = _FixedGraphs({("AG", 5): doctored})
        for i in (1, 5):
            observed = check_matchings(5, i, cache=cache).observed
            assert observed == _matchings_by_loops(doctored, 5, i)
            kinds.update(p.split(" ", 2)[2].split(" in ")[0] for p in observed["problems"])
    # Lines from the X side and from the Y and Z sides.
    assert {"has 0 neighbors", "has 2 neighbors", "of Y(1) has 2 neighbors",
            "of Z(5) has 0 neighbors"} <= kinds


def _ag_blocks(n, i):
    """The vertices of X(i), Y(i), Z(i) and W(i), each ascending."""
    block_of = blocks_AG(n, i).block_of
    return [np.flatnonzero(block_of == b) for b in range(4)]


def _matchings_by_loops(G, n, i):
    """The matchings check's observed value, counted vertex by vertex from
    the X(i) side and from the Y(i) or Z(i) side."""
    x, y, z, _ = _ag_blocks(n, i)
    problems, sizes = [], []
    for label, side in (("Y", y), ("Z", z)):
        size = 0
        for v in x.tolist():
            hits = sum(u in side for u in G.perms[:, v].tolist())
            size += hits
            if hits != 1:
                problems.append(f"vertex {v} has {hits} neighbors in {label}({i})")
        for v in side.tolist():
            hits = sum(u in x for u in G.perms[:, v].tolist())
            if hits != 1:
                problems.append(f"vertex {v} of {label}({i}) has {hits} neighbors in X({i})")
        sizes.append(size)
    return {"matching_size_Y": sizes[0], "matching_size_Z": sizes[1], "problems": problems}


class _FixedGraphs:
    """A graph cache that hands out the given graphs, doctored or not."""

    def __init__(self, graphs):
        self.graphs = graphs

    def get(self, family, n):
        return self.graphs[(family, n)]


@pytest.mark.parametrize(
    "graphs,disjoint,union_equals_total",
    [
        # spanning subgraph replaced by the whole graph: parts overlap
        ({("EAG", 4): ("EAG", 4), ("AG", 4): ("EAG", 4)}, False, True),
        # whole graph replaced by a larger one: parts miss edges
        ({("EAG", 4): ("CAG", 4), ("AG", 4): ("AG", 4)}, True, False),
        # spanning subgraph replaced by a larger graph: it has edges the whole lacks
        ({("EAG", 4): ("EAG", 4), ("AG", 4): ("CAG", 4)}, False, False),
    ],
)
def test_edge_decomposition_fails_on_wrong_graphs(graph, graphs, disjoint, union_equals_total):
    cache = _FixedGraphs({key: graph(*value) for key, value in graphs.items()})
    result = check_edge_decomposition("EAG", 4, cache=cache)
    assert not result.passed
    assert result.observed["disjoint"] is disjoint
    assert result.observed["union_equals_total"] is union_equals_total


def test_edge_decomposition_compares_whole_rows(graph):
    # A swap away from vertex 0 keeps every spanning row matched to the same
    # row of EAG_4, but one of them no longer equals its match.
    AG4 = graph("AG", 4)
    spanning = next(
        s
        for s in (_random_swaps(AG4, random.Random(seed), 1) for seed in range(100))
        if np.array_equal(s.perms[:, 0], AG4.perms[:, 0])
    )
    cache = _FixedGraphs({("EAG", 4): graph("EAG", 4), ("AG", 4): spanning})
    result = check_edge_decomposition("EAG", 4, cache=cache)
    assert not result.passed
    assert result.observed["union_equals_total"] is False


@pytest.mark.parametrize("family,spanning", [("EAG", "AG"), ("CAG", "EAG")])
def test_edge_decomposition_counts_edges_against_the_closed_form(graph, family, spanning):
    # The whole graph replaced by its own spanning subgraph: every row is
    # matched and no block has an edge, so only the edge count is wrong.
    G = graph(spanning, 5)
    cache = _FixedGraphs({(family, 5): G, (spanning, 5): G})
    result = check_edge_decomposition(family, 5, cache=cache)
    assert not result.passed
    assert result.observed["disjoint"] and result.observed["union_equals_total"]
    edges = {"EAG": 360, "CAG": 600}[family]
    assert result.predicted == {"total_edges": edges, "sum_of_parts": edges}
    assert result.observed["total_edges"] == result.observed["sum_of_parts"] == G.edge_count


@pytest.mark.parametrize("family,spanning", [("EAG", "AG"), ("CAG", "EAG")])
def test_structural_checks_record_failures_on_swapped_graphs(graph, family, spanning):
    # Swapped blocks induce irregular subgraphs; the checks must report,
    # not raise.
    rng = random.Random(11)
    isomorphism_passes = []
    for _ in range(20):
        doctored = _random_swaps(graph(family, 5), rng, 5)
        cache = _FixedGraphs(
            {(family, 5): doctored, (spanning, 5): graph(spanning, 5), (family, 4): graph(family, 4)}
        )
        assert check_edge_decomposition(family, 5, cache=cache).passed is False
        isomorphism_passes.append(check_subgraph_isomorphism(family, 5, 1, cache=cache).passed)
    assert False in isomorphism_passes


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_block_edges_match_induced_subgraphs(graph, family, n):
    G = graph(family, n)
    oracle = [induced_subgraph(G, canonical_cut(family, n, i)).edge_count for i in range(1, n + 1)]
    if family == "AG":
        # AG has no edge decomposition check; count label-equal edges directly.
        label = block_labels(family, n)[G.edges_array()]
        same = label[:, 0] == label[:, 1]
        observed = np.bincount(label[same, 0], minlength=n + 1)[1:].tolist()
    else:
        observed = check_edge_decomposition(family, n).observed["block_edges"]
    assert observed == oracle


def test_subgraph_isomorphism_fails_on_relabelled_target(graph):
    # Same order and edge count as AG_4, different edge set.
    H = graph("AG", 4)
    relabel = np.roll(np.arange(H.order), 1)
    # Conjugate every row: vertex v becomes relabel[v].
    perms = np.empty_like(H.perms)
    perms[:, relabel] = relabel[H.perms]
    cache = _FixedGraphs({("AG", 5): graph("AG", 5), ("AG", 4): Graph(perms=perms)})
    result = check_subgraph_isomorphism("AG", 5, 1, cache=cache)
    assert not result.passed
    assert result.observed["mapped_edges"] == result.observed["target_edges"] == 24
    assert result.observed["edge_sets_equal"] is False


def test_subgraph_isomorphism_holds_the_target_to_the_closed_form(graph):
    # AG_4 without its first inverse pair of rows: every block vertex still
    # maps onto it, but it has 12 edges where the closed form says 24.
    cache = _FixedGraphs({("AG", 5): graph("AG", 5), ("AG", 4): Graph(graph("AG", 4).perms[2:])})
    result = check_subgraph_isomorphism("AG", 5, 1, cache=cache)
    assert not result.passed
    assert result.observed["target_edges"] == 12
    assert result.predicted["mapped_edges"] == result.predicted["target_edges"] == 24


def test_subgraph_isomorphism_fails_when_a_row_enters_the_block(graph):
    # Swap two arcs of a row that leaves the block so that one of them joins
    # two block vertices: the block gains an edge that no row keeping the
    # block carries.
    G = graph("AG", 5)
    block = canonical_cut("AG", 5, 1)
    in_block = np.isin(np.arange(G.order), block)
    perms = G.perms.copy()
    a = int(block[0])
    c = next(c for c in range(G.degree) if not in_block[perms[c, a]])
    b = perms[c, a]
    x = next(
        x
        for x in np.flatnonzero(~in_block)
        if in_block[perms[c, x]]
        and len({a, b, x, perms[c, x]}) == 4
        and perms[c, x] not in perms[:, a]
        and b not in perms[:, x]
    )
    _swap_arcs(perms, c, a, x)
    cache = _FixedGraphs({("AG", 5): Graph(perms=perms), ("AG", 4): graph("AG", 4)})
    result = check_subgraph_isomorphism("AG", 5, 1, cache=cache)
    assert not result.passed
    assert result.observed["mapped_edges"] == 25
    assert result.observed["edge_sets_equal"] is False


@pytest.mark.parametrize("broken", ["verify.phi_isomorphism", "cayley.alternating_ranks"])
def test_subgraph_isomorphism_records_a_map_that_is_no_bijection(monkeypatch, broken):
    # The block map sends two members to one vertex, whether the check's map
    # or the ranking inside phi breaks: the check records it, not raises.
    def phi(n, i, family):
        block, image = phi_isomorphism(n, i, family)
        return block, collapse(image)

    def collapse(image):
        image[1] = image[0]
        return image

    cache = _GraphCache()
    cache.get("AG", 5), cache.get("AG", 4)  # built before the map breaks
    ranks = cayley.alternating_ranks
    patch = {
        "verify.phi_isomorphism": (verify, "phi_isomorphism", phi),
        "cayley.alternating_ranks": (cayley, "alternating_ranks", lambda a: collapse(ranks(a))),
    }[broken]
    monkeypatch.setattr(*patch)
    result = check_subgraph_isomorphism("AG", 5, 1, cache=cache)
    assert not result.passed
    assert result.observed["bijective"] is False and result.predicted["bijective"] is True


@pytest.mark.parametrize("entry", [12, 10**6])
def test_subgraph_isomorphism_records_a_map_that_names_a_non_vertex(monkeypatch, graph, entry):
    # AG_4 has 12 vertices: a block map that names 12 or more is no
    # bijection onto them and must not index its rows.
    def phi(n, i, family):
        block, image = phi_isomorphism(n, i, family)
        image[3] = entry
        return block, image

    monkeypatch.setattr(verify, "phi_isomorphism", phi)
    cache = _FixedGraphs({("AG", 5): graph("AG", 5), ("AG", 4): graph("AG", 4)})
    result = check_subgraph_isomorphism("AG", 5, 1, cache=cache)
    assert not result.passed
    assert result.observed["bijective"] is False
    assert result.observed["edge_sets_equal"] is False


@pytest.mark.parametrize(
    "family,n,spanning,blocks",
    [("EAG", 4, 24, [3, 3, 3, 3]), ("CAG", 4, 36, [3, 3, 3, 3]), ("EAG", 5, 180, [36] * 5)],
)
def test_edge_decomposition_counts(family, n, spanning, blocks):
    result = check_edge_decomposition(family, n)
    assert result.passed
    assert result.observed["spanning_subgraph_edges"] == spanning
    assert result.observed["block_edges"] == blocks
    assert result.observed["total_edges"] == spanning + sum(blocks)
    assert result.observed["sum_of_parts"] == spanning + sum(blocks)
    assert result.predicted["total_edges"] == result.predicted["sum_of_parts"] == spanning + sum(blocks)


@pytest.mark.parametrize("family,n,i", [("AG", 5, 3), ("EAG", 5, 1), ("CAG", 4, 2)])
def test_subgraph_isomorphism(family, n, i):
    result = check_subgraph_isomorphism(family, n, i)
    assert result.passed
    assert result.observed == result.predicted


@pytest.mark.parametrize(
    "family,n,parts",
    [("EAG", 5, (1.0, 4.0)), ("CAG", 5, (5.0, 0.0)), ("CAG", 6, (11.0, 5.0))],
)
def test_decomposition_bound(family, n, parts):
    result = check_decomposition_bound(family, n)
    assert result.passed
    observed = result.observed
    values = sorted(v for k, v in observed.items() if k not in ("lambda2", "bound"))
    for got, want in zip(values, sorted(parts)):
        assert got == pytest.approx(want, abs=1e-6)
    assert observed["lambda2"] <= observed["bound"] + 1e-6


def _fields_but_millis(check):
    return {key: value for key, value in vars(check).items() if key != "millis"}


@pytest.mark.parametrize("family", FAMILIES)
def test_battery_structural_checks_equal_the_standalone_checks(family):
    # The battery puts the bound between the two structural checks.
    standalone = structural_checks(family, 5, 1, verify._GraphCache())
    if family != "AG":
        standalone.insert(1, check_decomposition_bound(family, 5, verify._GraphCache()))
    battery = verify_family(family, 5).checks[-len(standalone):]
    assert [_fields_but_millis(c) for c in battery] == [_fields_but_millis(c) for c in standalone]


def test_decomposition_bound_judges_at_the_cache_tolerance():
    result = check_decomposition_bound("EAG", 5, cache=verify._GraphCache(tol=1e-6))
    assert result.tolerance == 1e-6
    assert result.passed


@pytest.mark.parametrize(
    "check,doc",
    [
        (check_matchings, "The edges between X(i)"),
        (check_edge_decomposition, "Exact edge-set split"),
        (check_subgraph_isomorphism, "The defining block induces"),
        (check_decomposition_bound, "Solver-level subadditivity"),
    ],
)
def test_decorated_checks_keep_their_name_and_docstring(check, doc):
    assert getattr(verify, check.__name__) is check
    assert check.__doc__.startswith(doc)


def test_verify_family_AG5():
    report = verify_family("AG", 5, tol=1e-8)
    assert report.overall
    gap = next(c for c in report.checks if c.name == "spectral_gap")
    assert gap.observed == pytest.approx(2.0, abs=1e-6)


def test_verify_family_EAG4():
    report = verify_family("EAG", 4, tol=1e-8)
    assert report.overall
    lam2 = next(c for c in report.checks if c.name == "lambda2_iterative")
    assert lam2.observed == pytest.approx(1.0, abs=1e-6)


def test_verify_family_CAG3_special_case():
    report = verify_family("CAG", 3, tol=1e-8)
    assert report.overall
    lam2 = next(c for c in report.checks if c.name == "lambda2_iterative")
    assert lam2.observed == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("tol", [1e6, 0.5, 0.0, -1e-8, float("inf"), float("nan")])
def test_verify_family_rejects_tol_outside_open_half_unit(tol):
    # A residual of 1/2 or more no longer ties lambda2 to one integer.
    with pytest.raises(ValueError, match="tol must be in"):
        verify_family("AG", 5, tol=tol)


def test_report_records_seed_and_block():
    report = verify_family("EAG", 5, seed=11, block_index=4).to_dict()
    assert (report["seed"], report["block"]) == (11, 4)
    assert report["overall"]


# The first generator pair of each family, traded for a pair outside its T.
WRONG_PAIR = {"AG": "(1,3,4),(1,4,3)", "EAG": "(2,3,4),(2,4,3)", "CAG": "(1,2)(3,4),(1,3)(2,4)"}


def _doctorings(G):
    """Doctored copies of G's rows by name; "rows reordered", G's own rows
    in another order, is the control."""
    n, family = G.n, G.family_tag
    rng = random.Random(n)
    gens = generating_set(family, n).elements[2:]
    gens = GeneratingSet(n, (*parse_generator_list(WRONG_PAIR[family], n), *gens))
    rename = np.random.default_rng(n).permutation(G.order)
    renamed = np.empty_like(G.perms)
    renamed[:, rename] = rename.take(G.perms)
    one_way = G.perms.copy()
    one_way[0, 0] = np.setdiff1d(np.arange(1, G.order), G.perms[:, 0])[0]
    return {
        "one arc swap": _random_swaps(G, rng, 1).perms,
        "20 arc swaps": _random_swaps(G, rng, 20).perms,
        "wrong generator pair": build_cayley(n, gens).perms,
        "vertices renamed": renamed,
        "one arc without its reverse": one_way,
        "rows reordered": G.perms[::-1],
    }


def test_every_check_fails_on_some_doctored_graph(monkeypatch):
    # Each doctored graph stands in for the family graph under test; the
    # graphs it is compared with are built as usual.
    served = {}
    monkeypatch.setattr(
        verify, "build_family", lambda f, n, **kw: served.get((f, n)) or build_family(f, n, **kw)
    )
    names, failed = set(), set()
    for family in FAMILIES:
        for n in (5, 6):
            for label, perms in _doctorings(build_family(family, n)).items():
                served[(family, n)] = Graph(perms=perms, n=n, family_tag=family)
                report = verify_family(family, n)
                names.update(c.name for c in report.checks)
                failed.update(c.name for c in report.checks if not c.passed)
                assert report.overall == (label == "rows reordered"), (family, n, label)
            del served[(family, n)]
    assert names - failed == set()


@pytest.mark.parametrize("family", list(SPANNING))
def test_spanning_generators_are_the_family_generators_first(family):
    # The cache serves the spanning graph as the family graph's first rows;
    # if the generator order changes, it falls back to a build and this fails.
    for n in range(4, 13):
        spanning = generating_set(SPANNING[family], n).elements
        assert spanning == generating_set(family, n).elements[: len(spanning)]
        if n <= 7:
            rows = build_family(family, n).perms[: len(spanning)]
            assert np.array_equal(build_family(SPANNING[family], n).perms, rows)


@pytest.mark.parametrize("family", list(SPANNING))
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_cache_serves_the_spanning_graph_as_a_view(family, n):
    cache = _GraphCache()
    G = cache.get(family, n)
    H = cache.get(SPANNING[family], n)
    assert np.shares_memory(H.perms, G.perms)
    assert (H.n, H.family_tag) == (n, SPANNING[family])
    assert H.gens == generating_set(SPANNING[family], n)
    assert np.array_equal(H.perms, build_family(SPANNING[family], n).perms)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_a_battery_builds_two_graphs(monkeypatch, family, n):
    # F_n and F_{n-1}; the spanning graph of EAG_n or CAG_n is no build.
    calls, build = [], cayley.build_cayley

    def counted(n, gens, *args, **kwargs):
        calls.append((gens.family_tag, n))
        return build(n, gens, *args, **kwargs)

    monkeypatch.setattr(cayley, "build_cayley", counted)
    # Also count the calls of a verify module that imports build_cayley by name.
    monkeypatch.setattr(verify, "build_cayley", counted, raising=False)
    assert verify_family(family, n).overall
    assert calls == [(family, n), (family, n - 1)]


def test_cache_builds_the_spanning_graph_of_a_graph_with_other_generators_first(monkeypatch):
    # A CAG graph built from CAG's generators in reverse order is a true
    # CAG_6, but its first rows are not EAG_6's: the spanning graph is built.
    n = 6
    gens = GeneratingSet(n, generating_set("CAG", n).elements[::-1], family_tag="CAG")
    F = build_cayley(n, gens)
    monkeypatch.setattr(
        verify, "build_family", lambda f, n, **kw: F if f == "CAG" else build_family(f, n, **kw)
    )
    cache = _GraphCache()
    assert cache.get("CAG", n) is F
    H = cache.get("EAG", n)
    assert H == build_family("EAG", n) and H.gens == generating_set("EAG", n)
    assert not np.shares_memory(H.perms, F.perms)


@pytest.mark.parametrize("family", list(SPANNING))
def test_cache_builds_the_spanning_graph_of_a_doctored_graph(monkeypatch, family):
    # A hand-made family graph carries no generating set, so its spanning
    # graph gets an independent build, even when its first rows are intact
    # (an arc swapped in a later row).
    served = {}
    monkeypatch.setattr(
        verify, "build_family", lambda f, n, **kw: served.get((f, n)) or build_family(f, n, **kw)
    )
    n = 5
    spanning = build_family(SPANNING[family], n)
    for label, perms in _doctorings(build_family(family, n)).items():
        served[(family, n)] = Graph(perms=perms, n=n, family_tag=family)
        cache = _GraphCache()
        cache.get(family, n)
        H = cache.get(SPANNING[family], n)
        intact = np.array_equal(perms[: spanning.degree], spanning.perms)
        assert intact == (label == "one arc swap"), label
        assert not np.shares_memory(H.perms, perms), label
        assert H == spanning, label


def test_a_graph_replaced_from_a_build_is_no_build(monkeypatch):
    # One arc of CAG_6's row 0 rerouted, its reverse moved in row 1, and the
    # rows put in through dataclasses.replace: the copy carries no generating
    # set, so the cache builds EAG_6 instead of serving the doctored first
    # rows as it, and the edge decomposition sees the rerouted arc.
    F = build_family("CAG", 6)
    perms = F.perms.copy()
    x = next(
        x for x in range(1, F.order)
        if len({0, perms[0, 0], x, perms[0, x]}) == 4
        and perms[0, x] not in perms[:, 0] and perms[0, 0] not in perms[:, x]
    )
    _swap_arcs(perms, 0, 0, x)
    doctored = dataclasses.replace(F, perms=perms)
    assert doctored.gens is None and F.gens is not None
    monkeypatch.setattr(
        verify, "build_family", lambda f, n, **kw: doctored if f == "CAG" else build_family(f, n, **kw)
    )
    cache = _GraphCache()
    assert cache.get("CAG", 6) is doctored
    assert not np.shares_memory(cache.get("EAG", 6).perms, perms)
    assert not check_edge_decomposition("CAG", 6, cache).passed


def test_spanning_view_holds_no_second_copy_of_the_rows():
    cache = _GraphCache()
    cache.get("CAG", 7)  # whose first rows, by generator prefix, are EAG_7
    tracemalloc.start()
    try:
        H = cache.get("EAG", 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.perms.nbytes == 151_200  # 30 rows of 2,520 uint16
    assert peak < H.perms.nbytes


def test_verify_family_every_check_names_a_source():
    report = verify_family("EAG", 4)
    for check in report.checks:
        assert check.ref


def test_report_dict_is_deterministic_and_schema_stable():
    a = verify_family("EAG", 4, seed=42).to_dict()
    b = verify_family("EAG", 4, seed=42).to_dict()
    assert a == b
    assert list(a) == ["family", "n", "seed", "block", "checks", "overall"]
    for check in a["checks"]:
        assert list(check) == [
            "name", "paper_ref", "predicted", "observed", "tolerance", "pass", "millis",
        ]
        assert check["millis"] is None


def test_timings_are_exposed_on_request():
    report = verify_family("AG", 4)
    timed = report.to_dict(include_timings=True)
    assert any(c["millis"] is not None for c in timed["checks"])


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_family_passes_dense_range(family, n):
    assert verify_family(family, n, tol=1e-6).overall


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_verify_family_passes_iterative_only_at_n8(family):
    # Order 20,160 is over the fixed dense cap, so no exact check runs.
    report = verify_family(family, 8)
    assert report.overall
    names = [c.name for c in report.checks]
    assert "lambda2_exact" not in names


def test_overall_is_a_conjunction():
    report = VerificationReport(family="AG", n=4, seed=42, block=1)
    report.checks.append(
        CheckResult(name="ok", ref="r", predicted=1, observed=1, tolerance=None, passed=True, millis=0.0)
    )
    assert report.overall
    report.checks.append(
        CheckResult(name="bad", ref="r", predicted=1, observed=2, tolerance=None, passed=False, millis=0.0)
    )
    assert not report.overall


@pytest.mark.parametrize(
    "family,solved", [("CAG", [("CAG", 6), ("EAG", 6), ("CAG", 5)]), ("AG", [("AG", 6)])]
)
def test_verify_solves_each_lambda2_once(monkeypatch, family, solved):
    calls = []
    solve = verify.lambda2_iterative

    def counted(G, **kwargs):
        calls.append((G.family_tag, G.n))
        return solve(G, **kwargs)

    monkeypatch.setattr(verify, "lambda2_iterative", counted)
    assert verify_family(family, 6).overall
    assert calls == solved


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n,calls,rows", [(6, 12, 2_820), (7, 14, 22_320)])
def test_a_battery_ranks_each_row_once(monkeypatch, family, n, calls, rows):
    # From a cleared star-row cache: the n - 1 star rows at n and the n - 2
    # at n - 1 (the n-point rows are not ranked again after the (n-1)-point
    # build evicts them), two right translations in the exact check and one
    # block of (n-1)!/2 rows in the subgraph isomorphism; then, with the star
    # rows, the partners g*k of the pairs at n and at n - 1.
    ranked = []
    rank = cayley.alternating_ranks

    def counted(images):
        ranked.append(images.shape[0])
        return rank(images)

    monkeypatch.setattr(cayley, "alternating_ranks", counted)
    monkeypatch.setattr(spectra, "alternating_ranks", counted)
    cayley._star_rows.cache_clear()
    assert verify_family(family, n).overall
    pairs = alternating_order(n) + alternating_order(n - 1)
    assert (len(ranked), sum(ranked)) == (calls + 2, rows + pairs)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_verify_makes_no_dense_solve(monkeypatch, family, n):
    # The exact check replaces the dense solve, and at n <= 4 the
    # isoperimetric bracket takes its gap from the exact spectrum.
    def refuse(*args, **kwargs):
        raise AssertionError("verify must not form or solve a dense matrix")

    monkeypatch.setattr(spectra, "dense_spectrum", refuse)
    report = verify_family(family, n)
    assert report.overall
    checks = {c.name: c for c in report.checks}
    assert ("isoperimetric_bracket" in checks) == (n <= 4)
    if n <= 4:
        assert checks["isoperimetric_bracket"].observed["lower"] == predicted(family, n)[2] / 2
    assert checks["lambda2_exact"].observed["lambda2"] == predicted(family, n)[1]


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5, 7, 8])
def test_verify_computes_the_exact_spectrum_once(monkeypatch, family, n):
    # lambda2_exact and, at n = 4, the isoperimetric bracket share one spectrum;
    # past the dense cap no check reads it.
    calls = []
    exact_spectrum = verify.exact_spectrum

    def counted(*args):
        calls.append(args)
        return exact_spectrum(*args)

    monkeypatch.setattr(verify, "exact_spectrum", counted)
    assert verify_family(family, n).overall
    assert calls == ([(family, n)] if n <= 7 else [])


@pytest.mark.parametrize(
    "family,n,certify,battery",
    [
        ("AG", 6, 7, 20),
        ("EAG", 6, 5, 19),
        ("CAG", 6, 4, 9),
        ("AG", 7, 9, 25),
        ("EAG", 7, 6, 23),
        ("CAG", 7, 5, 10),
    ],
)
def test_gather_sum_passes(graph, monkeypatch, family, n, certify, battery):
    # Every neighbour-count pass (colour refinement, equitable counts,
    # matchings, cuts) is one Graph.gather_sum call: pin how many one
    # certificate and one battery make at the default seed and block.
    calls = []
    gather_sum = Graph.gather_sum

    def counted(G, *args, **kwargs):
        calls.append(G.order)
        return gather_sum(G, *args, **kwargs)

    monkeypatch.setattr(Graph, "gather_sum", counted)
    spectra.certify_spectrum(graph(family, n), spectra.exact_spectrum(family, n))
    assert len(calls) == certify
    calls.clear()
    assert verify_family(family, n).overall
    assert len(calls) == battery
