import dataclasses
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from altspectra import cayley, cheeger, partition, spectra, verify
from altspectra.cayley import (
    FAMILIES,
    GeneratingSet,
    Graph,
    block_labels,
    build_cayley,
    build_family,
    export_edges,
    generating_set,
    graph_invariant_violations,
    induced_subgraph,
    is_connected,
    phi_isomorphism,
)
from altspectra.cheeger import boundary_size, canonical_cut
from altspectra.errors import OrderCapError
from altspectra.partition import blocks_AG, blocks_Xij, check_equitable
from altspectra.perm import (
    Permutation,
    alternating_images,
    alternating_order,
    alternating_ranks,
    compose,
    from_cycle,
    identity,
    parse_generator_list,
    rank,
    star_word,
    unrank,
)
from altspectra.spectra import certify_spectrum, exact_spectrum
from altspectra.verify import _GraphCache, check_edge_decomposition, check_subgraph_isomorphism

# Test ids name each family's generating set as the paper does.
PAPER_SET = {"AG": "T1", "EAG": "T2", "CAG": "T3"}.get


def reference_rows(n, gens):
    """One full rank per generator: row c holds rank(t_c * g) for every g."""
    verts = alternating_images(n)
    return np.array(
        [alternating_ranks(verts[:, np.asarray(t.images) - 1]) for t in gens.elements],
        dtype=np.int32,
    )


def test_generating_set_T1_n4_exact():
    gens = generating_set("AG", 4)
    got = {g.images for g in gens.elements}
    want = {
        from_cycle(4, [1, 2, 3]).images,
        from_cycle(4, [1, 3, 2]).images,
        from_cycle(4, [1, 2, 4]).images,
        from_cycle(4, [1, 4, 2]).images,
    }
    assert got == want


def reference_generators(family, n):
    """The three generating sets as one loop nest each, in their original order."""
    elements = []
    if family == "AG":
        for i in range(3, n + 1):
            elements.append(from_cycle(n, [1, 2, i]))
            elements.append(from_cycle(n, [1, i, 2]))
    elif family == "EAG":
        for i in range(2, n + 1):
            for j in range(i + 1, n + 1):
                elements.append(from_cycle(n, [1, i, j]))
                elements.append(from_cycle(n, [1, j, i]))
    else:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    elements.append(from_cycle(n, [i, j, k]))
                    elements.append(from_cycle(n, [i, k, j]))
    return tuple(elements)


@pytest.mark.parametrize("family", FAMILIES, ids=PAPER_SET)
@pytest.mark.parametrize("n", range(3, 13))
def test_generating_set_order_is_the_loop_nest_order(family, n):
    # Row order decides Graph equality and the order in which matvec sums.
    assert generating_set(family, n).elements == reference_generators(family, n)


@pytest.mark.parametrize(
    "family,n,size",
    [("AG", 4, 4), ("AG", 6, 8), ("EAG", 5, 12), ("EAG", 7, 30), ("CAG", 5, 20), ("CAG", 4, 8)],
    ids=PAPER_SET,
)
def test_generating_set_sizes(family, n, size):
    assert generating_set(family, n).size == size


def test_generating_set_validation():
    with pytest.raises(ValueError):
        GeneratingSet(n=4, elements=(identity(4),))
    with pytest.raises(ValueError):
        GeneratingSet(n=4, elements=(from_cycle(4, [1, 2]), from_cycle(4, [1, 2])))
    with pytest.raises(ValueError):
        # odd element
        GeneratingSet(4, (from_cycle(4, [1, 2]),))
    with pytest.raises(ValueError):
        # not closed under inverses
        GeneratingSet(4, (from_cycle(4, [1, 2, 3]),))
    with pytest.raises(ValueError, match="AG needs n >= 3"):
        generating_set("AG", 2)
    with pytest.raises(ValueError, match="family 'T4' not allowed"):
        generating_set("T4", 5)
    with pytest.raises(ValueError, match="family 'T1' not allowed"):
        generating_set("T1", 5)
    # The family is checked before n.
    with pytest.raises(ValueError, match="family 'T4' not allowed"):
        generating_set("T4", 2)


def test_ag3_is_triangle(graph):
    g = graph("AG", 3)
    assert (g.order, g.degree, g.edge_count) == (3, 2, 3)
    for u in range(3):
        for v in range(3):
            assert (v in g.perms[:, u]) == (u != v)


def test_family_shapes(graph):
    g = graph("AG", 4)
    assert (g.order, g.degree, g.edge_count) == (12, 4, 24)
    assert (graph("CAG", 4).order, graph("CAG", 4).degree, graph("CAG", 4).edge_count) == (12, 8, 48)
    assert (graph("EAG", 4).degree, graph("EAG", 4).edge_count) == (6, 36)


def test_neighbors_come_from_left_multiplication(graph):
    g = graph("AG", 5)
    gens = generating_set("AG", 5)
    rng = random.Random(11)
    for _ in range(10):
        v = rng.randrange(g.order)
        gamma = unrank(5, v)
        for c, t in enumerate(gens.elements):
            assert g.perms[c, v] == rank(compose(t, gamma))


def test_neighborhood_block_profile(graph):
    # for any g with g_n = i, the neighbors split as 2n-6 inside {last = i},
    # exactly one in {first = i} (reached by (1,n,2)), exactly one in
    # {second = i} (reached by (1,2,n)), and none elsewhere; this pins the
    # left/right multiplication convention
    n = 5
    g5 = graph("AG", n)
    for i in (1, 3, n):
        block_of = blocks_AG(n, i).block_of
        x, y, z, w = (set(np.flatnonzero(block_of == b).tolist()) for b in range(4))
        for v in sorted(x)[:4]:
            gamma = unrank(n, v)
            nbrs = set(int(u) for u in g5.perms[:, v])
            assert len(nbrs & x) == 2 * n - 6
            assert nbrs & y == {rank(compose(from_cycle(n, [1, n, 2]), gamma))}
            assert nbrs & z == {rank(compose(from_cycle(n, [1, 2, n]), gamma))}
            assert not nbrs & w
            for k in range(3, n):
                assert rank(compose(from_cycle(n, [1, 2, k]), gamma)) in nbrs & x
                assert rank(compose(from_cycle(n, [1, k, 2]), gamma)) in nbrs & x


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_invariants_exhaustive(graph, family, n):
    g = graph(family, n)
    assert graph_invariant_violations(g) == []
    assert g.edge_count == g.order * g.degree // 2


def _four_cycle_with(defect):
    # The 4-cycle 0-1-2-3 as two involutions, (0 1)(2 3) and (0 3)(1 2);
    # each defect replaces the first row.
    perms = np.array([[1, 0, 3, 2], [3, 2, 1, 0]], dtype=np.int32)
    perms[0] = {
        None: [1, 0, 3, 2],
        "out of range": [4, 0, 3, 2],
        "self-loop": [0, 1, 3, 2],
        "repeated neighbor": [3, 2, 1, 0],
        # the 4-cycle (0 1 3 2), whose inverse is no row
        "not symmetric": [1, 3, 0, 2],
    }[defect]
    return Graph(perms=perms)


@pytest.mark.parametrize(
    "defect", ["out of range", "self-loop", "repeated neighbor", "not symmetric"]
)
def test_invariant_violations_are_reported(defect):
    assert graph_invariant_violations(_four_cycle_with(None)) == []
    if defect == "out of range":  # no graph at all: refused when built
        with pytest.raises(ValueError, match=r"outside 0\.\.3$"):
            _four_cycle_with(defect)
        return
    problems = graph_invariant_violations(_four_cycle_with(defect))
    assert len(problems) == 1 and defect in problems[0], problems


def test_rows_too_narrow_to_name_every_vertex_are_refused():
    # 300 vertices: v <-> v ^ 1 below 256, and 256 + j -> j.  As uint8 the
    # row cannot name vertex 256, and an arange of that dtype would wrap
    # 256 + j onto j and find self-loops that are not there.
    row = np.arange(300) ^ 1
    row[256:] = np.arange(44)
    wide = Graph(perms=row[None].astype(np.int32))
    assert graph_invariant_violations(wide) == ["adjacency is not symmetric"]
    with pytest.raises(ValueError, match="uint8 cannot name all 300 vertices"):
        Graph(perms=row[None].astype(np.uint8))
    for dtype, fits in ((np.uint8, 256), (np.int8, 128), (np.uint16, 65_536)):
        assert Graph(perms=np.zeros((1, fits), dtype)).order == fits
        with pytest.raises(ValueError, match="cannot name all"):
            Graph(perms=np.zeros((1, fits + 1), dtype))


def _with_repeated_neighbor(G, v):
    """G's rows with the second neighbor of vertex v replaced by its first."""
    perms = G.perms.copy()
    perms[1, v] = perms[0, v]
    return Graph(perms=perms)


# All six rows of AG_5 split its 60 columns into whole blocks; the first
# four inverse pairs of CAG_5's rows, degree 8, leave a partial last block.
@pytest.mark.parametrize("family,rows", [("AG", 6), ("CAG", 8)])
def test_repeated_neighbors_are_found_at_every_column_block_edge(graph, family, rows):
    G = Graph(perms=graph(family, 5).perms[:rows])
    blocks = G.column_blocks()
    assert (blocks[-1].stop == G.order) == (family == "AG")
    assert graph_invariant_violations(G) == []
    for v in sorted({b.start for b in blocks} | {min(b.stop, G.order) - 1 for b in blocks}):
        problems = graph_invariant_violations(_with_repeated_neighbor(G, v))
        assert "a vertex has a repeated neighbor" in problems, v


@pytest.mark.parametrize("entry", [4, -5])
def test_matvec_rejects_an_out_of_range_neighbor(entry):
    # A row that names a non-vertex never reaches matvec: the graph is refused.
    perms = _four_cycle_with(None).perms.copy()
    perms[0, 2] = entry
    with pytest.raises(ValueError, match="outside 0..3"):
        Graph(perms=perms)
    with pytest.raises(IndexError, match="3 values for 4 vertices"):
        _four_cycle_with(None).matvec(np.ones(3))  # a vector shorter than the order


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16])
@pytest.mark.parametrize("value", ["-1", "-order", "order"])
def test_rows_that_name_a_non_vertex_are_refused_when_built(graph, dtype, value):
    G = graph("AG", 5)  # order 60: every entry and the order fit in int8
    entry = {"-1": -1, "-order": -G.order, "order": G.order}[value]
    for c, v in [(0, 0), (2, 17), (G.degree - 1, G.order - 1)]:
        perms = G.perms.astype(np.int64)
        perms[c, v] = entry  # uint16 holds -1 and -order as 65535 and 65476
        with pytest.raises(ValueError, match=f"perms name a vertex outside 0..{G.order - 1}$"):
            Graph(perms=perms.astype(dtype))
    rows = G.perms.astype(dtype)
    for perms in (rows, rows[: G.degree // 2], rows[::-1].copy()):
        assert np.array_equal(Graph(perms=perms).perms, perms)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [3, 5, 7])
def test_a_build_keeps_its_generating_set(family, n):
    G = build_family(family, n)
    assert G.gens == generating_set(family, n)
    custom = GeneratingSet(n, generating_set(family, n).elements[::-1])
    assert build_cayley(n, custom).gens is custom
    # The generating set is neither printed nor compared.
    assert "gens" not in repr(G)
    assert Graph(G.perms) == G


def test_graph_refuses_a_generating_set_that_cannot_make_its_rows():
    G = build_family("EAG", 5)
    as_cag = GeneratingSet(5, G.gens.elements, family_tag="CAG")
    wrong = {
        "n": dict(perms=G.perms, n=6, family_tag="EAG", gens=G.gens),
        "hand-made": dict(perms=G.perms, gens=G.gens),
        "degree": dict(perms=G.perms[:4], n=5, family_tag="EAG", gens=G.gens),
        "family": dict(perms=G.perms, n=5, family_tag="EAG", gens=as_cag),
    }
    # Only a build, or the cache's view of a build's first rows, sets gens:
    # the constructor takes none, not even the set that made the rows, and
    # dataclasses.replace, which goes through it, drops the one it copies.
    wrong["its own"] = dict(perms=G.perms, n=5, family_tag="EAG", gens=G.gens)
    for fields in wrong.values():
        with pytest.raises(TypeError, match="gens"):
            Graph(**fields)
    assert dataclasses.replace(G, perms=G.perms[::-1].copy()).gens is None
    assert dataclasses.replace(G) == G and dataclasses.replace(G).gens is None


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_built_rows_pass_the_vertex_check_without_a_copy(graph, family):
    G = graph(family, 7)
    Graph(G.perms)  # warm
    tracemalloc.start()
    try:
        views = [Graph(G.perms, n=7, family_tag=family), Graph(perms=G.perms[: G.degree // 2])]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.shares_memory(H.perms, G.perms) for H in views)
    assert peak < 4096  # Python objects only: no copy of the rows' 50-350 kB


def _edges_by_whole_sort(G):
    """Reference edge list: one sort of a full (order, degree) copy of the rows."""
    nbrs = np.sort(G.perms.T, axis=1)
    mask = nbrs > np.arange(G.order)[:, None]
    return np.column_stack([np.nonzero(mask)[0], nbrs[mask]])


def test_edges_array_matches_a_whole_array_sort(graph):
    for G in (
        graph("AG", 5),
        graph("CAG", 6),
        Graph(perms=graph("CAG", 5).perms[:8]),
        _with_repeated_neighbor(graph("AG", 5), 9),
    ):
        edges, reference = G.edges_array(), _edges_by_whole_sort(G)
        assert edges.dtype == reference.dtype and np.array_equal(edges, reference)


@pytest.mark.parametrize("family,n", [("AG", 3), ("AG", 4), ("AG", 5), ("AG", 6), ("EAG", 5), ("CAG", 5)])
def test_connected(graph, family, n):
    assert is_connected(graph(family, n))


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_star_rows_match_per_generator_ranks(graph, family, n):
    gens = generating_set(family, n)
    assert np.array_equal(graph(family, n).perms, reference_rows(n, gens))


@pytest.mark.parametrize(
    "gens",
    [
        "(2,3,4),(2,4,3),(1,2)(3,4)",
        "(1,2)(3,4),(1,3)(2,4),(1,4)(2,3)",
        "(1,2,3,4,5),(1,5,4,3,2),(2,4,3),(2,3,4)",
        "(2,3,4,5,6),(2,6,5,4,3),(1,2)(5,6)",
        # (2,3,4) is one gather of the rows of (1,3,4) and (1,2,3), built first
        "(1,2,3),(1,3,2),(1,3,4),(1,4,3),(2,3,4),(2,4,3),(1,5,6),(1,6,5)",
        # listed first, (2,3,4) and (2,4,3) are chains of four star rows
        "(2,3,4),(2,4,3),(1,2,3),(1,3,2),(1,3,4),(1,4,3),(1,5,6),(1,6,5)",
        # the involutions are cut into star rows and the rows of (1,4,5), (1,2,3)
        "(1,3,2),(1,2,3),(1,4,5),(1,5,4),(2,3)(4,5),(1,2)(4,5)",
    ],
)
@pytest.mark.parametrize("n", [6, 7])
def test_star_rows_match_per_generator_ranks_custom(gens, n):
    gset = GeneratingSet(n, tuple(parse_generator_list(gens, n)))
    assert np.array_equal(build_cayley(n, gset).perms, reference_rows(n, gset))


@pytest.mark.parametrize("n", range(3, 9))
def test_rows_take_the_smallest_unsigned_dtype_that_holds_the_order(graph, n):
    compact = np.min_scalar_type(alternating_order(n) - 1)
    assert compact == (np.uint8 if n <= 5 else np.uint16)
    star, pairs = cayley._star_rows(n)
    assert star.dtype == compact and all(a.dtype == compact for a in pairs or ())
    for family in FAMILIES:
        assert graph(family, n).perms.dtype == compact


@pytest.mark.parametrize("family", FAMILIES, ids=PAPER_SET)
@pytest.mark.parametrize("n", range(5, 9))
def test_compact_rows_give_the_results_of_signed_rows(graph, family, n):
    # The rows are only ever indices, so int64 copies of them must give the
    # same bytes from every pass over them.  The copies keep the generating
    # set, so the lambda2 solve folds both onto the same pairs.
    G = graph(family, n)
    wide = Graph._built(G.perms.astype(np.int64), G.gens)
    v = np.random.default_rng(n).standard_normal(G.order)
    P = blocks_Xij(n, i=1)
    assert G.matvec(v).tobytes() == wide.matvec(v).tobytes()
    assert spectra.lambda2_iterative(G) == spectra.lambda2_iterative(wide)
    assert check_equitable(G, P) == check_equitable(wide, P)
    assert graph_invariant_violations(G) == graph_invariant_violations(wide) == []
    assert is_connected(G) and is_connected(wide)
    edges = G.edges_array()
    assert edges.dtype == np.int64 and edges.tobytes() == wide.edges_array().tobytes()
    if n <= 7:
        spectrum = exact_spectrum(family, n)
        certificate = certify_spectrum(G, spectrum)
        assert all(certificate.values()) and certificate == certify_spectrum(wide, spectrum)


def test_a_3_cycle_avoiding_1_splits_into_two_through_1():
    word = {c: star_word(from_cycle(6, c)) for c in [(1, 2, 3), (1, 3, 4), (2, 3, 4)]}
    assert word[(2, 3, 4)] == word[(1, 3, 4)] + word[(1, 2, 3)]


def test_star_rows_are_ranked_once_per_n(monkeypatch):
    ranked = []

    def counted(images):
        ranked.append((images.shape[1], images.shape[0]))
        return alternating_ranks(images)

    monkeypatch.setattr(cayley, "alternating_ranks", counted)
    cayley._star_rows.cache_clear()
    build_family("EAG", 6)
    # The five star rows, then the partner g*k of every vertex g for the pairs.
    assert ranked == [(6, alternating_order(6))] * 6
    ranked.clear()
    build_family("CAG", 6)
    build_family("AG", 6)
    assert ranked == []
    star, (coset_of, reps) = cayley._star_rows(6)
    assert cayley._star_rows.cache_info().currsize == 1
    assert star.shape == (5, alternating_order(6)) and star.dtype == np.uint16
    for rows in (star, coset_of, reps):
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 0
    # Row a - 2 holds rank((1 a) * g_v * s), s the swap of the values 1 and 2.
    s = Permutation((2, 1, 3, 4, 5, 6))
    k = Permutation((2, 1, 4, 3, 5, 6))
    assert np.all(reps[1:] > reps[:-1]) and coset_of.take(reps).tolist() == list(range(180))
    for v in (0, 1, 200, alternating_order(6) - 1):
        g = unrank(6, v)
        want = [rank(compose(compose(from_cycle(6, (1, a)), g), s)) for a in range(2, 7)]
        assert star[:, v].tolist() == want
        # v and rank(g_v * k), k = (1 2)(3 4), make one pair, named by the lower.
        partner = rank(compose(g, k))
        assert coset_of[v] == coset_of[partner] and reps[coset_of[v]] == min(v, partner)
    # A set that moves two of the five points still ranks every star row, once.
    gens = GeneratingSet(5, tuple(parse_generator_list("(1,2,3),(1,3,2)", 5)))
    build_cayley(5, gens)
    build_cayley(5, gens)
    assert ranked == [(5, 60)] * 5
    assert cayley._star_rows.cache_info().currsize == 1


def test_concurrent_builds_share_the_star_rows():
    # Every round clears the cache and starts four builds at once, so they
    # may each rank the star rows of A_6 before one of them is cached; every
    # build must still get the same rows, whichever copy it reads.
    sets = [generating_set("CAG", 6)] + [
        GeneratingSet(6, tuple(parse_generator_list(gens, 6)))
        for gens in ["(1,2,3),(1,3,2)", "(1,5,6),(1,6,5)", "(2,4,3),(2,3,4)"]
    ]
    want = [reference_rows(6, gens) for gens in sets]
    results, errors = [], []
    start = threading.Barrier(4, action=cayley._star_rows.cache_clear, timeout=60)

    def work(k):
        try:
            for r in range(40):
                start.wait()
                c = (k + r) % 4
                results.append(np.array_equal(build_cayley(6, sets[c]).perms, want[c]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and results == [True] * 160


def all_rows_bfs(G):
    """Breadth-first search from vertex 0 over every row at each level."""
    if G.order == 0:
        return False
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        hit = np.zeros(G.order, dtype=bool)
        for row in G.perms:
            hit[row.take(frontier)] = True
        hit &= ~seen
        seen |= hit
        frontier = np.flatnonzero(hit)
    return bool(seen.all())


def connectivity_cases():
    for family in ("AG", "EAG", "CAG"):
        for n in range(3, 8):
            yield pytest.param(lambda family=family, n=n: build_family(family, n), id=f"{family}_{n}")
    for name, n, gens in [
        ("only the last pair moves 5", 5, "(1,2,3),(1,3,2),(1,2,4),(1,4,2),(1,2,5),(1,5,2)"),
        ("40 rows fixing 7", 7, ",".join(str(t) for t in generating_set("CAG", 6).elements)),
        ("8 rows on 1..4", 7, ",".join(str(t) for t in generating_set("CAG", 4).elements)),
        ("6 rows keeping {5,6}", 6, "(1,2)(3,4),(1,3)(2,4),(1,4)(2,3),(2,3,4),(2,4,3),(1,2)(5,6)"),
        ("degree 0", 4, ""),
    ]:
        elements = parse_generator_list(gens, n) if gens else []
        build = lambda n=n, elements=elements: build_cayley(n, GeneratingSet(n, tuple(elements)))
        yield pytest.param(build, id=name)
    one = np.zeros((0, 1), dtype=np.int32)
    yield pytest.param(lambda: Graph(perms=one), id="one vertex, degree 0")
    # Rows that are not closed under inverses: a search along them is one-way.
    shift = np.roll(np.arange(12, dtype=np.int32), 1)
    loops = np.arange(12, dtype=np.int32)
    yield pytest.param(lambda: Graph(perms=np.stack([shift] * 3)), id="one-way cycle")
    yield pytest.param(lambda: Graph(perms=np.stack([loops] * 5 + [shift])), id="one-way last row")


@pytest.mark.parametrize("make", connectivity_cases())
def test_is_connected_matches_an_all_rows_search(make):
    G = make()
    assert is_connected(G) == all_rows_bfs(G)


def test_empty_generating_set_gives_disconnected_graph():
    g = build_cayley(4, GeneratingSet(4, ()))
    assert g.edge_count == 0
    assert not is_connected(g)


def test_degenerate_generators_disconnect():
    # generators fixing the point 4 cannot reach permutations moving it
    gens = GeneratingSet(4, (from_cycle(4, [1, 2, 3]), from_cycle(4, [1, 3, 2])))
    g = build_cayley(4, gens)
    assert not is_connected(g)


@pytest.mark.parametrize("n", [4, 5])
def test_right_translation_is_an_automorphism(graph, n):
    g = graph("AG", n)
    rng = random.Random(n)
    edges = set(map(tuple, g.edges_array()))
    for _ in range(3):
        h = unrank(n, rng.randrange(g.order))
        image = [rank(compose(unrank(n, v), h)) for v in range(g.order)]
        mapped = {(min(image[u], image[v]), max(image[u], image[v])) for u, v in edges}
        assert mapped == edges


@pytest.mark.parametrize("n", [4, 5])
def test_edge_sets_are_nested_across_families(graph, n):
    ag = set(map(tuple, graph("AG", n).edges_array()))
    eag = set(map(tuple, graph("EAG", n).edges_array()))
    cag = set(map(tuple, graph("CAG", n).edges_array()))
    assert ag < eag < cag


def test_induced_subgraph_block_is_triangle(graph):
    g = graph("AG", 4)
    x4 = np.flatnonzero(blocks_AG(4, 4).block_of == 0)
    sub = induced_subgraph(g, x4)
    assert sub.order == 3 and sub.edge_count == 3
    # Subgraph vertex k is the k-th smallest member of x4.
    inside = {(int(u), int(v)) for u, v in g.edges_array() if u in x4 and v in x4}
    assert set(map(tuple, np.sort(x4)[sub.edges_array()].tolist())) == inside


def test_induced_subgraph_single_vertex(graph):
    sub = induced_subgraph(graph("AG", 4), [5])
    assert sub.order == 1 and sub.edge_count == 0


def test_induced_subgraph_eag5_block(graph):
    block = np.flatnonzero(blocks_Xij(5, i=3).block_of == 1)  # the value 3 at position 2
    sub = induced_subgraph(graph("EAG", 5), block)
    assert sub.order == 12
    assert sub.degree == 6


def test_induced_subgraph_rejects_bad_subsets(graph):
    g = graph("AG", 4)
    with pytest.raises(ValueError):
        induced_subgraph(g, [])
    with pytest.raises(ValueError):
        induced_subgraph(g, [99])
    with pytest.raises(ValueError, match="only part"):
        # every row maps vertex 0 inside and some neighbor of 0 outside
        induced_subgraph(g, [0, *g.perms[:, 0]])
    for perms in (np.array([1, 0], dtype=np.int32), [[1, 0]], np.array([[1.0, 0.0]])):
        with pytest.raises(ValueError, match="integer array"):
            Graph(perms=perms)


@pytest.mark.parametrize(
    "family,n,position", [("AG", 4, 4), ("AG", 5, 5), ("EAG", 5, 2), ("CAG", 5, 1)]
)
def test_block_labels_read_the_pinned_position(family, n, position):
    want = [unrank(n, v).images[position - 1] for v in range(alternating_order(n))]
    assert block_labels(family, n).tolist() == want


def test_block_labels_reject_unknown_family():
    with pytest.raises(ValueError):
        block_labels("XAG", 5)


# Every entry point that takes a (family, n) pair, called as fn(family, n),
# with the least n it accepts where that is not 3.
FROM_4 = {"AG": 4, "EAG": 4, "CAG": 4}
DOMAIN_CHECKED = {
    "build_family": (cayley.build_family, {}),
    "block_labels": (block_labels, {}),
    "predicted": (spectra.predicted, {}),
    "exact_spectrum": (spectra.exact_spectrum, {}),
    "divisor_closed_form": (partition.divisor_closed_form, {"AG": 4}),
    "divisor_eigenvalues_closed_form": (partition.divisor_eigenvalues_closed_form, {"AG": 4}),
    "corollary_bounds": (cheeger.corollary_bounds, {"AG": 4}),
    "canonical_boundary": (cheeger.canonical_boundary, {}),
    "verify_family": (verify.verify_family, {}),
    "phi_isomorphism": (lambda family, n: phi_isomorphism(n, 1, family), FROM_4),
    "check_subgraph_isomorphism": (
        lambda family, n: verify.check_subgraph_isomorphism(family, n, 1), FROM_4
    ),
    "check_graph_invariants": (verify.check_graph_invariants, {}),
    "check_equitable_partition": (verify.check_equitable_partition, {"AG": 4}),
    "check_divisor_spectrum": (verify.check_divisor_spectrum, {"AG": 4}),
    "check_lambda2_iterative": (verify.check_lambda2_iterative, {}),
    "check_lambda2_exact": (verify.check_lambda2_exact, {}),
    "check_spectral_gap": (verify.check_spectral_gap, {}),
    "check_canonical_cut_ratio": (verify.check_canonical_cut_ratio, {"AG": 4}),
    "check_isoperimetric_bracket": (verify.check_isoperimetric_bracket, {}),
}


def _refuse_builds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the domain check")

    monkeypatch.setattr(cayley, "build_cayley", refuse)
    monkeypatch.setattr(cayley, "alternating_images", refuse)
    monkeypatch.setattr(partition, "alternating_images", refuse)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("name", list(DOMAIN_CHECKED))
def test_family_domain_is_checked_before_any_build(monkeypatch, name, family):
    fn, leasts = DOMAIN_CHECKED[name]
    least = leasts.get(family, 3)
    with monkeypatch.context() as patched:
        _refuse_builds(patched)
        with pytest.raises(ValueError, match=f"^{family} needs n >= {least} here, got {least - 1}$"):
            fn(family, least - 1)
        with pytest.raises(ValueError, match=r"^family 'XAG' not allowed here \(expected one of"):
            fn("XAG", least)
    fn(family, least)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "check,n,message",
    [
        (verify.check_lambda2_exact, 8, "order 20160 above the fixed dense cap 3000"),
        (verify.check_isoperimetric_bracket, 5, "order 60 above the fixed brute-force cap 20"),
    ],
)
def test_capped_checks_refuse_an_order_above_the_cap_before_any_build(
    monkeypatch, check, n, message, family
):
    _refuse_builds(monkeypatch)
    assert check.applies(family, n - 1) and not check.applies(family, n)
    with pytest.raises(OrderCapError, match=f"^{message}"):
        check(family, n)


@pytest.mark.parametrize(
    "check,family",
    [
        pytest.param(lambda family, n: verify.check_matchings("AG", n, 1), "AG", id="matchings-AG"),
        (verify.check_edge_decomposition, "EAG"),
        (verify.check_edge_decomposition, "CAG"),
        (verify.check_decomposition_bound, "EAG"),
        (verify.check_decomposition_bound, "CAG"),
    ],
)
def test_structural_checks_need_n_at_least_4_before_any_build(monkeypatch, check, family):
    _refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match=f"^{family} needs n >= 4 here, got 3$"):
        check(family, 3)


@pytest.mark.parametrize("check", [verify.check_edge_decomposition, verify.check_decomposition_bound])
def test_decompositions_refuse_AG_before_any_build(monkeypatch, check):
    _refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match=r"^family 'AG' not allowed here \(expected one of \('EAG', 'CAG'\)\)$"):
        check("AG", 5)


# Every entry point that takes a block value, called as fn(family, n, i),
# with the families it takes (None: it takes none) and the least n it takes.
BLOCK_CHECKED = {
    "verify_family": (lambda f, n, i: verify.verify_family(f, n, block_index=i), FAMILIES, 3),
    "check_matchings": (lambda f, n, i: verify.check_matchings("AG", n, i), ("AG",), 4),
    "check_subgraph_isomorphism": (verify.check_subgraph_isomorphism, FAMILIES, 4),
    "check_graph_invariants": (verify.check_graph_invariants, FAMILIES, 3),
    "check_equitable_partition": (verify.check_equitable_partition, FAMILIES, 4),
    "check_divisor_spectrum": (verify.check_divisor_spectrum, FAMILIES, 4),
    "check_lambda2_iterative": (verify.check_lambda2_iterative, FAMILIES, 3),
    "check_lambda2_exact": (verify.check_lambda2_exact, FAMILIES, 3),
    "check_spectral_gap": (verify.check_spectral_gap, FAMILIES, 3),
    "check_canonical_cut_ratio": (verify.check_canonical_cut_ratio, FAMILIES, 4),
    "check_isoperimetric_bracket": (verify.check_isoperimetric_bracket, FAMILIES, 3),
    "structural_checks": (
        lambda f, n, i: list(verify.structural_checks(f, n, i, verify._GraphCache())), FAMILIES, 4
    ),
    "phi_isomorphism": (lambda f, n, i: phi_isomorphism(n, i, f), FAMILIES, 4),
    "canonical_cut": (canonical_cut, FAMILIES, 3),
    "blocks_AG": (lambda f, n, i: blocks_AG(n, i), ("AG",), 4),
    "blocks_Xij": (lambda f, n, i: blocks_Xij(n, i=i), (None,), 3),
}


@pytest.mark.parametrize(
    "name,family", [(name, f) for name, (_, fs, _) in BLOCK_CHECKED.items() for f in fs]
)
def test_block_value_is_checked_before_any_build(monkeypatch, name, family):
    fn, _, least = BLOCK_CHECKED[name]
    _refuse_builds(monkeypatch)
    for n in {least, 4, 5, 8}:
        for i in (0, n + 1, 9, 99):
            with pytest.raises(ValueError, match=f"^block value must be in 1..{n}, got {i}$"):
                fn(family, n, i)


def test_phi_restriction_case():
    # i = n: members fix the last point and map to their restriction
    block, image = phi_isomorphism(4, 4, "AG")
    for u, w in zip(block.tolist(), image.tolist()):
        gamma = unrank(4, u)
        assert gamma.images[3] == 4
        assert unrank(3, w).images == gamma.images[:3]


def _phi_preserves_edges(G, H, block, image):
    fwd = dict(zip(block.tolist(), image.tolist()))
    members = sorted(fwd)
    mapped = set()
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            u, v = members[a], members[b]
            if v in G.perms[:, u]:
                mapped.add((min(fwd[u], fwd[v]), max(fwd[u], fwd[v])))
    return mapped == set(map(tuple, H.edges_array()))


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n,i", [(4, 1), (4, 4), (5, 2), (5, 5)])
def test_phi_is_edge_preserving(graph, family, n, i):
    block, image = phi_isomorphism(n, i, family)
    assert sorted(image.tolist()) == list(range(alternating_order(n - 1)))
    assert _phi_preserves_edges(graph(family, n), graph(family, n - 1), block, image)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n,i", [(4, 1), (4, 4), (5, 2), (5, 5), (6, 3)])
def test_phi_block_is_canonical_cut(family, n, i):
    block, image = phi_isomorphism(n, i, family)
    assert np.array_equal(block, canonical_cut(family, n, i))
    assert block.shape == image.shape


def test_phi_rejects_small_n():
    with pytest.raises(ValueError):
        phi_isomorphism(3, 1, "AG")


def test_build_cap():
    with pytest.raises(OrderCapError):
        build_family("AG", 9, max_order=1000)


def test_export_edges(tmp_path, graph):
    g = graph("AG", 4)
    path = tmp_path / "edges.txt"
    export_edges(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# family=AG n=4 order=12 degree=4"
    assert len(lines) == 1 + g.edge_count
    pairs = [tuple(map(int, line.split())) for line in lines[1:]]
    assert all(u < v for u, v in pairs)
    assert set(pairs) == set(map(tuple, g.edges_array()))


def test_graph_equality_is_canonical(graph):
    a = build_family("AG", 4)
    assert a == graph("AG", 4)
    assert a != graph("EAG", 4)


@pytest.mark.parametrize("family", ["AG", "CAG"])
@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_gather_sum_on_a_batch_matches_row_by_row(graph, family, dtype):
    # A batch puts vertices first: column j of the sums is the sum of column j.
    G = graph(family, 5)
    X = np.random.default_rng(3).integers(0, 2, size=(G.order, 7)).astype(dtype)
    out = G.gather_sum(X)
    assert out.dtype == dtype and out.shape == X.shape
    assert np.array_equal(out, np.stack([G.gather_sum(x) for x in X.T], axis=1))


# Scratch-memory budget of each pass over CAG_7 (degree 70, order 2,520), as
# a fraction of its rows' own size, degree * order * 4 bytes.  Gathering one
# row at a time keeps the passes far below it; a whole-array gather of the
# rows, or an intp copy of them, does not fit.  The invariant check sorts
# one column block at a time; the quarter-size test below holds it tighter.
# The build writes the rows themselves and, from a cleared star-row cache, fills one
# (6, order) uint16 array of star rows from a value-swapped uint8 copy of
# the columns of A_7, freed when the star rows are done.
ROW_PASS_BUDGETS = {
    "build_family": 1.2,
    "matvec": 0.5,
    "is_connected": 0.5,
    "boundary_size": 0.5,
    "check_edge_decomposition": 0.5,
    "check_equitable": 1.0,
    "certify_spectrum": 1.0,
    "graph_invariant_violations": 1.2,
}


@pytest.mark.parametrize("name", list(ROW_PASS_BUDGETS))
def test_row_passes_stay_below_the_rows_size(name):
    cache = _GraphCache()  # the edge decomposition reads CAG_7 and EAG_7 from it
    G = cache.get("CAG", 7)
    cache.get("EAG", 7)
    v, S, P = np.ones(G.order), canonical_cut("CAG", 7), blocks_Xij(7, i=1)
    spectrum = exact_spectrum("CAG", 7)
    run = {
        "build_family": lambda: (cayley._star_rows.cache_clear(), build_family("CAG", 7)),
        "matvec": lambda: G.matvec(v),
        "is_connected": lambda: is_connected(G),
        "boundary_size": lambda: boundary_size(G, S),
        "check_edge_decomposition": lambda: check_edge_decomposition("CAG", 7, cache=cache),
        "check_equitable": lambda: check_equitable(G, P),
        "certify_spectrum": lambda: certify_spectrum(G, spectrum),
        "graph_invariant_violations": lambda: graph_invariant_violations(G),
    }[name]
    run()  # warm the enumeration cache, which is not part of the pass
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ROW_PASS_BUDGETS[name] * G.degree * G.order * 4


def _second_run_peak(run):
    """tracemalloc peak of a second call of ``run``; numpy reports its buffers."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The verify passes that once sorted or stacked a full copy of the rows go
# one column block or one row at a time, far below the rows' own size.
@pytest.mark.parametrize("name", ["graph_invariant_violations", "check_subgraph_isomorphism"])
def test_verify_passes_stay_below_a_quarter_of_the_rows(name):
    cache = _GraphCache()
    G = cache.get("CAG", 7)
    cache.get("CAG", 6)
    run = {
        "graph_invariant_violations": lambda: graph_invariant_violations(G),
        "check_subgraph_isomorphism": lambda: check_subgraph_isomorphism("CAG", 7, 1, cache),
    }[name]
    assert _second_run_peak(run) < G.perms.nbytes / 4


def test_a_second_matvec_allocates_at_most_three_vectors(graph):
    # The output, the scratch row and take's intp copy of one index row;
    # 1 KB covers the Python objects.  Given both buffers, only the copy.
    G = graph("CAG", 7)
    v, out, scratch = np.ones((3, G.order))
    assert _second_run_peak(lambda: G.matvec(v)) <= 3 * v.nbytes + 1024
    assert _second_run_peak(lambda: G.matvec(v, out=out, scratch=scratch)) <= v.nbytes + 1024
    assert np.array_equal(out, G.matvec(v))


def test_a_second_solve_allocates_at_most_four_vectors_more(graph):
    # The budget is a solve that steps on the rows alone: one basis block,
    # three work vectors, the residual's two temporaries and 2,528 B of
    # Python objects (numpy 2.4.6), plus four order-length vectors for the
    # star-row product.
    G = graph("CAG", 7)
    vector = G.order * 8
    before = (spectra.LANCZOS_BLOCK + 5) * vector + 2_528
    assert _second_run_peak(lambda: spectra.lambda2_iterative(G)) <= before + 4 * vector + 1024


def test_the_folded_solve_holds_half_a_basis_block(graph):
    # The steps run on the order/2 pairs, so the basis block of 16 rows is 8
    # vectors' worth; the three half-length work vectors, the two star-row
    # buffers and take's intp copy of one folded index row add 3 more, the
    # six folded uint16 star rows 6 * order B.  The basis is freed before
    # the Ritz vector is lifted and certified at full length.  An
    # order-length basis block alone (16 vectors) would not fit.
    G = graph("CAG", 7)
    vector = G.order * 8
    budget = (spectra.LANCZOS_BLOCK // 2 + 3) * vector + 6 * G.order + 8192
    assert _second_run_peak(lambda: spectra.lambda2_iterative(G)) <= budget
    assert spectra.LANCZOS_BLOCK * vector > budget


@pytest.mark.parametrize("family", ["EAG", "CAG"])
@pytest.mark.parametrize("n", range(3, 9))
def test_star_matvec_equals_the_rows_exactly(graph, monkeypatch, family, n):
    # Integers below 2^40 keep every partial sum of both products exact in
    # float64, so the two must agree bit for bit; the rows are the reference.
    G = graph(family, n)
    product = cayley.star_matvec(G)
    v = np.random.default_rng(n).integers(-(2**40), 2**40, G.order).astype(np.float64)
    out, scratch = np.empty((2, G.order))
    gathers, take = [], np.take

    def counted(*args, **kwargs):
        gathers.append(1)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", counted)
    assert product(v, out, scratch) is out
    assert len(gathers) == (2 * (n - 1) if family == "EAG" else n * (n + 1) - 6)
    monkeypatch.undo()
    assert np.array_equal(out, G.matvec(v))


def test_star_matvec_allocates_one_buffer_for_EAG(graph):
    # The EAG product S_n(S_n v) reads one buffer; only CAG's needs a second.
    G = graph("EAG", 7)
    cayley.star_matvec(G)  # warm: ranks A_7's star rows
    tracemalloc.start()
    try:
        cayley.star_matvec(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * G.order * 8


def test_star_matvec_is_for_named_EAG_and_CAG_only(graph):
    # AG_n's square sum would take 2(n-1) gathers, more than its 2(n-2) rows.
    assert cayley.star_matvec(graph("AG", 6)) is None
    assert cayley.star_matvec(Graph(graph("CAG", 6).perms)) is None
    assert cayley.star_matvec(Graph(graph("CAG", 5).perms, n=6, family_tag="CAG")) is None
