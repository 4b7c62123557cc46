from math import factorial

import numpy as np
import pytest

from altspectra.cayley import Graph
from altspectra.partition import (
    EquitableWitness,
    Quotient,
    VertexPartition,
    blocks_AG,
    blocks_Xij,
    check_equitable,
    divisor_closed_form,
    divisor_eigenvalues_closed_form,
    divisor_spectrum,
)
from altspectra.perm import alternating_images, identity, rank, unrank
from altspectra.spectra import dense_spectrum


def test_blocks_AG_sizes():
    assert blocks_AG(4, 1).sizes() == (3, 3, 3, 3)
    assert blocks_AG(5, 5).sizes() == (12, 12, 12, 24)
    for n in (4, 5, 6):
        s = factorial(n - 1) // 2
        assert blocks_AG(n, 2).sizes() == (s, s, s, (n - 3) * s)


def test_blocks_AG_identity_membership():
    # the identity sends n to n, so it sits in X(n) and in no other X(i)
    for n in (4, 5):
        e = rank(identity(n))
        for i in range(1, n + 1):
            assert (blocks_AG(n, i).block_of[e] == 0) == (i == n)


def test_blocks_AG_rejects_small_n():
    with pytest.raises(ValueError):
        blocks_AG(3, 1)


def test_blocks_Xij_fixed_value_partitions_everything():
    P = blocks_Xij(5, i=5)
    assert P.sizes() == (12,) * 5
    assert P.labels == ("X_5(1)", "X_5(2)", "X_5(3)", "X_5(4)", "X_5(5)")
    assert P.block_of.shape == (60,)
    assert P.block_of.dtype == np.int32
    assert not P.block_of.flags.writeable


@pytest.mark.parametrize("n", [4, 5, 6])
def test_blocks_agree_with_unranked_images(n):
    # X(i) = {g_n = i}, Y(i) = {g_1 = i}, Z(i) = {g_2 = i}, W(i) the rest
    ag_block = {n: 0, 1: 1, 2: 2}
    values = range(1, n + 1)
    ag = {i: blocks_AG(n, i).block_of for i in values}
    by_value = {i: blocks_Xij(n, i=i).block_of for i in values}
    for v in range(factorial(n) // 2):
        images = unrank(n, v).images
        for i in values:
            position = images.index(i) + 1
            assert ag[i][v] == ag_block.get(position, 3)
            assert by_value[i][v] == position - 1


def test_identity_in_its_own_position_block():
    for n in (4, 5):
        e = rank(identity(n))
        for i in range(1, n + 1):
            # identity has the value i at position i
            assert blocks_Xij(n, i=i).block_of[e] == i - 1


def test_blocks_Xij_selector_validation():
    # The value i is the only selector; the position partitions are
    # cayley.block_labels minus 1.
    with pytest.raises(TypeError):
        blocks_Xij(4)
    with pytest.raises(TypeError):
        blocks_Xij(4, j=2)


def test_check_equitable_AG4_matches_printed_matrix(graph):
    Q = check_equitable(graph("AG", 4), blocks_AG(4, 1))
    assert isinstance(Q, Quotient)
    assert Q.B == ((2, 1, 1, 0), (1, 0, 2, 1), (1, 2, 0, 1), (0, 1, 1, 2))
    assert Q.sizes == (3, 3, 3, 3) and Q.root is None


def test_check_equitable_EAG4_first_row(graph):
    Q = check_equitable(graph("EAG", 4), blocks_Xij(4, i=2))
    assert isinstance(Q, Quotient)
    assert Q.B[0] == (0, 2, 2, 2)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_equitable_equals_closed_form_for_every_block_value(graph, family, n):
    G = graph(family, n)
    closed = divisor_closed_form(family, n)
    for i in range(1, n + 1):
        P = blocks_AG(n, i) if family == "AG" else blocks_Xij(n, i=i)
        Q = check_equitable(G, P)
        assert isinstance(Q, Quotient)
        assert (Q.sizes, Q.B) == (closed.sizes, closed.B)


def reference_equitable(G, P):
    """Quotient or witness from plain per-block neighbor counts."""
    nbr_blocks = P.block_of[G.perms]
    counts = np.stack([(nbr_blocks == b).sum(axis=0) for b in range(P.k)], axis=1)
    _, lowest = np.unique(P.block_of, return_index=True)
    diff = counts != counts[lowest][P.block_of]
    bad = np.flatnonzero(diff.any(axis=1))
    if not bad.size:
        sizes = [int((P.block_of == b).sum()) for b in range(P.k)]
        alone = np.flatnonzero(P.block_of == P.block_of[0]).tolist() == [0]
        return Quotient(sizes, counts[lowest].tolist(), int(P.block_of[0]) if alone else None)
    v = int(bad[0])
    bi = int(P.block_of[v])
    tj = int(np.argmax(diff[v]))
    u = int(lowest[bi])
    return EquitableWitness(
        block_index=bi,
        block_label=P.labels[bi],
        target_index=tj,
        target_label=P.labels[tj],
        vertex_a=u,
        vertex_b=v,
        count_a=int(counts[u, tj]),
        count_b=int(counts[v, tj]),
    )


def assert_same_result(got, want, G):
    assert type(got) is type(want)
    assert got == want
    if isinstance(got, Quotient):
        assert_quotient_invariants(got, G.order)


def assert_quotient_invariants(Q, order):
    """Python ints, sizes summing to the order, and sizes[r] B[r][c] = sizes[c] B[c][r]
    (both count the arcs between blocks r and c)."""
    assert all(type(x) is int for x in (*Q.sizes, *(x for row in Q.B for x in row)))
    assert sum(Q.sizes) == order
    k = len(Q.B)
    assert all(Q.sizes[r] * Q.B[r][c] == Q.sizes[c] * Q.B[c][r] for r in range(k) for c in range(k))
    assert Q.root is None or Q.sizes[Q.root] == 1


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_check_equitable_matches_per_block_counts(graph, family, n):
    G = graph(family, n)
    partitions = [blocks_AG(n, i) for i in (1, 2, n)]
    partitions += [blocks_Xij(n, i=i) for i in (1, 2, n)]
    images = alternating_images(n)
    partitions += [VertexPartition(images[:, j - 1] - 1, tuple(map(str, range(n)))) for j in (1, 2, n)]
    witnesses = 0
    for P in partitions:
        got, want = check_equitable(G, P), reference_equitable(G, P)
        assert_same_result(got, want, G)
        witnesses += isinstance(want, EquitableWitness)
    # CAG's generating set is closed under conjugation, so all nine are
    # equitable; AG and EAG each have a position partition that is not.
    assert bool(witnesses) == (family != "CAG")
    # The position of i in t*g is t^-1 of its position in g, so the blocks
    # by where a value sits are equitable for every generating set.
    for i in range(1, n + 1):
        assert isinstance(check_equitable(G, blocks_Xij(n, i=i)), Quotient)
    # The defining blocks each hold many vertices, so no root, and the
    # closed form predicts their measured sizes.
    closed = divisor_closed_form(family, n)
    for P in partitions[:3] if family == "AG" else partitions[3:6]:
        Q = check_equitable(G, P)
        assert Q.root is None and Q.sizes == closed.sizes


@pytest.mark.parametrize("family", ["EAG", "CAG"])
def test_quotient_root_at_n3(graph, family):
    # Order 3: each block X_i(j) is one vertex, so vertex 0's block is {0}.
    G, closed = graph(family, 3), divisor_closed_form(family, 3)
    assert closed.root is None
    for i in (1, 2, 3):
        P = blocks_Xij(3, i=i)
        Q = check_equitable(G, P)
        assert_same_result(Q, reference_equitable(G, P), G)
        assert Q.root == P.block_of[0] == i - 1
        assert (Q.sizes, Q.B) == (closed.sizes, closed.B)


def first_two_values_partition(n):
    """Blocks by the pair (g_1, g_2): n(n-1) blocks, numbered without gaps."""
    images = alternating_images(n).astype(np.int64) - 1
    first, second = images[:, 0], images[:, 1]
    block_of = first * (n - 1) + second - (second > first)
    labels = tuple(f"({a},{b})" for a in range(1, n + 1) for b in range(1, n + 1) if a != b)
    return VertexPartition(block_of=block_of, labels=labels)


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_check_equitable_with_several_codes(graph, family):
    G = graph(family, 7)
    P = first_two_values_partition(7)
    assert P.k == 42
    got, want = check_equitable(G, P), reference_equitable(G, P)
    assert_same_result(got, want, G)
    if family == "CAG":  # 42 one-hot columns, every count up to the degree 70
        assert isinstance(got, Quotient)


def test_check_equitable_makes_one_gather_whatever_the_block_count(graph, monkeypatch):
    # All 42 blocks of the (g_1, g_2) partition are counted in one pass over
    # CAG_7's rows, as are the 7 of blocks_Xij.
    G = graph("CAG", 7)
    calls = []
    gather_sum = Graph.gather_sum

    def counted(G, values, *args):
        calls.append(len(values))
        return gather_sum(G, values, *args)

    monkeypatch.setattr(Graph, "gather_sum", counted)
    assert isinstance(check_equitable(G, first_two_values_partition(7)), Quotient)
    assert calls == [G.order]
    calls.clear()
    assert isinstance(check_equitable(G, blocks_Xij(7, i=1)), Quotient)
    assert calls == [G.order]


def test_check_equitable_witness_in_a_later_code(graph):
    G = graph("CAG", 7)
    block_of = first_two_values_partition(7).block_of.copy()
    # Move one vertex of block 41 (g_1, g_2 = 7, 6) into block 40: counts
    # toward blocks 40 and 41, the last two columns, change.
    v = int(np.flatnonzero(block_of == 41)[1])
    block_of[v] = 40
    P = VertexPartition(block_of=block_of, labels=first_two_values_partition(7).labels)
    got = check_equitable(G, P)
    assert isinstance(got, EquitableWitness) and got.target_index in (40, 41)
    assert_same_result(got, reference_equitable(G, P), G)


@pytest.mark.parametrize("family", ["EAG", "CAG"])
def test_check_equitable_powers_do_not_wrap_at_n8(graph, family):
    # The counts of CAG_8 (degree 112) fill most of a uint8, and the 8
    # blocks' counts come from one pass at order 20,160.
    Q = check_equitable(graph(family, 8), blocks_Xij(8, i=1))
    assert isinstance(Q, Quotient)
    assert Q.B == divisor_closed_form(family, 8).B


def test_check_equitable_counts_past_a_byte(graph):
    # AG_4's rows repeated 75 times: degree 300, so counts need more than a byte.
    G = Graph(perms=np.tile(graph("AG", 4).perms, (75, 1)))
    assert check_equitable(G, VertexPartition(np.zeros(12, int), ("all",))).B == ((300,),)
    # Vertex 0 and the non-neighbour 1 form one block, 0's four neighbours another.
    block_of = np.full(12, 2)
    block_of[[0, 1]], block_of[graph("AG", 4).perms[:, 0]] = 0, 1
    P = VertexPartition(block_of, ("A", "N(0)", "rest"))
    got = check_equitable(G, P)
    assert_same_result(got, reference_equitable(G, P), G)
    assert (got.vertex_a, got.vertex_b, got.target_index, got.count_a) == (0, 1, 1, 300)


def test_unbalanced_split_yields_witness(graph):
    G = graph("AG", 4)
    rng = np.random.default_rng(0)
    half = np.sort(rng.choice(12, size=5, replace=False))
    rest = np.setdiff1d(np.arange(12), half)
    block_of = np.ones(12, dtype=np.int32)
    block_of[half] = 0
    result = check_equitable(G, VertexPartition(block_of=block_of, labels=("A", "B")))
    assert isinstance(result, EquitableWitness)
    # confirm the witness by recounting neighbors directly
    members = {0: set(half.tolist()), 1: set(rest.tolist())}
    target = members[result.target_index]
    count_a = sum(1 for u in G.perms[:, result.vertex_a] if int(u) in target)
    count_b = sum(1 for u in G.perms[:, result.vertex_b] if int(u) in target)
    assert (count_a, count_b) == (result.count_a, result.count_b)
    assert count_a != count_b


def test_witness_is_deterministic(graph):
    G = graph("AG", 4)
    P = VertexPartition(block_of=np.arange(12) >= 5, labels=("A", "B"))
    first = check_equitable(G, P)
    second = check_equitable(G, P)
    assert first == second


def test_partition_validation(graph):
    G = graph("AG", 4)
    with pytest.raises(ValueError, match="partition labels 5 vertices"):
        check_equitable(G, VertexPartition(block_of=np.zeros(5, dtype=int), labels=("A",)))
    empty = Graph(perms=np.zeros((0, 0), np.int32))
    with pytest.raises(ValueError, match="no blocks"):
        check_equitable(empty, VertexPartition(block_of=np.zeros(0, np.int32), labels=()))
    for bad in ([0, 1, 2], [-1, 0, 1]):
        with pytest.raises(ValueError, match="block index outside"):
            VertexPartition(block_of=np.array(bad), labels=("A", "B"))
    with pytest.raises(ValueError, match="empty block"):
        VertexPartition(block_of=np.array([0, 0, 2]), labels=("A", "B", "C"))
    for bad in (np.zeros((3, 4), dtype=int), np.array([0.5, 1.2])):
        with pytest.raises(ValueError, match="one block index per vertex"):
            VertexPartition(block_of=bad, labels=("A", "B"))


@pytest.mark.parametrize(
    "family,n,expected",
    [
        ("AG", 4, [[2, 1, 1, 0], [1, 0, 2, 1], [1, 2, 0, 1], [0, 1, 1, 2]]),
        ("AG", 5, [[4, 1, 1, 0], [1, 0, 3, 2], [1, 3, 0, 2], [0, 1, 1, 4]]),
    ],
)
def test_divisor_closed_form_AG(family, n, expected):
    assert divisor_closed_form(family, n).B == tuple(map(tuple, expected))


def test_divisor_closed_form_EAG4():
    B = np.array(divisor_closed_form("EAG", 4).B)
    assert np.diag(B).tolist() == [0, 2, 2, 2]
    assert B[0, 1:].tolist() == [2, 2, 2]
    assert B[1:, 0].tolist() == [2, 2, 2]
    off = B[1:, 1:]
    assert off[~np.eye(3, dtype=bool)].tolist() == [1] * 6


def test_divisor_closed_form_CAG4():
    B = np.array(divisor_closed_form("CAG", 4).B)
    assert np.diag(B).tolist() == [2, 2, 2, 2]
    assert B[~np.eye(4, dtype=bool)].tolist() == [2] * 12


@pytest.mark.parametrize("family,n", [("AG", 4), ("AG", 7), ("EAG", 3), ("EAG", 6), ("CAG", 3), ("CAG", 7)])
def test_divisor_rows_sum_to_degree(family, n):
    from altspectra.spectra import predicted

    Q = divisor_closed_form(family, n)
    assert {sum(row) for row in Q.B} == {predicted(family, n)[0]}


@pytest.mark.parametrize(
    "family,n,expected",
    [
        ("AG", 4, [4, 2, 0, -2]),
        ("EAG", 4, [6, 1, 1, -2]),
        ("CAG", 4, [8, 0, 0, 0]),
        ("AG", 5, [6, 4, 1, -3]),
        ("EAG", 5, [12, 5, 5, 5, -3]),
        ("CAG", 5, [20, 5, 5, 5, 5]),
    ],
)
def test_divisor_spectrum_matches_formulas(family, n, expected):
    assert divisor_eigenvalues_closed_form(family, n) == expected
    assert divisor_spectrum(divisor_closed_form(family, n)) == expected


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
def test_divisor_spectrum_is_the_closed_form_exactly(family):
    for n in range(4 if family == "AG" else 3, 13):
        values = divisor_spectrum(divisor_closed_form(family, n))
        assert values == divisor_eigenvalues_closed_form(family, n)
        assert all(type(v) is int for v in values)


def spectrum_of(rows):
    return divisor_spectrum(Quotient((1,) * len(rows), rows))


def test_divisor_spectrum_leaves_out_roots_that_are_not_integers():
    assert spectrum_of([[0, -1], [1, 0]]) == []  # +-i
    assert spectrum_of([[1, 1], [1, 0]]) == []  # (1 +- sqrt 5) / 2
    # One integral block beside the rotation: only its roots, 3 and 1.
    assert spectrum_of([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]) == [3, 1]


def test_divisor_spectrum_repeated_and_negative_roots():
    assert spectrum_of([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == [2, -1, -1]
    assert spectrum_of([[-2, 1, 0], [0, -2, 1], [0, 0, -2]]) == [-2, -2, -2]  # one Jordan block
    assert spectrum_of([[0, 3], [3, 0]]) == [3, -3]  # both ends of the Gershgorin range
    assert spectrum_of([[0, 0], [0, 0]]) == [0, 0]
    assert spectrum_of([[5, 7, 0], [0, 1, 0], [0, 0, 5]]) == [5, 5, 1]  # not symmetric


@pytest.mark.parametrize("family", ["AG", "EAG", "CAG"])
@pytest.mark.parametrize("n", [4, 5])
def test_divisor_eigenvalues_lift_to_graph_spectrum(graph, family, n):
    spectrum = np.asarray(dense_spectrum(graph(family, n)).eigenvalues)
    for mu in divisor_eigenvalues_closed_form(family, n):
        assert np.abs(spectrum - mu).min() < 1e-6
