import random
import re
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from altspectra.cayley import FAMILIES, block_labels, generating_set, phi_isomorphism
from altspectra.cheeger import canonical_cut
from altspectra.errors import OrderCapError
from altspectra.partition import blocks_AG, blocks_Xij
from altspectra.perm import (
    Permutation,
    alternating_images,
    alternating_order,
    alternating_ranks,
    compose,
    from_cycle,
    from_cycles,
    identity,
    inverse,
    parse_cycles,
    parse_generator_list,
    rank,
    sign,
    star_word,
    unrank,
)
from test_golden import GOLDEN


def enumerate_alternating(n):
    """All n!/2 even permutations of {1..n} in rank order."""
    return [Permutation(tuple(int(x) for x in row)) for row in alternating_images(n)]


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def inversion_counts(images):
    inv = np.zeros(len(images), dtype=np.int64)
    for a in range(images.shape[1] - 1):
        inv += (images[:, a + 1 :] < images[:, a : a + 1]).sum(axis=1)
    return inv


def reference_alternating_images(n):
    """All n! image tuples from itertools, filtered by inversion parity."""
    full = np.array(list(permutations(range(1, n + 1))), dtype=np.uint8)
    return full[inversion_counts(full) % 2 == 0]


def test_identity():
    assert identity(3).images == (1, 2, 3)
    assert sign(identity(4)) == 1
    rng = random.Random(1)
    for _ in range(5):
        p = random_perm(rng, 6)
        assert compose(identity(6), p) == p
        assert compose(p, identity(6)) == p


def test_compose_applies_left_argument_first():
    c = from_cycle(3, [1, 2, 3])
    assert compose(c, c).images == (3, 1, 2)
    assert compose(c, c) == from_cycle(3, [1, 3, 2])


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_left_multiplication_keeps_or_moves_pinned_value():
    # tau sends n to i; multiplying by (1,2,k) with k < n on the left keeps
    # that pin, while (1,n,2) moves the value i to the image of 1.
    n = 5
    rng = random.Random(7)
    for _ in range(20):
        tau = random_perm(rng, n)
        i = tau.images[n - 1]
        for k in range(3, n):
            assert compose(from_cycle(n, [1, 2, k]), tau).images[n - 1] == i
            assert compose(from_cycle(n, [1, k, 2]), tau).images[n - 1] == i
        assert compose(from_cycle(n, [1, n, 2]), tau).images[0] == i
        assert compose(from_cycle(n, [1, 2, n]), tau).images[1] == i


def test_inverse():
    assert inverse(from_cycle(3, [1, 2, 3])) == from_cycle(3, [1, 3, 2])
    assert inverse(identity(5)) == identity(5)
    rng = random.Random(2)
    for _ in range(10):
        p = random_perm(rng, 7)
        assert compose(p, inverse(p)) == identity(7)
        assert inverse(inverse(p)) == p


def test_from_cycle():
    assert from_cycle(4, [1, 2, 3]).images == (2, 3, 1, 4)
    assert from_cycle(5, [1, 3, 2]).images == (3, 1, 2, 4, 5)
    t = from_cycle(3, [1, 2])
    assert t.images == (2, 1, 3)
    assert sign(t) == -1


def test_from_cycle_rejects_bad_input():
    with pytest.raises(ValueError):
        from_cycle(4, [1, 2, 1])
    with pytest.raises(ValueError):
        from_cycle(4, [1, 5])


def test_sign():
    for n in range(3, 7):
        assert sign(from_cycle(n, [1, 2, 3])) == 1
        assert sign(from_cycle(n, [1, 2])) == -1
    # exactly half of S_4 is even
    from itertools import permutations

    evens = sum(1 for im in permutations(range(1, 5)) if sign(Permutation(im)) == 1)
    assert evens == 12


def test_sign_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(30):
        a, b = random_perm(rng, 6), random_perm(rng, 6)
        assert sign(compose(a, b)) == sign(a) * sign(b)


def test_compose_is_associative():
    rng = random.Random(4)
    for _ in range(30):
        a, b, c = (random_perm(rng, 8) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_opposite_cycles_cancel():
    for n in (4, 5, 6):
        for i, j, k in [(1, 2, 3), (1, 2, n), (2, 3, n)]:
            prod = compose(from_cycle(n, [i, j, k]), from_cycle(n, [i, k, j]))
            assert prod == identity(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rank_unrank_roundtrip(n):
    perms = enumerate_alternating(n)
    assert len(perms) == alternating_order(n)
    seen = set()
    for v, p in enumerate(perms):
        assert sign(p) == 1
        assert rank(p) == v
        assert unrank(n, v) == p
        seen.add(v)
    assert seen == set(range(alternating_order(n)))


def test_rank_rejects_odd():
    with pytest.raises(ValueError):
        rank(from_cycle(4, [1, 2]))


def test_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        unrank(4, 12)
    with pytest.raises(ValueError):
        unrank(4, -1)


def test_enumerate_alternating_small():
    perms = enumerate_alternating(3)
    assert perms == [identity(3), from_cycle(3, [1, 2, 3]), from_cycle(3, [1, 3, 2])]
    assert len(enumerate_alternating(5)) == 60


@pytest.mark.parametrize("n", [0, 13])
def test_alternating_images_rejects_point_count(n):
    with pytest.raises(ValueError, match="point count"):
        alternating_images(n)


def test_enumeration_is_lexicographic():
    images = [p.images for p in enumerate_alternating(5)]
    assert images == sorted(images)


@pytest.mark.parametrize("n", range(1, 10))
def test_alternating_images_match_reference(n):
    got = alternating_images(n)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference_alternating_images(n))


def test_alternating_images_n10():
    images = alternating_images(10)
    assert images.shape == (alternating_order(10), 10)
    assert not images.flags.writeable
    # Strictly increasing rows: the first column that differs goes up.
    diff = np.diff(images.astype(np.int16), axis=0)
    first = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]
    assert (first > 0).all()
    assert (inversion_counts(images) % 2 == 0).all()


@pytest.mark.parametrize("n", [11, 12])
def test_alternating_images_cap_allocates_nothing(n):
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapError):
            alternating_images(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize(
    "entry",
    [
        lambda n: blocks_AG(n, 1),
        lambda n: blocks_Xij(n, i=1),
        lambda n: block_labels("CAG", n),
        lambda n: canonical_cut("EAG", n, 1),
        lambda n: phi_isomorphism(n, 1, "AG"),
    ],
    ids=["blocks_AG", "blocks_Xij_i", "block_labels", "canonical_cut", "phi"],
)
def test_vertex_entry_points_hit_the_enumeration_cap(entry, n):
    with pytest.raises(OrderCapError):
        entry(n)


def assert_ranks_match_rank(images):
    """alternating_ranks against perm.rank, one row at a time."""
    got = alternating_ranks(images)
    assert got.dtype == np.int32 and got.shape == (len(images),)
    want = [rank(Permutation(tuple(int(x) for x in row))) for row in images]
    assert got.tolist() == want


@pytest.mark.parametrize("n", range(1, 8))
def test_alternating_ranks_match_rank_on_all_of_A_n(n):
    images = alternating_images(n)
    before = images.copy()
    assert_ranks_match_rank(images)
    assert not images.flags.writeable and np.array_equal(images, before)
    assert alternating_ranks(images).tolist() == list(range(alternating_order(n)))


def _every_other_column(v):
    wide = np.zeros((len(v), 2 * v.shape[1]), dtype=v.dtype)
    wide[:, ::2] = v
    return wide[:, ::2]


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize(
    "layout",
    [
        lambda v: np.ascontiguousarray(v),
        np.asfortranarray,
        lambda v: v[::3],
        # reversing n columns is even for n = 5 and 8, so the rows stay even
        lambda v: v[:, ::-1],
        _every_other_column,
        lambda v: v.astype(np.int64),
    ],
    ids=["C", "F", "rows[::3]", "columns[::-1]", "column-strided", "int64"],
)
def test_alternating_ranks_read_any_layout(layout, n):
    images = layout(alternating_images(n)[::7])
    assert_ranks_match_rank(images)


def test_alternating_ranks_of_no_rows():
    for n in (1, 5, 12):
        got = alternating_ranks(np.empty((0, n), dtype=np.uint8))
        assert got.dtype == np.int32 and got.shape == (0,)


def test_alternating_ranks_on_12_points_fit_int32():
    # 12!/2 - 1 is far above 2**16: a 16-bit accumulator would wrap.
    rng = np.random.default_rng(12)
    images = np.argsort(rng.random((2000, 12)), axis=1).astype(np.uint8) + 1
    odd = inversion_counts(images) % 2 == 1
    images[odd, :2] = images[odd, 1::-1]
    assert_ranks_match_rank(images)
    assert alternating_ranks(images).max() >= 1 << 27


def star_product(word, n):
    """The star transpositions of ``word`` multiplied with perm.compose."""
    product = identity(n)
    for a in word:
        product = compose(product, from_cycle(n, [1, a]))
    return product


GOLDEN_GENS = sorted(
    {(cmd.split()[2], int(cmd.split()[4])) for cmd in GOLDEN if cmd.split()[1] == "--gens"}
)


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("family", FAMILIES, ids=["T1", "T2", "T3"])  # the paper's set names
def test_star_words_of_the_families_multiply_back(family, n):
    for t in generating_set(family, n).elements:
        assert star_product(star_word(t), n) == t


@pytest.mark.parametrize("gens,n", GOLDEN_GENS)
def test_star_words_of_the_golden_gens_multiply_back(gens, n):
    for t in parse_generator_list(gens, n):
        assert star_product(star_word(t), n) == t


def test_star_word_check_raises_on_a_wrong_word():
    class Shifting:
        """Reads as (1,2,3) while the word is built and as (1,3,2) when checked."""

        n = 3

        def __init__(self):
            self.reads = iter([(2, 3, 1), (3, 1, 2)])

        @property
        def images(self):
            return next(self.reads)

    with pytest.raises(AssertionError, match="does not multiply"):
        star_word(Shifting())


@pytest.mark.parametrize("n", range(3, 10))
def test_star_word_multiplies_back(n):
    rng = random.Random(n)
    for _ in range(30):
        p = random_perm(rng, n)
        if sign(p) != 1:
            p = compose(p, from_cycle(n, [1, 2]))
        word = star_word(p)
        assert len(word) % 2 == 0 and all(2 <= a <= n for a in word)
        assert star_product(word, n) == p


def test_star_word_examples():
    assert star_word(identity(5)) == ()
    assert star_word(from_cycle(5, [1, 2])) == (2,)
    # A 3-cycle through 1 takes two letters, one avoiding 1 takes four.
    assert len(star_word(from_cycle(5, [1, 2, 4]))) == 2
    assert len(star_word(from_cycle(5, [2, 3, 4]))) == 4


def test_parse_cycles():
    assert parse_cycles("(1,2,3)", 4) == from_cycle(4, [1, 2, 3])
    assert parse_cycles(" ( 1 , 2 , 3 ) ", 4) == from_cycle(4, [1, 2, 3])
    assert parse_cycles("(1,2,3)(4,5,6)", 6) == from_cycles(6, [[1, 2, 3], [4, 5, 6]])
    assert parse_cycles("()", 3) == identity(3)
    # non-disjoint cycles are applied left to right
    assert parse_cycles("(1,2)(1,3)", 3) == compose(from_cycle(3, [1, 2]), from_cycle(3, [1, 3]))


@pytest.mark.parametrize("bad", ["", "(1,2", "1,2,3", "(1,2))", "(a,b)", "(1 2 3)"])
def test_parse_cycles_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_cycles(bad, 5)


def test_parse_generator_list():
    gens = parse_generator_list("(1,2,3),(1,3,2)", 5)
    assert gens == [from_cycle(5, [1, 2, 3]), from_cycle(5, [1, 3, 2])]
    gens = parse_generator_list("(1,2,3)(4,5,3); (1,3,2)", 5)
    assert len(gens) == 2
    with pytest.raises(ValueError):
        parse_generator_list("", 5)
    with pytest.raises(ValueError):
        parse_generator_list("(1,2,3", 5)


# The two parsers as they were before the one-grammar rewrite: a character
# loop that splits the list at top-level separators, then a cycle-by-cycle
# walk.  The library must accept and reject exactly what they did.
_ORACLE_CYCLE_RE = re.compile(r"\(([0-9,]*)\)")


def oracle_parse_cycles(text, n):
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty cycle expression")
    cycles = []
    pos = 0
    for m in _ORACLE_CYCLE_RE.finditer(s):
        if m.start() != pos:
            raise ValueError(f"malformed cycle notation: {text!r}")
        body = m.group(1)
        if body:
            try:
                cycles.append([int(x) for x in body.split(",")])
            except ValueError:
                raise ValueError(f"malformed cycle notation: {text!r}") from None
        pos = m.end()
    if pos != len(s):
        raise ValueError(f"malformed cycle notation: {text!r}")
    return from_cycles(n, cycles)


def oracle_parse_generator_list(text, n):
    items = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch in ",;" and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    items.append("".join(current))
    items = [item for item in items if item.strip()]
    if not items:
        raise ValueError("empty generator list")
    return [oracle_parse_cycles(item, n) for item in items]


def outcome(parse, text, n=6):
    """The parse result, or ``ValueError`` if the text is rejected."""
    try:
        return parse(text, n)
    except ValueError:
        return ValueError


def assert_parsers_match_oracle(text):
    assert outcome(parse_cycles, text) == outcome(oracle_parse_cycles, text)
    assert outcome(parse_generator_list, text) == outcome(oracle_parse_generator_list, text)


@pytest.mark.parametrize(
    "text",
    [
        "(\u0661,\u0662,\u0663)",  # Arabic-Indic digits, which int() accepts
        "((1,2,3))",
        "(1,2,3,)",
        "(1;2,3)",
        ")(",
        ";;",
        ";(1,2,3),(1,3,2)",
        "(1,2,3),(1,3,2);",
        ",;(1,2,3);;,(1,3,2),;",
        "(1,2,3) (1,3,2)",
        "()",
        "(),(1,2,3)",
        "(01,2,3)",
        "(1 2,3)",
        "(1,2,3\u00a0)",
        "",
        " \t ",
        "(1,2,3)(4,5,6);(1,3,2)",
        "(1,2,3",
        "(1,2,3))",
        "(1,,2)",
        "(1,2,9)",
        "(1,1,2)",
    ],
)
def test_parsers_match_the_oracle_on_a_table(text):
    assert_parsers_match_oracle(text)


def test_parsers_match_the_oracle_on_random_strings():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    separators = st.sampled_from(["", ",", ";", " ", ";;", ", ", "\t;"])
    cycle = st.lists(st.integers(0, 7), max_size=4).map(lambda c: "(" + ",".join(map(str, c)) + ")")
    product = st.lists(cycle, min_size=1, max_size=3).map("".join)
    rendered = st.lists(st.tuples(separators, product), max_size=4).flatmap(
        lambda items: separators.map(lambda end: "".join(a + b for a, b in items) + end)
    )
    raw = st.text(alphabet="()0123456789,; \t\u0663", max_size=20)

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(raw, rendered))
    def check(text):
        assert_parsers_match_oracle(text)

    check()


def test_generator_list_rejects_a_bad_tail_in_linear_time():
    # 26 adjacent cycles split into products 2^25 ways; a grammar that tried
    # every split before rejecting the tail would take minutes here.
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        parse_generator_list("()" * 26 + "x", 5)
    assert time.perf_counter() - t0 < 1.0
