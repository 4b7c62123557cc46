"""Cayley graphs on A_n as one row of neighbours per generator.

Vertices are even permutations numbered by :func:`altspectra.perm.rank`.
The neighbors of a vertex g are the products t*g for t in the generating
set, with t applied first (left multiplication under the package-wide
left-to-right composition).  A graph is one (degree, order) array whose
row c maps every vertex to its c-th neighbor; for a Cayley graph row c is
the bijection g -> t_c*g, and the row of t_c^{-1} is its inverse.  Built
graphs are immutable: the array is marked read-only, so a graph can be
shared freely across threads.

Every pass over the rows runs in O(order) scratch memory: it gathers one
row at a time with ``ndarray.take`` (:meth:`Graph.gather_sum` sums over
neighbors along the first, vertex axis into one output and one scratch
buffer), or sorts the rows one block of about order/degree columns at a time
(:func:`graph_invariant_violations`, :meth:`Graph.edges_array`).
``x.take(row)`` is about three times as fast as ``x[row]``, for a built uint16
row as for an int32 one (``take`` widens every index to intp), while
``x[perms]`` fills a (degree, order) temporary and ``x.take(perms)`` first
copies every index.

A build writes each generator as a word of star transpositions (1 a)
(:func:`altspectra.perm.star_word`) and gathers its row from the longest
pieces of the word whose rows it holds: the n-1 star rows (one read-only
array, ranked once per n and kept for the last n) and earlier generators'
rows, so a 3-cycle that avoids 1 is one gather of two 3-cycles through 1.

Three families are provided, AG_n, EAG_n and CAG_n, each generated by the
3-cycles that move every point the family pins (:data:`PINNED_POINTS`):

- AG pins 1 and 2: the 3-cycles (1,2,i) and (1,i,2) for 3 <= i <= n,
- EAG pins 1: the 3-cycles through the point 1,
- CAG pins nothing: all 3-cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import OrderCapError
from .perm import (
    Permutation,
    alternating_images,
    alternating_order,
    alternating_ranks,
    from_cycle,
    identity,
    inverse,
    sign,
    star_word,
)

FAMILIES = ("AG", "EAG", "CAG")
# The points every 3-cycle of a family's generating set (the paper's T1, T2, T3) moves.
PINNED_POINTS = {"AG": (1, 2), "EAG": (1,), "CAG": ()}
# EAG_n is AG_n plus n copies of EAG_{n-1}; CAG_n is EAG_n plus n copies of CAG_{n-1}.
SPANNING = {"EAG": "AG", "CAG": "EAG"}
# The least n of each family's block partition (AG's block W is empty at n = 3).
PARTITION_LEAST = {"AG": 4, "EAG": 3, "CAG": 3}

# 9!/2: the largest graph order built unless max_order (--max-order) is raised.
DEFAULT_MAX_ORDER = 181_440


@dataclass(frozen=True)
class GeneratingSet:
    """An inverse-closed, identity-free set of even permutations."""

    n: int
    elements: tuple[Permutation, ...]
    family_tag: str = "custom"

    def __post_init__(self):
        seen = set()
        for t in self.elements:
            if t.n != self.n:
                raise ValueError(f"generator {t.images!r} is not on {self.n} points")
            if t.images in seen:
                raise ValueError(f"duplicate generator {t}")
            seen.add(t.images)
        if identity(self.n).images in seen:
            raise ValueError("generating set contains the identity")
        for t in self.elements:
            if sign(t) != 1:
                raise ValueError(f"generator {t} is odd; all generators must be even")
            if inverse(t).images not in seen:
                raise ValueError(f"generating set is not closed under inverses at {t}")

    @property
    def size(self) -> int:
        return len(self.elements)


def generating_set(family: str, n: int) -> GeneratingSet:
    """The generating set of AG_n, EAG_n or CAG_n: each 3-cycle (*p, *rest)
    and then its inverse, for p the pinned points (a prefix of 1..n) and
    ``rest`` running over the combinations of the later points."""
    check_family(family, n)
    p = PINNED_POINTS[family]
    elements = [
        from_cycle(n, cycle)
        for rest in combinations(range(len(p) + 1, n + 1), 3 - len(p))
        for a, b, c in [(*p, *rest)]
        for cycle in ((a, b, c), (a, c, b))
    ]
    return GeneratingSet(n=n, elements=tuple(elements), family_tag=family)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected regular graph as a (degree, order) array.

    ``perms[c, v]`` is the c-th neighbor of vertex v.  A built graph carries
    its point count ``n``, family (AG, EAG, CAG or ``"custom"``) and the
    generating set ``gens`` whose c-th element made row c; one made by hand
    has ``n`` None, family ``"custom"`` and ``gens`` None.  A build stores the
    rows in the star rows' dtype (:func:`_star_rows`); rows made by hand keep
    theirs.  Construction raises ``ValueError`` unless the dtype holds
    order - 1, every entry names a vertex in 0..order-1 (so no reader of the
    rows checks their range again) and ``gens``, if given, has the graph's
    ``n``, degree and family; it does not rebuild the rows from ``gens``, so
    a caller who passes it (``dataclasses.replace`` of a built graph does)
    vouches for them.  Each row is meant to be a bijection whose inverse is
    also a row (an involution is its own inverse);
    :func:`graph_invariant_violations` reports self-loops, repeated neighbours
    and asymmetry.  Two graphs are equal iff their arrays match entry for
    entry, whatever their dtypes or generating sets.  Passes over ``perms``
    go row by row, or column block by column block, in O(order) scratch
    memory.
    """

    perms: np.ndarray
    n: int | None = None
    family_tag: str = "custom"
    gens: GeneratingSet | None = field(default=None, repr=False)

    def __post_init__(self):
        p = self.perms
        if not isinstance(p, np.ndarray) or p.ndim != 2 or p.dtype.kind not in "iu":
            raise ValueError(f"perms must be a (degree, order) integer array, got {p!r:.60}")
        if np.iinfo(p.dtype).max < p.shape[1] - 1:
            raise ValueError(f"perms of dtype {p.dtype} cannot name all {p.shape[1]} vertices")
        if p.size and (p.max() >= p.shape[1] or (p.dtype.kind == "i" and p.min() < 0)):
            raise ValueError(f"perms name a vertex outside 0..{p.shape[1] - 1}")
        g = self.gens
        if g is not None and (g.n, g.size, g.family_tag) != (self.n, self.degree, self.family_tag):
            raise ValueError(f"{g.family_tag} generators on {g.n} points cannot make these rows")
        self.perms.setflags(write=False)

    @property
    def order(self) -> int:
        return self.perms.shape[1]

    @property
    def degree(self) -> int:
        return self.perms.shape[0]

    @property
    def neighbors(self) -> np.ndarray:
        """Every neighbor entry, row by row: a flat view of ``perms``."""
        return self.perms.reshape(-1)

    @property
    def edge_count(self) -> int:
        return self.perms.size // 2

    def column_blocks(self) -> list[slice]:
        """Column slices of ceil(order/degree) columns, the last one partial
        when the degree does not divide the order: each (degree, width)
        block of ``perms`` holds about order entries."""
        width = -(-self.order // max(self.degree, 1))
        return [slice(lo, lo + width) for lo in range(0, self.order, width)]

    def edges_array(self) -> np.ndarray:
        """(E, 2) array of edges with u < v, sorted lexicographically."""
        vertices = np.arange(self.order)
        edges = np.empty((sum(np.count_nonzero(row > vertices) for row in self.perms), 2), np.int64)
        end = 0
        for cols in self.column_blocks():
            nbrs = np.sort(self.perms[:, cols], axis=0).T
            u, k = np.nonzero(nbrs > vertices[cols, None])
            edges[end : end + u.size, 0] = u + cols.start
            edges[end : end + u.size, 1] = nbrs[u, k]
            end += u.size
        return edges

    def gather_sum(
        self, values: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """Neighbor sums of ``values`` along its first (vertex) axis, added row by
        row in its dtype into ``out``; each row gathers one record ``values[u]``
        per neighbor u into ``scratch``.  Either buffer is allocated when not
        given; neither may overlap ``values``.

        ``take(mode="wrap")`` writes each gather straight into ``scratch``,
        where ``mode="raise"`` would gather into a temporary first.  Every
        entry is a vertex, so only ``values`` shorter than the order, which
        ``take`` would wrap, raise ``IndexError``, before the first row.
        """
        if len(values) < self.order:
            raise IndexError(f"{len(values)} values for {self.order} vertices")
        shape = (self.order, *values.shape[1:])
        if out is None:
            out = np.zeros(shape, dtype=values.dtype)
        else:
            out[...] = 0
        if scratch is None:
            scratch = np.empty(shape, dtype=values.dtype)
        for row in self.perms:
            out += values.take(row, axis=0, out=scratch, mode="wrap")
        return out

    def matvec(
        self, v: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """Adjacency-matrix product A @ v without materializing A, through
        :meth:`gather_sum` and its ``out`` and ``scratch`` buffers."""
        return self.gather_sum(np.asarray(v, dtype=np.float64), out, scratch)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(self.perms, other.perms)


@lru_cache(maxsize=1)
def _star_rows(n: int) -> np.ndarray:
    """Read-only (n-1, order) star rows of A_n; one n is kept.  Row a-2 holds
    rank((1 a)*g_v*s) at v, with s the swap of the values 1 and 2 applied last.
    Their dtype, which every built graph's rows share, is the smallest unsigned
    one that holds order - 1: uint8 for n <= 5, uint16 to n = 8, uint32 beyond."""
    # The columns of A_n with the values 1 and 2 swapped (h -> h*s), freed
    # on return; (1 a)*g sends point i to g[(1 a)_i]: swap the first and a-th.
    cols = alternating_images(n).T.copy()
    cols ^= (cols < 3) * np.uint8(3)
    star = np.empty((n - 1, cols.shape[1]), dtype=np.min_scalar_type(cols.shape[1] - 1))
    for a in range(2, n + 1):
        star[a - 2] = alternating_ranks(cols[np.r_[a - 1, 1 : a - 1, 0, a:n]].T)
    star.setflags(write=False)
    return star


def star_matvec(G: Graph):
    """A @ v of a named EAG_n or CAG_n from its n-1 star rows, as a function
    ``(v, out, scratch) -> out`` with one order-length buffer (EAG_n) or two
    (CAG_n); None for any other graph (AG_n: 2(n-1) gathers for 2(n-2) rows).
    Q_a, the star-row gather of a, is an involution; Q_a Q_b is (1 a)(1 b) or
    its inverse.  With S_k = Q_2 + ... + Q_k, EAG_n is S_n^2 - (n-1)I (2(n-1)
    gathers) and CAG_n, by the Jucys-Murphy sums X_k = Q_k S_k Q_k
    (X_2^2 = I), is (1 - C(n,2))I + sum over k = 3..n of Q_k S_k^2 Q_k
    (n(n+1)-6).  It reads no ``G.perms``."""
    if G.family_tag not in ("EAG", "CAG") or G.n is None or G.order != alternating_order(G.n):
        return None
    n, Q, buffers = G.n, _star_rows(G.n), np.empty((1 + (G.family_tag == "CAG"), G.order))
    u, y = buffers[0], buffers[-1]  # the EAG product reads only u

    def S(k, x, out, scratch):  # S_k x into out
        np.take(x, Q[0], out=out, mode="wrap")
        for row in Q[1 : k - 1]:
            out += np.take(x, row, out=scratch, mode="wrap")
        return out

    def product(v, out, scratch):
        if G.family_tag == "EAG":
            S(n, S(n, v, u, scratch), out, scratch)
            return np.subtract(out, np.multiply(v, n - 1, out=scratch), out=out)
        np.multiply(v, 1 - n * (n - 1) // 2, out=out)
        for k in range(3, n + 1):
            S(k, S(k, np.take(v, Q[k - 2], out=y, mode="wrap"), u, scratch), y, scratch)
            out += np.take(y, Q[k - 2], out=scratch, mode="wrap")
        return out

    return product


def build_cayley(n: int, gens: GeneratingSet, max_order: int = DEFAULT_MAX_ORDER) -> Graph:
    """Cayley graph of A_n with respect to ``gens``.

    Vertex v is the even permutation g_v = ``unrank(n, v)``; row c holds the
    ranks of t_c*g (t_c first) over all vertices g.  With s the swap of the
    values 1 and 2 applied last, the star row of a point a holds
    rank((1 a)*g_v*s) at v.  Right multiplication commutes with left
    multiplication and s*s = 1, so following the star row of b and then
    that of a gives rank((1 a)(1 b)*g_v); each generator is an even star
    word, so its row is the rows of the word's pieces chained by gathers.
    The n-1 star rows are ranked once per n, by :func:`_star_rows`.  The
    graph keeps ``gens``, so a reader can tell which generator made each row.
    """
    if gens.n != n:
        raise ValueError(f"generating set is on {gens.n} points, graph wants {n}")
    if n < 3:
        raise ValueError(f"Cayley graphs need n >= 3, got {n}")
    order = alternating_order(n)
    if order > max_order:
        raise OrderCapError(
            f"order {order} exceeds cap {max_order}; raise max_order (--max-order) to build it"
        )
    star = _star_rows(n)
    rows = {(a,): row for a, row in enumerate(star, 2)}
    perms = np.empty((gens.size, order), dtype=star.dtype)
    for c, word in enumerate(map(star_word, gens.elements)):
        # Cut the word from the right into the longest pieces already built.
        row, j = None, len(word)
        while j:
            i = min(i for i in range(j) if word[i:j] in rows)
            row = rows[word[i:j]] if row is None else rows[word[i:j]].take(row)
            j = i
        perms[c] = row
        rows[word] = perms[c]
    return Graph(perms, n=n, family_tag=gens.family_tag, gens=gens)


def check_block(n: int, i: int) -> None:
    """Raise ``ValueError`` unless the block value i lies in 1..n."""
    if not 1 <= i <= n:
        raise ValueError(f"block value must be in 1..{n}, got {i}")


def check_family(
    family: str, n: int, least: int | dict = 3, block: int | None = None, families=FAMILIES
) -> None:
    """Raise ``ValueError`` unless ``family`` is one of ``families``, n >= ``least``
    (or ``least[family]``, as with :data:`PARTITION_LEAST`) and ``block``, if given,
    is in 1..n.  Every family or block-value entry point calls this before it builds."""
    if family not in families:
        raise ValueError(f"family {family!r} not allowed here (expected one of {families})")
    least = least[family] if isinstance(least, dict) else least
    if n < least:
        raise ValueError(f"{family} needs n >= {least} here, got {n}")
    if block is not None:
        check_block(n, block)


def build_family(family: str, n: int, max_order: int = DEFAULT_MAX_ORDER) -> Graph:
    """AG_n, EAG_n or CAG_n."""
    return build_cayley(n, generating_set(family, n), max_order=max_order)


def is_connected(G: Graph) -> bool:
    """True iff closing {0} under the rows reaches every vertex.  It closes
    under the first 2, 4, 8, ... rows, then all of them, each stage resuming
    from every vertex seen, and stops at the first prefix that reaches all."""
    if G.order == 0:
        return False
    seen, width = np.arange(G.order) == 0, 2
    while True:
        frontier = np.flatnonzero(seen)
        while frontier.size:
            hit = np.zeros(G.order, dtype=bool)
            for row in G.perms[:width]:
                hit[row.take(frontier)] = True
            hit &= ~seen
            seen |= hit
            frontier = np.flatnonzero(hit)
        if seen.all() or width >= G.degree:
            return bool(seen.all())
        width *= 2


def induced_subgraph(G: Graph, S) -> Graph:
    """Subgraph on vertex subset ``S``, made of the rows that map S into S.

    Vertex k of the subgraph is the k-th smallest member of ``S``.  Raises
    ``ValueError`` when a row maps only part of ``S`` into ``S``.
    """
    S = np.asarray(S, dtype=np.int64)
    if S.size == 0:
        raise ValueError("vertex subset is empty")
    if S.min() < 0 or S.max() >= G.order:
        raise ValueError("vertex subset out of range")
    S = np.flatnonzero(np.bincount(S, minlength=G.order))
    new_id = np.full(G.order, -1, dtype=np.int32)
    new_id[S] = np.arange(S.size)
    rows = np.array([new_id.take(row.take(S)) for row in G.perms], np.int32).reshape(-1, S.size)
    inside = rows >= 0
    keep = inside.all(axis=1)
    if np.any(inside.any(axis=1) & ~keep):
        raise ValueError("a row maps only part of the vertex subset into it")
    return Graph(perms=rows[keep])


def block_labels(family: str, n: int) -> np.ndarray:
    """Defining-block label of every vertex: the value at the position the
    family pins, n (AG), 2 (EAG) or 1 (CAG).

    Block X(i) of the family is the set of vertices labelled i.  The labels
    are a contiguous copy of the column, which gathers read in place.
    """
    check_family(family, n)
    position = {"AG": n, "EAG": 2, "CAG": 1}[family]
    return np.ascontiguousarray(alternating_images(n)[:, position - 1])


def phi_isomorphism(n: int, i: int, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Bijection from the defining block of the family onto A_{n-1} vertices
    (:func:`altspectra.verify.check_subgraph_isomorphism` records whether it is one).

    Returns ``(block, image)``: ``block`` holds the vertices labelled i by
    :func:`block_labels`, in ascending order, and ``image[k]`` is the
    A_{n-1} vertex that ``block[k]`` maps to.  Each member is mapped by
    dropping the value i from its image tuple, closing the gap, and renaming
    the value n to i (a no-op when i = n).  That pairing already preserves
    products g' * g^{-1}, hence adjacency; when the raw images come out odd,
    a fixed swap of the values 1 and 2 is applied on top, which leaves
    products untouched and lands the block in A_{n-1}.
    """
    check_family(family, n, 4, block=i)
    block = np.flatnonzero(block_labels(family, n) == i)
    rows = alternating_images(n)[block]
    imgs = rows[rows != i].reshape(block.size, n - 1)
    if i != n:
        imgs[imgs == n] = i
    # Parity offset is uniform across the block; probe the first member.
    if sign(Permutation(tuple(int(x) for x in imgs[0]))) != 1:
        low = imgs <= 2
        imgs[low] = 3 - imgs[low]
    return block, alternating_ranks(imgs)


def graph_invariant_violations(G: Graph) -> list[str]:
    """Structural defects of the neighbor rows (self-loops, repeated neighbours,
    asymmetry); empty list means clean.  Entries outside 0..order-1 never get
    here: :class:`Graph` refuses them when it is built."""
    problems = []
    P = G.perms
    vertices = np.arange(G.order, dtype=P.dtype)
    back, hit = np.empty_like(vertices), np.empty(G.order, dtype=bool)
    if any(np.equal(row, vertices, out=hit).any() for row in P):
        problems.append("self-loop present")
    sorted_blocks = (np.sort(P[:, cols], axis=0) for cols in G.column_blocks())
    if any((S[1:] == S[:-1]).any() for S in sorted_blocks):
        problems.append("a vertex has a repeated neighbor")

    def reverse(row):  # the row that takes row[0] back to 0, read along row
        return P[np.argmax(P[:, row[0]] == 0)].take(row, out=back, mode="wrap")

    # Each row's reverse arcs must all lie in that row; with no repeated
    # neighbors that makes the adjacency symmetric.
    if not all(np.equal(reverse(row), vertices, out=hit).all() for row in P):
        problems.append("adjacency is not symmetric")
    return problems


def export_edges(G: Graph, path) -> None:
    """Write the edge list: header comment, then one ``u v`` pair per line.

    Vertices are 0-based ranks, u < v, LF line endings.  The header carries
    ``G.family_tag`` and ``G.n``: ``family=custom n=None`` for a graph made
    by hand.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# family={G.family_tag} n={G.n} order={G.order} degree={G.degree}\n")
        for rows in np.array_split(G.edges_array(), max(G.degree, 1)):  # one write per chunk
            fh.write("".join("%d %d\n" % (u, v) for u, v in rows.tolist()))
