"""Cayley graphs on A_n as one row of neighbours per generator.

Vertices are even permutations numbered by :func:`altspectra.perm.rank`.
The neighbors of a vertex g are the products t*g for t in the generating
set, with t applied first (left multiplication under the package-wide
left-to-right composition).  A graph is one (degree, order) array whose
row c maps every vertex to its c-th neighbor; for a Cayley graph row c is
the bijection g -> t_c*g, and the row of t_c^{-1} is its inverse.  Built
graphs are immutable: the array is marked read-only, so a graph can be
shared freely across threads.

Every pass over the rows gathers one row at a time with ``ndarray.take``
(:meth:`Graph.gather_sum` sums over neighbors): ``x.take(row)`` is about
twice as fast as ``x[row]`` for an int32 row, while ``x[perms]`` fills a
(degree, order) temporary and ``x.take(perms)`` first copies every index.

A build writes each generator as a word of star transpositions (1 a)
(:func:`altspectra.perm.star_word`) and gathers its row from the longest
pieces of the word whose rows it holds: the n-1 star rows (one read-only
array, ranked once per n and kept for the last n) and earlier generators'
rows, so a 3-cycle that avoids 1 is one gather of two 3-cycles through 1.

Three generating families are provided, each the 3-cycles that move
every point the family pins (:data:`PINNED_POINTS`):

- T1 pins 1 and 2: the 3-cycles (1,2,i) and (1,i,2) for 3 <= i <= n,
- T2 pins 1: the 3-cycles through the point 1,
- T3 pins nothing: all 3-cycles.

The resulting graphs are called AG_n, EAG_n and CAG_n respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
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
FAMILY_TO_TAG = {"AG": "T1", "EAG": "T2", "CAG": "T3"}
TAG_TO_FAMILY = {v: k for k, v in FAMILY_TO_TAG.items()}
# The points every 3-cycle of a generating family moves.
PINNED_POINTS = {"T1": (1, 2), "T2": (1,), "T3": ()}
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
    """The T1 / T2 / T3 generating set on {1..n}: each 3-cycle (*p, *rest)
    and then its inverse, for p the pinned points (a prefix of 1..n) and
    ``rest`` running over the combinations of the later points."""
    if n < 3:
        raise ValueError(f"generating sets need n >= 3, got {n}")
    if family not in PINNED_POINTS:
        raise ValueError(f"unknown generating family {family!r} (expected T1, T2 or T3)")
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
    its point count ``n`` and family (AG, EAG, CAG or ``"custom"``); one made
    by hand has ``n`` None and family ``"custom"``.  Each row is meant to be a
    bijection whose inverse is also a row (an involution is its own
    inverse); :func:`graph_invariant_violations` reports where it is not.
    Two graphs are equal iff their arrays match entry for entry.  Passes
    over ``perms`` go row by row, so their scratch memory is O(order).
    """

    perms: np.ndarray
    n: int | None = None
    family_tag: str = "custom"

    def __post_init__(self):
        if self.perms.ndim != 2:
            raise ValueError(f"perms must be a (degree, order) array, got shape {self.perms.shape}")
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

    def edges_array(self) -> np.ndarray:
        """(E, 2) array of edges with u < v, sorted lexicographically."""
        nbrs = np.sort(self.perms.T, axis=1)
        mask = nbrs > np.arange(self.order)[:, None]
        return np.column_stack([np.nonzero(mask)[0], nbrs[mask]])

    def gather_sum(self, values: np.ndarray) -> np.ndarray:
        """Neighbor sums of ``values`` on its last axis, added row by row, in its dtype."""
        out = np.zeros((*values.shape[:-1], self.order), dtype=values.dtype)
        for row in self.perms:
            out += values.take(row, axis=-1)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Adjacency-matrix product A @ v without materializing A."""
        return self.gather_sum(np.asarray(v, dtype=np.float64))

    def adjacency_dense(self) -> np.ndarray:
        A = np.zeros((self.order, self.order))
        for row in self.perms:
            A[np.arange(self.order), row] = 1.0
        return A

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(self.perms, other.perms)


@lru_cache(maxsize=1)
def _star_rows(n: int) -> np.ndarray:
    """Read-only (n-1, order) star rows of A_n; one n is kept.  Row a-2 holds
    rank((1 a)*g_v*s) at v, with s the swap of the values 1 and 2 applied last."""
    # The columns of A_n with the values 1 and 2 swapped (h -> h*s), freed
    # on return; (1 a)*g sends point i to g[(1 a)_i]: swap the first and a-th.
    cols = alternating_images(n).T.copy()
    cols ^= (cols < 3) * np.uint8(3)
    star = np.empty((n - 1, cols.shape[1]), dtype=np.int32)
    for a in range(2, n + 1):
        star[a - 2] = alternating_ranks(cols[np.r_[a - 1, 1 : a - 1, 0, a:n]].T)
    star.setflags(write=False)
    return star


def build_cayley(n: int, gens: GeneratingSet, max_order: int = DEFAULT_MAX_ORDER) -> Graph:
    """Cayley graph of A_n with respect to ``gens``.

    Vertex v is the even permutation g_v = ``unrank(n, v)``; row c holds the
    ranks of t_c*g (t_c first) over all vertices g.  With s the swap of the
    values 1 and 2 applied last, the star row of a point a holds
    rank((1 a)*g_v*s) at v.  Right multiplication commutes with left
    multiplication and s*s = 1, so following the star row of b and then
    that of a gives rank((1 a)(1 b)*g_v); each generator is an even star
    word, so its row is the rows of the word's pieces chained by gathers.
    The n-1 star rows are ranked once per n, by :func:`_star_rows`.
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
    rows = {(a,): row for a, row in enumerate(_star_rows(n), 2)}
    perms = np.empty((gens.size, order), dtype=np.int32)
    for c, word in enumerate(map(star_word, gens.elements)):
        # Cut the word from the right into the longest pieces already built.
        row, j = None, len(word)
        while j:
            i = min(i for i in range(j) if word[i:j] in rows)
            row = rows[word[i:j]] if row is None else rows[word[i:j]].take(row)
            j = i
        perms[c] = row
        rows[word] = perms[c]
    return Graph(perms, n=n, family_tag=TAG_TO_FAMILY.get(gens.family_tag, "custom"))


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
    check_family(family, n)
    return build_cayley(n, generating_set(FAMILY_TO_TAG[family], n), max_order=max_order)


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

    Block X(i) of the family is the set of vertices labelled i.
    """
    check_family(family, n)
    position = {"AG": n, "EAG": 2, "CAG": 1}[family]
    return alternating_images(n)[:, position - 1]


def phi_isomorphism(n: int, i: int, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Bijection from the defining block of the family onto A_{n-1} vertices.

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
    image = alternating_ranks(imgs)
    if not np.array_equal(np.sort(image), np.arange(alternating_order(n - 1))):
        raise AssertionError("block map failed to biject onto A_{n-1}")
    return block, image


def graph_invariant_violations(G: Graph) -> list[str]:
    """Structural defects of the neighbor rows; empty list means clean."""
    problems = []
    P = G.perms
    if P.size and (P.min() < 0 or P.max() >= G.order):
        problems.append("neighbor index out of range")
        return problems
    vertices = np.arange(G.order, dtype=P.dtype)
    if any((row == vertices).any() for row in P):
        problems.append("self-loop present")
    S = np.sort(P, axis=0)
    if any((above == below).any() for above, below in zip(S[1:], S)):
        problems.append("a vertex has a repeated neighbor")
    # Each row's reverse arcs must all lie in the row that takes row[0] back
    # to 0; with no repeated neighbors that makes the adjacency symmetric.
    if not all(np.array_equal(P[np.argmax(P[:, row[0]] == 0)].take(row), vertices) for row in P):
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
        for u, v in G.edges_array():
            fh.write(f"{u} {v}\n")
