"""Permutations of {1..n} and lexicographic enumeration of the even ones.

Conventions, fixed once for the whole package:

- One-line notation: a permutation is the tuple of images ``(p_1, ..., p_n)``
  where ``p_i`` is the image of point ``i``.  Points are 1-based.
- Products compose left to right: ``compose(s, t)`` applies ``s`` first and
  then ``t``, so point ``i`` goes to ``t[s[i]]``.  Every neighbor formula in
  the graph modules depends on this order; do not flip it.
- Even permutations are numbered by the lexicographic order of their image
  tuples.  In the lexicographic list of all n! permutations, consecutive
  pairs share the first n-2 entries and differ by a swap of the last two,
  so exactly one member of each pair is even and the even rank is the full
  Lehmer rank halved.  :func:`alternating_ranks` ranks many rows at once
  from whole columns of the image array, in int32.
- A_n is enumerated without listing S_n: the rows of A_k that start with
  the value f are the rows of A_{k-1} relabelled to skip f.  A leading f
  adds f-1 inversions, so for even f the relabelled rows must be odd; by
  the pairing above, A_{k-1} with its last two columns swapped lists the
  odd permutations of k-1 points in lexicographic order.
- Every permutation is a product of star transpositions (1 a);
  :func:`star_word` writes one such product, which the graph build uses.
- Cycle notation has one regular grammar, whitespace ignored: a cycle is
  ``(`` comma-separated ASCII-digit points ``)``, a product is cycles side
  by side, and a generator list is products separated by runs of ``,``
  and ``;``.  :func:`parse_cycles` reads a product and
  :func:`parse_generator_list` a list.

Everything here is a pure value; no function mutates its arguments, so all
operations are safe to call concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import OrderCapError

# n! must stay well inside 64-bit arithmetic; graphs are built for far
# smaller n anyway.
MAX_POINTS = 12
# A_10 is 1.8 M rows (18 MB); A_11 would take 0.2 GB at once and A_12 2.9 GB.
MAX_ENUMERATED_POINTS = 10


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1, 2, ..., n."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if not 1 <= n <= MAX_POINTS:
            raise ValueError(f"point count must be in 1..{MAX_POINTS}, got {n}")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images!r} are not a bijection of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return cycle_string(self)


def identity(n: int) -> Permutation:
    """The identity permutation on {1..n}."""
    return Permutation(tuple(range(1, n + 1)))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Product that applies ``sigma`` first, then ``tau``.

    >>> compose(from_cycle(3, [1, 2, 3]), from_cycle(3, [1, 2, 3])).images
    (3, 1, 2)
    """
    if sigma.n != tau.n:
        raise ValueError(f"cannot compose permutations of {sigma.n} and {tau.n} points")
    return Permutation(tuple(tau.images[s - 1] for s in sigma.images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for i, v in enumerate(p.images):
        inv[v - 1] = i + 1
    return Permutation(tuple(inv))


def from_cycle(n: int, cycle) -> Permutation:
    """Permutation of {1..n} acting cyclically on ``cycle``, fixing the rest.

    >>> from_cycle(4, [1, 2, 3]).images
    (2, 3, 1, 4)
    """
    cycle = list(cycle)
    if len(set(cycle)) != len(cycle):
        raise ValueError(f"cycle {cycle!r} has repeated points")
    images = list(range(1, n + 1))
    for pos, point in enumerate(cycle):
        if not 1 <= point <= n:
            raise ValueError(f"cycle point {point} outside 1..{n}")
        images[point - 1] = cycle[(pos + 1) % len(cycle)]
    return Permutation(tuple(images))


def from_cycles(n: int, cycles) -> Permutation:
    """Left-to-right product of cycles (the leftmost cycle acts first)."""
    result = identity(n)
    for cyc in cycles:
        result = compose(result, from_cycle(n, cyc))
    return result


def sign(p: Permutation) -> int:
    """Parity: +1 for even permutations, -1 for odd ones."""
    return 1 if _inversions(p.images) % 2 == 0 else -1


def cycle_string(p: Permutation) -> str:
    """Disjoint-cycle rendering, e.g. ``(1,2,3)``; fixed points omitted."""
    seen = [False] * p.n
    out = []
    for start in range(1, p.n + 1):
        if seen[start - 1] or p.images[start - 1] == start:
            continue
        cyc = [start]
        seen[start - 1] = True
        point = p.images[start - 1]
        while point != start:
            cyc.append(point)
            seen[point - 1] = True
            point = p.images[point - 1]
        out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out) if out else "()"


def _inversions(images) -> int:
    inv = 0
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if images[a] > images[b]:
                inv += 1
    return inv


def _lehmer_rank(images) -> int:
    n = len(images)
    r = 0
    for a in range(n):
        smaller_later = sum(1 for b in range(a + 1, n) if images[b] < images[a])
        r += smaller_later * factorial(n - 1 - a)
    return r


def _lehmer_unrank(n: int, r: int) -> list[int]:
    avail = list(range(1, n + 1))
    images = []
    for a in range(n):
        f = factorial(n - 1 - a)
        digit, r = divmod(r, f)
        images.append(avail.pop(digit))
    return images


def alternating_order(n: int) -> int:
    """|A_n|: n!/2 for n >= 2, and 1 for n = 1."""
    return factorial(n) // 2 if n >= 2 else 1


def rank(p: Permutation) -> int:
    """Index of the even permutation ``p`` in lexicographic order of A_n."""
    if sign(p) != 1:
        raise ValueError(f"rank is defined for even permutations only, got {p.images!r}")
    return _lehmer_rank(p.images) // 2


def unrank(n: int, v: int) -> Permutation:
    """Inverse of :func:`rank`: the v-th even permutation of {1..n}."""
    order = alternating_order(n)
    if not 0 <= v < order:
        raise ValueError(f"alternating rank {v} outside [0, {order})")
    if n == 1:
        return identity(1)
    images = _lehmer_unrank(n, 2 * v)
    # The pair {2v, 2v+1} differs by swapping the last two entries and
    # contains exactly one even permutation.
    if _inversions(images) % 2 != 0:
        images[-1], images[-2] = images[-2], images[-1]
    return Permutation(tuple(images))


@lru_cache(maxsize=None)
def alternating_images(n: int) -> np.ndarray:
    """(n!/2, n) uint8 array of even permutations in lexicographic order.

    Row v is the image tuple of ``unrank(n, v)``; the graph and partition
    modules index vertices straight into this array.  A_k is built from
    A_{k-1} for k = 2..n, one leading-value block at a time (see the module
    docstring).  The returned array is cached and marked read-only.  Raises
    ``OrderCapError`` beyond ``MAX_ENUMERATED_POINTS`` points.
    """
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"point count must be in 1..{MAX_POINTS}, got {n}")
    if n > MAX_ENUMERATED_POINTS:
        raise OrderCapError(
            f"A_{n} has {alternating_order(n)} elements; enumeration is capped "
            f"at n = {MAX_ENUMERATED_POINTS}, a fixed cap that max_order does not lift"
        )
    verts = np.ones((1, 1), dtype=np.uint8)
    for k in range(2, n + 1):
        # The odd permutations of k-1 points; there are none for k = 2.
        odd = verts[:, [*range(k - 3), k - 2, k - 3]] if k > 2 else verts[:0]
        out = np.empty((alternating_order(k), k), dtype=np.uint8)
        start = 0
        for f in range(1, k + 1):
            rest = verts if f % 2 else odd
            block = out[start : start + len(rest)]
            block[:, 0] = f
            np.add(rest, rest >= f, out=block[:, 1:])
            start += len(rest)
        verts = out
    verts.setflags(write=False)
    return verts


def alternating_ranks(images: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rank` over the rows of an (m, n) array of even image
    tuples, as int32: every Lehmer rank is below 12! < 2**31.  Position a's
    digit is a uint8 count of later columns below column a, added in by
    Horner's rule; a column-major input is read in place, any other copied once."""
    m, n = images.shape
    cols = np.asfortranarray(images).T
    ranks = np.zeros(m, dtype=np.int32)
    digit, less = np.empty((2, m), dtype=np.uint8)
    for a in range(n - 1):
        np.less(cols[a + 1], cols[a], out=digit)
        for b in range(a + 2, n):
            digit += np.less(cols[b], cols[a], out=less)
        ranks *= n - a
        ranks += digit
    return np.right_shift(ranks, 1, out=ranks)


def star_word(p: Permutation) -> tuple[int, ...]:
    """Points a_1, ..., a_m with ``p`` = (1 a_1)(1 a_2)...(1 a_m), (1 a_1)
    applied first; m has the parity of ``p``.

    Right multiplication by (1 a) swaps the values 1 and a in an image
    tuple.  Each swap gives the position holding 1 its own value or, when
    1 is at position 1, moves 1 onto the first displaced position, until
    the identity is reached; the swaps read backwards are the word.  Raises
    ``AssertionError`` if the word does not multiply back to ``p``.
    """
    images = list(p.images)
    undo = []
    while True:
        at = images.index(1)
        a = at + 1 if at else next((v for k, v in enumerate(images, 1) if v != k), None)
        if a is None:
            break
        k = images.index(a)
        images[at], images[k] = a, 1
        undo.append(a)
    word = tuple(reversed(undo))
    product = tuple(range(1, p.n + 1))
    for a in word:
        swap = (a, *range(2, a), 1, *range(a + 1, p.n + 1))
        product = tuple(swap[s - 1] for s in product)
    if product != p.images:
        raise AssertionError(f"star word {word} does not multiply to {p}")
    return word


# The grammar of the module docstring.  [0-9], not \d: \d also matches
# non-ASCII digits, which int() would accept.  The list is written over
# cycles: "(?:PRODUCT[,;]*)*" is the same language, but it can split k
# adjacent cycles into products 2^(k-1) ways, and backtracks through them
# all before rejecting a bad tail.
_CYCLE = r"\((?:[0-9]+(?:,[0-9]+)*)?\)"
_PRODUCT = rf"(?:{_CYCLE})+"
_GENERATOR_LIST = rf"[,;]*(?:{_CYCLE}[,;]*)*"


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation: ``"(1,2,3)"`` or a product ``"(1,2,3)(4,5,6)"``.

    Whitespace-insensitive; points are 1-based; cycles in a product act left
    to right.  ``"()"`` parses to the identity.
    """
    s = re.sub(r"\s+", "", text)
    if not re.fullmatch(_PRODUCT, s):
        raise ValueError(f"malformed cycle notation: {text!r}")
    bodies = re.findall(r"\(([0-9,]+)\)", s)
    return from_cycles(n, [[int(x) for x in body.split(",")] for body in bodies])


def parse_generator_list(text: str, n: int) -> list[Permutation]:
    """Parse cycle products separated by runs of ``;`` and ``,``.

    Example: ``"(1,2,3),(1,3,2)"`` or ``";(1,2,3)(4,5,6); (1,3,2),"``;
    whitespace is ignored, so ``"(1,2,3) (1,3,2)"`` is one product.
    """
    s = re.sub(r"\s+", "", text)
    if not re.fullmatch(_GENERATOR_LIST, s):
        raise ValueError(f"malformed generator list: {text!r}")
    items = re.findall(_PRODUCT, s)
    if not items:
        raise ValueError("empty generator list")
    return [parse_cycles(item, n) for item in items]
