"""Index combinatorics: the g-map, g-independence, q-admissible partitions,
constructive independent families, and the dimension lower bounds.

An index is a composition (s_1, ..., s_r) of its weight w.  Its g-image is
{0} in depth 1 and otherwise the set of partial-sum complements
{w - s_1, w - s_1 - s_2, ...}; families with pairwise disjoint g-images
are the inputs to the independence machinery.
"""

from __future__ import annotations

from .errors import DomainError, InvalidIndexError


class Index(tuple):
    """Composition (s_1, ..., s_r) of positive integers."""

    __slots__ = ()

    def __new__(cls, entries):
        entries = tuple(int(s) for s in entries)
        if not entries:
            raise InvalidIndexError("index must have depth >= 1")
        if any(s < 1 for s in entries):
            raise InvalidIndexError(f"index entries must be positive: {entries}")
        return super().__new__(cls, entries)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    def __repr__(self):
        return f"Index{tuple(self)}"


def coerce_index(s) -> Index:
    return s if isinstance(s, Index) else Index(s)


def compositions(w: int):
    """Lazily enumerate the 2^(w-1) compositions of w as Index values:
    first entry ascending, and for each first entry the compositions of
    the rest in this same order."""
    if w < 1:
        raise DomainError("weight must be >= 1")
    for first in range(1, w):
        for rest in compositions(w - first):
            yield Index((first,) + rest)
    yield Index((w,))


def g_map(s) -> frozenset:
    """g(s): {0} for depth 1, else the r-1 partial-sum complements."""
    s = coerce_index(s)
    if s.depth == 1:
        return frozenset({0})
    w = s.weight
    acc = 0
    out = []
    for entry in s[:-1]:
        acc += entry
        out.append(w - acc)
    return frozenset(out)


def g_inverse(t, w: int) -> Index:
    """Inverse of the g-map on its image: {x_1 > ... > x_{r-1}} with all
    x_i in {1..w-1} maps to (w - x_1, x_1 - x_2, ..., x_{r-1}); {0} maps
    to (w)."""
    t = frozenset(int(x) for x in t)
    if t == frozenset({0}):
        return Index((w,))
    if not t or not all(1 <= x <= w - 1 for x in t):
        raise InvalidIndexError(f"g-image must be {{0}} or a nonempty subset of 1..{w - 1}: {sorted(t)}")
    xs = sorted(t, reverse=True)
    entries = [w - xs[0]]
    entries += [xs[i] - xs[i + 1] for i in range(len(xs) - 1)]
    entries.append(xs[-1])
    return Index(entries)


def is_g_independent(family) -> bool:
    """Pairwise disjointness of the g-images."""
    images = [g_map(s) for s in family]
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] & images[j]:
                return False
    return True


def q_admissible_partitions(w: int, q: int):
    """Lazily enumerate set partitions of {1..w-1} whose every block has a
    minimum not divisible by q-1, in restricted-growth-string order.

    Emits each partition as a tuple of frozensets ordered by block minimum.
    w = 1 (nothing to partition) emits nothing.
    """
    if w < 1:
        raise DomainError("weight must be >= 1")
    n = w - 1
    if n == 0:
        return
    elements = list(range(1, w))
    blocks: list[list[int]] = []

    def rec(i):
        if i == n:
            yield tuple(frozenset(b) for b in blocks)
            return
        x = elements[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1)
            b.pop()
        # x opens a new block, so x is that block's minimum
        if x % (q - 1) != 0:
            blocks.append([x])
            yield from rec(i + 1)
            blocks.pop()

    yield from rec(0)


def independent_family(w: int, r: int, q: int):
    """The constructive g-independent family behind the dimension bound:
    chunk S = {1 <= n <= w-1 : (q-1) does not divide n} greedily from the
    largest element down into floor(|S|/(r-1)) disjoint (r-1)-subsets and
    pull each back through the g-map, together with (w).

    The descending chunking is one valid choice among many; it is fixed so
    runs are reproducible.
    """
    if w < 1:
        raise DomainError("weight must be >= 1")
    family = [Index((w,))]
    if w == 1 or r < 2:
        return family
    pool = sorted((n for n in range(1, w) if n % (q - 1) != 0), reverse=True)
    chunk = r - 1
    for i in range(len(pool) // chunk):
        family.append(g_inverse(pool[i * chunk : (i + 1) * chunk], w))
    return family


def dim_lower_bound(w: int, r: int, q: int):
    """(bound for dim Z_w^{1,r}, bound for dim Z_w^r), r >= 2."""
    if r < 2:
        raise DomainError("dim_lower_bound wants depth r >= 2")
    if w < 1:
        raise DomainError("weight must be >= 1")
    size = (w - 1) - (w - 1) // (q - 1)
    bound_1r = 1 + size // (r - 1)
    return bound_1r, bound_1r - 1


def g_image_to_json(t) -> list:
    return sorted(int(x) for x in t)


def partition_to_json(p) -> list:
    return [sorted(int(x) for x in block) for block in sorted(p, key=min)]
