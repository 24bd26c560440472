"""Finite matroids given by their circuits, with bitmask internals.

This backs the combinatorics of arrangements: rank and closure queries
(the arrangement builds its lattice of flats from closures), connectivity
of localizations, truncation (generic sections) and parallel connection (cones of products).  Ground sets are
``range(n)``; subsets travel as frozensets at the API boundary and as int
bitmasks inside.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

__all__ = ["Matroid", "vector_matroid", "parallel_connection"]


def _mask(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _unmask(m: int) -> frozenset:
    out = []
    e = 0
    while m:
        if m & 1:
            out.append(e)
        m >>= 1
        e += 1
    return frozenset(out)


class Matroid:
    """Matroid on range(n) defined by the full list of circuits."""

    def __init__(self, n: int, circuits: Iterable[Iterable[int]], validate: bool = False):
        self.n = int(n)
        seen = set()
        for c in circuits:
            cm = _mask(c)
            if cm == 0 or cm >> self.n:
                raise ValueError("circuit out of range")
            seen.add(cm)
        self._circuits = sorted(seen)
        # per-element index of circuits through that element
        self._through = [[] for _ in range(self.n)]
        for cm in self._circuits:
            for e in range(self.n):
                if cm >> e & 1:
                    self._through[e].append(cm)
        if validate:
            self._validate()
        self._rank_cache: dict[int, int] = {}
        self._full_rank: int | None = None

    def _validate(self):
        cs = self._circuits
        for a in cs:
            for b in cs:
                if a != b and a & b == a:
                    raise ValueError("circuit properly contains another circuit")
        for a, b in combinations(cs, 2):
            inter = a & b
            if not inter:
                continue
            e = inter & -inter
            union = (a | b) & ~e
            if not any(c & ~union == 0 for c in cs):
                raise ValueError("circuit elimination axiom fails")

    # -- independence / rank -------------------------------------------------

    def circuits(self) -> list[frozenset]:
        return [_unmask(c) for c in self._circuits]

    def _dependent_with(self, e: int, mask: int) -> bool:
        """Is some circuit through e contained in mask | {e}?"""
        m = mask | (1 << e)
        return any(c & ~m == 0 for c in self._through[e])

    def is_independent(self, s: Iterable[int]) -> bool:
        sm = _mask(s)
        return not any(c & ~sm == 0 for c in self._circuits)

    def _basis_of(self, sm: int) -> int:
        """Mask of a maximal independent subset of the masked set."""
        b = 0
        e = 0
        m = sm
        while m:
            if m & 1 and not self._dependent_with(e, b):
                b |= 1 << e
            m >>= 1
            e += 1
        return b

    def rank(self, s: Iterable[int]) -> int:
        sm = _mask(s)
        hit = self._rank_cache.get(sm)
        if hit is None:
            hit = self._rank_cache[sm] = self._basis_of(sm).bit_count()
        return hit

    @property
    def full_rank(self) -> int:
        if self._full_rank is None:
            self._full_rank = self.rank(range(self.n))
        return self._full_rank

    def closure(self, s: Iterable[int]) -> frozenset:
        return _unmask(self._closure_mask(_mask(s)))

    def _closure_mask(self, sm: int) -> int:
        b = self._basis_of(sm)
        out = sm
        for e in range(self.n):
            if not (out >> e & 1) and self._dependent_with(e, b):
                out |= 1 << e
        return out

    # -- connectivity --------------------------------------------------------

    def restriction_connected(self, s: Iterable[int]) -> bool:
        """Is the restriction to s connected (single element counts as yes)?

        Components are the transitive closure of "lies on a common circuit
        inside s"; an element of s on no such circuit is its own component.
        """
        elems = sorted(set(s))
        if len(elems) <= 1:
            return True
        sm = _mask(elems)
        parent = {e: e for e in elems}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for cm in self._circuits:
            if cm & ~sm == 0:
                members = _unmask(cm)
                it = iter(members)
                first = find(next(it))
                for e in it:
                    parent[find(e)] = first
        roots = {find(e) for e in elems}
        return len(roots) == 1

    # -- constructions -------------------------------------------------------

    def truncate(self, r: int) -> "Matroid":
        """Rank-r truncation: independent sets of size <= r survive."""
        if r >= self.full_rank:
            return Matroid(self.n, self.circuits())
        circs = [c for c in self._circuits if c.bit_count() <= r + 1]
        for s in combinations(range(self.n), r + 1):
            if self.is_independent(s):
                circs.append(_mask(s))
        return Matroid(self.n, [_unmask(c) for c in circs])


def vector_matroid(vectors: Sequence[Sequence], rank_fn) -> Matroid:
    """Linear matroid of a list of vectors over an exact field.

    ``rank_fn`` maps a list of vectors to its rank.  Circuits are found by
    exhaustion over subsets of size <= rank+1, skipping supersets of known
    circuits.  Independent vectors have no circuits and need no search.
    """
    n = len(vectors)
    full = rank_fn(list(vectors)) if n else 0
    if full == n:
        return Matroid(n, [])
    circuits: list[frozenset] = []
    masks: list[int] = []
    for size in range(1, full + 2):
        for s in combinations(range(n), size):
            sm = _mask(s)
            if any(cm & ~sm == 0 for cm in masks):
                continue
            if rank_fn([vectors[i] for i in s]) < size:
                circuits.append(frozenset(s))
                masks.append(sm)
    return Matroid(n, circuits)


def parallel_connection(m1: Matroid, p1: int, m2: Matroid, p2: int) -> Matroid:
    """Parallel connection of m1 and m2 glued along p1 ~ p2.

    Ground set: elements of m1 except p1 keep their labels, elements of m2
    except p2 follow, and the shared point is last.  Circuits are those of
    either part plus the joins (C1 u C2) - p for circuits through the glue
    point on both sides.
    """
    n1, n2 = m1.n, m2.n
    n = n1 + n2 - 1
    shared = n - 1

    def map1(e):
        return shared if e == p1 else (e if e < p1 else e - 1)

    def map2(e):
        return shared if e == p2 else (n1 - 1 + (e if e < p2 else e - 1))

    circs: list[frozenset] = []
    thru1, thru2 = [], []
    for c in m1.circuits():
        mapped = frozenset(map1(e) for e in c)
        circs.append(mapped)
        if p1 in c:
            thru1.append(mapped)
    for c in m2.circuits():
        mapped = frozenset(map2(e) for e in c)
        circs.append(mapped)
        if p2 in c:
            thru2.append(mapped)
    for c1 in thru1:
        for c2 in thru2:
            circs.append((c1 | c2) - {shared})
    return Matroid(n, circs)
