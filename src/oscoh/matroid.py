"""Finite matroids as rank/closure oracles, with bitmask internals.

This backs the combinatorics of arrangements.  Ground sets are
``range(n)``; subsets travel as frozensets at the API boundary and as int
bitmasks inside.  Every matroid answers rank and closure queries and
builds its lattice of flats level by level (``flat_levels``), recording
the cover map (F, e) -> cl(F + e) that the arrangement's lattice, NBC
basis and Orlik-Solomon rewriting all walk.  The circuit and linear
oracles answer rank and closure by one walk through those covers from
the bottom (``_walk``).  Implementations:

* ``Matroid(n, circuits)``, the circuit oracle for abstract input: cl(S)
  is S plus C - S for every circuit C with |C - S| <= 1 (Oxley, Matroid
  Theory, 2nd ed., 1.4.11), tested for a whole lattice level's covers at
  a time against one array of circuit masks in numpy.
* ``LinearMatroid``, the linear oracle for realized input, on integer
  vectors (``vector_matroid`` clears denominators).  A vector over a
  number field of degree d enters as the d integer rows of its regular
  representation (``exactla._integer_rows``), so ranks over the field are
  ranks over Q divided by d.
  Each flat F carries an integer basis K_F of the annihilator of its
  span; the elements outside F fall into the covers of F by the row
  spaces of their images V_e K_F, in reduced echelon form, for a whole
  lattice level at a time in numpy.  Entries stay exact: each step bounds
  what it computes and widens by that bound (``exactla._widen``).
* Wrappers that keep no circuit lists: truncation (generic sections),
  parallel connection (cones of products) and extension by a coloop
  (projective closures), each answering from the oracles it wraps.

``circuits()`` is available on every matroid.  Outside the circuit oracle
it is found on demand by a search over subsets, for file output and
tests; no hot path needs it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .exactla import STACK_CELLS, _absmax, _exact_ints, _integer_rows, _matmul, _primitive, _widen

__all__ = ["Matroid", "LinearMatroid", "vector_matroid", "parallel_connection", "add_coloop"]


def _mask(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _bits(m: int) -> list[int]:
    out = []
    e = 0
    while m:
        if m & 1:
            out.append(e)
        m >>= 1
        e += 1
    return out


def _unmask(m: int) -> frozenset:
    return frozenset(_bits(m))


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, sorted.  (``np.unique`` imports
    ``numpy.ma`` on first use: about 10 ms and 1.2 MB in each process.)"""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


class Matroid:
    """Matroid on range(n) as a rank/closure oracle.

    Constructed from the full list of circuits it is the circuit oracle,
    whose covers come from its circuit array (``_expand``).  Subclasses
    find circuits only when asked.
    """

    def __init__(self, n: int, circuits: Iterable[Iterable[int]], validate: bool = False):
        self.n = int(n)
        seen = set()
        for c in circuits:
            cm = _mask(c)
            if cm == 0:
                raise ValueError("the empty set is not a circuit")
            if cm >> self.n:
                raise ValueError("circuit out of range")
            seen.add(cm)
        self._circuits = sorted(seen)
        self._cs = _exact_ints(self._circuits)  # int64, or Python integers past 2**63
        if validate:
            self._validate()
        self._bottom = sum(cm for cm in self._circuits if not cm & (cm - 1))  # the loops
        self._rank_cache: dict[int, int] = {}
        self._cover_cache: dict[int, dict] = {}

    def _validate(self):
        """Check the circuit axioms (Oxley, Matroid Theory, 2nd ed., 1.1):
        no circuit properly contains another, and for distinct circuits a
        and b and every e in both, some circuit lies in (a | b) - e.

        For each element e, the pairs of circuits through e are taken in
        blocks of about STACK_CELLS cells; a pair sharing several elements
        is met once for each.  Each block's distinct unions (a | b) - e join
        the ones kept, and each is then tested once against every circuit."""
        cs = self._cs
        unions = cs[:0]
        for e in range(self.n):
            through = cs[(cs >> e & 1) == 1]
            k = len(through)
            rows = max(1, STACK_CELLS // max(k, 1))
            found = [unions]
            for s in range(0, k, rows):
                a, b = through[s : s + rows, None], through[None, s + 1 :]
                later = np.arange(s + 1, k) > np.arange(s, s + len(a))[:, None]
                both = a & b
                if ((both == a) | (both == b))[later].any():
                    raise ValueError("circuit properly contains another circuit")
                found.append(_distinct(((a | b) & ~(1 << e))[later]))
            unions = _distinct(np.concatenate(found))
        rows = max(1, STACK_CELLS // max(len(cs), 1))
        for s in range(0, len(unions), rows):
            if not ((cs & ~unions[s : s + rows, None]) == 0).any(axis=1).all():
                raise ValueError("circuit elimination axiom fails")

    # -- queries ---------------------------------------------------------------

    def circuits(self) -> list[frozenset]:
        return [_unmask(c) for c in self._circuit_masks()]

    def _circuit_masks(self) -> list[int]:
        return self._circuits

    def rank(self, s: Iterable[int]) -> int:
        return self._rank_mask(_mask(s))

    @property
    def full_rank(self) -> int:
        return self._rank_mask((1 << self.n) - 1)

    def closure(self, s: Iterable[int]) -> frozenset:
        return _unmask(self._closure_mask(_mask(s)))

    # -- rank and closure: a walk through covers -------------------------------

    def _walk(self, sm: int) -> tuple[int, int]:
        """cl(S) and rank(S), through covers from the bottom."""
        fm, r = self._bottom, 0
        for e in _bits(sm & ~fm):
            if not fm >> e & 1:
                fm = self._covers_of(fm)[e]
                r += 1
        return fm, r

    def _rank_of(self, sm: int) -> int:
        return self._walk(sm)[1]

    def _closure_mask(self, sm: int) -> int:
        return self._walk(sm)[0]

    def _rank_mask(self, sm: int) -> int:
        hit = self._rank_cache.get(sm)
        if hit is None:
            hit = self._rank_cache[sm] = self._rank_of(sm)
        return hit

    # -- lattice of flats ------------------------------------------------------

    def flat_levels(self, avoid: int | None, top: int):
        """Flats not containing ``avoid`` (all flats for None) by rank 0..top,
        each level sorted, and the cover map of the levels below top:
        ``covers[F][e]`` is the mask of cl(F + e) for every e outside F.
        A cover containing ``avoid`` is recorded but not followed."""
        avoid_bit = 0 if avoid is None else 1 << avoid
        levels = [[self._closure_mask(0)]]
        covers: dict[int, dict] = {}
        for _ in range(top):
            self._expand(levels[-1])
            nxt = set()
            for fm in levels[-1]:
                cov = covers[fm] = self._covers_of(fm)
                nxt.update(c for c in cov.values() if not c & avoid_bit)
            levels.append(sorted(nxt))
        return levels, covers

    def _expand(self, flats: list[int]) -> None:
        """The covers cl(F + e) of many flats F at once, for every e
        outside F.  Each S = F + e meets the circuit array in blocks of
        about STACK_CELLS cells: C - S is m = C & ~S, it has at most one
        element when m & (m - 1) == 0, and cl(S) is S | OR of those m."""
        todo = [fm for fm in flats if fm not in self._cover_cache]
        pairs = [(fm, e) for fm in todo for e in range(self.n) if not fm >> e & 1]
        sets = _exact_ints([fm | 1 << e for fm, e in pairs])
        rows = max(1, STACK_CELLS // max(len(self._cs), 1))
        closed = []
        for s in range(0, len(sets), rows):
            block = sets[s : s + rows, None]
            m = self._cs & ~block
            near = np.where(m & (m - 1) == 0, m, 0)
            closed += (block[:, 0] | np.bitwise_or.reduce(near, axis=1)).tolist()
        for fm in todo:
            self._cover_cache[fm] = {}
        for (fm, e), child in zip(pairs, closed):
            self._cover_cache[fm][e] = child

    def _covers_of(self, fm: int) -> dict:
        """{e: cl(F + e)} for the flat F and every e outside it."""
        if fm not in self._cover_cache:
            self._expand([fm])
        return self._cover_cache[fm]

    # -- constructions ---------------------------------------------------------

    def truncate(self, r: int) -> "Matroid":
        """Rank-r truncation: independent sets of size <= r survive."""
        if r >= self.full_rank:
            return self
        return _Truncation(self, r)

    def restriction(self, k: int) -> "Matroid":
        """The restriction to the first k elements."""
        return Matroid(k, [_bits(c) for c in self._circuit_masks() if not c >> k])


class _Oracle(Matroid):
    """A matroid known by its rank and closure functions, with circuits
    found on demand: the dependent sets whose every proper subset is
    independent, grown size by size from the independent sets."""

    def __init__(self, n: int):
        self.n = n
        self._rank_cache = {}
        self._cover_cache = {}
        self._found: list[int] | None = None

    def _circuit_masks(self) -> list[int]:
        if self._found is None:
            found: list[int] = []
            indep = [0]
            for size in range(1, self.full_rank + 2):
                known, grown = set(indep), []
                for im in indep:
                    for e in range(im.bit_length(), self.n):
                        sm = im | 1 << e
                        if all(sm & ~(1 << x) in known for x in _bits(im)):
                            (grown if self._rank_mask(sm) == size else found).append(sm)
                indep = grown
            self._found = sorted(found)
        return self._found

    def _expand(self, flats: list[int]) -> None:
        """Covers asked of ``_closure_mask``, for the wrappers that answer
        closure themselves: one closure per cover of each flat (the other
        elements of a cover share it)."""
        for fm in flats:
            if fm not in self._cover_cache:
                hit = {}
                for e in range(self.n):
                    if not (fm >> e & 1 or e in hit):
                        child = self._closure_mask(fm | 1 << e)
                        for x in _bits(child & ~fm):
                            hit[x] = child
                self._cover_cache[fm] = hit


# ---------------------------------------------------------------------------
# the linear oracle


def _echelon(blocks: np.ndarray):
    """Reduced row echelon forms of a stack (P, d, c) of integer blocks of
    rank d, each row scaled to coprime integers with a positive pivot, and
    the pivot columns (P, d).  Equal row spaces give equal forms."""
    r = blocks.copy()
    p, d, c = r.shape
    at = np.arange(p)
    piv = np.empty((p, d), dtype=np.intp)
    for s in range(d):
        nz = r[:, s:, :] != 0
        col = nz.any(axis=1).argmax(axis=1)  # leftmost non-zero column
        if d > 1:  # move a row with a non-zero entry there to row s
            row = s + nz[at, :, col].argmax(axis=1)
            order = np.tile(np.arange(d), (p, 1))
            order[at, s], order[at, row] = row, s
            r = r[at[:, None], order]
        sign = np.where(r[at, s, col] < 0, -1, 1)
        r[:, s] *= sign[:, None]
        if d > 1:  # clear the pivot column in the other rows: |x*y - z*w| <= 2 max|r|^2
            r = _widen(r, 2 * _absmax(r) ** 2)
            f = r[at, :, col]
            f[:, s] = 0
            mult = np.where(np.arange(d) == s, 1, r[at, s, col][:, None])
            r = mult[:, :, None] * r - f[:, :, None] * r[:, s][:, None, :]
        piv[:, s] = col
        r = _primitive(r, 2)
    return r, piv


def _annihilate(k: np.ndarray, r: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """K_F (m, D, c) times an integer kernel basis of each echelon block
    (m, d, c): the annihilator of F's span plus the block's rows, with
    coprime columns (m, D, c - d)."""
    m, d, c = r.shape
    at = np.arange(m)
    r = _widen(r, 2 * _absmax(r) ** d)  # max|r|^d bounds every entry below, doubled for margin
    a = r[at[:, None], np.arange(d)[None, :], piv]  # pivot values
    lead = np.prod(a, axis=1)
    free = np.ones((m, c), dtype=bool)
    free[at[:, None], piv] = False
    fcol = np.nonzero(free)[1].reshape(m, c - d)
    cols = np.arange(c - d)
    n = np.zeros((m, c, c - d), dtype=r.dtype)
    n[at[:, None], fcol, cols[None, :]] = lead[:, None]
    rf = np.take_along_axis(r, np.repeat(fcol[:, None, :], d, axis=1), axis=2)
    n[at[:, None, None], piv[:, :, None], cols[None, None, :]] = (
        -(lead[:, None] // a)[:, :, None] * rf
    )
    return _primitive(_matmul(k, n), 1)


class LinearMatroid(_Oracle):
    """Matroid of integer vectors: the linear oracle.

    ``rows`` is an integer array (n, d, D); element e spans the d rows
    rows[e] (the regular representation of a vector over a number field of
    degree d, or d = 1 over Q), so ranks are ranks over Q divided by d.
    Flats are reached from the bottom through covers, which are computed
    on first use, one lattice level at a time where the caller asks for
    levels (``_expand``).
    """

    def __init__(self, rows: np.ndarray):
        super().__init__(len(rows))
        self.rows = rows
        self.degree = rows.shape[1]
        self._v = rows.reshape(self.n * self.degree, rows.shape[2])
        loops = _mask(e for e in range(self.n) if not rows[e].any())
        self._bottom = loops
        self._kernel = {loops: np.eye(rows.shape[2], dtype=rows.dtype)}

    def _expand(self, flats: list[int]) -> None:
        by_width: dict[int, list[int]] = {}
        for fm in flats:
            if fm not in self._cover_cache:
                if fm not in self._kernel:  # a flat no walk has reached yet
                    self._walk(fm)
                by_width.setdefault(self._kernel[fm].shape[1], []).append(fm)
        d = self.degree
        for group in by_width.values():
            k = np.stack([self._kernel[fm] for fm in group])
            m, _, c = k.shape
            w = _matmul(self._v, k).reshape(m, self.n, d, c)
            fi, ei = np.nonzero((w != 0).reshape(m, self.n, d * c).any(axis=2))
            ech, piv = _echelon(w[fi, ei])
            # elements of one flat whose images span the same row space
            # share a cover: F plus all of them
            classes: dict[tuple, int] = {}
            keys = list(zip(fi.tolist(), map(tuple, ech.reshape(len(fi), -1).tolist())))
            for key, e in zip(keys, ei.tolist()):
                classes[key] = classes.get(key, 0) | 1 << e
            covers = [{} for _ in group]
            new: dict[int, int] = {}  # child -> a pair that reaches it
            for pair, (key, e) in enumerate(zip(keys, ei.tolist())):
                f = key[0]
                child = covers[f][e] = group[f] | classes[key]
                if child not in self._kernel and child not in new:
                    new[child] = pair
            for fm, cov in zip(group, covers):
                self._cover_cache[fm] = cov
            if new:
                pairs = np.fromiter(new.values(), dtype=np.intp, count=len(new))
                kids = _annihilate(k[fi[pairs]], ech[pairs], piv[pairs])
                for child, kk in zip(new, kids):
                    self._kernel[child] = kk

    def restriction(self, k: int) -> "LinearMatroid":
        return LinearMatroid(self.rows[:k])


def vector_matroid(vectors: Sequence[Sequence]) -> Matroid:
    """Matroid of a list of vectors over an exact field.

    Entries are ints, Fractions, or NFElements of one number field (a
    float raises ValueError rather than being read at its binary value).  The
    result is the linear oracle on their integer rows
    (``exactla._integer_rows``).
    """
    return LinearMatroid(_integer_rows(vectors))


# ---------------------------------------------------------------------------
# derived matroids


class _Truncation(_Oracle):
    """cl_T(S) = cl(S) if r(S) < r, else the whole ground set."""

    def __init__(self, inner: Matroid, r: int):
        super().__init__(inner.n)
        self.inner = inner
        self.r = r

    def _rank_of(self, sm: int) -> int:
        return min(self.inner._rank_mask(sm), self.r)

    def _closure_mask(self, sm: int) -> int:
        if self.inner._rank_mask(sm) < self.r:
            return self.inner._closure_mask(sm)
        return (1 << self.n) - 1

    def _expand(self, flats: list[int]) -> None:
        self.inner._expand([fm for fm in flats if self.inner._rank_mask(fm) + 1 < self.r])

    def _covers_of(self, fm: int) -> dict:
        if self.inner._rank_mask(fm) + 1 < self.r:
            return self.inner._covers_of(fm)
        full = (1 << self.n) - 1
        return {e: full for e in range(self.n) if not fm >> e & 1}


def _insert_bit(m: int, p: int, bit: int) -> int:
    low = m & ((1 << p) - 1)
    return low | bit << p | (m >> p) << (p + 1)


def _drop_bit(m: int, p: int) -> int:
    return m & ((1 << p) - 1) | (m >> (p + 1)) << p


class _ParallelConnection(_Oracle):
    """Parallel connection along p.  With X_i the part of X in factor i,
    plus p when X holds the shared point: cl(X) = cl_1(X_1 + p) u
    cl_2(X_2 + p) if p lies in cl_1(X_1) or cl_2(X_2), and
    cl_1(X_1) u cl_2(X_2) otherwise; ranks add, less 1 in the first case.
    """

    def __init__(self, m1: Matroid, p1: int, m2: Matroid, p2: int):
        super().__init__(m1.n + m2.n - 1)
        self.factors = ((m1, p1, {}), (m2, p2, {}))

    def _part(self, i: int, xm: int) -> tuple[int, int]:
        # memoized: building product-example's lattice and Aomoto matrices
        # asks 4,924 parts, of which 150 are distinct
        m, _, memo = self.factors[i]
        hit = memo.get(xm)
        if hit is None:
            hit = memo[xm] = (m._closure_mask(xm), m._rank_mask(xm))
        return hit

    def _glued(self, xm: int):
        """Closures of the two parts of cl(X), its rank and shared bit."""
        (m1, p1, _), (m2, p2, _) = self.factors
        shared = xm >> (self.n - 1) & 1
        x1 = _insert_bit(xm & ((1 << (m1.n - 1)) - 1), p1, shared)
        x2 = _insert_bit(xm >> (m1.n - 1) & ((1 << (m2.n - 1)) - 1), p2, shared)
        (c1, r1), (c2, r2) = self._part(0, x1), self._part(1, x2)
        if (c1 >> p1 | c2 >> p2) & 1:
            (c1, r1), (c2, r2) = self._part(0, x1 | 1 << p1), self._part(1, x2 | 1 << p2)
            return c1, c2, r1 + r2 - 1, 1
        return c1, c2, r1 + r2, 0

    def _rank_of(self, xm: int) -> int:
        return self._glued(xm)[2]

    def _closure_mask(self, xm: int) -> int:
        (m1, p1, _), (_, p2, _) = self.factors
        c1, c2, _, shared = self._glued(xm)
        return _drop_bit(c1, p1) | _drop_bit(c2, p2) << (m1.n - 1) | shared << (self.n - 1)


def parallel_connection(m1: Matroid, p1: int, m2: Matroid, p2: int) -> Matroid:
    """Parallel connection of m1 and m2 glued along p1 ~ p2.

    Ground set: elements of m1 except p1 keep their labels, elements of m2
    except p2 follow, and the shared point is last.  Its circuits are
    those of either part plus the joins (C1 u C2) - p of circuits through
    the glue point on both sides, but it answers from the factors'
    closures and keeps no circuit list.
    """
    return _ParallelConnection(m1, p1, m2, p2)


class _Coloop(_Oracle):
    """M plus a coloop c, the last element: cl(S) = cl_M(S - c) + (S & c)."""

    def __init__(self, inner: Matroid):
        super().__init__(inner.n + 1)
        self.inner = inner
        self._c = 1 << inner.n

    def _rank_of(self, sm: int) -> int:
        return self.inner._rank_mask(sm & ~self._c) + (sm >> self.inner.n & 1)

    def _closure_mask(self, sm: int) -> int:
        return self.inner._closure_mask(sm & ~self._c) | sm & self._c

    def _circuit_masks(self) -> list[int]:
        return self.inner._circuit_masks()

    def restriction(self, k: int) -> "Matroid":
        """The inner matroid when k drops just the coloop (a decone's case)."""
        return self.inner if k == self.inner.n else super().restriction(k)

    def _expand(self, flats: list[int]) -> None:
        self.inner._expand([fm & ~self._c for fm in flats])

    def _covers_of(self, fm: int) -> dict:
        c = fm & self._c
        out = {e: child | c for e, child in self.inner._covers_of(fm & ~self._c).items()}
        if not c:
            out[self.inner.n] = fm | self._c
        return out


def add_coloop(m: Matroid) -> Matroid:
    """m with one more element, a coloop, labelled last."""
    return _Coloop(m)
