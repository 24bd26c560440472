"""Orlik-Solomon algebra with its no-broken-circuit basis and Aomoto maps.

The algebra of an arrangement is the exterior algebra on one generator per
hyperplane modulo two families of relations: boundaries of circuits, and
(in the affine case) monomials indexed by sets with empty intersection.
Monomials over sets that are independent, central, and free of broken
circuits form the NBC basis; degree counts match the Whitney numbers of
the intersection lattice.

Hyperplane order for broken circuits is the input order.  No circuit is
listed: everything walks the cover map of the intersection lattice, which
the arrangement's rank/closure oracle records while building the lattice
(``Arrangement.covers``).  S = {s_1 < ... < s_q} is NBC when each s_i is the
smallest element of cl{s_i, ..., s_q} and cl(S) misses the hyperplane at
infinity (Bjorner, 1992), so the basis grows one element at a time from
each flat.  A monomial over a dependent or non-central set is 0; any
other that is not NBC is rewritten with the fundamental circuit of
m = min cl{s_i, ..., s_q} at an s_i above that minimum, until only NBC
monomials remain.

Multiplication by the degree-one element with coefficient vector y gives
the Aomoto boundary maps; their entries are integer linear forms in
y_1..y_n and are assembled here once per degree, as sparse triples
(position, variable, coefficient).  The cohomology layer evaluates them at
integer weight vectors, one or a whole stack at a time, by one scatter-add.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exactla import _absmax, _exact_ints, _widen

__all__ = [
    "nbc_basis",
    "reduce_to_nbc",
    "aomoto_matrix",
    "AomotoMatrix",
    "CELL_BUDGET",
    "check_complex_size",
]

# Most entries b_q * b_(q+1) allowed in one Aomoto boundary matrix.  The
# braid arrangement A_6 needs 1624 * 1764 = 2,864,736 and every catalog
# entry far less; boolean(14) (3432 * 3003) is over.
CELL_BUDGET = 4 * 10**6


def _nbc_states(arr, q: int) -> list[tuple]:
    """(S, cl(S)) for the NBC sets S of size q, grown one element at a time
    below the smallest: e extends S when cl(S + e) is central and e is its
    smallest element (Bjorner's closure test for no broken circuit)."""
    states = arr._cache.setdefault("nbc_states", [[((), 0)]])
    covers, inf_bit = arr.covers(), 1 << arr.infinity
    while len(states) <= q:
        grown = []
        for s, fm in states[-1]:
            cov = covers[fm]
            for e in range(s[0] if s else arr.n):
                child = cov[e]
                if not child & inf_bit and not child & ((1 << e) - 1):
                    grown.append(((e,) + s, child))
        states.append(grown)
    return states[q]


def nbc_basis(arr, q: int) -> list[tuple]:
    """NBC monomials of degree q, as sorted index tuples in input order."""
    if not 0 <= q <= arr.rank:
        raise ValueError(f"degree must be in 0..{arr.rank}")
    key = ("nbc", q)
    if key not in arr._cache:
        arr._cache[key] = sorted(s for s, _ in _nbc_states(arr, q))
    return list(arr._cache[key])


def _merge_sign(a: tuple, b: tuple):
    """Sign and result of e_a ^ e_b for disjoint sorted tuples."""
    inv = 0
    for x in a:
        for y in b:
            if y < x:
                inv += 1
    merged = tuple(sorted(a + b))
    return (-1 if inv & 1 else 1), merged


def reduce_to_nbc(arr, s) -> dict[tuple, int]:
    """Express the monomial e_s in the NBC basis.

    Returns a map from NBC tuples to integer coefficients; dependent or
    non-central index sets give {}.  The input may be any iterable of
    distinct indices in sorted order of the wedge.
    """
    s = tuple(sorted(s))
    if len(set(s)) != len(s):
        raise ValueError("repeated index in monomial")
    return dict(_reduce(arr, s))


def _reduce(arr, s: tuple):
    memo = arr._cache.setdefault("reduce_memo", {})
    hit = memo.get(s)
    if hit is None:
        hit = memo[s] = _rewrite(arr, s)
    return hit


def _rewrite(arr, s: tuple) -> dict:
    """e_s in the NBC basis.  Walking s from its largest element down
    through the covers, e_s is 0 once the set turns dependent or
    non-central.  Otherwise, if some s_i is not the smallest element m of
    cl(s_i, ..., s_q), the fundamental circuit C of m in that tail gives
    the relation e_(C-m) = sum over c in C - m of +-e_(C-c), each term
    trading an element of s for the smaller m."""
    covers, inf_bit = arr.covers(), 1 << arr.infinity
    fm, tail = 0, None
    for i in range(len(s) - 1, -1, -1):
        e = s[i]
        if fm >> e & 1:
            return {}
        fm = covers.get(fm, {}).get(e, inf_bit)
        if fm & inf_bit:
            return {}
        if tail is None and fm & ((1 << e) - 1):
            tail = (s[i:], fm & -fm)
    if tail is None:
        return {s: 1}
    t, low = tail
    m = low.bit_length() - 1
    btup = tuple(x for x in t if not arr._closure(y for y in t if y != x) & low)
    ctup = (m,) + btup
    rest = tuple(x for x in s if x not in btup)
    eps, _ = _merge_sign(btup, rest)
    # boundary of the circuit: sum_i (-1)^i e_{C \ c_i} = 0, c_0 = min C
    out: dict[tuple, int] = {}
    for i in range(1, len(ctup)):
        coef = eps * (1 if (i + 1) & 1 == 0 else -1)  # (-1)^(i+1)
        term = tuple(x for k, x in enumerate(ctup) if k != i)
        sgn, merged = _merge_sign(term, rest)
        for mono, c in _reduce(arr, merged).items():
            out[mono] = out.get(mono, 0) + coef * sgn * c
    return {mono: c for mono, c in out.items() if c}


class AomotoMatrix:
    """Matrix of left multiplication a_y ^ - : A^q -> A^(q+1).

    Rows are indexed by the NBC basis in degree q, columns by degree q+1.
    Entries are integer linear forms in the weight variables, stored
    sparsely as {variable index: coefficient}, and once more as COO arrays
    of terms (flat position i*cols + j, variable, coefficient).
    """

    def __init__(self, degree: int, row_monomials, col_monomials, entries):
        self.degree = degree
        self.row_monomials = row_monomials
        self.col_monomials = col_monomials
        self.entries = entries  # dict[(i, j)] -> dict[var] -> int
        nc = len(col_monomials)
        coo = [(i * nc + j, v, c) for (i, j), form in entries.items() for v, c in form.items()]
        self._pos, self._var, self._coef = np.array(coo, dtype=np.int64).reshape(-1, 3).T
        # max|k| times the largest sum of |coefficient| in one form bounds
        # every entry at the weights k
        self._norm = max((sum(map(abs, f.values())) for f in entries.values()), default=0)

    @property
    def shape(self):
        return (len(self.row_monomials), len(self.col_monomials))

    def evaluate(self, k: Sequence[int]) -> list[list[int]]:
        """Integer matrix at the weight vector k, as a list of rows: the
        one-row case of ``evaluate_stack``."""
        return self.evaluate_stack([k])[0].tolist()

    def evaluate_stack(self, K: np.ndarray) -> np.ndarray:
        """Matrices at each row of the integers K (T, n), as a (T, rows,
        cols) stack: one scatter-add of the terms coefficient * K[:, variable]
        into their positions.  Entries are exact: max|K| times the largest
        sum of |coefficient| in one form bounds them (``exactla._widen``).
        """
        K = _exact_ints(K)
        K = _widen(K, _absmax(K) * self._norm)
        out = np.zeros((len(K), self.shape[0] * self.shape[1]), dtype=K.dtype)
        np.add.at(out, (slice(None), self._pos), K[:, self._var] * self._coef)
        return out.reshape(len(K), *self.shape)


def check_complex_size(arr) -> None:
    """Refuse an Aomoto complex with a boundary matrix above CELL_BUDGET.

    Needs only the Betti numbers (the matrices are b_q x b_(q+1)), so it
    runs before any NBC enumeration; raises ValueError naming the size.
    """
    b = arr.betti_numbers()
    for q in range(len(b) - 1):
        if b[q] * b[q + 1] > CELL_BUDGET:
            raise ValueError(
                f"the degree-{q} Aomoto matrix is {b[q]} x {b[q + 1]} = "
                f"{b[q] * b[q + 1]} cells, above the cell budget of {CELL_BUDGET}"
            )


def aomoto_matrix(arr, q: int) -> AomotoMatrix:
    """Boundary matrix in degree q with symbolic integer-linear entries."""
    key = ("aomoto", q)
    if key not in arr._cache:
        check_complex_size(arr)
        rows = nbc_basis(arr, q)
        cols = nbc_basis(arr, q + 1) if q < arr.rank else []
        col_index = {m: j for j, m in enumerate(cols)}
        entries: dict[tuple, dict] = {}
        for i, s in enumerate(rows if cols else []):
            for v in range(arr.n):
                if v in s:
                    continue
                sign = -1 if sum(x < v for x in s) & 1 else 1
                for mono, c in _reduce(arr, tuple(sorted(s + (v,)))).items():
                    entries.setdefault((i, col_index[mono]), {})[v] = sign * c
        arr._cache[key] = AomotoMatrix(q, rows, cols, entries)
    return arr._cache[key]
