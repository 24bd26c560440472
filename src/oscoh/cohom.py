"""Cohomology of the weighted Orlik-Solomon complex, over Q and mod N.

Given a rational weight vector, the boundary maps are evaluated on integer
vectors (denominators cleared; ranks are scaling-invariant) and ranked
exactly.  There is one path: ``os_cohomology_dims_stack`` works on many
weight vectors (a translate box) at once, and ``os_cohomology_dims`` is
its case of one vector, with the same proofs.  Over Z_N with N prime the
same path ranks modulo N.

Before anything is ranked, each weight vector is reduced to the smallest
complex with the same cohomology (``_reduced_dims``): a product goes to its
factors (Kunneth), and on a central arrangement the weight sum decides.  If
it is a unit the complex is exact; if it is zero the dims are the decone's
plus the same dims one degree up.  Over Q an affine complex is then tested
for non-resonance on the dense edges of its projective closure (Yuzvinsky,
Comm. Algebra 23, 1995; Cohen-Dimca-Orlik, Ann. Inst. Fourier 53, 2003):
if the proper dense edges in some hyperplane of the closure all have
non-zero weight (``Arrangement.closure_edge_weights``), the cohomology is
|chi| in the top degree and 0 below.  Neither source proves that test in
characteristic p, so at a prime nothing is certified.  What is left goes
to the one rank driver, ``_ranks``, over Q or at a prime: it evaluates
degree by degree in stacks and hands each stack to ``exactla.rank_stack``
with the bound d^2 = 0 gives (the one-prime certificate target over Q, a
check at p).  It shares ranks through one cache on the arrangement: one
entry per field and weight row (as given over Q, reduced mod p), under
``exactla._row_keys``, holds its ranks in all degrees; it is emptied past
RANK_CACHE_ENTRIES ranks.

Mod N there is one loop over the primes p | N, each through the prime path
above with its reductions; prime N is the case of one prime.  For
composite N a boundary's rank counts its elementary divisors that are
units mod N, which is the least of its ranks mod those primes.  The
report also gives each boundary's invariant factors over Z/N, from the
ranks mod p where p divides N once, and from an elimination over Z/p^e of
the full boundary where p^e, e >= 2, divides it and the rank mod p is not
full: only then is the full complex's matrix built.  No integer Smith
normal form is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm, prod
from typing import Sequence

import numpy as np

from .exactla import STACK_CELLS, _absmax, _exact_int, _exact_ints, _exact_rational, _factorize
from .exactla import _local_smith, _row_keys, _widen, rank_stack
from .osalg import aomoto_matrix

__all__ = [
    "WeightVector",
    "CohomologyReport",
    "os_cohomology_dims",
    "os_cohomology_dims_stack",
    "modN_cohomology_ranks",
    "poincare_str",
]


class WeightVector:
    """Rational weights lam with the minimal modular representation k/N.

    N is the lcm of the reduced denominators and k = N*lam; the gcd of the
    entries of k is then automatically coprime to N.
    """

    def __init__(self, lam: Sequence):
        self.lam = lam.lam if isinstance(lam, WeightVector) else tuple(map(_exact_rational, lam))
        self.N = lcm(*(f.denominator for f in self.lam)) if self.lam else 1
        self.k = tuple(f.numerator * (self.N // f.denominator) for f in self.lam)

    def __len__(self):
        return len(self.lam)

    def __repr__(self):
        return f"WeightVector(({', '.join(str(l) for l in self.lam)}))"


def poincare_str(dims: Sequence[int]) -> str:
    terms = []
    for q, d in enumerate(dims):
        if d == 0:
            continue
        if q == 0:
            terms.append(str(d))
            continue
        t = "t" if q == 1 else f"t^{q}"
        terms.append(t if d == 1 else f"{d}*{t}")
    return " + ".join(terms) if terms else "0"


@dataclass
class CohomologyReport:
    """Degreewise dimensions/ranks of a weighted cohomology computation."""

    ring: tuple  # ("Q",) or ("Z", N)
    dims: tuple
    ranks: tuple  # boundary ranks per degree
    weights: tuple = ()
    notes: list = field(default_factory=list)
    invariant_factors: tuple | None = None  # per degree, composite moduli only

    @property
    def poincare(self) -> str:
        return poincare_str(self.dims)

    @property
    def ring_name(self) -> str:
        return "Q" if self.ring[0] == "Q" else f"Z_{self.ring[1]}"

    def to_dict(self) -> dict:
        out = {
            "ring": self.ring_name,
            "weights": [str(w) for w in self.weights],
            "dims": list(self.dims),
            "boundary_ranks": list(self.ranks),
            "poincare": self.poincare,
            "notes": list(self.notes),
        }
        if self.invariant_factors is not None:
            out["invariant_factors"] = [list(f) for f in self.invariant_factors]
        return out


def os_cohomology_dims(arr, lam) -> CohomologyReport:
    """Cohomology dimensions of the weighted complex over Q.

    dims[q] = b_q - rank mu^q(lam) - rank mu^(q-1)(lam), for q = 0..rank,
    from ``os_cohomology_dims_stack`` on the one row k = N*lam.  The
    boundary ranks follow from the dims, and the notes name the reduction
    that proved them, if any.
    """
    wv = WeightVector(lam)
    if len(wv) != arr.n:
        raise ValueError(f"expected {arr.n} weights, got {len(wv)}")
    notes: list = []
    dims = _reduced_dims(arr, _exact_ints([wv.k]), None, notes)[0].tolist()
    return CohomologyReport(
        ("Q",), tuple(dims), _ranks_from_dims(arr, dims), wv.lam, notes
    )


def os_cohomology_dims_stack(arr, K) -> np.ndarray:
    """Weighted cohomology dimensions over Q at every row of an integer array.

    Row t of K (T x n integers; a float or a non-integral Fraction raises
    ValueError) holds k = N*lam for weights lam; any nonzero multiple gives
    the same dims.  Returns a (T, rank+1) array whose row t is
    ``os_cohomology_dims(arr, lam).dims``.
    """
    K = _exact_ints(K)
    if K.ndim != 2 or K.shape[1] != arr.n:
        raise ValueError(f"expected rows of {arr.n} weights, got shape {K.shape}")
    return _reduced_dims(arr, K)


def _ranks_from_dims(arr, dims) -> tuple:
    """Boundary ranks r_q = b_q - h_q - r_(q-1), with r_(-1) = 0."""
    ranks = [0]
    for b, h in zip(arr.betti_numbers(), dims):
        ranks.append(b - h - ranks[-1])
    return tuple(ranks[1:])


def _reduced_dims(arr, K: np.ndarray, p: int | None = None, notes: list | None = None) -> np.ndarray:
    """Dims at every row of K over Q (p None) or Z_p (p prime), as a
    (T, rank+1) array, from the smallest complex with the same cohomology.

    * A product's complex is the tensor product of its factors' complexes,
      so its dims are the per-row convolution of theirs (Kunneth).
    * On a central arrangement the derivation d (d e_i = 1) satisfies
      d(a ^ x) + a ^ d(x) = (sum k) x.  A row whose weight sum is a unit
      has an exact complex: all dims are 0.  A zero-sum row splits the
      complex as ker d + e_n ^ ker d, and ker d is the complex of the
      decone at H_n at the weights without k_n (a = sum over i < n of
      k_i (e_i - e_n)), so h_q = h_q(dA) + h_(q-1)(dA).  At rank 1 the
      zero-sum differential is 0 and the dims are the Betti numbers.
    * Over Q only, a row of an affine arrangement (a decone included) is
      non-resonant when some hyperplane H_j of the projective closure has
      non-zero weight on every proper dense edge in it
      (``Arrangement.free_hyperplane`` on the zero ``closure_edge_weights``,
      H_inf weighing -sum k).  Its dims are then 0 below the rank and |chi|
      at the top (Yuzvinsky 1995; Cohen-Dimca-Orlik 2003, who reduce the
      test on every dense edge to those in one hyperplane).
      Neither proves it in characteristic p, so at p it is not applied.
    * Any other row is ranked.

    With ``notes`` (one row), the reductions taken are appended to it.
    """
    if arr.product_factors is not None:
        a1, a2 = arr.product_factors
        sub = ([], []) if notes is not None else (None, None)
        d1 = _reduced_dims(a1, K[:, : a1.n], p, sub[0])
        d2 = _reduced_dims(a2, K[:, a1.n :], p, sub[1])
        dims = np.zeros((len(K), arr.rank + 1), dtype=np.int64)
        for i in range(d1.shape[1]):
            dims[:, i : i + d2.shape[1]] += d1[:, i, None] * d2
        if notes is not None:
            notes.append(f"Kunneth over the factors ({a1.n} + {a2.n} hyperplanes)")
            notes.extend(f"factor {i}: {x}" for i, s in enumerate(sub, 1) for x in s)
        return dims
    if not arr.central:
        j = np.full(len(K), -1)
        if p is None:
            j = arr.free_hyperplane(arr.closure_edge_weights(K) == 0)
        rest = j < 0
        dims = np.zeros((len(K), arr.rank + 1), dtype=np.int64)
        dims[~rest, -1] = abs(arr.euler_characteristic())
        if notes is not None and not rest[0]:
            label = arr.projective_closure()[0].labels[j[0]]
            notes.append(
                f"non-resonant: the dense edges in H_{j[0] + 1} ({label}) "
                "of the closure have non-zero weight (Yuzvinsky)"
            )
        if rest.any():
            ranks = _ranks(arr, K[rest], p)
            dims[rest] = np.array(arr.betti_numbers()) - ranks[:, 1:] - ranks[:, :-1]
        return dims
    sums = _widen(K, 2 * _absmax(K) * arr.n).sum(axis=1)  # |sum| <= n max|k|, doubled for margin
    zero = sums == 0 if p is None else _widen(sums, p) % p == 0
    dims = np.zeros((len(K), arr.rank + 1), dtype=np.int64)
    if not zero.any():
        if notes is not None:
            notes.append("central, weight sum non-zero: the complex is exact")
        return dims
    if arr.rank == 1:
        dims[zero] = arr.betti_numbers()
        if notes is not None:
            notes.append("central of rank 1, weight sum zero: the differential is 0")
        return dims
    sub = [] if notes is not None else None
    d = _reduced_dims(arr.decone(), K[zero, :-1], p, sub)
    if notes is not None:
        notes.append(f"central, weight sum zero: decone at H_{arr.n} ({arr.labels[-1]})")
        notes.extend(f"decone: {x}" for x in sub)
    dims[zero, :-1] += d
    dims[zero, 1:] += d
    return dims


# Most ranks the rank family of an arrangement's cache holds (entries
# times rank + 1) before a _ranks call empties it.
RANK_CACHE_ENTRIES = 2**18


def _ranks(arr, K: np.ndarray, p: int | None) -> np.ndarray:
    """Ranks of the boundaries at every row of K over Q (p None) or Z_p (p
    prime), as a (T, rank+2) array whose column q+1 is rank mu^q (column 0
    is rank mu^(-1) = 0).

    The arrangement's rank family maps (p, key) to a row's ranks of
    mu^0..mu^rank, the row as given over Q or reduced mod p and keyed by
    ``exactla._row_keys``.  The misses, each once, are ranked degree by
    degree upward, in stacks of at most STACK_CELLS entries (one matrix
    when it is larger), under the bound b_q - rank mu^(q-1) that
    mu^q mu^(q-1) = 0 gives over either field: over Q a rank modulo one
    prime reaching it proves it and the Hadamard loop of ``rank_stack``
    proves the rest; at p a rank above it raises ValueError.  The family
    is emptied before the misses are stored when it holds more than
    RANK_CACHE_ENTRIES ranks.
    """
    v = K if p is None else _widen(K, p) % p
    cache = arr._cache.setdefault("ranks", {})
    keys = [(p, row) for row in _row_keys(v)]
    hits = [cache.get(key) for key in keys]
    miss = {key: t for t, (key, hit) in enumerate(zip(keys, hits)) if hit is None}
    rows = v[list(miss.values())]
    got = np.zeros((len(rows), arr.rank + 2), dtype=np.int64)
    for q in range(arr.rank):  # mu^rank maps to C^(rank+1) = 0: its rank is 0
        mat = aomoto_matrix(arr, q)
        step = max(1, STACK_CELLS // (mat.shape[0] * mat.shape[1]))
        for s in range(0, len(rows), step):
            sel = slice(s, s + step)
            upper = arr.betti_numbers()[q] - got[sel, q]
            got[sel, q + 1] = rank_stack(mat.evaluate_stack(rows[sel]), upper, p)
    if len(cache) * (arr.rank + 1) > RANK_CACHE_ENTRIES:
        cache.clear()
    cache.update(zip(miss, map(tuple, got[:, 1:].tolist())))
    vecs = [(0,) + (cache[key] if hit is None else hit) for key, hit in zip(keys, hits)]
    return np.array(vecs, dtype=np.int64).reshape(-1, arr.rank + 2)


def modN_cohomology_ranks(arr, k: Sequence[int], N: int) -> CohomologyReport:
    """Ranks of the cohomology of the mod-N complex at integer weights k.

    The mod-N rank of a module over composite N is a matter of convention:
    here a boundary's rank is the number of its elementary divisors that
    are units mod N (units convention).  Those divisors form a divisor
    chain, so this is the least of the boundary's ranks mod the primes
    p | N, and each of those comes from the prime path (``_reduced_dims``
    at p).  Prime N is the case of one such prime: its ranks are plain
    matrix ranks over the field Z_N.  Composite reports list each prime's
    reductions after ``mod p:`` and also carry each boundary's invariant
    factors over Z/N (``_invariant_factors``), which depend only on k mod
    N.  N is factored by ``exactla._factorize``; a modulus it cannot split
    raises ValueError.
    """
    rep, primes, rank_mod = _modN_report(arr, k, N)
    if primes != {int(N): 1}:
        rep.invariant_factors = tuple(
            _invariant_factors(arr, q, rep.weights, primes, [r[q] for r in rank_mod])
            for q in range(arr.rank + 1)
        )
    return rep


def _modN_report(arr, k: Sequence[int], N: int) -> tuple:
    """The report of ``modN_cohomology_ranks`` without invariant factors,
    with the factorization {p: e} of N and the boundary ranks mod each p:
    one loop over the primes p | N, with no work over Z/p^e."""
    N = _exact_int(N)
    if N < 2:
        raise ValueError("modulus must be at least 2")
    K = _exact_ints([k])
    k = tuple(K[0].tolist())
    if len(k) != arr.n:
        raise ValueError(f"expected {arr.n} weights, got {len(k)}")
    primes = _factorize(N)
    prime = primes == {N: 1}
    notes = []
    if not prime:
        notes.append(
            "composite modulus: a boundary's rank counts its unit elementary "
            "divisors mod N (units convention), the least of its ranks mod p | N"
        )
    rank_mod = []
    for p in primes:
        sub: list = []
        dims = _reduced_dims(arr, K, p, sub)[0].tolist()
        rank_mod.append(_ranks_from_dims(arr, dims))
        notes.extend(sub if prime else (f"mod {p}: {x}" for x in sub))
    ranks = tuple(map(min, zip(*rank_mod)))
    dims = tuple(b - r - s for b, r, s in zip(arr.betti_numbers(), ranks, (0,) + ranks))
    return CohomologyReport(("Z", N), dims, ranks, k, notes), primes, rank_mod


def _invariant_factors(arr, q: int, k: Sequence[int], primes: dict, ranks: list) -> tuple:
    """Invariant factors over Z/N of the boundary mu^q at weights k, for
    N = prod p^e over ``primes`` {p: e}, given its ranks mod each p.

    They are the gcd(d_i, N) of its integer elementary divisors d_i, in
    divisibility order, less those that are 0 mod N.  Factor i is the
    product over p | N of the i-th elementary divisor over Z/p^e (p^e once
    they run out).  Those are 1 up to the rank mod p, and nothing else when
    e = 1 or the rank is full (mu^q is b_q x b_(q+1)); otherwise they come
    from the elimination over Z/p^e (``exactla._local_smith``) of the full
    boundary matrix, the only case that builds it.
    """
    betti = arr.betti_numbers() + [0]
    full = min(betti[q], betti[q + 1])
    local = []  # per prime: the exponents t < e of its elementary divisors p^t
    for (p, e), r in zip(primes.items(), ranks):
        if e == 1 or r == full:  # no divisor past the units
            exps = [0] * r
        else:
            m = aomoto_matrix(arr, q).evaluate_stack(_exact_ints([[x % p**e for x in k]]))
            exps = [t for t, c in enumerate(_local_smith(m[0], p, e)) for _ in range(c)]
        local.append((p, e, exps))
    length = max(len(exps) for _, _, exps in local)
    return tuple(
        prod(p ** (exps[i] if i < len(exps) else e) for p, e, exps in local)
        for i in range(length)
    )

