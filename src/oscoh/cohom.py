"""Cohomology of the weighted Orlik-Solomon complex, over Q and mod N.

Given a rational weight vector, the boundary maps are evaluated on integer
vectors (denominators cleared; ranks are scaling-invariant) and ranked
exactly.  Over Z_N with N prime this is plain modular rank; for composite
N the rank convention counts invariant factors of the integer matrix that
are coprime to N, which equals the minimum of the ranks modulo the prime
divisors of N.  Evaluated ranks are cached on the arrangement, keyed by
the projectively normalized weight vector, so scalings and repeats are
free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactla import is_prime, rank_mod_p, rank_over_Q, smith_normal_form
from .osalg import aomoto_matrix

__all__ = [
    "WeightVector",
    "CohomologyReport",
    "os_cohomology_dims",
    "modN_cohomology_ranks",
    "kunneth_product",
    "scaling_equivalence_check",
    "poincare_str",
]


class WeightVector:
    """Rational weights lam with the minimal modular representation k/N.

    N is the lcm of the reduced denominators and k = N*lam; the gcd of the
    entries of k is then automatically coprime to N.  Constructing from a
    non-minimal modular pair records that a reduction happened.
    """

    def __init__(self, lam: Sequence):
        if isinstance(lam, WeightVector):
            self.lam = lam.lam
            self.reduced_from = lam.reduced_from
        else:
            self.lam = tuple(Fraction(x) for x in lam)
            self.reduced_from = None
        self.N = lcm(*(f.denominator for f in self.lam)) if self.lam else 1
        self.k = tuple(int(f * self.N) for f in self.lam)

    @classmethod
    def from_modular(cls, k: Sequence[int], N: int) -> "WeightVector":
        if N < 1:
            raise ValueError("modulus must be positive")
        wv = cls([Fraction(int(x), N) for x in k])
        if wv.N != N:
            wv.reduced_from = (tuple(int(x) for x in k), N)
        return wv

    def __len__(self):
        return len(self.lam)

    def translate(self, m: Sequence[int]) -> "WeightVector":
        return WeightVector([l + int(x) for l, x in zip(self.lam, m)])

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
    ranks: tuple | None = None  # boundary ranks per degree, when computed
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
            "boundary_ranks": list(self.ranks) if self.ranks is not None else None,
            "poincare": self.poincare,
            "notes": list(self.notes),
        }
        if self.invariant_factors is not None:
            out["invariant_factors"] = [list(f) for f in self.invariant_factors]
        return out


def _normalized_key(k: Sequence[int]) -> tuple:
    """Projective normal form of an integer vector: divide by gcd, fix sign."""
    g = gcd(*k) if any(k) else 1
    if g == 0:
        g = 1
    v = [x // g for x in k]
    lead = next((x for x in v if x), 0)
    if lead < 0:
        v = [-x for x in v]
    return tuple(v)


def _rank_Q(arr, q: int, key: tuple, upper: int) -> int:
    cache = arr._cache.setdefault("rankQ", {})
    hit = cache.get((q, key))
    if hit is None:
        mat = aomoto_matrix(arr, q)
        if not mat.col_monomials or not mat.row_monomials or not any(key):
            hit = 0
        else:
            hit = rank_over_Q(mat.evaluate(list(key)), upper)
        cache[(q, key)] = hit
    return hit


def _rank_mod(arr, q: int, k: Sequence[int], p: int) -> int:
    kk = tuple(x % p for x in k)
    cache = arr._cache.setdefault("rankP", {})
    hit = cache.get((q, kk, p))
    if hit is None:
        mat = aomoto_matrix(arr, q)
        if not mat.col_monomials or not mat.row_monomials or not any(kk):
            hit = 0
        else:
            hit = rank_mod_p(mat.evaluate(list(kk)), p)
        cache[(q, kk, p)] = hit
    return hit


def os_cohomology_dims(arr, lam) -> CohomologyReport:
    """Cohomology dimensions of the weighted complex over Q.

    dims[q] = b_q - rank mu^q(lam) - rank mu^(q-1)(lam), for q = 0..rank.
    Degrees are ranked in order: mu^q mu^(q-1) = 0 bounds rank mu^q by
    b_q - rank mu^(q-1), and one prime reaching that bound proves it.
    """
    wv = WeightVector(lam)
    if len(wv) != arr.n:
        raise ValueError(f"expected {arr.n} weights, got {len(wv)}")
    key = _normalized_key(wv.k)
    betti = arr.betti_numbers()
    ranks = []
    for q in range(arr.rank + 1):
        upper = betti[q] - (ranks[q - 1] if q else 0)
        ranks.append(_rank_Q(arr, q, key, upper))
    dims = tuple(
        betti[q] - ranks[q] - (ranks[q - 1] if q else 0)
        for q in range(arr.rank + 1)
    )
    return CohomologyReport(("Q",), dims, tuple(ranks), wv.lam)


def _snf_factors(arr, q: int, k: tuple) -> tuple:
    """Smith invariant factors of the integer boundary matrix at weights k."""
    cache = arr._cache.setdefault("snf", {})
    hit = cache.get((q, k))
    if hit is None:
        mat = aomoto_matrix(arr, q)
        if not mat.col_monomials or not mat.row_monomials:
            hit = ()
        else:
            hit = tuple(smith_normal_form(mat.evaluate(list(k))))
        cache[(q, k)] = hit
    return hit


def modN_cohomology_ranks(arr, k: Sequence[int], N: int) -> CohomologyReport:
    """Ranks of the cohomology of the mod-N complex at integer weights k.

    For prime N the boundary ranks are plain matrix ranks over the field
    Z_N.  The mod-N rank of a module over composite N is a matter of
    convention: here a boundary's rank is the number of Smith invariant
    factors of its integer matrix that are coprime to N (the number of
    unit elementary divisors mod N), which agrees with the field rank when
    N is prime.  Composite reports carry the invariant factors and a note.
    """
    N = int(N)
    if N < 2:
        raise ValueError("modulus must be at least 2")
    k = [int(x) for x in k]
    if len(k) != arr.n:
        raise ValueError(f"expected {arr.n} weights, got {len(k)}")
    betti = arr.betti_numbers()
    notes = []
    factors = None
    if is_prime(N):
        ranks = [_rank_mod(arr, q, k, N) for q in range(arr.rank + 1)]
    else:
        factors = tuple(
            _snf_factors(arr, q, tuple(k)) for q in range(arr.rank + 1)
        )
        ranks = [
            sum(1 for d in fq if gcd(d, N) == 1) for fq in factors
        ]
        notes.append(
            "composite modulus: boundary ranks count Smith invariant "
            "factors coprime to N (units convention)"
        )
    dims = tuple(
        betti[q] - ranks[q] - (ranks[q - 1] if q else 0)
        for q in range(arr.rank + 1)
    )
    return CohomologyReport(
        ("Z", N), dims, tuple(ranks), tuple(k), notes, factors
    )


def kunneth_product(r1: CohomologyReport, r2: CohomologyReport) -> CohomologyReport:
    """Convolution of two reports over the same coefficient ring."""
    if r1.ring != r2.ring:
        raise ValueError(f"ring mismatch: {r1.ring_name} vs {r2.ring_name}")
    dims = [0] * (len(r1.dims) + len(r2.dims) - 1)
    for i, a in enumerate(r1.dims):
        for j, b in enumerate(r2.dims):
            dims[i + j] += a * b
    notes = sorted(set(r1.notes) | set(r2.notes))
    return CohomologyReport(
        r1.ring, tuple(dims), None, tuple(r1.weights) + tuple(r2.weights), notes
    )


def scaling_equivalence_check(arr, lam, c) -> bool:
    """Dimensions at lam and at c*lam agree (c nonzero rational)."""
    c = Fraction(c)
    if not c:
        raise ValueError("scale factor must be nonzero")
    lam = [Fraction(x) for x in lam]
    a = os_cohomology_dims(arr, lam)
    b = os_cohomology_dims(arr, [c * x for x in lam])
    return a.dims == b.dims
