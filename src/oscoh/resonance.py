"""Dense-edge weight tests, modular vanishing, and certified Betti bounds.

The combinatorial side works with the dense edges of the projective
closure: flats whose localization is irreducible (does not decompose as a
product).  Summing a weight vector over the hyperplanes through an edge
-- with the hyperplane at infinity carrying minus the total weight --
gives the edge weights whose integrality properties control vanishing
theorems and resonance.

`betti_bounds` sandwiches the Betti numbers of a rank-one local system
between a lower bound (the best weighted Orlik-Solomon dimensions over a
box of integer translates of the weights, which leave the local system
unchanged) and an upper bound (cohomology ranks modulo N, the common
denominator of the weights).  When the two meet, the Betti number is
certified exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .cohom import (
    CohomologyReport,
    WeightVector,
    modN_cohomology_ranks,
    os_cohomology_dims,
)
from .exactla import NotPrimeError, is_prime

__all__ = [
    "EdgeWeight",
    "edge_weights",
    "in_W",
    "in_V",
    "VanishingReport",
    "yuzvinsky_vanishing",
    "resonance_membership",
    "BettiBoundsReport",
    "betti_bounds",
]


@dataclass(frozen=True)
class EdgeWeight:
    """A dense edge of the projective closure with its total weight."""

    hyperplanes: frozenset  # indices into the closure's hyperplane list
    codim: int
    weight: Fraction
    labels: tuple

    @property
    def is_nonnegative_integer(self) -> bool:
        return self.weight.denominator == 1 and self.weight >= 0

    @property
    def is_positive_integer(self) -> bool:
        return self.weight.denominator == 1 and self.weight > 0

    def __repr__(self):
        return f"EdgeWeight({{{', '.join(self.labels)}}}, weight={self.weight})"


def _closure_weights(arr, lam) -> tuple:
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != arr.n:
        raise ValueError(f"expected {arr.n} weights, got {len(lam)}")
    return lam + (-sum(lam),)


def edge_weights(arr, lam) -> list[EdgeWeight]:
    """Weights of the dense edges of the projective closure.

    Only proper edges are reported: flats of the closure of codimension at
    most the rank of the original arrangement.
    """
    full = _closure_weights(arr, lam)
    closure, _ = arr.projective_closure()
    out = []
    for f in closure.dense_edges():
        if f.codim > arr.rank:
            continue
        hs = f.sorted_hyperplanes
        w = sum(full[i] for i in hs)
        out.append(
            EdgeWeight(
                frozenset(hs),
                f.codim,
                Fraction(w),
                tuple(closure.labels[i] for i in hs),
            )
        )
    return out


def in_W(arr, lam) -> bool:
    """No dense edge of the closure has weight in {0, 1, 2, ...}.

    Weights in this set support the strongest vanishing statement: the
    weighted cohomology is concentrated in the top degree and computes the
    local-system Betti numbers there.
    """
    return all(not e.is_nonnegative_integer for e in edge_weights(arr, lam))


def in_V(arr, lam) -> bool:
    """No dense edge of the closure has weight in {1, 2, 3, ...}."""
    return all(not e.is_positive_integer for e in edge_weights(arr, lam))


@dataclass
class VanishingReport:
    """Outcome of the modular vanishing criterion at a prime p."""

    prime: int
    holds: bool  # every dense-edge weight is nonzero mod p
    failures: list  # edges whose weight is divisible by p
    expected_top: int
    cohomology: CohomologyReport
    confirmed: bool

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "holds": self.holds,
            "failures": [sorted(e.labels) for e in self.failures],
            "expected_top": self.expected_top,
            "mod_p_dims": list(self.cohomology.dims),
            "confirmed": self.confirmed,
        }


def yuzvinsky_vanishing(arr, k: Sequence[int], p: int) -> VanishingReport:
    """Yuzvinsky's criterion: if every dense-edge weight of the closure is
    nonzero mod p, the mod-p weighted cohomology is concentrated in the
    top degree, with dimension the absolute Euler characteristic.

    Raises NotPrimeError for composite p.  The returned report carries the
    computed mod-p cohomology alongside the combinatorial test.
    """
    p = int(p)
    if not is_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")
    k = [int(x) for x in k]
    edges = edge_weights(arr, k)
    failures = [e for e in edges if int(e.weight) % p == 0]
    holds = not failures
    rep = modN_cohomology_ranks(arr, k, p)
    top = abs(arr.euler_characteristic())
    expected = tuple([0] * arr.rank + [top])
    return VanishingReport(p, holds, failures, top, rep, rep.dims == expected)


def resonance_membership(arr, lam, q: int, m: int = 1):
    """Does the degree-q weighted cohomology have dimension at least m?

    Returns (member, dim).  The locus of weights answering yes is the
    degree-q, depth-m resonance variety of the arrangement.
    """
    if not 0 <= q <= arr.rank:
        raise ValueError(f"degree must be in 0..{arr.rank}")
    if m < 1:
        raise ValueError("depth must be at least 1")
    d = os_cohomology_dims(arr, lam).dims[q]
    return d >= m, d


# ---------------------------------------------------------------------------
# Sandwich bounds


@dataclass
class BettiBoundsReport:
    """Lower/upper bounds per degree for rank-one local-system Betti."""

    weights: tuple
    N: int
    box: int
    lower: tuple
    upper: tuple
    convention_notes: list = field(default_factory=list)

    @property
    def exact(self) -> tuple:
        return tuple(l == u for l, u in zip(self.lower, self.upper))

    def to_dict(self) -> dict:
        return {
            "weights": [str(w) for w in self.weights],
            "N": self.N,
            "box": self.box,
            "rows": [
                {"degree": q, "lower": l, "upper": u, "exact": l == u}
                for q, (l, u) in enumerate(zip(self.lower, self.upper))
            ],
            "convention_notes": list(self.convention_notes),
        }


def _convolve(d1: tuple, d2: tuple) -> tuple:
    out = [0] * (len(d1) + len(d2) - 1)
    for i, a in enumerate(d1):
        for j, b in enumerate(d2):
            out[i + j] += a * b
    return tuple(out)


def _translates(lam: tuple, box: int, sum_target=None):
    """Integer translates of lam within the box, optionally on a sum slice."""
    n = len(lam)
    if sum_target is None:
        for m in itertools.product(range(-box, box + 1), repeat=n):
            yield tuple(l + x for l, x in zip(lam, m))
        return
    shift = sum_target - sum(lam)
    if shift.denominator != 1:
        return
    shift = int(shift)
    for m in itertools.product(range(-box, box + 1), repeat=n - 1):
        last = shift - sum(m)
        if -box <= last <= box:
            yield tuple(l + x for l, x in zip(lam, m + (last,)))


# Most translates betti_bounds enumerates before it refuses the box.
TRANSLATE_BUDGET = 10**6


def _translate_count(arr, lam: tuple, box: int) -> int:
    """Translates _lower_dims_options enumerates: per factor for products."""
    if arr.product_factors is not None:
        a1, a2 = arr.product_factors
        return _translate_count(a1, lam[: a1.n], box) + _translate_count(
            a2, lam[a1.n :], box
        )
    if arr.central:
        return (2 * box + 1) ** (arr.n - 1) if sum(lam).denominator == 1 else 0
    return (2 * box + 1) ** arr.n


def _lower_dims_options(arr, lam: tuple, box: int) -> set:
    """Deduplicated weighted-cohomology dimension vectors achievable by
    integer translates of lam inside the box."""
    zero = tuple([0] * (arr.rank + 1))
    if arr.product_factors is not None:
        a1, a2 = arr.product_factors
        o1 = _lower_dims_options(a1, lam[: a1.n], box)
        o2 = _lower_dims_options(a2, lam[a1.n :], box)
        return {_convolve(d1, d2) for d1 in o1 for d2 in o2} or {zero}
    if arr.central:
        # Nonzero weights on a central arrangement give exact complexes
        # unless they sum to zero; only the zero-sum slice can contribute.
        total = sum(lam)
        if total.denominator != 1:
            return {zero}
        translates = [nu for nu in _translates(lam, box, sum_target=Fraction(0))]
    else:
        translates = list(_translates(lam, box))
    if not translates:
        return {zero}
    return {os_cohomology_dims(arr, nu).dims for nu in translates} | {zero}


def betti_bounds(arr, lam, box: int = 1) -> BettiBoundsReport:
    """Sandwich the Betti numbers of the rank-one local system at lam.

    Lower bounds: the componentwise best weighted Orlik-Solomon dimensions
    over all integer translates of lam in {-box..box}^n (translation does
    not change the local system).  They are the best values found in the
    box, not a certified supremum.  Upper bounds: cohomology ranks modulo
    N, the least common denominator of the weights.  Degrees where the two
    meet are exact.  A box with more than TRANSLATE_BUDGET translates to
    enumerate raises ValueError before any is evaluated.
    """
    wv = WeightVector(lam)
    if len(wv) != arr.n:
        raise ValueError(f"expected {arr.n} weights, got {len(wv)}")
    if box < 0:
        raise ValueError("box radius must be nonnegative")
    notes = [
        "lower bounds are the best found in the translate box, "
        "not a certified supremum"
    ]
    if wv.N == 1:
        b = tuple(arr.betti_numbers())
        notes.append(
            "integral weights: the local system is trivial and the Betti "
            "numbers of the complement are exact"
        )
        return BettiBoundsReport(wv.lam, 1, box, b, b, notes)
    count = _translate_count(arr, wv.lam, box)
    if count > TRANSLATE_BUDGET:
        raise ValueError(
            f"translate box {box} has {count} candidate translates, above "
            f"the budget of {TRANSLATE_BUDGET}; use a smaller box"
        )
    options = _lower_dims_options(arr, wv.lam, box)
    lower = tuple(
        max(d[q] for d in options) for q in range(arr.rank + 1)
    )
    upper_rep = modN_cohomology_ranks(arr, wv.k, wv.N)
    notes.extend(upper_rep.notes)
    return BettiBoundsReport(
        wv.lam, wv.N, box, lower, tuple(upper_rep.dims), notes
    )
