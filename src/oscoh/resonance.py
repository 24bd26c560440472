"""Dense-edge weight tests, modular vanishing, and certified Betti bounds.

The combinatorial side works with the dense edges of the projective
closure: flats whose localization is irreducible (does not decompose as a
product).  Summing a weight vector over the hyperplanes through an edge
-- with the hyperplane at infinity carrying minus the total weight --
gives the edge weights whose integrality properties control vanishing
theorems and resonance; ``Arrangement.closure_edge_weights`` computes them.

`betti_bounds` sandwiches the Betti numbers of a rank-one local system
between a lower bound (the best weighted Orlik-Solomon dimensions over a
box of integer translates of the weights, which leave the local system
unchanged) and an upper bound (cohomology ranks modulo N, the common
denominator of the weights).  When the two meet, the Betti number is
certified exactly.  Each lower bound names its witness, the first translate
reaching it.  Where a theorem decides the local system from the
combinatorics (``_decided``), both bounds are its value and nothing is
enumerated or ranked.  Any other box is answered from its integral dense
edges (``_lower_dims_options``), ranking only the translates that neither
the one-hyperplane test nor the linking certificate (``_linked``) answers;
the reports are those of ranking every translate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cohom import (
    CohomologyReport,
    WeightVector,
    _modN_report,
    modN_cohomology_ranks,
    os_cohomology_dims,
    os_cohomology_dims_stack,
)
from .exactla import STACK_CELLS, NotPrimeError, _exact_int, _exact_ints, _narrow, _widen, is_prime
from .exactla import poincare_product

__all__ = [
    "EdgeWeight",
    "edge_weights",
    "in_W_and_V",
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

    def __repr__(self):
        return f"EdgeWeight({{{', '.join(self.labels)}}}, weight={self.weight})"


def edge_weights(arr, lam) -> list[EdgeWeight]:
    """Weights of the dense edges of the projective closure.

    Only proper edges are reported (``Arrangement.closure_dense_edges``):
    flats of the closure of codimension at most the rank of the original
    arrangement.  They are ``Arrangement.closure_edge_weights`` at
    k = N*lam, divided by N.
    """
    wv = WeightVector(lam)
    if len(wv) != arr.n:
        raise ValueError(f"expected {arr.n} weights, got {len(wv)}")
    weights = arr.closure_edge_weights(_exact_ints([wv.k]))[0].tolist()
    labels = arr.projective_closure()[0].labels
    return [
        EdgeWeight(f.hyperplanes, f.codim, Fraction(w, wv.N),
                   tuple(labels[i] for i in f.sorted_hyperplanes))
        for f, w in zip(arr.closure_dense_edges(), weights)
    ]


def in_W_and_V(edges) -> tuple[bool, bool]:
    """Membership in W and in V, read off one list of ``edge_weights``.

    W: no dense edge of the closure has weight in {0, 1, 2, ...}.  Weights
    in W support the strongest vanishing statement: the weighted cohomology
    is concentrated in the top degree and computes the local-system Betti
    numbers there.  V: no dense edge has weight in {1, 2, 3, ...}.
    """
    integral = [e.weight for e in edges if e.weight.denominator == 1]
    return all(w < 0 for w in integral), all(w <= 0 for w in integral)


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
    p = _exact_int(p)
    if not is_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")
    k = _exact_ints(k).tolist()
    return _vanishing(arr, k, p, edge_weights(arr, k))


def _vanishing(arr, k: list, p: int, edges: list) -> VanishingReport:
    """``yuzvinsky_vanishing`` at the prime p, given the integer dense-edge
    weights at k (``edge_weights`` at k, or at k/N scaled by N)."""
    failures = [e for e in edges if int(e.weight) % p == 0]
    rep = modN_cohomology_ranks(arr, k, p)
    top = abs(arr.euler_characteristic())
    expected = tuple([0] * arr.rank + [top])
    return VanishingReport(p, not failures, failures, top, rep, rep.dims == expected)


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
    """Lower/upper bounds per degree for rank-one local-system Betti.

    ``witness[q]`` is the first translate, in enumeration order, whose
    weighted cohomology reaches ``lower[q]`` in degree q (for a product, the
    two factor translates concatenated), or None when ``lower[q]`` is 0.
    """

    weights: tuple
    N: int
    box: int
    lower: tuple
    upper: tuple
    witness: tuple
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
                {
                    "degree": q,
                    "lower": l,
                    "upper": u,
                    "exact": l == u,
                    "witness": None if w is None else [str(x) for x in w],
                }
                for q, (l, u, w) in enumerate(
                    zip(self.lower, self.upper, self.witness)
                )
            ],
            "convention_notes": list(self.convention_notes),
        }


def _translate_chunks(n: int, box: int, shift: int | None = None):
    """Offsets m in {-box..box}^n in itertools.product order, in chunks of
    at most max(STACK_CELLS // n, 2*box + 1) rows, in the narrowest integer
    width holding the box (``exactla._narrow``).  With ``shift``, only those
    with sum(m) == shift, the last coordinate fixed by the n - 1 free ones.
    A chunk is a point of the leading axes plus the trailing axes' grid."""
    free = n if shift is None else n - 1
    if _first_offset(n, box, shift) is None:
        return
    dt = _narrow(box)
    cap = STACK_CELLS // n
    lead = next((a for a in range(free) if (2 * box + 1) ** (free - a) <= cap), max(free - 1, 0))
    k = free - lead  # the trailing axes' grid, in product order
    tail = np.indices([2 * box + 1] * k, dtype=_narrow(2 * box)).reshape(k, (2 * box + 1) ** k) - box
    for head in itertools.product(range(-box, box + 1), repeat=lead):
        v = np.empty((n, tail.shape[1]), dtype=dt)
        v[:lead], v[lead:free] = np.array(head, dtype=dt)[:, None], tail
        if shift is not None:
            last = shift - np.add.reduce(v[:free], axis=0, dtype=_narrow(2 * n * box))
            v[free] = last  # wraps where |last| > box, and those go
            v = v.compress(np.abs(last) <= box, axis=1)
        if v.shape[1]:
            yield v.T


def _first_offset(n: int, box: int, shift: int | None) -> list | None:
    """The first offset ``_translate_chunks`` yields: each free coordinate
    as low as the ones after it can still make up.  None when it yields
    none, where the slice sum(m) == shift misses the box."""
    if shift is None:
        return [-box] * n
    if abs(shift) > n * box:
        return None
    m: list = []
    for i in range(n - 1):
        m.append(max(-box, shift - sum(m) - (n - 1 - i) * box))
    return m + [shift - sum(m)]


def _slice(arr, k: tuple, N: int, box: int) -> tuple:
    """(shift, first): the offsets of the box the search walks at k/N.  On
    an affine input that is all of {-box..box}^n, with shift None.  On a
    central one a translate whose weights do not sum to zero has an exact
    complex, so only the zero-sum slice sum(m) == shift = -sum(k)/N can
    contribute.  ``first`` is the walk's first offset (``_first_offset``),
    or None where it is empty: the weight sum is not an integer, or the
    slice misses the box."""
    if arr.central and sum(k) % N:
        return None, None
    shift = -sum(k) // N if arr.central else None
    return shift, _first_offset(arr.n, box, shift)


# Most translates betti_bounds enumerates before it refuses the box.
TRANSLATE_BUDGET = 10**6


def _translate_count(arr, k: tuple, N: int, box: int) -> int:
    """Offsets the box's walk (``_slice``) visits, over its free
    coordinates; summed over the factors of a product."""
    if arr.product_factors is not None:
        a1, a2 = arr.product_factors
        return _translate_count(a1, k[: a1.n], N, box) + _translate_count(a2, k[a1.n :], N, box)
    return 0 if _slice(arr, k, N, box)[1] is None else (2 * box + 1) ** (arr.n - arr.central)


def _closure_weights(arr, k: tuple, N: int):
    """(cert, W): the arrangement, or its decone when central, and the
    weights of its closure's dense edges at k (over the free coordinates),
    wide enough to divide by N.  An edge is integral where N divides W.
    None on a central arrangement of rank < 2, which has no decone, or
    whose weight sum is not an integer: no edge test is needed there."""
    if arr.central and (arr.rank < 2 or sum(k) % N):
        return None
    cert, k = (arr.decone(), k[:-1]) if arr.central else (arr, k)
    return cert, _widen(cert.closure_edge_weights(_exact_ints([k]))[0], N)


def _integral_edges(closure, N: int, box: int):
    """The integral dense edges of the closure at k/N (``_closure_weights``)
    that weigh 0 at some translate k + N*m in the box, as (targets,
    incidence, meets), or None when there is no closure or a hyperplane of
    the closure is on none of them.  Edge X weighs w_X + N*f_X(m'), f_X
    summing the free coordinates m' over X less sum(m') if X is on H_inf:
    it vanishes only if integral (w_X = 0 mod N), where f_X = -w_X / N.
    ``meets`` is None unless the certified arrangement has rank 2; then it
    is ``closure_meets`` with each edge's index among these rows, -1 for
    an edge that weighs 0 nowhere in the box (``_linked``)."""
    if closure is None:
        return None
    cert, W = closure
    E = cert.closure_incidence()
    forms, target = E[:, :-1] - E[:, -1:], -(W // N)
    live = (W % N == 0) & (np.abs(target) <= np.count_nonzero(forms, axis=1) * box)
    if cert.free_hyperplane(live[None])[0] >= 0:
        return None
    meets = None
    if cert.rank == 2:
        row, meet = np.where(live, np.cumsum(live) - 1, -1), cert.closure_meets()
        meets = np.where(meet >= 0, row[meet], -1)
    return target[live].astype(np.int64), E[live].astype(bool), meets


def _sieve(chunks, inc, target, box: int):
    """(chunk, rows, vanish) for each chunk of ``_translate_chunks``: the
    rows with a zero edge through every closure hyperplane, and which live
    edges (``_integral_edges``) weigh 0 at them.  f_X is the sum over X of
    the closure coordinates, m' and -sum(m') at H_inf; each live edge is
    summed once a chunk, in a width (``exactla._narrow``) for
    (free + 1) * box, above every |f_X| and target."""
    free, dt = inc.shape[1] - 1, _narrow(inc.shape[1] * box)
    edges = [(row.nonzero()[0], t) for row, t in zip(inc, target.tolist())]
    for chunk in chunks:
        m = chunk.T[:free]
        m = np.concatenate([m, -np.add.reduce(m, axis=0, dtype=dt)[None]])
        vanish = np.array([np.add.reduce(m[h], axis=0, dtype=dt) == t for h, t in edges])
        keep = np.all([vanish[through].any(axis=0) for through in inc.T], axis=0)
        yield chunk, keep.nonzero()[0], vanish[:, keep]


def _linked(vanish: np.ndarray, meets: np.ndarray) -> np.ndarray:
    """The degree-1 linking certificate at each column of ``vanish`` (dense
    edges of a rank-2 closure x translates: does the edge weigh 0 there),
    as a boolean vector.  ``meets`` is ``Arrangement.closure_meets`` on the
    rows of ``_integral_edges``: it maps two closure hyperplanes to the row
    of their dense meet, a hyperplane to its own, and -1 to a meet that
    never weighs 0, a double point or an edge with no row.  So the test
    reads the rows the box filter already has: no closure lattice and no
    further edge weights.

    Let a be the translate on a rank-2 arrangement A and a^ its weights on
    the closure's hyperplanes, H_inf weighing -sum a, so that sum a^ = 0.
    Call a codim-2 flat X of the closure linking if it holds exactly two
    hyperplanes, or if a^_X = sum over H in X of a^_H is not 0.  If every
    closure hyperplane lies on a linking point with a hyperplane of
    non-zero weight, and the hyperplanes of non-zero weight are connected
    through linking points, then the weighted cohomology of A is 0 in
    degrees 0 and 1 and |chi| in degree 2, the value of a non-resonant
    translate (Brieskorn; Libgober-Yuzvinsky, Compositio Math. 121, 2000).
    Proof: let a^ ^ x = 0 in A^2 of the closure.  By Brieskorn's
    decomposition A^2 is the sum over codim-2 flats X of A^2(A_X), and the
    X part of a^ ^ x is a^|X ^ x|X, restricting to the hyperplanes through
    X.  At a linking point with a^|X != 0 this forces
    x|X = c_X a^|X: where a^_X != 0 the derivation d(e_H) = 1 of A(A_X)
    gives d(a^|X ^ x|X) + a^|X ^ d(x|X) = a^_X x|X (as in
    ``cohom._reduced_dims``), so the local complex is exact in degree 1;
    at a double point A^2(A_X) is spanned by one product, and
    a^_H x_H' = a^_H' x_H.  Two hyperplanes of non-zero weight on one
    linking point share c = x_H / a^_H, so by connectivity x_H = c a^_H on
    all of them, and a hyperplane of weight 0 on a linking point with one
    of them has x_H = c * 0.  So x = c a^, and the closure's degree-1
    cohomology is 0.  The closure's complex is A's tensored with a
    differential-free degree-1 class (the same splitting, at H_inf), so
    h^1(A) <= h^1(closure) = 0; h^0(A) = 0 since a != 0 (the hypotheses
    need a hyperplane of non-zero weight); and h^2(A) is then the Euler
    characteristic chi(A), which is |chi| at rank 2.
    """
    v = np.concatenate([vanish, np.zeros((1, vanish.shape[1]), dtype=bool)])
    nonzero = ~v[np.diagonal(meets)]  # hyperplane x translate
    linked = ~v[meets] & nonzero  # [i, j]: i meets j, of non-zero weight, at a linking point
    reach = np.arange(len(nonzero))[:, None] == nonzero.argmax(axis=0)
    while True:
        grown = reach | (linked & reach[:, None]).any(axis=0)
        if (grown == reach).all():
            break
        reach = grown
    return linked.any(axis=1).all(axis=0) & (reach == nonzero).all(axis=0)


def _lower_dims_options(arr, lam, box: int, closure=None) -> dict:
    """Distinct weighted-cohomology dimension vectors of the integer
    translates of lam (weights or a ``WeightVector``) inside the box, each
    mapped to the first translate giving it, in enumeration order.  The
    zero vector is always an option (its witness None unless some
    translate gives it).  ``closure`` is ``_closure_weights`` at lam, if
    the caller has it.  The box is answered from its integral dense edges:
    if a hyperplane of the closure is on none, its first translate stands
    for it, unenumerated; otherwise a translate is ranked only if it has a
    zero edge through every hyperplane (``_sieve``, on narrow offsets) and,
    where the certified arrangement (the input, or its decone when
    central) has rank 2, it fails the linking certificate (``_linked``).
    The first of the others is ranked too and stands for the rest, so
    witnesses keep their meaning.  Only ranked translates are widened.
    """
    wv = lam if isinstance(lam, WeightVector) else WeightVector(lam)
    zero = tuple([0] * (arr.rank + 1))
    if arr.product_factors is not None:
        a1, a2 = arr.product_factors
        o1 = _lower_dims_options(a1, wv.lam[: a1.n], box)
        o2 = _lower_dims_options(a2, wv.lam[a1.n :], box)
        out = {}
        for d1, w1 in o1.items():
            for d2, w2 in o2.items():
                w = None if w1 is None or w2 is None else w1 + w2
                out.setdefault(poincare_product(d1, d2), w)
        out.setdefault(zero, None)
        return out
    n, k, N = arr.n, wv.k, wv.N
    shift, start = _slice(arr, k, N, box)
    if start is None:
        return {zero: None}
    # |k + N*m| <= max|k| + N*box, doubled for margin; N*m needs N itself
    bound = 2 * (max(map(abs, k)) + N * max(box, 1))
    k0 = _widen(_exact_ints(k), bound)
    edges = _integral_edges(closure or _closure_weights(arr, k, N), N, box)
    if edges is None:
        sieved, meets = [(np.array([start]), np.zeros(0, dtype=np.int64), None)], None
    else:
        target, inc, meets = edges
        sieved = _sieve(_translate_chunks(n, box, shift), inc, target, box)
    out: dict = {}
    first = True  # no certified translate ranked yet
    for chunk, pick, vanish in sieved:
        if meets is not None and len(pick):
            pick = pick[~_linked(vanish, meets)]
        if first and len(pick) < len(chunk):
            c = np.count_nonzero(pick == np.arange(len(pick)))  # the first row not picked
            pick, first = np.insert(pick, c, c), False
        if not len(pick):
            continue
        m = chunk[pick].astype(np.int64)
        dims = os_cohomology_dims_stack(arr, k0 + N * _widen(m, bound))
        for d, row in zip(map(tuple, dims.tolist()), m.tolist()):
            if d not in out:
                out[d] = tuple(l + x for l, x in zip(wv.lam, row))
    out.setdefault(zero, None)
    return out


def _decided(arr, k: tuple, N: int, closure):
    """The Betti numbers of the local system at k/N where a theorem decides
    them from the combinatorics, with the notes naming it, or None.  The
    test reads the weights alone (``closure``, ``_closure_weights`` at k),
    never a translate box.  Edge integrality is the same at every integer
    translate, so where a theorem holds, the weighted complex at each
    translate of the box has the decided Betti numbers as its dims (for the
    second theorem by Yuzvinsky's non-resonance, Comm. Algebra 23, 1995),
    and the box's first translate witnesses them.

    * Central, weight sum not an integer: M = C* x M(dA) and the local
      system has monodromy exp(2 pi i sum) != 1 on the C* factor, so its
      cohomology is 0 (Orlik-Terao 1992, 5.1).
    * Some hyperplane H_j of the closure (of the decone, when central) is
      on no integral dense edge: the local system is non-resonant, with
      cohomology |chi| in the top degree and 0 below (Cohen-Dimca-Orlik,
      Ann. Inst. Fourier 53, 2003).  A central input with an integral
      weight sum then has (1 + t) times its decone's answer.
    """
    if arr.central and sum(k) % N:
        note = (
            f"central, weight sum {Fraction(sum(k), N)} not an integer: "
            "M = C* x M(dA) and the local system is non-trivial on C*, so "
            "its cohomology is 0 (Orlik-Terao)"
        )
        return tuple([0] * (arr.rank + 1)), [note]
    if closure is None:
        return None
    cert, W = closure
    j = int(cert.free_hyperplane((W % N == 0)[None])[0])
    if j < 0:
        return None
    top = abs(cert.euler_characteristic())
    notes = [
        f"non-resonant: no dense edge in H_{j + 1} "
        f"({cert.projective_closure()[0].labels[j]}) of the closure has an "
        f"integral weight, so the cohomology is |chi| = {top} in the top degree "
        "and 0 below (Cohen-Dimca-Orlik)"
    ]
    if not arr.central:
        return tuple([0] * arr.rank + [top]), notes
    notes = [
        f"central, weight sum an integer: decone at H_{arr.n} "
        f"({arr.labels[-1]}), the cohomology (1 + t) times the decone's"
    ] + [f"decone: {x}" for x in notes]
    return tuple([0] * (arr.rank - 1) + [top, top]), notes


def betti_bounds(arr, lam, box: int = 1) -> BettiBoundsReport:
    """Sandwich the Betti numbers of the rank-one local system at lam.

    Where a theorem decides the local system from the combinatorics
    (``_decided``), both bounds are its Betti numbers, and each non-zero
    degree's witness is the box's first translate.  Nothing is enumerated
    or ranked, and the box may be of any size.  A central input whose box
    holds no zero-sum translate has lower bounds 0; where that is below
    the theorem's value, and only there, a decided report keeps the note
    that lower bounds are the best found in the box.  A product is never
    decided here.

    Otherwise, lower bounds: the componentwise best weighted Orlik-Solomon
    dimensions over all integer translates of lam in {-box..box}^n
    (translation does not change the local system), each with the first
    translate reaching it as its witness.  They are the best values found
    in the box, not a certified supremum.  ``_lower_dims_options`` answers
    the box from its integral dense edges, so lower bounds, witnesses and
    notes are those of ranking every translate.  The closure's edge
    weights are built once per call.  Upper bounds: cohomology ranks
    modulo N, the least common denominator of the weights.  Degrees where
    the two meet are exact.  Such a call raises ValueError where the box's
    walk has more than TRANSLATE_BUDGET translates (``_translate_count``),
    before any is enumerated, and where a complex it ranks (the input's
    when affine, its decone's when central, each factor's for a product)
    has a boundary matrix above the cell budget of
    ``osalg.check_complex_size``, before any matrix of that complex is
    built, which may be after the first chunk of the box.
    """
    wv, box = WeightVector(lam), _exact_int(box)
    if len(wv) != arr.n:
        raise ValueError(f"expected {arr.n} weights, got {len(wv)}")
    if box < 0:
        raise ValueError("box radius must be nonnegative")
    unproved = [
        "lower bounds are the best found in the translate box, "
        "not a certified supremum"
    ]
    if wv.N == 1:
        b = tuple(arr.betti_numbers())
        notes = [
            "integral weights: the local system is trivial and the Betti "
            "numbers of the complement are exact"
        ]
        origin = tuple(Fraction(0) for _ in range(arr.n))
        witness = tuple(origin if x else None for x in b)
        return BettiBoundsReport(wv.lam, 1, box, b, b, witness, notes)
    closure = decided = None
    if arr.product_factors is None:
        closure = _closure_weights(arr, wv.k, wv.N)
        decided = _decided(arr, wv.k, wv.N, closure)
    if decided is not None:
        upper, upper_notes = decided
        m = _slice(arr, wv.k, wv.N, box)[1]
        lower = upper if m is not None else tuple([0] * (arr.rank + 1))
        first = m and tuple(l + x for l, x in zip(wv.lam, m))  # None: no translate
        witness = tuple(first if x else None for x in lower)
        notes = upper_notes if lower == upper else unproved + upper_notes
        return BettiBoundsReport(wv.lam, wv.N, box, lower, upper, witness, notes)
    count = _translate_count(arr, wv.k, wv.N, box)
    if count > TRANSLATE_BUDGET:
        raise ValueError(
            f"translate box {box} has {count} candidate translates, above "
            f"the budget of {TRANSLATE_BUDGET}; use a smaller box"
        )
    options = _lower_dims_options(arr, wv, box, closure)
    lower = tuple(max(d[q] for d in options) for q in range(arr.rank + 1))
    witness = tuple(
        next(w for d, w in options.items() if d[q] == lower[q]) if lower[q] else None
        for q in range(arr.rank + 1)
    )
    upper_rep = _modN_report(arr, wv.k, wv.N)[0]  # no invariant factors
    notes = unproved + upper_rep.notes
    return BettiBoundsReport(wv.lam, wv.N, box, lower, tuple(upper_rep.dims), witness, notes)
