"""Hyperplane arrangements and their intersection-lattice combinatorics.

An arrangement is either realized (exact linear forms over Q or a number
field) or abstract (matroid data only).  Internally every arrangement
carries the matroid of its projective cone on elements 0..n, where element
n plays the hyperplane at infinity; for a central arrangement that element
is simply a coloop.  The cone matroid is a rank/closure oracle
(``matroid``): linear on the integer cone vectors of a realized input,
whose rank and centrality are ranks of those rows; circuit-based for
abstract input, whose one constructor takes cone circuits; and a wrapper
for sections, products and projective closures.  Lattice, Betti, density
and NBC computations run off the cover map it records while building the
lattice, so realized and abstract inputs share every code path downstream
of construction.  One atom check on the oracle refuses a hyperplane that
is zero or at infinity and two that coincide, whatever the input kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactla import NumberField, _absmax, _exact_rational, _widen, poincare_product, rank_stack
from .matroid import Matroid, _unmask, add_coloop, parallel_connection, vector_matroid

__all__ = [
    "Arrangement",
    "Flat",
    "IntersectionLattice",
    "ZeroFormError",
    "NotEssentialError",
    "build_arrangement",
    "arrangement_from_circuits",
    "arrangement_from_cone_circuits",
    "generic_section",
    "product_arrangement",
    "essentialize",
]


class ZeroFormError(ValueError):
    """A defining form has zero coefficient part."""


class NotEssentialError(ValueError):
    """The normals of the forms do not span the ambient space."""


@dataclass(frozen=True)
class Flat:
    """A flat of the intersection lattice: which hyperplanes contain it.

    ``beta`` is Crapo's invariant of the localization at the flat,
    (-1)^(q-1) * sum over flats G <= F of mu(G) * (q - codim G) for q the
    codimension; it is non-zero exactly when the localization is connected.
    """

    hyperplanes: frozenset
    codim: int
    moebius: int
    beta: int

    @property
    def sorted_hyperplanes(self) -> tuple:
        return tuple(sorted(self.hyperplanes))

    def __repr__(self):
        hs = ",".join(str(h + 1) for h in self.sorted_hyperplanes)
        return f"Flat({{{hs}}}, codim={self.codim}, mu={self.moebius})"


class IntersectionLattice:
    """Flats grouped by codimension, with Moebius values from the bottom."""

    def __init__(self, levels: list[list[Flat]]):
        self.levels = levels

    def __len__(self):
        return sum(len(level) for level in self.levels)


class Arrangement:
    """An arrangement of n distinct hyperplanes of full rank.

    Not meant to be constructed directly; use build_arrangement,
    arrangement_from_circuits, or the derived operations (sections,
    products, projective closures).
    """

    def __init__(
        self,
        n: int,
        rank: int,
        central: bool,
        cone_matroid: Matroid,
        field=None,
        forms=None,
        labels: Sequence[str] | None = None,
        product_factors=None,
    ):
        self.n = n
        self.rank = rank
        self.central = central
        self.cone_matroid = cone_matroid
        self.field = field
        self.forms = forms
        self.labels = list(labels) if labels else [f"H{i+1}" for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("label count does not match hyperplane count")
        self.product_factors = product_factors
        self._cache: dict = {}

    # -- basic structure -----------------------------------------------------

    @property
    def infinity(self) -> int:
        """Index of the hyperplane at infinity inside the cone matroid."""
        return self.n

    # -- lattice -------------------------------------------------------------

    def intersection_lattice(self) -> IntersectionLattice:
        if "lattice" not in self._cache:
            self._cache["lattice"] = self._build_lattice(self._flat_masks())
        return self._cache["lattice"]

    def covers(self) -> dict:
        """The cover map of the lattice, as masks: ``covers[F][e]`` is
        cl(F + e) in the cone matroid for each flat F of codimension below
        the rank and each e outside F.  A cover that contains the
        hyperplane at infinity (bit n) is no flat of the arrangement.  It
        comes with the flats, before and without their Moebius values.  A
        decone shares its parent's map, which holds more than it reads."""
        if "covers" not in self._cache:
            self._flat_masks()
        return self._cache["covers"]

    def _closure(self, elems) -> int:
        """Mask of cl(S) through the cover map, for a set S whose closure
        reaches no flat of top codimension before it is complete."""
        covers, fm = self.covers(), 0
        for e in elems:
            if not fm >> e & 1:
                fm = covers[fm][e]
        return fm

    def _flat_masks(self) -> list[list[int]]:
        """Masks of the flats by codimension, recording the cover map."""
        if "flat_masks" not in self._cache:
            levels, covers = self.cone_matroid.flat_levels(self.infinity, self.rank)
            self._cache["flat_masks"] = levels
            self._cache.setdefault("covers", covers)
        return self._cache["flat_masks"]

    def _build_lattice(self, levels_masks: list[list[int]]) -> IntersectionLattice:
        """Moebius and beta values of flats given as cone masks by rank."""
        bottom = levels_masks[0][0]

        # Moebius recursion from the bottom within the poset of central
        # flats: mu(F) = -sum of mu(G) over the flats G below F, for a whole
        # level at once, testing G <= F on the masks packed in 64-bit words.
        # Crapo's beta of F is one more product over the same flats G.
        words = self.n // 64 + 1

        def packed(masks):
            return np.array(
                [[fm >> (64 * w) & (2**64 - 1) for w in range(words)] for fm in masks],
                dtype=np.uint64,
            ).reshape(len(masks), words)

        below = packed([bottom])
        below_mu, below_codim = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        flat_levels = [[Flat(_unmask(bottom), 0, 1, 0)]]
        for q, level in enumerate(levels_masks[1:], start=1):
            cur = packed(level)
            mu = np.empty(len(level), dtype=np.int64)
            beta = np.empty(len(level), dtype=np.int64)
            weight = below_mu * (q - below_codim)
            step = max(1, 2**20 // len(below))
            for s in range(0, len(level), step):
                inside = np.ones((len(cur[s : s + step]), len(below)), dtype=bool)
                for w in range(words):
                    inside &= (below[None, :, w] & ~cur[s : s + step, None, w]) == 0
                mu[s : s + step] = -(inside @ below_mu)
                beta[s : s + step] = inside @ weight
            beta *= (-1) ** (q - 1)
            flats = [
                Flat(_unmask(fm), q, m, b)
                for fm, m, b in zip(level, mu.tolist(), beta.tolist())
            ]
            flats.sort(key=lambda f: f.sorted_hyperplanes)
            flat_levels.append(flats)
            below = np.concatenate([below, cur])
            below_mu = np.concatenate([below_mu, mu])
            below_codim = np.concatenate([below_codim, np.full(len(level), q)])
        return IntersectionLattice(flat_levels)

    # -- numeric invariants --------------------------------------------------

    def betti_numbers(self) -> list[int]:
        """b_q = sum of |mu| over the codimension-q flats.

        A product's Poincare polynomial is the product of its factors', so
        its Betti numbers are their convolution and its own lattice is
        never built.
        """
        if "betti" not in self._cache:
            if self.product_factors is not None:
                betti = list(
                    poincare_product(*(a.betti_numbers() for a in self.product_factors))
                )
            else:
                betti = [
                    sum(abs(f.moebius) for f in level)
                    for level in self.intersection_lattice().levels
                ]
            self._cache["betti"] = betti
        return list(self._cache["betti"])

    def euler_characteristic(self) -> int:
        b = self.betti_numbers()
        return sum((-1) ** q * bq for q, bq in enumerate(b))

    # -- derived arrangements ------------------------------------------------

    def projective_closure(self) -> tuple["Arrangement", int]:
        """Central arrangement of this plus the hyperplane at infinity.

        Returns the closure and the (0-based) index of infinity in it.  A
        decone's closure is the central arrangement it came from, with its
        forms and labels: infinity there is the H_n the decone was taken
        at and carries that label, not ``H_inf``.  Indices, codimensions
        and so dense-edge weights are those of the closure built from the
        decone's own forms.  Hot paths build no lattice of it: its dense
        edges (``closure_dense_edges``) are this lattice's plus H_inf when
        central, one cone walk when affine, the parent's for a decone.
        """
        if "closure" not in self._cache:
            n1 = self.n + 1
            labels = self.labels + ["H_inf"]
            forms = None
            field = self.field
            if self.forms is not None:
                zero, one = _field_consts(field)
                forms = [list(a) + [c, zero] for a, c in self.forms]
                forms.append([zero] * self.rank + [one, zero])
                forms = [(tuple(r[:-1]), r[-1]) for r in forms]
            cone = add_coloop(self.cone_matroid)
            self._cache["closure"] = Arrangement(
                n1, self.rank + 1, True, cone, field=field, forms=forms, labels=labels
            )
        return self._cache["closure"], self.n

    def decone(self) -> "Arrangement":
        """The decone of a central arrangement at its last hyperplane H_n.

        Its cone matroid is this arrangement's matroid with H_n as the
        hyperplane at infinity: the cone matroid restricted to the
        hyperplanes, so a realized arrangement's decone keeps its vectors.
        It shares this cover map, reading its flats without H_n at elements
        below H_n, and its Poincare polynomial is this one's divided by
        1 + t: no second lattice is built.  Its projective closure is this
        arrangement, with H_n at infinity, so its dense edges are read from
        this lattice too.  A rank-1 central arrangement has no decone.
        """
        if not self.central or self.rank < 2:
            raise ValueError("the decone needs a central arrangement of rank >= 2")
        if "decone" not in self._cache:
            n, last = self.n, 1 << (self.n - 1)
            central = not self._closure(range(n - 1)) & last  # H_n is a coloop
            d = Arrangement(
                n - 1, self.rank - 1, central, self.cone_matroid.restriction(n),
                labels=self.labels[:-1],
            )
            d._cache["covers"] = self.covers()
            betti = [1]
            for b in self.betti_numbers()[1:-1]:
                betti.append(b - betti[-1])
            d._cache["betti"] = betti
            d._cache["closure"] = self
            self._cache["decone"] = d
        return self._cache["decone"]

    def dense_edges(self) -> list[Flat]:
        """Flats of positive codimension whose localization is connected:
        those with a non-zero beta invariant."""
        if not self.central:
            raise ValueError("dense edges are defined for central arrangements")
        return _dense(self.intersection_lattice())

    def closure_dense_edges(self) -> list[Flat]:
        """Proper dense edges of the projective closure: its dense edges of
        codimension at most the rank, which leaves out only its center.

        No closure lattice is built for them.  A decone reads them from the
        lattice it came from, which is its closure.  A central closure is
        this times {H_inf}, where X + H_inf splits for X above the bottom:
        its edges are this lattice's with H_inf after the n atoms.  An
        affine closure's lattice is the cone's, walked once to codimension
        rank on the cover cache this lattice's walk fills."""
        if "closure_dense_edges" not in self._cache:
            parent = self._cache.get("closure")
            if parent is not None and parent._cache.get("decone") is self:
                edges = parent.dense_edges()
            elif self.central:
                edges = self.dense_edges()
                edges.insert(self.n, Flat(frozenset({self.n}), 1, -1, 1))
            else:
                levels, _ = self.cone_matroid.flat_levels(None, self.rank)
                edges = _dense(self._build_lattice(levels))
            self._cache["closure_dense_edges"] = [f for f in edges if f.codim <= self.rank]
        return self._cache["closure_dense_edges"]

    def closure_incidence(self) -> np.ndarray:
        """The 0/1 incidence matrix of ``closure_dense_edges`` (rows) and
        the n + 1 hyperplanes of the closure (columns, H_inf last)."""
        if "dense_incidence" not in self._cache:
            edges = self.closure_dense_edges()
            inc = np.zeros((len(edges), self.n + 1), dtype=np.int64)
            for e, f in enumerate(edges):
                inc[e, f.sorted_hyperplanes] = 1
            self._cache["dense_incidence"] = inc
        return self._cache["dense_incidence"]

    def closure_meets(self) -> np.ndarray:
        """The (n + 1) x (n + 1) map from two hyperplanes of the closure to
        the index in ``closure_dense_edges`` of the codim-2 edge where they
        meet, or -1 where that flat holds only the two (it is not dense); a
        hyperplane meets itself in its own edge."""
        if "closure_meets" not in self._cache:
            meets = np.full((self.n + 1, self.n + 1), -1, dtype=np.int64)
            for codim in (2, 1):  # the diagonal last: each hyperplane's own edge
                for e, f in enumerate(self.closure_dense_edges()):
                    if f.codim == codim:
                        h = f.sorted_hyperplanes
                        meets[np.ix_(h, h)] = e
            self._cache["closure_meets"] = meets
        return self._cache["closure_meets"]

    def closure_edge_weights(self, K: np.ndarray) -> np.ndarray:
        """Weights of ``closure_dense_edges`` at every row k of the integer
        array K, as a (rows x edges) integer array: an edge weighs the sum
        of k over its hyperplanes, H_inf weighing -sum k.  That is one
        product [K, -sum K] E^T with the ``closure_incidence`` E."""
        # |an edge weight| <= (n + 1) n max|k|, doubled for margin
        K = _widen(K, 2 * _absmax(K) * self.n * (self.n + 1))
        full = np.concatenate([K, -K.sum(axis=1, keepdims=True)], axis=1)
        return full @ self.closure_incidence().T

    def free_hyperplane(self, marked: np.ndarray) -> np.ndarray:
        """Per row of the boolean (rows x edges) array ``marked`` over
        ``closure_dense_edges``, the first closure hyperplane on no marked
        edge (counted through ``closure_incidence``), or -1 if none is."""
        free = (marked.astype(np.int64) @ self.closure_incidence()) == 0
        return np.where(free.any(axis=1), free.argmax(axis=1), -1)


def _dense(lattice: IntersectionLattice) -> list[Flat]:
    return [f for level in lattice.levels[1:] for f in level if f.beta]


def _check_atoms(cone: Matroid, n: int) -> None:
    """Refuse a hyperplane that is zero or at infinity, then two that
    coincide: in the cone matroid, whose element n is infinity, a loop or
    an atom of the lattice with more than one element."""
    loops = cone._closure_mask(0)
    if loops >> n & 1:
        raise ValueError(f"the hyperplane at infinity (element {n + 1}) is a loop")
    atoms = cone._covers_of(loops)
    for e in range(n):
        if loops >> e & 1 or atoms[e] >> n & 1:
            raise ZeroFormError(f"hyperplane {e + 1} has zero coefficient part")
    for e in range(n):
        others = atoms[e] & ~(1 << e)
        if others:
            j = (others & -others).bit_length() - 1
            raise ValueError(f"hyperplanes {e + 1} and {j + 1} coincide")


def _cone_of_forms(forms, nf) -> Matroid:
    """The linear oracle on the cone vectors (a, c) of the forms a.z + c,
    with (0, 1) for infinity."""
    zero, one = _field_consts(nf)
    ell = len(forms[0][0])
    return vector_matroid([list(a) + [c] for a, c in forms] + [[zero] * ell + [one]])


def _field_consts(field):
    if isinstance(field, NumberField):
        return field.zero, field.one
    return Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# constructors


def build_arrangement(rows, field="Q", labels=None, essentialize=False) -> Arrangement:
    """Arrangement from defining forms.

    Each row is [a_1, .., a_l, c] for the hyperplane a.z + c = 0, constant
    last.  Entries are ints, Fractions, strings like "2/3", or (over a
    number field) NFElements / coefficient lists; a float raises ValueError
    rather than being read at its binary value.  The arrangement must be
    essential and free of zero or repeated forms.  With ``essentialize``
    set, a non-essential input is first quotiented by the common center:
    every form keeps only the pivot columns of its normal, a coordinate
    projection that is injective on the span of the normals.  The forms
    get new coordinates, but the matroid, lattice and Betti numbers are
    those of the input.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("no hyperplanes given")
    width = len(rows[0])
    if width < 2:
        raise ValueError("forms need at least one coordinate and a constant")
    if any(len(r) != width for r in rows):
        raise ValueError("rows of unequal length")
    ell = width - 1

    nf = field if isinstance(field, NumberField) else None
    if not (nf or field == "Q"):
        raise ValueError("field must be 'Q' or a NumberField")

    def coerce(x):
        return nf(x) if nf else _exact_rational(x)

    forms = [(tuple(coerce(x) for x in r[:ell]), coerce(r[ell])) for r in rows]
    cone = _cone_of_forms(forms, nf)
    _check_atoms(cone, len(forms))

    # One rank over Q of the forms' integer rows, and of the normals cut to
    # their first j + 1 coordinates for each j (d columns per coordinate):
    # infinity is a coloop of the cone, so the hyperplanes meet in a point
    # and the arrangement is central, exactly when the constants add nothing
    # to the normals' rank; coordinate j is a pivot where the cut rank rises.
    d = cone.degree
    rows = cone.rows[:-1].reshape(len(forms) * d, -1)  # constants in the last d columns
    cut = d * np.arange(1, ell + 1)
    prefixes = np.where(np.arange(rows.shape[1]) < cut[:, None, None], rows, 0)
    full, *ranks = rank_stack(
        np.concatenate([rows[None], prefixes]), [min(rows.shape), *cut.tolist()]
    ).tolist()
    central = ranks[-1] == full
    if ranks[-1] < ell * d:
        if not essentialize:
            raise NotEssentialError(
                "normals span a proper subspace; pass --essentialize or reduce rank"
            )
        pivots = [j for j in range(ell) if ranks[j] > (ranks[j - 1] if j else 0)]
        forms = [(tuple(a[j] for j in pivots), c) for a, c in forms]
        ell = len(pivots)

    return Arrangement(
        len(forms), ell, central, cone, field=nf or "Q", forms=forms, labels=labels
    )


def arrangement_from_circuits(n, circuits, labels=None, rank=None) -> Arrangement:
    """Central arrangement from abstract matroid data (0-based circuits).

    With ``rank`` given, the listed circuits need only generate the
    dependent sets: the matroid is completed by truncation, so every
    (rank+1)-subset containing no listed circuit becomes a circuit too.
    This is how point-line configurations are entered: list the collinear
    triples and pass rank=3.  Infinity, a coloop, lies on no circuit: the
    completed list is the cone's, for ``arrangement_from_cone_circuits``.
    """
    if rank is not None:
        gen = Matroid(n, circuits)
        if rank > gen.full_rank:
            raise ValueError(
                f"rank {rank} exceeds the rank {gen.full_rank} generated "
                "by the circuits"
            )
        circuits = gen.truncate(rank).circuits()
    return arrangement_from_cone_circuits(n, circuits, labels)


def arrangement_from_cone_circuits(n, cone_circuits, labels=None):
    """Arrangement (possibly affine) from the circuits of its cone matroid.

    The cone matroid lives on n+1 elements with the hyperplane at infinity
    as element n (0-based).  This is the general abstract form: central
    arrangements are the special case where n is a coloop.
    """
    m = Matroid(n + 1, cone_circuits, validate=True)
    _check_atoms(m, n)  # refuses every cone of rank below 2 that has a hyperplane
    if m.full_rank < 2:
        raise ValueError("cone matroid must have rank at least 2")
    central = n not in m.closure(range(n))
    return Arrangement(n, m.full_rank - 1, central, m, labels=labels)


def generic_section(arr: Arrangement, r: int) -> Arrangement:
    """Generic r-dimensional section: the rank-(r+1) truncation of the cone.

    Flats of codimension < r survive unchanged; higher intersections
    collapse.  A central arrangement becomes a (combinatorial) affine one.
    """
    if not 1 <= r < arr.rank:
        raise ValueError(f"section rank must be in 1..{arr.rank - 1}")
    cone = arr.cone_matroid.truncate(r + 1)
    central = arr.infinity not in cone.closure(range(arr.n))
    return Arrangement(arr.n, r, central, cone, labels=arr.labels)


def product_arrangement(a1: Arrangement, a2: Arrangement) -> Arrangement:
    """Product arrangement in the direct sum of the two ambient spaces."""
    n = a1.n + a2.n
    labels = [f"A.{s}" for s in a1.labels] + [f"B.{s}" for s in a2.labels]
    central = a1.central and a2.central
    rank = a1.rank + a2.rank
    if a1.forms is not None and a2.forms is not None and a1.field == a2.field:
        nf = a1.field if isinstance(a1.field, NumberField) else None
        zero = _field_consts(nf)[0]
        forms = [(tuple(a) + (zero,) * a2.rank, c) for a, c in a1.forms]
        forms += [((zero,) * a1.rank + tuple(a), c) for a, c in a2.forms]
        cone = _cone_of_forms(forms, nf)
        return Arrangement(
            n, rank, central, cone, field=a1.field, forms=forms, labels=labels,
            product_factors=(a1, a2),
        )
    cone = parallel_connection(a1.cone_matroid, a1.infinity, a2.cone_matroid, a2.infinity)
    return Arrangement(
        n, rank, central, cone, labels=labels, product_factors=(a1, a2)
    )


def essentialize(arr: Arrangement) -> Arrangement:
    """Quotient a realized arrangement by the common center of its normals."""
    if arr.forms is None:
        raise ValueError("essentialize needs a realized arrangement")
    rows = [list(a) + [c] for a, c in arr.forms]
    nf = arr.field if isinstance(arr.field, NumberField) else "Q"
    return build_arrangement(rows, field=nf, labels=arr.labels, essentialize=True)

