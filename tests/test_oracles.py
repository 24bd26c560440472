"""The linear oracle of realized input against the circuit oracle, and the
derived matroids against what they wrap."""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oscoh import (
    arrangement_from_cone_circuits,
    build_arrangement,
    catalog,
    product_arrangement,
)
from oscoh.cohom import os_cohomology_dims
from oscoh.exactla import NumberField, field_rank
from oscoh.matroid import parallel_connection, vector_matroid
from oscoh.osalg import aomoto_matrix, nbc_basis

OMEGA = catalog.omega_field()
RANDOM = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def realized(draw, over_omega=None):
    """A valid arrangement of random small integer forms over Q or Q(w),
    central or affine, in 2 or 3 variables."""
    if over_omega is None:
        over_omega = draw(st.booleans())
    ell = draw(st.integers(2, 3))
    n = draw(st.integers(ell, 7))
    central = draw(st.booleans())
    coeff = st.integers(-2, 2)
    rows = []
    for _ in range(n):
        row = [
            OMEGA([draw(coeff), draw(coeff)]) if over_omega else draw(coeff)
            for _ in range(ell + 1)
        ]
        if central:
            row[-1] = 0
        rows.append(row)
    try:
        return build_arrangement(rows, field=OMEGA if over_omega else "Q")
    except ValueError:
        assume(False)


def cone_vectors(arr):
    zero, one = (OMEGA.zero, OMEGA.one) if arr.field == OMEGA else (0, 1)
    return [list(a) + [c] for a, c in arr.forms] + [[zero] * arr.rank + [one]]


def circuit_twin(arr):
    """The same arrangement from its cone circuits, found with
    ``field_rank`` on the exact vectors, on the circuit oracle."""
    circuits = vector_matroid(cone_vectors(arr), field_rank).circuits()
    return arrangement_from_cone_circuits(arr.n, [sorted(c) for c in circuits])


def flats(a):
    """The lattice as levels of (hyperplanes, Moebius value, beta)."""
    return [
        [(f.hyperplanes, f.moebius, f.beta) for f in level]
        for level in a.intersection_lattice().levels
    ]


def nbc_by_definition(arr, q):
    """Independent central q-sets containing no broken circuit C - min C of
    a circuit avoiding infinity."""
    cm, inf = arr.cone_matroid, arr.infinity
    broken = [sorted(c)[1:] for c in cm.circuits() if inf not in c]
    return [
        s
        for s in combinations(range(arr.n), q)
        if cm.rank(s) == len(s)
        and inf not in cm.closure(s)
        and not any(set(b) <= set(s) for b in broken)
    ]


@RANDOM
@given(realized())
def test_linear_oracle_matches_the_circuit_oracle(arr):
    twin = circuit_twin(arr)
    # both are central when infinity is a coloop of the cone
    assert twin.central == (arr.infinity not in arr.cone_matroid.closure(range(arr.n)))
    assert twin.rank == arr.rank
    assert flats(arr) == flats(twin)
    closure, twin_closure = arr.projective_closure()[0], twin.projective_closure()[0]
    dense = [f.hyperplanes for f in closure.dense_edges()]
    assert dense == [f.hyperplanes for f in twin_closure.dense_edges()]
    assert dense == [
        f.hyperplanes
        for level in twin_closure.intersection_lattice().levels[1:]
        for f in level
        if twin_closure.cone_matroid.restriction_connected(f.hyperplanes)
    ]
    for q in range(arr.rank + 1):
        assert nbc_basis(arr, q) == nbc_basis(twin, q) == nbc_by_definition(twin, q)
    for q in range(arr.rank):
        assert aomoto_matrix(arr, q).entries == aomoto_matrix(twin, q).entries


@st.composite
def translated_central(draw):
    """Central integer forms in 2 or 3 variables, and the same forms moved
    to pass through a random integer point instead of the origin."""
    ell = draw(st.integers(2, 3))
    n = draw(st.integers(ell, 6))
    normals = [[draw(st.integers(-2, 2)) for _ in range(ell)] for _ in range(n)]
    point = [draw(st.integers(-3, 3)) for _ in range(ell)]
    try:
        central = build_arrangement([a + [0] for a in normals])
    except ValueError:
        assume(False)
    moved = build_arrangement([a + [-sum(x * t for x, t in zip(a, point))] for a in normals])
    return central, moved


def test_forms_through_a_common_point_are_central():
    # three lines through (1, 1)
    arr = build_arrangement([[1, 0, -1], [0, 1, -1], [1, 1, -2]])
    assert arr.central
    assert [f.hyperplanes for f in arr.dense_edges()] == [
        frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1, 2})
    ]
    rep = os_cohomology_dims(arr, [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)])
    assert rep.dims == (0, 1, 1)
    assert rep.notes == [
        "central, weight sum zero: decone at H_3 (H3)",
        "decone: non-resonant: the dense edges in H_1 (H1) of the closure have non-zero weight (Yuzvinsky)",
    ]


@RANDOM
@given(translated_central(), st.data())
def test_translated_central_forms_answer_like_the_central_ones(pair, data):
    arr, moved = pair
    assert arr.central and moved.central
    assert flats(moved) == flats(arr)
    assert moved.betti_numbers() == arr.betti_numbers()
    for _ in range(3):
        k = [data.draw(st.integers(-3, 3)) for _ in range(arr.n)]
        if data.draw(st.booleans()):
            k[-1] -= sum(k)
        lam = [Fraction(x, data.draw(st.sampled_from([2, 3, 5]))) for x in k]
        rep, rep_moved = os_cohomology_dims(arr, lam), os_cohomology_dims(moved, lam)
        assert rep_moved.dims == rep.dims
        assert rep_moved.notes == rep.notes and rep.notes  # a reduction proved them


@settings(RANDOM, max_examples=15)
@given(realized(over_omega=False), realized(over_omega=False), st.randoms())
def test_parallel_connection_answers_like_the_realized_product(a1, a2, rng):
    linear = product_arrangement(a1, a2).cone_matroid
    glued = parallel_connection(a1.cone_matroid, a1.infinity, a2.cone_matroid, a2.infinity)
    assert glued.n == linear.n
    for _ in range(30):
        s = [e for e in range(linear.n) if rng.random() < 0.3]
        assert glued.rank(s) == linear.rank(s), s
        assert glued.closure(s) == linear.closure(s), s
    top = linear.full_rank - 1
    assert glued.flat_levels(linear.n - 1, top) == linear.flat_levels(linear.n - 1, top)
    # the abstract product of the circuit twins has the realized product's
    # NBC basis and Aomoto matrices
    realized_product = product_arrangement(a1, a2)
    glued_product = product_arrangement(circuit_twin(a1), circuit_twin(a2))
    for q in range(realized_product.rank + 1):
        assert nbc_basis(glued_product, q) == nbc_basis(realized_product, q)
    for q in range(realized_product.rank):
        assert (
            aomoto_matrix(glued_product, q).entries
            == aomoto_matrix(realized_product, q).entries
        )


def test_beta_marks_exactly_the_connected_localizations():
    for name in ("boolean(4)", "ceva3", "example-lstrict", "maclane", "maclane-matroid",
                 "ceva3-section", "maclane-section", "product-example"):
        closure = catalog.get(name).projective_closure()[0]
        for level in closure.intersection_lattice().levels[1:]:
            for f in level:
                assert f.beta >= 0
                assert bool(f.beta) == closure.cone_matroid.restriction_connected(
                    f.hyperplanes
                ), (name, f)


def test_braid_arrangement_A6_betti_numbers_and_nbc_counts():
    rows = []
    for i, j in combinations(range(7), 2):
        row = [0] * 8
        row[i], row[j] = 1, -1
        rows.append(row)
    arr = build_arrangement(rows, essentialize=True)
    # the Poincare polynomial is (1 + t)(1 + 2t)...(1 + 6t)
    poly = [1]
    for k in range(1, 7):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    assert arr.betti_numbers() == poly == [1, 21, 175, 735, 1624, 1764, 720]
    assert [len(nbc_basis(arr, q)) for q in range(7)] == poly
    assert len(arr.intersection_lattice()) == 877


def test_decone_of_a_realized_arrangement_needs_no_circuits(monkeypatch):
    arr = build_arrangement(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, -1, 2, 0]]
    )
    arr.betti_numbers()

    def refuse(*args):
        raise AssertionError("circuit search on a hot path")

    monkeypatch.setattr(type(arr.cone_matroid), "_circuit_masks", refuse)
    d = arr.decone()
    assert [len(nbc_basis(d, q)) for q in range(d.rank + 1)] == d.betti_numbers()
    b = d.betti_numbers()
    assert [aomoto_matrix(d, q).shape for q in range(d.rank)] == list(zip(b, b[1:]))
    monkeypatch.undo()
    twin = arrangement_from_cone_circuits(arr.n - 1, arr.central_circuits())
    for q in range(d.rank + 1):
        assert nbc_basis(d, q) == nbc_basis(twin, q)
    for q in range(d.rank):
        assert aomoto_matrix(d, q).entries == aomoto_matrix(twin, q).entries


def test_linear_oracle_is_exact_past_int64():
    rng = random.Random(8)
    cube = NumberField([-2, 0, 0, 1])

    def pencils(element, count):
        """Forms that are combinations of two of three random rows, with
        coefficients drawn by ``element``: many dependencies, big entries."""
        base = [[element() for _ in range(4)] for _ in range(3)]
        out = []
        for _ in range(count):
            i, j = rng.sample(range(3), 2)
            a, b = element(), element()
            out.append([a * x + b * t for x, t in zip(base[i], base[j])])
        return out

    small = [[7, -5, 0, 0], [0, 5, -3, 0], [7, 0, -3, 0], [3, 5, 7, -1], [7, 5, 0, -1],
             [0, 0, 3, 5], [6, -5, 3, 5], [1, 2, -1, 3]]
    cases = [
        # each form scaled by its own constant near 2**59: the cone vectors
        # fit int64, their products with the annihilator bases do not
        ([[c * x for x in r] for r in small for c in (rng.randint(2**58, 2**59),)], "Q"),
        # 40-bit coefficients make the annihilator bases themselves big
        (pencils(lambda: rng.randint(-(2**40), 2**40), 8), "Q"),
        # Q(w) with 20-bit coefficients: two-row echelon steps past 2**63
        (pencils(lambda: OMEGA([rng.randint(-(2**20), 2**20) for _ in range(2)]), 7), OMEGA),
        # Q(2^(1/3)) with 4-bit coefficients: three-row kernel steps past 2**63
        (pencils(lambda: cube([rng.randint(-16, 16) for _ in range(3)]), 6), cube),
    ]
    for rows, field in cases:
        arr = build_arrangement(rows, field=field)
        twin = circuit_twin(arr)
        assert [[(f.hyperplanes, f.moebius) for f in level] for level in arr.intersection_lattice().levels] == [
            [(f.hyperplanes, f.moebius) for f in level] for level in twin.intersection_lattice().levels
        ]
