"""Resonance varieties, vanishing certificates, sandwich bounds."""

import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oscoh import (
    arrangement_from_circuits,
    build_arrangement,
    catalog,
    generic_section,
    product_arrangement,
    resonance,
)
from oscoh.arrangement import Arrangement
from oscoh.cohom import WeightVector, modN_cohomology_ranks, os_cohomology_dims, os_cohomology_dims_stack
from oscoh.exactla import STACK_CELLS, NotPrimeError, bareiss_rank, poincare_product
from oscoh.fileio import read_arrangement, write_arrangement
from oscoh.matroid import add_coloop
from oscoh.osalg import CELL_BUDGET, aomoto_matrix
from oscoh.resonance import (
    _first_offset,
    _lower_dims_options,
    _sieve,
    _translate_chunks,
    _translate_count,
    betti_bounds,
    edge_weights,
    in_W_and_V,
    resonance_membership,
    yuzvinsky_vanishing,
)

from conftest import CATALOG_NAMES, affine_lines, braid_rows, empty_rank_cache, random_weight_vector

CEVA_WEIGHTS = tuple(Fraction(x, 3) for x in (1, 1, 1, 1, 1, 1, -2, -2, -2))
MACLANE_SECTION_WEIGHTS = tuple(Fraction(x, 3) for x in (1, 0, -1, 1, -1, -1, 1, 0))
LSTRICT_WEIGHTS = tuple(Fraction(x, 2) for x in (1, 0, 0, 1, 1, 0, 1))


def three_concurrent_lines():
    return build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, 0]])


# ---------------------------------------------------------------------------
# dense-edge weights


def test_edge_weights_of_central_pencil():
    arr = three_concurrent_lines()
    lam = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    edges = edge_weights(arr, lam)
    total = Fraction(31, 30)
    by_edge = {tuple(sorted(e.hyperplanes)): e for e in edges}
    assert set(by_edge) == {(0,), (1,), (2,), (3,), (0, 1, 2)}
    assert by_edge[(0,)].weight == Fraction(1, 2)
    assert by_edge[(0, 1, 2)].weight == total  # the pencil's center
    # the hyperplane at infinity carries minus the sum of the weights
    assert by_edge[(3,)].weight == -total
    assert by_edge[(3,)].labels == ("H_inf",)
    assert all(e.codim <= arr.rank for e in edges)


# edge_weights of the decone of A_3 at H_6, as they were before a decone's
# closure became the arrangement it came from: {hyperplanes: (codim, weight)}
A3_DECONE_EDGES = {
    (1, 2, 3, 4, 5): {
        (0,): (1, "1"), (1,): (1, "2"), (2,): (1, "3"), (3,): (1, "4"), (4,): (1, "5"),
        (5,): (1, "-15"), (0, 1, 3): (2, "7"), (0, 2, 4): (2, "9"),
        (1, 2, 5): (2, "-10"), (3, 4, 5): (2, "-6"),
    },
    ("1/2", "-1/3", 0, 1, "5/7"): {
        (0,): (1, "1/2"), (1,): (1, "-1/3"), (2,): (1, "0"), (3,): (1, "1"), (4,): (1, "5/7"),
        (5,): (1, "-79/42"), (0, 1, 3): (2, "7/6"), (0, 2, 4): (2, "17/14"),
        (1, 2, 5): (2, "-31/14"), (3, 4, 5): (2, "-1/6"),
    },
}


@pytest.mark.parametrize("lam", sorted(A3_DECONE_EDGES, key=str))
def test_edge_weights_of_a_decone_read_the_arrangement_it_came_from(lam):
    a3 = build_arrangement(braid_rows(3))
    d = a3.decone()
    assert d.projective_closure() == (a3, d.n)
    edges = edge_weights(d, tuple(Fraction(x) for x in lam))
    got = {tuple(sorted(e.hyperplanes)): (e.codim, str(e.weight)) for e in edges}
    assert got == A3_DECONE_EDGES[lam]
    # infinity is H_n of A_3 and carries its label, not H_inf
    for e in edges:
        assert e.labels == tuple(a3.labels[i] for i in sorted(e.hyperplanes))
    assert ("H6",) in {e.labels for e in edges}


EDGE_ARRANGEMENTS = {
    **{name: (lambda name=name: catalog.get(name)) for name in CATALOG_NAMES},
    **{f"A{l} decone": (lambda l=l: build_arrangement(braid_rows(l)).decone()) for l in (3, 4, 5)},
}
_EDGE_BUILT: dict = {}


@st.composite
def edge_arrangements(draw):
    """A catalog entry, a decone of A_3-A_5, or 3-6 random affine lines."""
    name = draw(st.sampled_from([*EDGE_ARRANGEMENTS, "random lines"]))
    if name in EDGE_ARRANGEMENTS:
        return _EDGE_BUILT.setdefault(name, EDGE_ARRANGEMENTS[name]())
    return draw(affine_lines())


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    edge_arrangements(),
    st.sampled_from([3, 50, 2**63 - 1, 2**70]),
    st.sampled_from([1, 2, 7, 2**61 - 1]),
    st.sampled_from([2, 5, 2**31 - 1]),
    st.data(),
)
def test_edge_weights_are_the_sums_over_each_edge(arr, size, N, p, data):
    # An edge of the closure weighs the sum of lam = k/N over its
    # hyperplanes, H_inf weighing -sum lam; at |k| near 2**63 most such
    # sums leave int64.  The mod-p edge test of yuzvinsky_vanishing at k
    # fails exactly at the edges whose integer weight p divides.
    k = data.draw(st.lists(st.integers(-size, size), min_size=arr.n, max_size=arr.n))
    closure = arr.projective_closure()[0]
    flats = [f for f in closure.dense_edges() if f.codim <= arr.rank]

    def reference(w):
        full = list(w) + [-sum(w)]
        return [sum((full[i] for i in f.hyperplanes), Fraction(0)) for f in flats]

    lam = [Fraction(x, N) for x in k]
    labels = [tuple(closure.labels[i] for i in f.sorted_hyperplanes) for f in flats]
    got = [(e.hyperplanes, e.codim, e.weight, e.labels) for e in edge_weights(arr, lam)]
    assert got == [(f.hyperplanes, f.codim, w, ls) for f, w, ls in zip(flats, reference(lam), labels)]
    failures = yuzvinsky_vanishing(arr, k, p).failures
    assert [e.hyperplanes for e in failures] == [
        f.hyperplanes for f, w in zip(flats, reference(k)) if w % p == 0
    ]


def built_closure_edges(arr):
    """Proper dense edges of the projective closure from a closure lattice
    built in full: the cone matroid plus a coloop, walked to its center."""
    closure = Arrangement(arr.n + 1, arr.rank + 1, True, add_coloop(arr.cone_matroid))
    return [f for f in closure.dense_edges() if f.codim <= arr.rank]


def read_back(name, tmp_path):
    path = tmp_path / f"{name}.json"
    write_arrangement(catalog.get(name), path)
    return read_arrangement(path)


def from_rows(rows):
    return lambda tmp_path: build_arrangement(rows)


def from_catalog(name):
    return lambda tmp_path: catalog.get(name)


CLOSURE_EDGE_INPUTS = {
    **{name: from_catalog(name) for name in CATALOG_NAMES},
    **{f"boolean({n})": from_catalog(f"boolean({n})") for n in range(1, 6)},
    **{f"A{l}": from_rows(braid_rows(l)) for l in (2, 3, 4, 5)},
    **{f"A{l} decone": (lambda tmp_path, l=l: build_arrangement(braid_rows(l)).decone()) for l in (2, 3, 4, 5)},
    "boolean(4) decone, central": lambda tmp_path: catalog.get("boolean(4)").decone(),
    "rank 1 central": from_rows([[1, 0]]),
    "rank 1 affine": from_rows([[1, 0], [1, -1]]),
    "central product": lambda tmp_path: product_arrangement(three_concurrent_lines(), catalog.get("boolean(2)")),
    "affine product": lambda tmp_path: product_arrangement(
        build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, -1]]), catalog.get("ceva3-section")
    ),
    "abstract central product": lambda tmp_path: product_arrangement(
        catalog.get("maclane-matroid"), catalog.get("boolean(1)")
    ),
    "generic section of A4": lambda tmp_path: generic_section(build_arrangement(braid_rows(4)), 2),
    "circuits with rank 3": lambda tmp_path: arrangement_from_circuits(
        6, [[0, 1, 2], [2, 3, 4], [4, 5, 0]], rank=3
    ),
    "ceva3-section read back": lambda tmp_path: read_back("ceva3-section", tmp_path),
    "maclane-section read back": lambda tmp_path: read_back("maclane-section", tmp_path),
}


@pytest.mark.parametrize("name", CLOSURE_EDGE_INPUTS)
def test_closure_dense_edges_match_the_built_closure_lattice(name, tmp_path):
    # the edges come from this lattice plus H_inf, one cone walk, or the
    # lattice a decone came from; compared as whole Flats, in order
    arr = CLOSURE_EDGE_INPUTS[name](tmp_path)
    assert arr.closure_dense_edges() == built_closure_edges(arr)


@pytest.mark.parametrize("name", CLOSURE_EDGE_INPUTS)
def test_closure_meets_name_the_dense_edge_of_each_pair(name, tmp_path):
    # against the codim-2 flats of a closure lattice built in full: two
    # hyperplanes meet at a proper dense edge only where a third is on
    # their flat, and a hyperplane meets itself in its own edge
    arr = CLOSURE_EDGE_INPUTS[name](tmp_path)
    closure = Arrangement(arr.n + 1, arr.rank + 1, True, add_coloop(arr.cone_matroid))
    index = {f.hyperplanes: e for e, f in enumerate(arr.closure_dense_edges())}
    want = np.diag([index[frozenset({h})] for h in range(arr.n + 1)])
    for f in closure.intersection_lattice().levels[2]:
        for i, j in itertools.permutations(f.hyperplanes, 2):
            want[i, j] = index.get(f.hyperplanes, -1)
    assert arr.closure_meets().tolist() == want.tolist()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(affine_lines())
def test_closure_dense_edges_of_random_affine_lines(arr):
    assert arr.closure_dense_edges() == built_closure_edges(arr)


def test_edge_weight_integer_predicates():
    # an edge of weight 0 is a nonnegative integer (out of W) and not a
    # positive one (not out of V); one of weight 1 is both
    arr = three_concurrent_lines()
    edges = edge_weights(arr, (1, 1, -2))
    center = next(e for e in edges if len(e.hyperplanes) == 3)
    one = next(e for e in edges if e.hyperplanes == {0})
    assert center.weight == 0 and one.weight == 1
    assert in_W_and_V([center]) == (False, True)
    assert in_W_and_V([one]) == (False, False)
    assert in_W_and_V([]) == (True, True)


def test_in_W_and_in_V_on_pencil():
    arr = three_concurrent_lines()
    generic = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    assert in_W_and_V(edge_weights(arr, generic)) == (True, True)
    # zero edge weight at the center: excluded from W but not from V
    balanced = (Fraction(1, 2), Fraction(1, 2), Fraction(-1))
    assert in_W_and_V(edge_weights(arr, balanced)) == (False, True)
    # positive integer weight on a hyperplane: excluded from both
    assert in_W_and_V(edge_weights(arr, (1, 1, -2))) == (False, False)


def test_W_is_contained_in_V():
    rng = random.Random(12)
    for name in ("ceva3", "example-lstrict", "maclane"):
        arr = catalog.get(name)
        for _ in range(10):
            lam = random_weight_vector(rng, arr.n)
            w, v = in_W_and_V(edge_weights(arr, lam))
            if w:
                assert v, (name, lam)


def test_edge_weights_require_no_field():
    # abstract matroid input works: weights are combinatorial data
    arr = catalog.get("maclane-matroid")
    edges = edge_weights(arr, tuple(Fraction(1, 3) for _ in range(8)))
    assert any(len(e.hyperplanes) == 1 for e in edges)


# ---------------------------------------------------------------------------
# vanishing certificates mod p


def test_yuzvinsky_certificate_holds_for_generic_prime():
    arr = catalog.get("ceva3")
    rep = yuzvinsky_vanishing(arr, (1,) * 9, 11)
    assert rep.holds
    assert rep.failures == []
    assert rep.expected_top == 0  # central arrangement: zero Euler number
    assert rep.cohomology.dims == (0, 0, 0, 0)
    assert rep.confirmed


def test_yuzvinsky_certificate_fails_for_resonant_prime():
    arr = catalog.get("ceva3")
    rep = yuzvinsky_vanishing(arr, (1,) * 9, 3)
    assert not rep.holds
    # 12 triple points, the center and the infinity edge all have weight 0 mod 3
    assert len(rep.failures) == 14
    assert all(int(e.weight) % 3 == 0 for e in rep.failures)


def test_yuzvinsky_rejects_composite_modulus():
    with pytest.raises(NotPrimeError):
        yuzvinsky_vanishing(catalog.get("ceva3"), (1,) * 9, 6)


def test_yuzvinsky_on_affine_section():
    arr = catalog.get("maclane-section")
    rep = yuzvinsky_vanishing(arr, (1,) * 8, 11)
    assert rep.holds
    assert rep.expected_top == 13  # |Euler characteristic| of the section
    assert rep.cohomology.dims == (0, 0, 13)
    assert rep.confirmed


# ---------------------------------------------------------------------------
# resonance membership


def test_resonance_membership_of_pencil_weights():
    member, dim = resonance_membership(catalog.get("ceva3"), CEVA_WEIGHTS, 1)
    assert member and dim == 1
    member2, dim2 = resonance_membership(catalog.get("ceva3"), CEVA_WEIGHTS, 1, m=2)
    assert not member2 and dim2 == 1


def test_resonance_membership_trivial_for_boolean():
    member, dim = resonance_membership(catalog.get("boolean(3)"), (1, 2, 3), 1)
    assert not member and dim == 0


# ---------------------------------------------------------------------------
# translate enumeration


def translates(lam, box, shift=None):
    """The enumerated translates lam + m, in order, as tuples (with
    ``shift``, those with sum(m) == shift)."""
    return [
        tuple(l + x for l, x in zip(lam, m))
        for chunk in _translate_chunks(len(lam), box, shift)
        for m in chunk.tolist()
    ]


def test_translates_cover_the_box():
    lam = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    full = translates(lam, 1)
    assert len(full) == 27
    assert all(all(abs(mu - l) <= 1 for mu, l in zip(t, lam)) for t in full)
    # itertools.product order, so witnesses are the first in this order
    assert full == [
        tuple(l + x for l, x in zip(lam, m))
        for m in itertools.product((-1, 0, 1), repeat=3)
    ]


def test_translates_with_sum_constraint():
    lam = (Fraction(1, 3),) * 3
    sliced = translates(lam, 1, -1)
    assert len(sliced) == 6
    assert all(sum(t) == 0 for t in sliced)
    assert all(all(abs(mu - l) <= 1 for mu, l in zip(t, lam)) for t in sliced)
    # off the lattice: no translate of weights summing to 1/2 sums to zero
    arr = three_concurrent_lines()
    half = (Fraction(1, 2), 0, 0)
    assert _translate_count(arr, WeightVector(half).k, 2, 1) == 0
    assert _lower_dims_options(arr, half, 1) == {(0, 0, 0): None}


def test_translate_chunks_are_capped():
    chunks = list(_translate_chunks(9, 1))
    assert len(chunks) > 1
    assert all(c.size <= STACK_CELLS for c in chunks)
    assert sum(len(c) for c in chunks) == 3**9
    # the sieve keeps exactly the rows with a zero edge through every
    # closure hyperplane, and says which edges are zero there, an edge
    # weighing the sum of the closure coordinates (m', -sum(m')) over its
    # hyperplanes, found here in int64; the last four boxes need int16 and
    # int32 sums, and their first chunks reach sums past int8 and int16
    rng = np.random.default_rng(5)
    for n, box, shift in [(4, 2, None), (5, 2, 3), (4, 64, None), (5, 40, -7), (4, 20000, None), (5, 10000, -40000)]:
        free = n - (shift is not None)
        for chunk in itertools.islice(_translate_chunks(n, box, shift), 3):
            assert shift is None or (chunk.sum(axis=1, dtype=np.int64) == shift).all()
            m = chunk[:, :free].astype(np.int64)
            closure = np.concatenate([m, -m.sum(axis=1)[:, None]], axis=1)
            for _ in range(4):
                inc = rng.random((6, free + 1)) < 0.4
                inc[rng.integers(0, 6, free + 1), np.arange(free + 1)] = True
                values = closure @ inc.T.astype(np.int64)
                target = values[rng.choice(rng.integers(0, len(chunk), 2), 6), np.arange(6)]
                vanish = values == target
                want = np.flatnonzero(np.all([vanish[:, through].any(axis=1) for through in inc.T], axis=0))
                (got_chunk, got, got_vanish), = _sieve([chunk], inc, target.astype(np.int64), box)
                assert got_chunk is chunk and got.tolist() == want.tolist(), (n, box, shift)
                assert (got_vanish == vanish[want].T).all()


def test_first_offset_is_none_exactly_where_the_slice_misses_the_box():
    # |shift| = n * box itself leaves one offset, all coordinates at one end
    for n, box in itertools.product((1, 2, 4), (0, 1, 2, 2**63, 10**30)):
        for shift in (None, 0, 1, -1, n * box - 1, n * box, n * box + 1, -n * box, -n * box - 1):
            m = _first_offset(n, box, shift)
            if shift is not None and abs(shift) > n * box:
                assert m is None, (n, box, shift)
                continue
            assert len(m) == n and all(abs(x) <= box for x in m), (n, box, shift)
            assert shift is None or sum(m) == shift
            if abs(shift or 0) == n * box:
                assert m == [-box if shift is None or shift < 0 else box] * n
            if box <= 2:
                assert m == next(_translate_chunks(n, box, shift))[0].tolist()


# ---------------------------------------------------------------------------
# sandwich bounds


def test_bounds_close_for_lstrict_weights():
    rep = betti_bounds(catalog.get("example-lstrict"), LSTRICT_WEIGHTS, box=1)
    assert rep.lower == (0, 0, 4, 4)
    assert rep.upper == (0, 0, 4, 4)
    assert rep.exact == (True, True, True, True)
    assert rep.N == 2
    assert any("not a certified supremum" in n for n in rep.convention_notes)


def test_bounds_for_ceva_weights():
    rep = betti_bounds(catalog.get("ceva3"), CEVA_WEIGHTS, box=0)
    assert rep.lower == (0, 1, 11, 10)
    assert rep.upper == (0, 2, 13, 11)
    assert rep.exact == (True, False, False, False)
    assert rep.N == 3


def test_bounds_lower_never_exceeds_upper():
    rng = random.Random(23)
    for name in ("ceva3-section", "maclane-section"):
        arr = catalog.get(name)
        for _ in range(3):
            lam = random_weight_vector(rng, arr.n, denominators=(2, 3))
            rep = betti_bounds(arr, lam, box=0)
            assert all(a <= b for a, b in zip(rep.lower, rep.upper)), (name, lam)


def test_bounds_integer_weights_are_exact():
    # integer weights: the local system is trivial, Betti numbers are exact
    rep = betti_bounds(three_concurrent_lines(), (1, 2, 3), box=1)
    assert rep.N == 1
    assert rep.lower == rep.upper == (1, 3, 2)
    assert rep.exact == (True, True, True)


def test_bounds_lower_grows_with_box():
    arr = catalog.get("example-lstrict")
    r0 = betti_bounds(arr, LSTRICT_WEIGHTS, box=0)
    r1 = betti_bounds(arr, LSTRICT_WEIGHTS, box=1)
    assert all(a <= b for a, b in zip(r0.lower, r1.lower))
    assert r0.upper == r1.upper  # the upper bound does not depend on the box


def test_bounds_translate_budget_counts_factors_of_products():
    b4 = catalog.get("boolean(4)")
    # 9**3 zero-sum translates per factor, where the product would have 9**7
    rep = betti_bounds(product_arrangement(b4, b4), [Fraction(1, 2)] * 8, box=4)
    assert rep.lower == rep.upper == (0,) * 9
    # 3**12 + 3**12 zero-sum translates: each factor is under the budget
    b13 = catalog.get("boolean(13)")
    lam = ([Fraction(1, 2)] * 12 + [0]) * 2
    with pytest.raises(ValueError, match="1062882 candidate translates"):
        betti_bounds(product_arrangement(b13, b13), lam)


def test_bounds_product_factorization_consistent():
    prod = catalog.get("product-example")
    f1, f2 = prod.product_factors
    lam1 = CEVA_WEIGHTS
    lam2 = tuple(Fraction(x, 3) for x in (1, 0, -1, 1, -1, -1, 1, 0))
    rep = betti_bounds(prod, lam1 + lam2, box=0)
    d1 = os_cohomology_dims(f1, lam1).dims
    d2 = os_cohomology_dims(f2, lam2).dims
    conv = [0] * (len(d1) + len(d2) - 1)
    for i, a in enumerate(d1):
        for j, b in enumerate(d2):
            conv[i + j] += a * b
    assert all(a >= c for a, c in zip(rep.lower, conv))
    assert rep.lower[3] >= 13


def test_bounds_report_to_dict():
    rep = betti_bounds(three_concurrent_lines(), (1, 2, 3), box=1)
    doc = rep.to_dict()
    assert doc["N"] == 1
    assert doc["box"] == 1
    assert len(doc["rows"]) == 3


def test_bounds_witnesses_reach_the_lower_bounds():
    cases = [
        (catalog.get("example-lstrict"), LSTRICT_WEIGHTS, 1),
        (catalog.get("ceva3"), CEVA_WEIGHTS, 1),
        (catalog.get("ceva3-section"), CEVA_WEIGHTS, 1),
        # a product: the witness is the pair of factor translates
        (
            product_arrangement(
                build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, -1]]),
                catalog.get("ceva3-section"),
            ),
            (Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3)) + CEVA_WEIGHTS,
            1,
        ),
        (three_concurrent_lines(), (1, 2, 3), 1),  # integral: the zero weight
    ]
    for arr, lam, box in cases:
        rep = betti_bounds(arr, lam, box=box)
        assert len(rep.witness) == arr.rank + 1
        for q, (low, w) in enumerate(zip(rep.lower, rep.witness)):
            if low == 0:
                assert w is None
                continue
            assert len(w) == arr.n
            if rep.N > 1:  # an integer translate of the weights, in the box
                assert all((x - l).denominator == 1 for x, l in zip(w, lam))
                assert all(abs(x - l) <= box for x, l in zip(w, lam))
            assert os_cohomology_dims(arr, w).dims[q] == low
        doc = rep.to_dict()
        assert [r["witness"] for r in doc["rows"]] == [
            None if w is None else [str(x) for x in w] for w in rep.witness
        ]


def test_bounds_at_a_modulus_past_2_63_with_box_0():
    # the translates k + N*m are formed in Python integers: N*m needs N
    # itself even when every offset m is 0
    p = 2**89 - 1
    arr = catalog.get("example-lstrict")
    lam = (Fraction(1, p), 0, 0, 0, 0, 0, Fraction(-1, p))
    rep = betti_bounds(arr, lam, box=0)
    assert rep.lower == os_cohomology_dims(arr, lam).dims
    assert rep.upper == modN_cohomology_ranks(arr, (1, 0, 0, 0, 0, 0, -1), p).dims


def test_bounds_skip_a_zero_sum_slice_out_of_reach():
    # no offset in the box brings a weight sum of 2**70 + 1 to zero, so no
    # translate is enumerated and the lower bound is all zeros
    lam = (2**70 + Fraction(1, 2), Fraction(1, 2), 0, 0)
    arr = catalog.get("boolean(4)")
    rep = betti_bounds(arr, lam, box=1)
    assert rep.lower == (0,) * 5 and rep.witness == (None,) * 5
    assert rep.upper == modN_cohomology_ranks(arr, (2**71 + 1, 1, 0, 0), 2).dims
    assert list(_translate_chunks(4, 1, -(2**70 + 1))) == []
    # undecided: ceva3's weights sum to 100, which a box of radius 3 moves
    # by at most 27, so that box is answered as box 2 is, not refused for
    # its 7**8 offsets
    arr = catalog.get("ceva3")
    lam = (CEVA_WEIGHTS[0] + 100,) + CEVA_WEIGHTS[1:]
    for box in (2, 3):
        rep = betti_bounds(arr, lam, box)
        assert rep.lower == (0, 0, 0, 0) and rep.witness == (None,) * 4
        assert rep.upper == (0, 2, 13, 11)


def test_bounds_size_only_the_complexes_they_rank():
    b13 = catalog.get("boolean(13)")
    prod = product_arrangement(b13, catalog.get("boolean(13)"))
    # the product's own complex is over the cell budget (its degree-3
    # matrix is 2600 x 14950 cells), but it is never built: each factor's
    # weights sum to 13/2, so each factor's local system is acyclic, no
    # translate is walked and nothing is ranked
    start = time.process_time()
    rep = betti_bounds(prod, [Fraction(1, 2)] * 26)
    assert rep.lower == rep.upper == (0,) * 27
    assert time.process_time() - start < 10
    assert "lattice" not in prod._cache and ("nbc", 1) not in prod._cache
    assert CELL_BUDGET > 1624 * 1764  # the largest Aomoto matrix of A_6


SLICE_INPUTS = [f"boolean({n})" for n in range(1, 7)] + ["A_3", "example-lstrict"]


@st.composite
def central_weights(draw):
    """A central input of at most 7 hyperplanes, integer weights k over N
    in 2..15, and a box of 0 to 2.  Half the draws move the last weight so
    that the weight sum is an integer within two of the box's reach."""
    name = draw(st.sampled_from(SLICE_INPUTS))
    arr = build_arrangement(braid_rows(3)) if name == "A_3" else catalog.get(name)
    N, box = draw(st.integers(2, 15)), draw(st.integers(0, 2))
    k = draw(st.lists(st.integers(-N, N), min_size=arr.n, max_size=arr.n))
    if draw(st.booleans()):
        k[-1] += N * draw(st.integers(-arr.n * box - 2, arr.n * box + 2)) - sum(k)
    return arr, tuple(k), N, box


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(central_weights())
# past any scan: weight sums no translate in a box of radius 2**63 cancels,
# one off the integers and one beyond 4 * 2**63
@example((catalog.get("boolean(4)"), (1, 0, 0, 0), 2, 2**63))
@example((catalog.get("boolean(4)"), (2**71, 0, 0, 0), 2, 2**63))
def test_the_translate_count_walks_the_box_exactly_where_a_scan_finds_a_zero_sum(case):
    # the scan reads every offset m of the box: is some sum(k/N + m) zero?
    arr, k, N, box = case
    found = False
    if box <= 2:
        sums = np.indices((2 * box + 1,) * arr.n).reshape(arr.n, -1).sum(axis=0) - arr.n * box
        found = bool((sum(k) + N * sums == 0).any())
    assert _translate_count(arr, k, N, box) == ((2 * box + 1) ** (arr.n - 1) if found else 0)


def test_a_bounded_rank_cache_keeps_the_box_answers(monkeypatch):
    # A bound below one box's ranks empties the rank family between the
    # chunks of the box; the options and witnesses stay those of the
    # unbounded cache, and after each call the family holds at most the
    # bound plus the ranks that call wrote (rank + 1 per entry).  The
    # non-resonance certificate answers all but about 170 of the box's
    # 6,561 translates, so the bound is 60 ranks (20 rows).
    from oscoh import cohom

    arr = catalog.get("maclane-section")
    lam = tuple(Fraction(x, 3) for x in (1, 0, -1, 1, -1, -1, 1, 0))
    monkeypatch.setattr(resonance, "STACK_CELLS", 100 * arr.n)  # 100 translates a chunk
    empty_rank_cache(arr)
    want = _lower_dims_options(arr, lam, 1)
    sizes = []
    real = cohom._ranks

    def recorded(a, K, p):
        out = real(a, K, p)
        sizes.append((len(a._cache["ranks"]) * (a.rank + 1), len(K) * (a.rank + 1)))
        return out

    monkeypatch.setattr(cohom, "RANK_CACHE_ENTRIES", 60)
    monkeypatch.setattr(cohom, "_ranks", recorded)
    empty_rank_cache(arr)
    assert _lower_dims_options(arr, lam, 1) == want
    assert len(sizes) > 1 and all(held <= 60 + wrote for held, wrote in sizes)
    assert any(b[0] < a[0] for a, b in zip(sizes, sizes[1:]))  # it was emptied


# ---------------------------------------------------------------------------
# translate boxes ranked as stacks, against Bareiss ranks per translate

BOX = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def bareiss_dims(arr, nu):
    """Weighted cohomology dimensions b_q - r_q - r_(q-1) at the weights
    nu, each rank r_q by Bareiss on the evaluated Aomoto matrix."""
    k = WeightVector(nu).k
    ranks = [bareiss_rank(aomoto_matrix(arr, q).evaluate(k)) for q in range(arr.rank + 1)]
    betti = arr.betti_numbers()
    return tuple(betti[q] - ranks[q] - (ranks[q - 1] if q else 0) for q in range(arr.rank + 1))


def per_translate_options(rows, lam, box):
    """First translate per dimension vector, from a separately built copy of
    the arrangement, ranking every translate's matrices by Bareiss."""
    arr = build_arrangement(rows)
    out = {}
    for m in itertools.product(range(-box, box + 1), repeat=len(lam)):
        nu = tuple(l + x for l, x in zip(lam, m))
        if arr.central and sum(nu) != 0:
            continue
        out.setdefault(bareiss_dims(arr, nu), nu)
    return out


def stacked_options(rows, lam, box):
    opts = _lower_dims_options(build_arrangement(rows), tuple(lam), box)
    return {d: w for d, w in opts.items() if w is not None}


@st.composite
def arrangement_rows(draw, dim, central, sizes):
    """Rows of a small essential arrangement with distinct hyperplanes,
    central or affine as asked."""
    coef = st.integers(-2, 2)
    const = st.just(0) if central else coef
    n = draw(sizes)
    rows = draw(
        st.lists(
            st.tuples(*[coef] * dim, const).filter(lambda r: any(r[:-1])),
            min_size=n, max_size=n,
        )
    )
    try:
        arr = build_arrangement([list(r) for r in rows])
    except ValueError:
        assume(False)
    assume(arr.central == central)
    return [list(r) for r in rows]


def weights(draw, n, dens):
    d = draw(dens)
    return [Fraction(draw(st.integers(-2 * d, 2 * d)), d) for _ in range(n)]


@BOX
@given(arrangement_rows(2, False, st.integers(3, 5)), st.data())
def test_box_dims_match_per_translate_dims_on_affine_arrangements(rows, data):
    lam = weights(data.draw, len(rows), st.sampled_from([2, 3, 4, 5]))
    assert stacked_options(rows, lam, 1) == per_translate_options(rows, lam, 1)


@BOX
@given(arrangement_rows(3, True, st.integers(4, 6)), st.data())
def test_box_dims_match_per_translate_dims_on_the_zero_sum_slice(rows, data):
    lam = weights(data.draw, len(rows), st.sampled_from([2, 3, 5]))
    lam[-1] += data.draw(st.integers(-1, 1)) - sum(lam)  # an integral sum
    arr = build_arrangement(rows)
    got = {d: w for d, w in _lower_dims_options(arr, tuple(lam), 1).items() if w is not None}
    assert got == per_translate_options(rows, lam, 1)
    # every translate on the slice sums to zero, so its dims come from the
    # decone's complex: the full complex is never ranked
    assert not arr._cache.get("ranks")


@BOX
@given(arrangement_rows(2, False, st.integers(3, 4)), st.data())
def test_box_dims_with_entries_past_int64_take_the_exact_wide_path(rows, data):
    big = data.draw(st.integers(2**62, 2**66))
    lam = [Fraction(data.draw(st.integers(-big, big)), big) for _ in rows]
    lam[0] = Fraction(1, big)  # so the common denominator is big
    seen = []
    real = resonance.os_cohomology_dims_stack

    def recorded(arr, K):
        seen.append(K.dtype)
        return real(arr, K)

    with mock.patch.object(resonance, "os_cohomology_dims_stack", recorded):
        got = stacked_options(rows, lam, 1)
    assert seen and all(dt == object for dt in seen)
    assert got == per_translate_options(rows, lam, 1)


# ---------------------------------------------------------------------------
# the box answered from its integral dense edges, against every translate


def brute_options(arr, lam, box):
    """Reference for ``_lower_dims_options``: every translate in the box, in
    itertools.product order (on a central arrangement only those summing to
    zero), through ``os_cohomology_dims_stack``, keeping the first of each
    dims vector; a product per factor, its options paired in order."""
    out = {}
    if arr.product_factors is not None:
        a1, a2 = arr.product_factors
        o1, o2 = brute_options(a1, lam[: a1.n], box), brute_options(a2, lam[a1.n :], box)
        for (d1, w1), (d2, w2) in itertools.product(o1.items(), o2.items()):
            out.setdefault(poincare_product(d1, d2), None if w1 is None or w2 is None else w1 + w2)
    else:
        wv = WeightVector(lam)
        m = np.array(list(itertools.product(range(-box, box + 1), repeat=arr.n)), dtype=object)
        if arr.central:
            m = m[m.sum(axis=1) == -sum(lam)]
        if len(m):
            dims = os_cohomology_dims_stack(arr, np.array(wv.k, dtype=object) + wv.N * m)
            for mi, d in zip(m.tolist(), map(tuple, dims.tolist())):
                if d not in out:
                    out[d] = tuple(l + x for l, x in zip(lam, mi))
    out.setdefault((0,) * (arr.rank + 1), None)
    return out


BOX_INPUTS = CATALOG_NAMES + [f"boolean({n})" for n in (1, 2, 3, 5, 6)] + ["lines", "product", "coloop"]


@st.composite
def box_cases(draw):
    """An arrangement (the catalog, boolean(1-6), random affine lines, a
    small product, a central plane arrangement whose last plane is a
    coloop), a box and weights: box 2 only up to 6 hyperplanes, and a
    common denominator past 2**63 only at box 0.  Central weights mostly
    get an integral sum, so that the zero-sum slice is not empty."""
    name = draw(st.sampled_from(BOX_INPUTS))
    if name == "lines":
        arr = draw(affine_lines())
    elif name == "product":
        arr = product_arrangement(build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, -1]]), catalog.get("boolean(2)"))
    elif name == "coloop":
        arr = build_arrangement([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]])
    else:
        arr = catalog.get(name)
    box = draw(st.integers(0, 2 if arr.n <= 6 else 1))
    d = draw(st.sampled_from([2, 2, 3, 3, 4, 5, 6] + ([2**64 + 13] if box == 0 else [])))
    lam = [Fraction(draw(st.integers(-2 * d, 2 * d)), d) for _ in range(arr.n)]
    if arr.central and draw(st.integers(0, 3)):
        lam[-1] += draw(st.integers(-1, 1)) - sum(lam)
    return arr, tuple(lam), box


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much]
)
@given(box_cases())
# two pairs of parallel lines: their dense edges lie on H_inf
@example((build_arrangement([[1, 0, 0], [1, 0, -1], [0, 1, 0], [0, 1, -1]]), (-1, -1, -1, Fraction(1, 2)), 1))
# weights summing to -2: the last offset is 1 - m_1 on the slice, at most the box
@example((catalog.get("boolean(2)"), (Fraction(-1, 2), Fraction(-3, 2)), 1))
# a common denominator past 2**63: integrality is tested in Python integers
@example((catalog.get("example-lstrict"), (Fraction(1, 2**89 - 1),) + (0,) * 5 + (Fraction(-1, 2**89 - 1),), 0))
# the README weights: the linking certificate answers all but a few
# resonant translates of each rank-2 (decone of the) box
@example((catalog.get("ceva3"), CEVA_WEIGHTS, 1))
@example((catalog.get("ceva3-section"), CEVA_WEIGHTS, 1))
@example((catalog.get("maclane-section"), MACLANE_SECTION_WEIGHTS, 1))
# (n + 1) * box = 128, past int8: two parallel lines and a third, sieved
# in int16 over 65**3 translates
@example((build_arrangement([[1, 0, 0], [1, 0, -1], [0, 1, 0]]), (Fraction(1, 2), Fraction(1, 3), 0), 32))
# (n + 1) * box = 32768, past int16: boolean(1)'s zero-sum slice, one offset
@example((catalog.get("boolean(1)"), (3,), 2**14))
def test_box_options_match_every_translate_ranked(case):
    # options, witnesses and their order: the order picks betti_bounds'
    # witness among options reaching the same lower bound
    arr, lam, box = case
    assert list(_lower_dims_options(arr, lam, box).items()) == list(brute_options(arr, lam, box).items())


@pytest.mark.parametrize(
    "name, lam",
    [
        ("boolean(6)", tuple(Fraction(x, 5) for x in (1, 2, -1, 3, -2, -3))),
        ("example-lstrict", tuple(Fraction(x, 3) for x in (1, 1, 1, -1, -1, -1, 0))),
    ],
)
def test_a_decided_box_ranks_no_translate(name, lam, monkeypatch):
    # every hyperplane of the closure of boolean(6)'s decone lies on no
    # integral edge at these weights, and one such hyperplane does for
    # example-lstrict: the theorem's value stands for the box, and no
    # translate is ranked, over Q or mod N
    from oscoh import cohom

    arr = catalog.get(name)
    want = brute_options(arr, lam, 1)
    stacks, fields = [], []
    real_stack, real_ranks = resonance.os_cohomology_dims_stack, cohom._ranks

    def stack(a, K):
        stacks.append(len(K))
        return real_stack(a, K)

    def ranks(a, K, p):
        fields.append(p)
        return real_ranks(a, K, p)

    monkeypatch.setattr(resonance, "os_cohomology_dims_stack", stack)
    monkeypatch.setattr(cohom, "_ranks", ranks)
    empty_rank_cache(arr)
    rep = betti_bounds(arr, lam, box=1)
    assert stacks == []
    assert None not in fields  # nothing is ranked over Q
    assert rep.lower == tuple(max(d[q] for d in want) for q in range(arr.rank + 1))
    assert list(_lower_dims_options(arr, lam, 1).items()) == list(want.items())


# ---------------------------------------------------------------------------
# the degree-1 linking certificate on rank-2 boxes


def rank2_input(name):
    """An affine rank-2 arrangement: a section, or the decone of a central
    rank-3 one."""
    if name == "A3":
        return build_arrangement(braid_rows(3)).decone()
    arr = catalog.get(name)
    return arr.decone() if arr.central else arr


@st.composite
def rank2_cases(draw):
    """An affine rank-2 arrangement (the sections, the decones of ceva3,
    maclane, example-lstrict and A_3, random affine lines) and weights k/N,
    N in 2..12, half of them integral so that hyperplanes and points weigh
    0 at some translates of the box."""
    name = draw(st.sampled_from(["ceva3-section", "maclane-section", "ceva3", "maclane", "example-lstrict", "A3", "lines"]))
    arr = draw(affine_lines()) if name == "lines" else rank2_input(name)
    N = draw(st.integers(2, 12))
    k = draw(st.lists(st.sampled_from([0, N, -N]) | st.integers(-N, N), min_size=arr.n, max_size=arr.n))
    return arr, tuple(Fraction(x, N) for x in k)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(rank2_cases())
@example((rank2_input("ceva3-section"), CEVA_WEIGHTS))
@example((rank2_input("maclane-section"), MACLANE_SECTION_WEIGHTS))
@example((rank2_input("ceva3"), CEVA_WEIGHTS[:-1]))
def test_every_translate_the_linking_certificate_answers_is_non_resonant(case):
    # the translates of the box that the one-hyperplane test leaves (a zero
    # edge through every hyperplane of the closure) and that the box search
    # does not rank are the certificate's: each ranks to (0, 0, |chi|)
    arr, lam = case
    wv = WeightVector(lam)
    ranked = set()
    real = resonance.os_cohomology_dims_stack

    def stack(a, K):
        ranked.update(map(tuple, K.tolist()))
        return real(a, K)

    with mock.patch.object(resonance, "os_cohomology_dims_stack", stack):
        _lower_dims_options(arr, lam, 1)
    K = np.array(wv.k) + wv.N * np.array(list(itertools.product(range(-1, 2), repeat=arr.n)))
    left = arr.free_hyperplane(arr.closure_edge_weights(K) == 0) < 0
    answered = np.array([row for row in K[left].tolist() if tuple(row) not in ranked], dtype=np.int64)
    dims = os_cohomology_dims_stack(arr, answered.reshape(-1, arr.n))
    assert (dims == [0, 0, abs(arr.euler_characteristic())]).all()


@pytest.mark.parametrize(
    "name, lam, most, lower",
    [
        ("ceva3", CEVA_WEIGHTS, 17, (0, 1, 11, 10)),
        ("ceva3-section", CEVA_WEIGHTS, 17, (0, 1, 17)),
        ("maclane-section", MACLANE_SECTION_WEIGHTS, 52, (0, 0, 13)),
        ("product-example", CEVA_WEIGHTS + MACLANE_SECTION_WEIGHTS, 69, (0, 0, 0, 13, 221)),
    ],
)
def test_the_linking_certificate_leaves_few_translates_to_rank(name, lam, most, lower, monkeypatch):
    # at the README weights, box 1, only a few resonant translates reach
    # the rank driver over Q, where 1,024 did (171 on maclane-section, 1,195
    # on the product); the closure's edge weights are built once per call,
    # per factor of a product
    from oscoh import cohom

    arr = catalog.get(name)
    rows, weighed = [], []
    real_ranks, real_weights = cohom._ranks, resonance._closure_weights

    def ranks(a, K, p):
        if p is None:
            rows.append(len(K))
        return real_ranks(a, K, p)

    def closure_weights(a, k, N):
        weighed.append(a)
        return real_weights(a, k, N)

    monkeypatch.setattr(cohom, "_ranks", ranks)
    monkeypatch.setattr(resonance, "_closure_weights", closure_weights)
    rep = betti_bounds(arr, lam, box=1)
    assert rep.lower == lower
    assert sum(rows) <= most
    assert weighed == ([arr] if arr.product_factors is None else list(arr.product_factors))


# ---------------------------------------------------------------------------
# theorems that decide the local system before any rank

LOWER_NOTE = "lower bounds are the best found in the translate box, not a certified supremum"


def theorem_value(arr, lam):
    """(Betti numbers, label of the free hyperplane) of the local system at
    lam where a theorem decides them, read off ``edge_weights`` alone, or
    None.  Central with a weight sum off Z: all 0, and no label.  Else a
    hyperplane of the closure (of the decone at the last hyperplane, when
    central), H_inf included, on no dense edge of integral weight: |chi| in
    the top degree and 0 below, times (1 + t) when central."""
    if arr.central and sum(lam).denominator != 1:
        return (0,) * (arr.rank + 1), None
    cert, mu = (arr.decone(), lam[:-1]) if arr.central else (arr, lam)
    closure = cert.projective_closure()[0]
    integral = [e.hyperplanes for e in edge_weights(cert, mu) if e.weight.denominator == 1]
    free = [h for h in range(closure.n) if not any(h in X for X in integral)]
    if not free:
        return None
    value = (0,) * cert.rank + (abs(cert.euler_characteristic()),)
    return (poincare_product(value, (1, 1)) if arr.central else value), closure.labels[free[0]]


DECIDED_INPUTS = [n for n in CATALOG_NAMES if n != "product-example"] + [f"boolean({n})" for n in range(1, 7)] + ["lines", "product"]
SMALL_PRODUCT = product_arrangement(build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, -1]]), catalog.get("boolean(2)"))


@st.composite
def decided_cases(draw):
    """A non-product catalog entry, boolean(1-6), random affine lines or a
    small product, weights k/N with N in 2..15 and |k| <= N, and a box of
    0 to 2.  Central weights get an integral sum half the time, so that
    the decone is tested."""
    name = draw(st.sampled_from(DECIDED_INPUTS))
    if name == "lines":
        arr = draw(affine_lines())
    else:
        arr = SMALL_PRODUCT if name == "product" else catalog.get(name)
    N = draw(st.integers(2, 15))
    k = draw(st.lists(st.integers(-N, N), min_size=arr.n, max_size=arr.n))
    if arr.central and draw(st.booleans()):
        k[-1] += N * draw(st.integers(-1, 1)) - sum(k)
    return arr, tuple(Fraction(x, N) for x in k), draw(st.integers(0, 2))


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much]
)
@given(decided_cases())
# every hyperplane of the closure is on an integral edge, but only H_3 on
# one of weight 0: the others are on edges weighing a non-zero multiple of N
@example((build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, -1]]), (Fraction(-1, 2), -1, 0, Fraction(1, 2)), 1))
# only H_inf is on no integral edge
@example((catalog.get("maclane-section"), tuple(Fraction(x, 2) for x in (-1, -1, -2, 1, -2, 0, 0, 0)), 0))
# central with an integral weight sum: only the decone has a free hyperplane
@example((catalog.get("example-lstrict"), (Fraction(1, 3),) + (0,) * 5 + (Fraction(-1, 3),), 1))
# the zero-sum slice starts at an offset other than -box everywhere
@example((catalog.get("ceva3"), (Fraction(1, 7),) * 8 + (Fraction(6, 7),), 1))
# a sum of -1 puts the zero-sum slice out of reach of box 0
@example((catalog.get("ceva3"), (Fraction(1, 7),) * 8 + (Fraction(-15, 7),), 0))
# a proved lower bound of 0, with no note that calls it the box's best
@example((catalog.get("boolean(6)"), tuple(Fraction(x, 5) for x in (1, 2, -1, 3, -2, -3)), 1))
# a product keeps the box search and the mod-N bound where a theorem holds
@example((SMALL_PRODUCT, tuple(Fraction(x, 3) for x in (1, 1, 1, 1, 1)), 1))
# undecided, and 5^9 translates at box 2: refused
@example((catalog.get("ceva3-section"), (0,) * 7 + (Fraction(1, 2),) * 2, 2))
def test_a_theorem_decides_the_bounds_where_it_holds(case):
    # lower bounds and witnesses are the box search's, decided or not: a
    # decided call reads them off the theorem without the search
    arr, lam, box = case
    wv = WeightVector(lam)
    assume(wv.N > 1)  # integral weights are answered before either theorem
    decided = None if arr.product_factors is not None else theorem_value(arr, lam)
    count = _translate_count(arr, wv.k, wv.N, box)
    if decided is None and count > resonance.TRANSLATE_BUDGET:
        with pytest.raises(ValueError, match=f"box {box} has {count} candidate translates, above the budget"):
            betti_bounds(arr, lam, box)
        return
    rep = betti_bounds(arr, lam, box)
    modN = modN_cohomology_ranks(arr, wv.k, wv.N)
    options = _lower_dims_options(arr, lam, box)
    lower = tuple(max(d[q] for d in options) for q in range(arr.rank + 1))
    witness = tuple(
        next(w for d, w in options.items() if d[q] == lower[q]) if lower[q] else None
        for q in range(arr.rank + 1)
    )
    assert (rep.lower, rep.witness) == (lower, witness)
    if decided is None:  # the mod-N upper bound and its notes
        assert rep.upper == modN.dims
        assert rep.convention_notes == [LOWER_NOTE] + modN.notes
        return
    value, label = decided
    assert rep.upper == value
    assert all(v <= u for v, u in zip(value, modN.dims)), (value, modN.dims)
    if not arr.central or abs(sum(lam)) <= arr.n * box:  # the box holds a translate
        assert rep.lower == value
    # a lower bound below the theorem's value is only the box's best
    assert (LOWER_NOTE in rep.convention_notes) == (rep.lower != value)
    assert label is None or f"({label}) of the closure" in rep.convention_notes[-1]


@pytest.mark.parametrize(
    "name, lam",
    [
        ("boolean(6)", tuple(Fraction(x, 2) for x in (1, 1, -1, -1, 0, 0))),
        ("boolean(6)", tuple(Fraction(x, 6) for x in (1, -1, 1, -1, 0, 0))),
        ("example-lstrict", (Fraction(1, 3),) + (0,) * 5 + (Fraction(-1, 3),)),
        ("lines", tuple(Fraction(x, 5) for x in (1, 2, 1))),
    ],
)
def test_a_decided_call_does_no_mod_p_work(name, lam, monkeypatch):
    # where a theorem holds, the upper bound is its value: nothing is
    # reduced or ranked mod p.  boolean(n) is never ranked mod p (its
    # decones are central down to rank 1), but it was reduced mod p.
    from oscoh import cohom

    arr = build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, -1]]) if name == "lines" else catalog.get(name)

    def over_Q(real):
        def guarded(a, K, p=None, *rest):
            assert p is None, f"{real.__name__} mod {p}"
            return real(a, K, p, *rest)

        return guarded

    monkeypatch.setattr(cohom, "_ranks", over_Q(cohom._ranks))
    monkeypatch.setattr(cohom, "_reduced_dims", over_Q(cohom._reduced_dims))
    rep = betti_bounds(arr, lam, box=1)
    assert rep.lower == rep.upper == theorem_value(arr, lam)[0]


def a7_decided_zero_sum():
    """A_7 and a zero-sum weight k/41, k the seed-7 draw of
    test_a7_zero_sum_weights_are_certified_before_the_cell_budget: some
    hyperplane of its decone's closure is on no integral edge."""
    a7 = build_arrangement(braid_rows(7))
    rng = random.Random(7)
    k = [rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(a7.n - 1)]
    return a7, tuple(Fraction(x, 41) for x in k + [-sum(k)])


@pytest.mark.parametrize(
    "case, value",
    [
        (lambda: (build_arrangement(braid_rows(5)), (Fraction(1, 15),) * 15), (0, 0, 0, 0, 24, 24)),
        (lambda: (catalog.get("boolean(14)"), (Fraction(1, 2),) * 14), (0,) * 15),
        (a7_decided_zero_sum, (0,) * 6 + (720, 720)),
    ],
    ids=["A5-3^14-translates", "boolean(14)-3^13-translates", "A7-3^27-translates-and-cells"],
)
def test_a_decided_call_over_budget_is_answered(case, value):
    # each box is over the translate budget (A_7's complex also over the
    # cell budget), but a theorem decides the call before any translate
    arr, lam = case()
    wv = WeightVector(lam)
    assert _translate_count(arr, wv.k, wv.N, 1) > resonance.TRANSLATE_BUDGET
    rep = betti_bounds(arr, lam, box=1)
    assert rep.lower == rep.upper == value
    assert all(rep.exact)
    assert not any(key[0] == "aomoto" for key in arr._cache if isinstance(key, tuple))


def test_an_undecided_call_over_budget_is_refused():
    # A_5's triple points are integral at 1/3, and A_7's is at a local
    # weight there: no theorem decides either, so the budgets still refuse
    a5 = build_arrangement(braid_rows(5))
    with pytest.raises(ValueError, match="4782969 candidate translates"):
        betti_bounds(a5, (Fraction(1, 3),) * 15, box=1)
    # A_7's complex is 1960 x 6769 cells in degree 3, but the zero-sum
    # slice ranks its decone's, and so does a product with A_7 as a factor
    a7 = build_arrangement(braid_rows(7))
    local = [0] * a7.n
    local[0], local[1], local[7] = Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)  # x_1, x_2, x_1 - x_2
    decone = r"degree-3 Aomoto matrix is 1665 x 5104 = 8498160 cells, above the cell budget"
    with pytest.raises(ValueError, match=decone):
        betti_bounds(a7, local, box=0)
    with pytest.raises(ValueError, match=decone):
        betti_bounds(product_arrangement(a7, catalog.get("boolean(1)")), local + [0], box=0)


@pytest.mark.parametrize("box", [2**63, 10**30])
def test_a_decided_call_takes_a_box_past_int64(box):
    # the theorem reads no box, and the first translate is built in Python
    # integers: lam - box on an affine input, on the zero-sum slice of A_5
    sec = catalog.get("ceva3-section")
    lam = (Fraction(1, 7),) * sec.n
    rep = betti_bounds(sec, lam, box)
    assert rep.lower == rep.upper == (0, 0, 16)
    assert rep.witness == (None, None, tuple(x - box for x in lam))
    a5 = build_arrangement(braid_rows(5))
    lam = (Fraction(1, 15),) * 15
    rep = betti_bounds(a5, lam, box)
    assert rep.lower == rep.upper == (0, 0, 0, 0, 24, 24)
    first = tuple(x + m for x, m in zip(lam, [-box] * 7 + [-1] + [box] * 7))
    assert rep.witness == (None,) * 4 + (first, first) and sum(first) == 0
    with pytest.raises(ValueError, match="candidate translates"):
        betti_bounds(a5, (Fraction(1, 3),) * 15, box)


def test_a_theorem_closes_an_open_composite_sandwich():
    # the weights sum to 5/2, so the local system is acyclic; mod 3 the sum
    # is 0 and the mod-6 upper bound read (0, 0, 4, 4)
    lam = (0, Fraction(2, 3), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(1, 6), Fraction(2, 3))
    arr = catalog.get("example-lstrict")
    assert modN_cohomology_ranks(arr, WeightVector(lam).k, 6).dims == (0, 0, 4, 4)
    rep = betti_bounds(arr, lam, box=1)
    assert rep.lower == rep.upper == (0, 0, 0, 0)
    assert rep.exact == (True,) * 4
    assert rep.convention_notes[0].startswith("central, weight sum 5/2 not an integer")
