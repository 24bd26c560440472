"""Arrangements: construction, intersection lattice, Whitney numbers."""

from fractions import Fraction

import pytest

from oscoh import (
    NotEssentialError,
    ZeroFormError,
    arrangement_from_circuits,
    arrangement_from_cone_circuits,
    build_arrangement,
    catalog,
    essentialize,
    generic_section,
    product_arrangement,
)
from oscoh import matroid
from oscoh.arrangement import poincare_product
from oscoh.cohom import os_cohomology_dims

from conftest import CATALOG_NAMES


def three_generic_lines():
    # x = 0, y = 0, x + y = 1: pairwise crossings, no triple point
    return build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, -1]])


def three_concurrent_lines():
    return build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, 0]])


# ---------------------------------------------------------------------------
# constructors and validation


def test_boolean_arrangement_basics():
    arr = catalog.get("boolean(3)")
    assert arr.n == 3
    assert arr.rank == 3
    assert arr.central
    assert arr.betti_numbers() == [1, 3, 3, 1]
    assert arr.euler_characteristic() == 0


def test_generic_affine_lines():
    arr = three_generic_lines()
    assert not arr.central
    assert arr.rank == 2
    assert arr.betti_numbers() == [1, 3, 3]
    assert arr.euler_characteristic() == 1


def test_concurrent_central_lines():
    arr = three_concurrent_lines()
    assert arr.central
    assert arr.betti_numbers() == [1, 3, 2]
    assert arr.euler_characteristic() == 0


def test_zero_form_rejected():
    with pytest.raises(ZeroFormError):
        build_arrangement([[1, 0, 0], [0, 0, 5]])


def test_repeated_hyperplane_rejected():
    with pytest.raises(ValueError, match="coincide"):
        build_arrangement([[1, 0, -1], [2, 0, -2], [0, 1, 0]])
    # same normal, different constant: parallel but distinct, fine
    arr = build_arrangement([[1, 0, 0], [1, 0, -1], [0, 1, 0]])
    assert arr.n == 3


def test_non_essential_input_rejected_without_flag():
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, -1]]
    with pytest.raises(NotEssentialError):
        build_arrangement(rows)


def test_essentialize_during_build():
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, -1]]
    arr = build_arrangement(rows, essentialize=True)
    assert arr.rank == 2
    assert arr.betti_numbers() == three_generic_lines().betti_numbers()


def test_essentialize_function_matches_lattice():
    arr = essentialize(three_concurrent_lines())
    assert arr.betti_numbers() == [1, 3, 2]
    with pytest.raises(ValueError, match="realized"):
        essentialize(catalog.get("maclane-matroid"))


def test_fraction_and_string_entries():
    arr = build_arrangement([[Fraction(1, 2), 0, 0], ["2/3", 1, "-1/5"], [0, 1, 0]])
    assert arr.n == 3
    assert arr.rank == 2
    assert not arr.central
    # over a number field a string is one rational, not a coefficient list
    omega = catalog.omega_field()
    arr = build_arrangement([[1, 0, "12"], [0, 1, "-1/2"], [1, 1, 0]], field=omega)
    assert [c for _, c in arr.forms] == [omega(12), omega(Fraction(-1, 2)), omega.zero]


# ---------------------------------------------------------------------------
# intersection lattice


def test_lattice_of_generic_lines():
    lat = three_generic_lines().intersection_lattice()
    assert len(lat.levels) == 3
    assert [len(level) for level in lat.levels] == [1, 3, 3]
    assert all(f.moebius == -1 for f in lat.flats_of_codim(1))
    assert all(f.moebius == 1 for f in lat.flats_of_codim(2))
    crossings = sorted(f.hyperplanes for f in lat.flats_of_codim(2))
    assert crossings == [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]


def test_lattice_of_concurrent_lines():
    lat = three_concurrent_lines().intersection_lattice()
    assert [len(level) for level in lat.levels] == [1, 3, 1]
    center = lat.flats_of_codim(2)[0]
    assert center.hyperplanes == frozenset({0, 1, 2})
    assert center.moebius == 2


def test_moebius_alternates_in_sign():
    for name in CATALOG_NAMES:
        lat = catalog.get(name).intersection_lattice()
        for q, level in enumerate(lat.levels):
            for f in level:
                assert f.codim == q
                assert f.moebius * (-1) ** q > 0


def test_flat_sorted_hyperplanes():
    lat = three_concurrent_lines().intersection_lattice()
    assert lat.flats_of_codim(2)[0].sorted_hyperplanes == (0, 1, 2)


def test_betti_numbers_catalog_frozen():
    expected = {
        "boolean(4)": [1, 4, 6, 4, 1],
        "ceva3": [1, 9, 24, 16],
        "ceva3-section": [1, 9, 24],
        "example-lstrict": [1, 7, 15, 9],
        "maclane": [1, 8, 20, 13],
        "maclane-matroid": [1, 8, 20, 13],
        "maclane-section": [1, 8, 20],
        "product-example": [1, 17, 116, 372, 480],
    }
    for name, want in expected.items():
        assert catalog.get(name).betti_numbers() == want, name


def test_euler_characteristic_catalog_frozen():
    expected = {
        "boolean(4)": 0,
        "ceva3": 0,
        "ceva3-section": 16,
        "example-lstrict": 0,
        "maclane": 0,
        "maclane-section": 13,
        "product-example": 208,
    }
    for name, want in expected.items():
        assert catalog.get(name).euler_characteristic() == want, name


def test_lstrict_triple_points():
    arr = catalog.get("example-lstrict")
    lat = arr.intersection_lattice()
    triples = sorted(
        f.sorted_hyperplanes for f in lat.flats_of_codim(2) if len(f.hyperplanes) == 3
    )
    assert triples == [
        (0, 1, 4),
        (0, 2, 5),
        (1, 2, 6),
        (1, 3, 5),
        (2, 3, 4),
        (4, 5, 6),
    ]
    doubles = sorted(
        f.sorted_hyperplanes for f in lat.flats_of_codim(2) if len(f.hyperplanes) == 2
    )
    assert doubles == [(0, 3), (0, 6), (3, 6)]


def test_ceva_pencil_structure():
    lat = catalog.get("ceva3").intersection_lattice()
    triples = [f for f in lat.flats_of_codim(2) if len(f.hyperplanes) == 3]
    doubles = [f for f in lat.flats_of_codim(2) if len(f.hyperplanes) == 2]
    assert len(triples) == 12
    assert len(doubles) == 0


def test_maclane_realization_matches_abstract_matroid():
    assert catalog.maclane_self_check()


# ---------------------------------------------------------------------------
# derived constructions


def test_projective_closure_of_affine_lines():
    closure, inf = three_generic_lines().projective_closure()
    assert closure.central
    assert closure.n == 4
    assert inf == 3
    assert closure.betti_numbers() == [1, 4, 6, 3]  # four generic planes in C^3


def test_projective_closure_of_central_adds_coloop_free_plane():
    closure, inf = three_concurrent_lines().projective_closure()
    assert closure.central
    assert closure.n == 4 and closure.rank == 3
    # near-pencil: the three concurrent lines keep their common point
    lat = closure.intersection_lattice()
    sizes = sorted(len(f.hyperplanes) for f in lat.flats_of_codim(2))
    assert sizes == [2, 2, 2, 3]


def test_generic_section_drops_top_of_lattice():
    arr = catalog.get("ceva3")
    sec = generic_section(arr, 2)
    assert not sec.central
    assert sec.rank == 2
    assert sec.betti_numbers() == [1, 9, 24]
    lat_full = arr.intersection_lattice()
    lat_sec = sec.intersection_lattice()
    assert [f.hyperplanes for f in lat_sec.flats_of_codim(1)] == [
        f.hyperplanes for f in lat_full.flats_of_codim(1)
    ]


def test_generic_section_rank_bounds():
    arr = catalog.get("ceva3")
    with pytest.raises(ValueError):
        generic_section(arr, 0)
    with pytest.raises(ValueError):
        generic_section(arr, 3)


def test_product_of_boolean_lines_is_boolean_plane():
    b1 = catalog.get("boolean(1)")
    prod = product_arrangement(b1, b1)
    assert prod.betti_numbers() == [1, 2, 1]
    assert prod.central
    assert prod.product_factors is not None


def test_product_betti_is_convolution_of_factors():
    a = three_concurrent_lines()
    prod = product_arrangement(a, a)
    # [1,3,2] * [1,3,2] convolved
    assert prod.betti_numbers() == [1, 6, 13, 12, 4]
    assert "lattice" not in prod._cache  # read off the factors
    # the product's own lattice agrees
    levels = prod.intersection_lattice().levels
    assert [sum(abs(f.moebius) for f in level) for level in levels] == [1, 6, 13, 12, 4]
    assert prod.central
    assert prod.rank == 4
    assert prod.n == 6


def test_product_example_is_product_of_sections():
    prod = catalog.get("product-example")
    f1, f2 = prod.product_factors
    assert f1.betti_numbers() == [1, 9, 24]
    assert f2.betti_numbers() == [1, 8, 20]
    assert not prod.central


def test_arrangement_from_circuits_with_rank_completion():
    triples = [
        (0, 1, 2), (0, 3, 6), (0, 5, 7), (1, 3, 5),
        (1, 4, 6), (2, 4, 5), (2, 6, 7), (3, 4, 7),
    ]
    arr = arrangement_from_circuits(8, triples, rank=3)
    assert arr.betti_numbers() == [1, 8, 20, 13]
    assert arr.central
    # the completed list, once validated, is the circuit oracle under the
    # coloop, as a file of those circuits gives when read back
    assert tuple(triples) == catalog._MACLANE_TRIPLES
    inner = arr.cone_matroid.inner
    assert type(inner) is matroid.Matroid
    want = matroid.Matroid(8, triples).truncate(3).circuits()
    assert len(inner.circuits()) == len(want) and set(inner.circuits()) == set(want)


def test_arrangement_from_circuits_rank_too_large():
    with pytest.raises(ValueError, match="exceeds"):
        arrangement_from_circuits(3, [(0, 1, 2)], rank=3)


# Not a matroid: eliminating 3 from {0,1,3} and {0,2,3} leaves {0,1,2}, which
# holds no circuit.  Before, it was accepted with Betti numbers (1, 4, 9, 6),
# above C(4, 2) = 6 in degree 2.
BROKEN_ELIMINATION = [(0, 1, 3), (0, 2, 3), (1, 2, 3)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: arrangement_from_circuits(4, BROKEN_ELIMINATION),
        lambda: arrangement_from_cone_circuits(3, BROKEN_ELIMINATION),
        # the same family with its common element at infinity, on 5 elements
        lambda: arrangement_from_cone_circuits(4, [(0, 1, 4), (0, 2, 4), (1, 2, 4)]),
    ],
    ids=["circuits", "cone-circuits", "cone-circuits-at-infinity"],
)
def test_non_matroid_circuits_are_refused(build):
    with pytest.raises(ValueError, match="circuit elimination axiom fails"):
        build()


def test_arrangement_from_cone_circuits_affine():
    # cone of three generic lines: infinity is element 3
    cone = three_generic_lines().projective_closure()[0]
    circuits = [tuple(sorted(c)) for c in cone.cone_matroid.circuits()]
    arr = arrangement_from_cone_circuits(3, circuits)
    assert not arr.central
    assert arr.betti_numbers() == [1, 3, 3]


def test_dense_edges_of_concurrent_lines():
    arr = three_concurrent_lines()
    edges = arr.dense_edges()
    by_codim = sorted((f.codim, f.sorted_hyperplanes) for f in edges)
    assert by_codim == [
        (1, (0,)),
        (1, (1,)),
        (1, (2,)),
        (2, (0, 1, 2)),
    ]


def test_dense_edges_of_boolean_are_just_hyperplanes():
    edges = catalog.get("boolean(3)").dense_edges()
    assert sorted(f.sorted_hyperplanes for f in edges) == [(0,), (1,), (2,)]


def test_dense_edges_require_central():
    with pytest.raises(ValueError, match="central"):
        three_generic_lines().dense_edges()


def test_the_decone_of_an_abstract_arrangement_searches_for_no_circuits(monkeypatch):
    # the decone's matroid is the one under the coloop, not a restriction
    # rebuilt from circuits found by a search over subsets
    k = [1, 2, 3, 4, 5, 6, 7, -28]
    want = os_cohomology_dims(catalog.get("maclane"), k).dims
    arr = catalog.maclane_matroid.__wrapped__()  # fresh: no decone cached

    def no_search(self):
        raise AssertionError("circuit search")

    monkeypatch.setattr(matroid._Oracle, "_circuit_masks", no_search)
    assert os_cohomology_dims(arr, k).dims == want


def test_labels_default_and_custom():
    arr = build_arrangement([[1, 0, 0], [0, 1, 0]], labels=["x", "y"])
    assert arr.labels == ["x", "y"]
    assert len(catalog.get("ceva3").labels) == 9


def test_decone_is_the_matroid_with_the_last_hyperplane_at_infinity():
    for arr in [catalog.get(name) for name in CATALOG_NAMES]:
        if not arr.central:
            continue
        d = arr.decone()
        assert d is arr.decone()  # built once
        assert d.covers() is arr.covers()  # shared, not copied
        assert (d.n, d.rank, d.labels) == (arr.n - 1, arr.rank - 1, arr.labels[:-1])
        assert d.cone_matroid.circuits() == arr.cone_matroid.circuits()
        # Betti numbers from P(t) / (1 + t), without a lattice of its own
        betti = d.betti_numbers()
        assert "lattice" not in d._cache
        assert poincare_product(betti, (1, 1)) == tuple(arr.betti_numbers())
        fresh = arrangement_from_cone_circuits(arr.n - 1, arr.central_circuits())
        levels = fresh.intersection_lattice().levels
        assert [sum(abs(f.moebius) for f in level) for level in levels] == betti
    # a decone at a coloop is central: boolean(4) deconed is boolean(3)
    assert catalog.get("boolean(4)").decone().central
    assert not catalog.get("ceva3").decone().central
    for arr in (catalog.get("boolean(1)"), catalog.get("ceva3-section")):
        with pytest.raises(ValueError, match="decone"):
            arr.decone()
