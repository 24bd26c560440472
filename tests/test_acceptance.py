"""End-to-end acceptance checks.

Each test is one headline requirement, exercised end to end at exact
(integer) tolerance.  Run with ``pytest -v tests/test_acceptance.py`` to
get one pass/fail line per requirement.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from oscoh import build_arrangement, catalog
from oscoh.cohom import (
    WeightVector,
    modN_cohomology_ranks,
    os_cohomology_dims,
)
from oscoh.exactla import poincare_product
from oscoh.osalg import aomoto_matrix, nbc_basis
from oscoh.resonance import betti_bounds, resonance_membership, yuzvinsky_vanishing

from conftest import CATALOG_NAMES, braid_rows, next_prime
from salvetti import local_betti

CEVA_WEIGHTS = tuple(Fraction(x, 3) for x in (1, 1, 1, 1, 1, 1, -2, -2, -2))
CEVA_K = (1, 1, 1, 1, 1, 1, -2, -2, -2)
MACLANE_SECTION_WEIGHTS = tuple(Fraction(x, 3) for x in (1, 0, -1, 1, -1, -1, 1, 0))
MACLANE_SECTION_K = (1, 0, -1, 1, -1, -1, 1, 0)
LSTRICT_K = (1, 0, 0, 1, 1, 0, 1)
LSTRICT_WEIGHTS = tuple(Fraction(x, 2) for x in LSTRICT_K)
# the real forms of example-lstrict as the README catalog lists them
LSTRICT_REAL_FORMS = (
    ("x", (1, 0, 0)),
    ("x+y+z", (1, 1, 1)),
    ("x+y-z", (1, 1, -1)),
    ("y", (0, 1, 0)),
    ("x-y-z", (1, -1, -1)),
    ("x-y+z", (1, -1, 1)),
    ("z", (0, 0, 1)),
)


def test_ceva_pencil_weights_lie_on_degree_one_resonance():
    arr = catalog.get("ceva3")
    rep = os_cohomology_dims(arr, CEVA_WEIGHTS)
    assert rep.dims[1] == 1
    member, dim = resonance_membership(arr, CEVA_WEIGHTS, 1)
    assert member and dim == 1


def test_ceva_section_poincare_over_Q_and_mod_3():
    sec = catalog.get("ceva3-section")
    assert os_cohomology_dims(sec, CEVA_WEIGHTS).poincare == "t + 17*t^2"
    assert modN_cohomology_ranks(sec, CEVA_K, 3).poincare == "2*t + 18*t^2"


def test_maclane_section_poincare_over_Q_and_mod_3():
    sec = catalog.get("maclane-section")
    assert (
        os_cohomology_dims(sec, MACLANE_SECTION_WEIGHTS).poincare == "13*t^2"
    )
    assert modN_cohomology_ranks(sec, MACLANE_SECTION_K, 3).poincare == "t + 14*t^2"


def test_maclane_modular_characters_all_have_rank_one_h1():
    arr = catalog.get("maclane")
    g1 = (1, 0, 2, 1, 2, 2, 1, 0)
    g2 = (2, 2, 2, 1, 1, 0, 0, 1)
    checked = 0
    for u in range(3):
        for v in range(3):
            if u == v == 0:
                continue
            k = tuple((u * a + v * b) % 3 for a, b in zip(g1, g2))
            rep = modN_cohomology_ranks(arr, k, 3)
            assert rep.dims[1] == 1, (u, v, rep.dims)
            checked += 1
    assert checked == 8


def test_product_cohomology_matches_kunneth_within_time_budget():
    start = time.monotonic()
    prod = catalog.get("product-example")
    lam = CEVA_WEIGHTS + MACLANE_SECTION_WEIGHTS
    direct = os_cohomology_dims(prod, lam)
    assert direct.dims == (0, 0, 0, 13, 221)
    assert direct.poincare == "13*t^3 + 221*t^4"

    factor1 = os_cohomology_dims(catalog.get("ceva3-section"), CEVA_WEIGHTS)
    factor2 = os_cohomology_dims(
        catalog.get("maclane-section"), MACLANE_SECTION_WEIGHTS
    )
    assert poincare_product(factor1.dims, factor2.dims) == direct.dims

    k = CEVA_K + MACLANE_SECTION_K
    mod3 = modN_cohomology_ranks(prod, k, 3)
    assert mod3.dims == (0, 0, 2, 46, 252)
    assert mod3.poincare == "2*t^2 + 46*t^3 + 252*t^4"

    elapsed = time.monotonic() - start
    assert elapsed < 600, f"took {elapsed:.1f}s, budget is 600s"


def test_lstrict_box_one_lower_bound_in_degree_one():
    arr = catalog.get("example-lstrict")
    assert arr.labels == [label for label, _ in LSTRICT_REAL_FORMS]
    forms = [form for _, form in LSTRICT_REAL_FORMS]

    def oracle(k):
        return local_betti(forms, tuple((-1) ** x for x in k))

    # the oracle sees the Poincare polynomial and a local resonance component
    assert oracle((0,) * 7) == (1, 7, 15, 9) == tuple(arr.betti_numbers())
    assert oracle((1, 1, 0, 0, 0, 0, 0)) == (0, 1, 6, 5)

    rep = betti_bounds(arr, LSTRICT_WEIGHTS, box=1)
    actual = oracle(LSTRICT_K)
    for q, (low, h, up) in enumerate(zip(rep.lower, actual, rep.upper)):
        assert low <= h <= up, (q, rep.lower, actual, rep.upper)
    assert rep.lower[1] == actual[1] == 0, (rep.lower, actual)


def test_the_salvetti_oracle_agrees_with_a_theorem_where_one_decides():
    # every character t_H = +-1 with prod t_H = 1 of two real central plane
    # arrangements: wherever betti_bounds names a theorem for its upper
    # bound, the local-system cohomology of the Salvetti complex is that value;
    # the counts of decided characters are those edge_weights gives
    cases = [
        (catalog.get("example-lstrict"), [form for _, form in LSTRICT_REAL_FORMS], 18),
        (build_arrangement(braid_rows(3)), [row[:-1] for row in braid_rows(3)], 16),
    ]
    for arr, forms, count in cases:
        decided = 0
        for k in itertools.product((0, 1), repeat=arr.n):
            if sum(k) % 2 or not any(k):
                continue
            rep = betti_bounds(arr, [Fraction(x, 2) for x in k], box=0)
            if any("Cohen-Dimca-Orlik" in note for note in rep.convention_notes):
                decided += 1
                assert rep.upper == local_betti(forms, tuple((-1) ** x for x in k)), (k, rep.upper)
        assert decided == count


def test_all_ones_weights_vanish_except_top_degree_for_large_prime():
    for name in CATALOG_NAMES:
        arr = catalog.get(name)
        p = next_prime(arr.n)
        rep = yuzvinsky_vanishing(arr, (1,) * arr.n, p)
        assert rep.holds, (name, p, rep.failures)
        assert rep.confirmed, (name, p)
        expected = (0,) * arr.rank + (abs(arr.euler_characteristic()),)
        assert rep.cohomology.dims == expected, (name, p, rep.cohomology.dims)


def test_structural_invariants_across_catalog_with_random_weights():
    rng = random.Random(20260823)
    trials = 50

    for name in CATALOG_NAMES:
        arr = catalog.get(name)
        betti = arr.betti_numbers()
        euler = arr.euler_characteristic()

        # NBC bases have the Whitney numbers as sizes
        for q in range(arr.rank + 1):
            assert len(nbc_basis(arr, q)) == betti[q], (name, q)

        for trial in range(trials):
            p = rng.choice((2, 3, 5, 7))
            lam = tuple(
                Fraction(rng.randint(-3, 3), p) for _ in range(arr.n)
            )
            if not any(lam):
                lam = (Fraction(1, p),) + lam[1:]
            wv = WeightVector(lam)

            # the boundary maps square to zero on integer weights
            k = np.array(wv.k, dtype=np.int64)
            prev = None
            for q in range(arr.rank + 1):
                mat = np.array(
                    aomoto_matrix(arr, q).evaluate(wv.k), dtype=np.int64
                ).reshape(betti[q], betti[q + 1] if q < arr.rank else 0)
                if prev is not None and prev.size and mat.size:
                    assert not (prev @ mat).any(), (name, trial, q)
                prev = mat

            rep = os_cohomology_dims(arr, lam)

            # alternating sum of dims equals the lattice Euler number
            alt = sum((-1) ** q * d for q, d in enumerate(rep.dims))
            assert alt == euler, (name, lam, rep.dims)

            # dims only depend on the weight ray
            for c in (2, -1, 5):
                scaled = os_cohomology_dims(arr, [c * x for x in lam]).dims
                assert scaled == rep.dims, (name, lam, c)

            # characteristic-zero dims never exceed the mod-N ranks at k = N*lam
            if wv.N > 1:
                mod = modN_cohomology_ranks(arr, wv.k, wv.N)
                assert all(
                    a <= b for a, b in zip(rep.dims, mod.dims)
                ), (name, lam, rep.dims, mod.dims)

            # any central arrangement with non-balanced weights is acyclic
            if arr.central and sum(lam) != 0:
                assert rep.dims == (0,) * (arr.rank + 1), (name, lam, rep.dims)

            # resonance membership is constant on rays
            member, _ = resonance_membership(arr, lam, 1)
            scaled = tuple(-3 * l for l in lam)
            member_scaled, _ = resonance_membership(arr, scaled, 1)
            assert member == member_scaled, (name, lam)

        if name == "boolean(4)":
            # every nonzero weight vector gives an exact weighted complex
            for trial in range(trials):
                lam = tuple(
                    Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                    for _ in range(4)
                )
                if not any(lam):
                    continue
                assert os_cohomology_dims(arr, lam).dims == (0, 0, 0, 0, 0), lam
