"""Local-system cohomology over Q and over Z/N."""

import random
from fractions import Fraction

import pytest

from oscoh import build_arrangement, catalog, exactla
from oscoh.cohom import (
    WeightVector,
    kunneth_product,
    modN_cohomology_ranks,
    os_cohomology_dims,
    os_cohomology_dims_stack,
    poincare_str,
    scaling_equivalence_check,
)
from oscoh.exactla import STACK_CELLS, rank_mod_p, rank_over_Q, smith_normal_form
from oscoh.osalg import aomoto_matrix

from conftest import random_weight_vector

CEVA_WEIGHTS = tuple(Fraction(x, 3) for x in (1, 1, 1, 1, 1, 1, -2, -2, -2))
LSTRICT_WEIGHTS = tuple(Fraction(x, 2) for x in (1, 0, 0, 1, 1, 0, 1))
MACLANE_SECTION_WEIGHTS = tuple(Fraction(x, 3) for x in (1, 0, -1, 1, -1, -1, 1, 0))


def three_concurrent_lines():
    return build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, 0]])


# ---------------------------------------------------------------------------
# weight vectors


def test_weight_vector_minimal_modulus():
    wv = WeightVector([Fraction(1, 3), Fraction(-2, 3)])
    assert wv.N == 3
    assert wv.k == (1, -2)
    assert wv.reduced_from is None
    assert len(wv) == 2


def test_weight_vector_integer_weights():
    wv = WeightVector([2, -5, 0])
    assert wv.N == 1
    assert wv.k == (2, -5, 0)


def test_from_modular_reduces_common_factors():
    wv = WeightVector.from_modular((2, 4), 6)
    assert wv.lam == (Fraction(1, 3), Fraction(2, 3))
    assert wv.N == 3
    assert wv.k == (1, 2)
    assert wv.reduced_from == ((2, 4), 6)
    minimal = WeightVector.from_modular((1, 2), 3)
    assert minimal.reduced_from is None


def test_translate_shifts_by_integers():
    wv = WeightVector([Fraction(1, 3), Fraction(-2, 3)])
    shifted = wv.translate((1, -1))
    assert shifted.lam == (Fraction(4, 3), Fraction(-5, 3))
    assert shifted.N == 3


# ---------------------------------------------------------------------------
# Poincare polynomial strings


def test_poincare_str_formatting():
    assert poincare_str((0, 1, 17)) == "t + 17*t^2"
    assert poincare_str((0, 2, 18)) == "2*t + 18*t^2"
    assert poincare_str((0, 0, 13)) == "13*t^2"
    assert poincare_str((1, 0, 0)) == "1"
    assert poincare_str((0, 0, 0)) == "0"
    assert poincare_str((1, 1, 1)) == "1 + t + t^2"
    assert poincare_str((2, 0, 1)) == "2 + t^2"


# ---------------------------------------------------------------------------
# cohomology over Q


def test_pencil_with_balanced_weights():
    rep = os_cohomology_dims(three_concurrent_lines(), (1, 1, -2))
    assert rep.dims == (0, 1, 1)
    assert rep.ranks == (1, 1, 0)
    assert rep.poincare == "t + t^2"
    assert rep.ring == ("Q",)
    assert rep.ring_name == "Q"


def test_central_unbalanced_weights_are_acyclic():
    rep = os_cohomology_dims(
        three_concurrent_lines(), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    )
    assert rep.dims == (0, 0, 0)


def test_boolean_nonzero_weights_are_acyclic():
    arr = catalog.get("boolean(4)")
    rng = random.Random(1)
    for _ in range(5):
        lam = random_weight_vector(rng, 4)
        assert os_cohomology_dims(arr, lam).dims == (0, 0, 0, 0, 0)


def test_ceva_pencil_weights_frozen():
    rep = os_cohomology_dims(catalog.get("ceva3"), CEVA_WEIGHTS)
    assert rep.dims == (0, 1, 11, 10)


def test_lstrict_weights_frozen():
    rep = os_cohomology_dims(catalog.get("example-lstrict"), LSTRICT_WEIGHTS)
    assert rep.dims == (0, 0, 0, 0)


def test_section_weights_frozen():
    rep = os_cohomology_dims(catalog.get("ceva3-section"), CEVA_WEIGHTS)
    assert rep.dims == (0, 1, 17)
    rep2 = os_cohomology_dims(catalog.get("maclane-section"), MACLANE_SECTION_WEIGHTS)
    assert rep2.dims == (0, 0, 13)


def test_euler_characteristic_identity():
    # alternating sum of local-system dims equals the lattice Euler number
    rng = random.Random(42)
    for name in ("ceva3-section", "maclane-section", "example-lstrict"):
        arr = catalog.get(name)
        e = arr.euler_characteristic()
        for _ in range(5):
            lam = random_weight_vector(rng, arr.n)
            dims = os_cohomology_dims(arr, lam).dims
            alt = sum((-1) ** q * d for q, d in enumerate(dims))
            assert alt == e


def test_report_to_dict_round_trip_keys():
    rep = os_cohomology_dims(catalog.get("ceva3-section"), CEVA_WEIGHTS)
    doc = rep.to_dict()
    assert doc["ring"] == "Q"
    assert doc["dims"] == [0, 1, 17]
    assert doc["poincare"] == "t + 17*t^2"


# ---------------------------------------------------------------------------
# cohomology over Z/N


def test_mod3_section_ranks_frozen():
    sec = catalog.get("ceva3-section")
    rep = modN_cohomology_ranks(sec, (1, 1, 1, 1, 1, 1, -2, -2, -2), 3)
    assert rep.dims == (0, 2, 18)
    assert rep.ring == ("Z", 3)
    assert rep.ring_name == "Z_3"
    assert rep.invariant_factors is None  # prime modulus takes the GF(p) path
    assert rep.notes == []
    mac = catalog.get("maclane-section")
    rep2 = modN_cohomology_ranks(mac, (1, 0, -1, 1, -1, -1, 1, 0), 3)
    assert rep2.dims == (0, 1, 14)


def test_mod_prime_dominates_rational_dims():
    rng = random.Random(8)
    for name in ("ceva3-section", "maclane-section"):
        arr = catalog.get(name)
        for _ in range(4):
            lam = random_weight_vector(rng, arr.n)
            wv = WeightVector(lam)
            over_q = os_cohomology_dims(arr, lam).dims
            if wv.N == 1:
                continue
            mod = modN_cohomology_ranks(arr, wv.k, wv.N).dims
            assert all(a <= b for a, b in zip(over_q, mod)), (name, lam)


def test_bounded_ranks_match_unbounded_ranks_on_product():
    # os_cohomology_dims passes b_q - rank mu^(q-1) to rank_over_Q as an
    # upper bound; at the README weights mu^3 is resonant and misses it
    arr = catalog.get("product-example")
    generic = tuple(
        Fraction(x, 7) for x in (1, 2, 3, -1, -2, -3, 4, 5, 1, 2, -4, 3, 1, -1, 2, 5, 1)
    )
    lams = (CEVA_WEIGHTS + MACLANE_SECTION_WEIGHTS, generic)
    dims = []
    for lam in lams:
        arr._cache.pop("rankQ", None)  # rank afresh, not from another test
        rep = os_cohomology_dims(arr, lam)
        k = list(WeightVector(lam).k)
        unbounded = tuple(
            rank_over_Q(aomoto_matrix(arr, q).evaluate(k))
            for q in range(arr.rank + 1)
        )
        assert rep.ranks == unbounded, lam
        dims.append(rep.dims)
    assert rep.dims == (0, 0, 0, 0, 208)
    # The stacked path agrees.  mu^3 (372 x 480) is above STACK_CELLS, so it
    # is ranked one matrix at a time, while the smaller degrees are stacked.
    assert aomoto_matrix(arr, 3).shape == (372, 480) and 372 * 480 > STACK_CELLS
    arr._cache.pop("rankQ", None)
    stacked = os_cohomology_dims_stack(arr, [WeightVector(lam).k for lam in lams])
    assert [tuple(row) for row in stacked.tolist()] == dims


def test_exact_degrees_are_proved_by_one_prime_each(monkeypatch):
    # Away from resonance every degree reaches its d**2 = 0 bound
    # b_q - rank mu^(q-1) modulo the first prime, so each of the eight
    # boundaries of boolean(8) takes one modular elimination; without the
    # bound, mu^3 (56 x 70, rank 35) would need the Hadamard loop.
    arr = build_arrangement([[int(i == j) for j in range(9)] for i in range(8)])
    calls = []
    real = exactla._rank_mod_p_numpy

    def counted(m, p):
        calls.append(p)
        return real(m, p)

    monkeypatch.setattr(exactla, "_rank_mod_p_numpy", counted)
    rep = os_cohomology_dims(arr, [Fraction(x, 11) for x in (1, 2, 3, -1, 5, 4, -3, 7)])
    assert rep.dims == (0,) * 9
    assert len(calls) == 8


def test_composite_modulus_uses_unit_invariant_factors():
    b2 = catalog.get("boolean(2)")
    rep = modN_cohomology_ranks(b2, (2, 2), 4)
    assert rep.dims == (1, 2, 1)
    assert rep.invariant_factors == ((2,), (2,), ())
    assert any("units" in note for note in rep.notes)
    assert rep.ring == ("Z", 4)


def test_composite_modulus_without_reduction():
    # weights divisible by 2 modulo 6 stay mod 6: nothing is a unit, so the
    # boundary ranks vanish and the dims equal the Whitney numbers
    sec = catalog.get("ceva3-section")
    k6 = tuple(2 * x for x in (1, 1, 1, 1, 1, 1, -2, -2, -2))
    rep = modN_cohomology_ranks(sec, k6, 6)
    assert rep.dims == (1, 9, 24)
    assert any("units" in note for note in rep.notes)


def test_prime_modulus_matches_smith_unit_count():
    # the GF(p) fast path agrees with counting invariant factors coprime to p
    sec = catalog.get("ceva3-section")
    k = (1, 1, 1, 1, 1, 1, -2, -2, -2)
    for q in (0, 1):
        dense = aomoto_matrix(sec, q).evaluate(k)
        factors = smith_normal_form(dense)
        assert rank_mod_p(dense, 3) == sum(1 for d in factors if d % 3)


def test_modn_rejects_bad_modulus():
    sec = catalog.get("ceva3-section")
    with pytest.raises(ValueError):
        modN_cohomology_ranks(sec, (1,) * 9, 0)


# ---------------------------------------------------------------------------
# products and scaling


def test_kunneth_convolution_over_q():
    r1 = os_cohomology_dims(catalog.get("ceva3-section"), CEVA_WEIGHTS)
    r2 = os_cohomology_dims(catalog.get("maclane-section"), MACLANE_SECTION_WEIGHTS)
    prod = kunneth_product(r1, r2)
    assert prod.dims == (0, 0, 0, 13, 221)
    assert prod.ring == ("Q",)


def test_kunneth_convolution_mod_3():
    r1 = modN_cohomology_ranks(
        catalog.get("ceva3-section"), (1, 1, 1, 1, 1, 1, -2, -2, -2), 3
    )
    r2 = modN_cohomology_ranks(
        catalog.get("maclane-section"), (1, 0, -1, 1, -1, -1, 1, 0), 3
    )
    prod = kunneth_product(r1, r2)
    assert prod.dims == (0, 0, 2, 46, 252)


def test_kunneth_rejects_mixed_rings():
    r1 = os_cohomology_dims(catalog.get("ceva3-section"), CEVA_WEIGHTS)
    r2 = modN_cohomology_ranks(
        catalog.get("maclane-section"), (1, 0, -1, 1, -1, -1, 1, 0), 3
    )
    with pytest.raises(ValueError):
        kunneth_product(r1, r2)


def test_scaling_equivalence():
    arr = catalog.get("ceva3-section")
    for c in (2, -1, 5):
        assert scaling_equivalence_check(arr, CEVA_WEIGHTS, c)
    with pytest.raises(ValueError):
        scaling_equivalence_check(arr, CEVA_WEIGHTS, 0)
