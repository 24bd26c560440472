"""Local-system cohomology over Q and over Z/N."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oscoh
from oscoh import build_arrangement, catalog, cohom, exactla, product_arrangement
from oscoh.cohom import (
    WeightVector,
    modN_cohomology_ranks,
    os_cohomology_dims,
    os_cohomology_dims_stack,
    poincare_str,
)
from oscoh.exactla import NumberField, bareiss_rank, field_rank, rank_mod_p, rank_over_Q, rank_stack, smith_normal_form
from oscoh.matroid import vector_matroid
from oscoh.osalg import aomoto_matrix
from oscoh.resonance import betti_bounds, edge_weights, in_V, in_W, resonance_membership, yuzvinsky_vanishing

from conftest import CATALOG_NAMES, affine_lines, braid_rows, empty_rank_cache, random_weight_vector

CEVA_WEIGHTS = tuple(Fraction(x, 3) for x in (1, 1, 1, 1, 1, 1, -2, -2, -2))
LSTRICT_WEIGHTS = tuple(Fraction(x, 2) for x in (1, 0, 0, 1, 1, 0, 1))
MACLANE_SECTION_WEIGHTS = tuple(Fraction(x, 3) for x in (1, 0, -1, 1, -1, -1, 1, 0))


def full_ranks(arr, k, p=None):
    """Ranks of every boundary of the full complex at the integer weights
    k, by Bareiss (or modulo the prime p) on the evaluated matrix."""
    out = []
    for q in range(arr.rank + 1):
        mat = aomoto_matrix(arr, q).evaluate(list(k))
        out.append(bareiss_rank(mat) if p is None else rank_mod_p(mat, p))
    return tuple(out)


def bareiss_dims(arr, k, p=None):
    """Dims b_q - r_q - r_(q-1) of the full complex at the weights k."""
    ranks = (0,) + full_ranks(arr, k, p)
    betti = arr.betti_numbers()
    return tuple(betti[q] - ranks[q + 1] - ranks[q] for q in range(arr.rank + 1))


def three_concurrent_lines():
    return build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, 0]])


# ---------------------------------------------------------------------------
# weight vectors


def test_weight_vector_minimal_modulus():
    wv = WeightVector([Fraction(1, 3), Fraction(-2, 3)])
    assert wv.N == 3
    assert wv.k == (1, -2)
    assert len(wv) == 2


def test_weight_vector_integer_weights():
    wv = WeightVector([2, -5, 0])
    assert wv.N == 1
    assert wv.k == (2, -5, 0)


def test_from_modular_reduces_common_factors():
    # the modular pair k = (2, 4), N = 6 as weights k/N
    wv = WeightVector([Fraction(x, 6) for x in (2, 4)])
    assert wv.lam == (Fraction(1, 3), Fraction(2, 3))
    assert wv.N == 3
    assert wv.k == (1, 2)


def test_translate_shifts_by_integers():
    wv = WeightVector([Fraction(1, 3), Fraction(-2, 3)])
    shifted = WeightVector([l + m for l, m in zip(wv.lam, (1, -1))])
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
    # the report's ranks follow from its dims, which come from the factors
    # (Kunneth); at the README weights mu^3 is resonant
    arr = catalog.get("product-example")
    generic = tuple(
        Fraction(x, 7) for x in (1, 2, 3, -1, -2, -3, 4, 5, 1, 2, -4, 3, 1, -1, 2, 5, 1)
    )
    lams = (CEVA_WEIGHTS + MACLANE_SECTION_WEIGHTS, generic)
    dims = []
    for lam in lams:
        empty_rank_cache(arr, *arr.product_factors)  # rank afresh, not from another test
        rep = os_cohomology_dims(arr, lam)
        k = list(WeightVector(lam).k)
        unbounded = tuple(
            rank_over_Q(aomoto_matrix(arr, q).evaluate(k))
            for q in range(arr.rank + 1)
        )
        assert rep.ranks == unbounded, lam
        dims.append(rep.dims)
    assert rep.dims == (0, 0, 0, 0, 208)
    empty_rank_cache(arr, *arr.product_factors)
    stacked = os_cohomology_dims_stack(arr, [WeightVector(lam).k for lam in lams])
    assert [tuple(row) for row in stacked.tolist()] == dims


def test_matrices_above_the_stack_budget_are_ranked_one_at_a_time(monkeypatch):
    # With the budget below mu^1 (9 x 24) of ceva3-section, each of its
    # matrices is evaluated and ranked on its own, while mu^0 (1 x 9) is
    # still stacked; the dims agree with Bareiss ranks of each matrix.
    # cohom._ranks is called directly: the non-resonance certificate answers
    # most of these rows before it.
    from oscoh.osalg import AomotoMatrix

    arr = catalog.get("ceva3-section")
    empty_rank_cache(arr)  # rank afresh, not from another test
    monkeypatch.setattr(cohom, "STACK_CELLS", 100)
    sizes = {}
    real = AomotoMatrix.evaluate_stack

    def recorded(self, K):
        sizes.setdefault(self.shape, []).append(len(K))
        return real(self, K)

    monkeypatch.setattr(AomotoMatrix, "evaluate_stack", recorded)
    K = [[1, 1, 1, 1, 1, 1, -2, -2, -2], [1, 2, -1, 3, 1, 0, 2, 1, 1], [2, 1, -3, 1, 1, 1, 4, 1, 2], [1, 0, 0, 0, 1, 0, 0, 0, 1]]
    ranks = cohom._ranks(arr, exactla._exact_ints(K), None)
    got = np.array(arr.betti_numbers()) - ranks[:, 1:] - ranks[:, :-1]
    mu1 = aomoto_matrix(arr, 1).shape
    assert mu1[0] * mu1[1] > 100 and sizes[mu1] == [1, 1, 1, 1]
    assert sizes[aomoto_matrix(arr, 0).shape] == [4]
    assert [tuple(row) for row in got.tolist()] == [bareiss_dims(arr, k) for k in K]


def test_weights_at_minus_two_to_the_63_are_not_wrapped():
    # -2**63 fits in int64, but its negation does not: mu^1 has an entry
    # -k_2, which must read 2**63, and the cache keys the row as given
    arr = build_arrangement([[0, 1, 0], [1, 0, 0], [1, 1, 1]])
    k = (1 - 2**62, -(2**63), -(2**62))
    assert 2**63 in aomoto_matrix(arr, 1).evaluate(k)[0]
    dims = bareiss_dims(arr, k)
    assert os_cohomology_dims(arr, [Fraction(x, 2**62) for x in k]).dims == dims
    K = np.array([k, (1, 2, 3)], dtype=np.int64)
    assert tuple(os_cohomology_dims_stack(arr, K)[0].tolist()) == dims


def test_exact_degrees_are_proved_by_one_prime_each(monkeypatch):
    # Away from resonance every degree reaches its d**2 = 0 bound
    # b_q - rank mu^(q-1) modulo the first prime.  On the decone of A_4 at
    # generic weights cohom._ranks (called directly: the non-resonance
    # certificate answers these weights before it) takes one modular
    # elimination for each of the three boundaries.  boolean(8) at weights
    # whose sum is non-zero takes none: its complex is exact, so no matrix
    # is ranked.
    calls = []
    real = exactla._rank_mod_p_numpy

    def counted(m, p):
        calls.append(p)
        return real(m, p)

    monkeypatch.setattr(exactla, "_rank_mod_p_numpy", counted)
    decone = build_arrangement(braid_rows(4)).decone()
    ranks = cohom._ranks(decone, exactla._exact_ints([(1, 2, 3, -1, 5, 4, -3, 7, 2)]), None)[0]
    dims = [b - ranks[q + 1] - ranks[q] for q, b in enumerate(decone.betti_numbers())]
    assert dims == [0, 0, 0, abs(decone.euler_characteristic())]
    assert len(calls) == 3
    calls.clear()
    arr = build_arrangement([[int(i == j) for j in range(9)] for i in range(8)])
    rep = os_cohomology_dims(arr, [Fraction(x, 11) for x in (1, 2, 3, -1, 5, 4, -3, 7)])
    assert rep.dims == (0,) * 9
    assert len(calls) == 0


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


def smith_rule(arr, k, N):
    """Composite-N ranks and invariant factors from the integer Smith form
    of each full boundary matrix: a rank counts the elementary divisors d_i
    coprime to N, and the factors are the gcd(d_i, N) not 0 mod N."""
    ranks, factors = [], []
    for q in range(arr.rank + 1):
        mat = aomoto_matrix(arr, q)
        d = smith_normal_form(mat.evaluate(k)) if mat.row_monomials and mat.col_monomials else []
        ranks.append(sum(gcd(x, N) == 1 for x in d))
        factors.append(tuple(gcd(x, N) for x in d if x % N))
    return tuple(ranks), tuple(factors)


def small_zero_sum(rng, k):
    """k moved one unit at a time, within -2..2, until it sums to 0."""
    k = list(k)
    while sum(k):
        s = 1 if sum(k) > 0 else -1
        i = rng.choice([i for i, x in enumerate(k) if x != -2 * s])
        k[i] -= s
    return k


COMPOSITE = (4, 6, 8, 9, 12, 30, 210)


# product-example's integer Smith forms take seconds each; a smaller
# product of catalog entries stands in for it
@pytest.mark.parametrize(
    "name", [n for n in CATALOG_NAMES if n != "product-example"] + ["boolean(2) x maclane-section"]
)
def test_composite_modulus_matches_the_smith_rule(name):
    if " x " in name:
        arr = product_arrangement(*map(catalog.get, name.split(" x ")))
    else:
        arr = catalog.get(name)
    betti = arr.betti_numbers()
    rng = random.Random(name)
    for N in COMPOSITE:
        k = [rng.randint(-2, 2) for _ in range(arr.n)]
        for kk in (k, small_zero_sum(rng, k)):
            rep = modN_cohomology_ranks(arr, kk, N)
            ranks, factors = smith_rule(arr, kk, N)
            assert (rep.ranks, rep.invariant_factors) == (ranks, factors), (N, kk)
            assert rep.dims == tuple(
                b - r - (ranks[q - 1] if q else 0) for q, (b, r) in enumerate(zip(betti, ranks))
            )
            assert "units" in rep.notes[0]
            primes = [p for p in (2, 3, 5, 7) if N % p == 0]
            assert all(x.split(":")[0] in {f"mod {p}" for p in primes} for x in rep.notes[1:])
            if arr.central or arr.product_factors is not None:
                assert len(rep.notes) > 1  # a reduction proved each prime's ranks


def test_composite_reports_depend_only_on_k_mod_N():
    b2 = catalog.get("boolean(2)")
    assert modN_cohomology_ranks(b2, (6, 6), 4).invariant_factors == ((2,), (2,), ())
    rng = random.Random(10)
    for name in ("boolean(2)", "ceva3-section", "maclane", "example-lstrict"):
        arr = catalog.get(name)
        for N in (4, 8, 9, 12, 30):
            k = [rng.randint(-2, 2) for _ in range(arr.n)]
            lift = [x + N * rng.randint(-3, 3) for x in k]
            a = modN_cohomology_ranks(arr, k, N).to_dict()
            b = modN_cohomology_ranks(arr, lift, N).to_dict()
            assert a.pop("weights") != b.pop("weights") or k == lift
            assert a == b, (name, N, k, lift)


def test_composite_moduli_need_no_smith_normal_form(monkeypatch):
    def refuse(rows):
        raise AssertionError("integer Smith normal form called")

    monkeypatch.setattr(exactla, "smith_normal_form", refuse)
    monkeypatch.setattr(oscoh, "smith_normal_form", refuse)
    mac = catalog.get("maclane")
    rep = modN_cohomology_ranks(mac, (-1, -3, -3, 3, 2, -3, 3, -3), 10)
    assert rep.dims == (0, 0, 7, 7) and rep.ranks == (1, 7, 6, 0)
    rep = modN_cohomology_ranks(catalog.get("ceva3-section"), (2, 2, 2, 2, 2, 2, -4, -4, 4), 8)
    assert rep.invariant_factors[0] == (2,)
    sec = catalog.get("maclane-section")
    lam = MACLANE_SECTION_WEIGHTS[:-1] + (Fraction(1, 2),)
    bounds = betti_bounds(sec, lam)
    assert bounds.N == 6 and "units" in bounds.convention_notes[1]
    assert bounds.upper == modN_cohomology_ranks(sec, WeightVector(lam).k, 6).dims


def test_composite_moduli_build_no_full_complex_without_a_square_factor():
    # N = 6 is squarefree: the invariant factors come from the ranks mod 2
    # and mod 3, so the product's own Aomoto matrices are never assembled
    prod = product_arrangement(catalog.get("ceva3-section"), catalog.get("maclane-section"))
    rep = modN_cohomology_ranks(prod, [1] * prod.n, 6)
    assert rep.dims == (0, 0, 0, 26, 234) and len(rep.invariant_factors) == 5
    assert not any(key[0] == "aomoto" for key in prod._cache if isinstance(key, tuple))


def test_bounds_compute_no_invariant_factors(monkeypatch):
    # N = 4 has a square factor, but the upper bound needs only the ranks
    # mod 2, not the elimination over Z/4
    prod = catalog.get("product-example")
    lam = [Fraction((-1) ** i, 4) for i in range(prod.n)]
    want = modN_cohomology_ranks(prod, WeightVector(lam).k, 4)

    def refuse(m, p, e=1):
        raise AssertionError("elimination over Z/p^e called")

    monkeypatch.setattr(cohom, "_local_smith", refuse)
    rep = betti_bounds(prod, lam, box=0)
    assert rep.upper == want.dims and rep.convention_notes[1:] == want.notes


def test_moduli_past_2_64_are_factored_or_refused():
    sec = catalog.get("ceva3-section")
    k = (1, 1, 1, 1, 1, 1, -2, -2, 5)
    m31, m61 = 2**31 - 1, 2**61 - 1
    rep = modN_cohomology_ranks(sec, k, m31 * m61)
    per_prime = [modN_cohomology_ranks(sec, k, p).ranks for p in (m31, m61)]
    assert rep.ranks == tuple(map(min, *per_prime))
    assert rep.invariant_factors == smith_rule(sec, list(k), m31 * m61)[1]
    big = [n for n in range(2**100, 2**100 + 1000) if exactla.is_prime(n)][:2]
    with pytest.raises(ValueError, match=str(big[0] * big[1])):
        modN_cohomology_ranks(sec, k, big[0] * big[1])


# ---------------------------------------------------------------------------
# the rank driver and its cache


def test_the_rank_cache_keys_ranks_by_their_field():
    # k is keyed as given over Q and reduces to itself mod 2, so only the
    # field tells the two cached ranks apart; both orders must hold.  Over Q
    # cohom._ranks is called directly: the non-resonance certificate answers
    # k before it.
    sec = catalog.get("ceva3-section")
    k = (0, 0, 0, 1, 0, 0, 1, 0, 0)
    for mod_2_first in (True, False):
        empty_rank_cache(sec)
        calls = [
            lambda: modN_cohomology_ranks(sec, k, 2).dims == (0, 1, 17),
            lambda: cohom._ranks(sec, exactla._exact_ints([k]), None)[0].tolist() == [0, 1, 8, 0],
        ]
        for call in calls if mod_2_first else calls[::-1]:
            assert call(), mod_2_first
        row = exactla._row_keys(np.array([k]))[0]
        assert sec._cache["ranks"] == {(2, row): (1, 7, 0), (None, row): (1, 8, 0)}


def test_translate_keys_hash_apart_at_the_mersenne_prime_2_61():
    # Python hashes an int mod 2**61 - 1, so a tuple of the translate
    # k + N*m at N = 2**61 - 1 hashes like k; a row's key hashes its bytes.
    # The box-1 translates of betti_bounds go to cohom._ranks directly
    # (the non-resonance certificate answers most of them before it), and
    # the upper bound mod N adds its own key.
    from oscoh.resonance import _translate_chunks

    sec = catalog.get("ceva3-section")
    N = 2**61 - 1
    lam = [Fraction(x, N) for x in (1, 2, 3, 4, 5, 6, 7, 8, -9)]
    k = np.array(WeightVector(lam).k, dtype=np.int64)
    empty_rank_cache(sec)
    for m in _translate_chunks(len(lam), 1):
        cohom._ranks(sec, k + N * m, None)
    modN_cohomology_ranks(sec, k, N)
    keys = sec._cache["ranks"]
    assert len(keys) > 3**9 and len(set(map(hash, keys))) == len(keys)


def test_a_row_from_int64_and_from_python_integer_stacks_is_ranked_once(monkeypatch):
    # cohom._ranks is called directly: the non-resonance certificate answers
    # these rows before it
    sec = catalog.get("ceva3-section")
    k = [1, 1, 1, 1, 1, 1, -2, -2, 5]
    past = k[:-1] + [2**64 + 5]  # its stack holds Python integers
    ranked = []  # the stack size of each rank_stack call
    real = cohom.rank_stack

    def counted(stack, upper, p):
        ranked.append(len(stack))
        return real(stack, upper, p)

    monkeypatch.setattr(cohom, "rank_stack", counted)
    empty_rank_cache(sec)
    want = cohom._ranks(sec, exactla._exact_ints([k]), None)
    first = len(ranked)
    got = cohom._ranks(sec, exactla._exact_ints([past, k]), None)
    assert (got[1] == want[0]).all()
    assert first and ranked == [1] * (2 * first) and len(sec._cache["ranks"]) == 2


@pytest.mark.parametrize("p", [2**89 - 1, 2**127 - 1])
def test_primes_past_2_63_rank_on_the_merged_path(p):
    # residues mod p are Python integers (object arrays) on every path
    sec = catalog.get("ceva3-section")
    k = [x + p for x in (1, 1, 1, 1, 1, 1, -2, -2, 5)]
    rep = modN_cohomology_ranks(sec, k, p)
    assert rep.notes == [] and rep.dims == (0, 0, 16) == bareiss_dims(sec, k, p)
    assert rep.ranks == full_ranks(sec, k, p)
    ceva = catalog.get("ceva3")
    k = [x + p for x in (1, 1, 1, 1, 1, 1, -2, -2, -2)]  # sum 9p: the decone
    rep = modN_cohomology_ranks(ceva, k, p)
    assert "decone" in rep.notes[0]
    assert rep.dims == (0, 1, 11, 10) == bareiss_dims(ceva, k, p)
    assert rep.ranks == full_ranks(ceva, k, p)


@pytest.mark.parametrize("name", ["boolean(4)", "ceva3", "example-lstrict", "maclane", "maclane-matroid"])
def test_primes_past_2_63_answer_small_weights_on_central_arrangements(name):
    # the weight sums are reduced mod p in Python integers, at a zero sum
    # (the decone) and at a non-zero one (an exact complex)
    arr = catalog.get(name)
    zero_sum = list(range(1, arr.n)) + [-sum(range(1, arr.n))]
    for k in (zero_sum, list(range(1, arr.n + 1))):
        assert modN_cohomology_ranks(arr, k, 2**89 - 1).dims == os_cohomology_dims(arr, k).dims


def test_a_prime_modulus_is_proved_prime_once():
    sec = catalog.get("ceva3-section")
    empty_rank_cache(sec)  # so every degree is ranked at p
    exactla.is_prime.cache_clear()
    modN_cohomology_ranks(sec, (1, 2, 3, 4, 5, 6, 7, 8, -9), 2**61 - 1)
    info = exactla.is_prime.cache_info()
    assert info.misses == 1 and info.hits >= 1


def _k(bad):
    return [1] * 8 + [bad]


def _m(bad):
    return [[1, 2], [3, bad]]


# Every public entry that takes integer weights, matrices or moduli, called
# on ceva3-section with one non-integer.
NON_INTEGER_CALLS = {
    "modN weights": lambda sec, bad: modN_cohomology_ranks(sec, _k(bad), 7),
    "modN modulus": lambda sec, bad: modN_cohomology_ranks(sec, _k(1), 7 + bad),
    "vanishing weights": lambda sec, bad: yuzvinsky_vanishing(sec, _k(bad), 7),
    "vanishing prime": lambda sec, bad: yuzvinsky_vanishing(sec, _k(1), 7 + bad),
    "evaluate": lambda sec, bad: aomoto_matrix(sec, 1).evaluate(_k(bad)),
    "evaluate_stack": lambda sec, bad: aomoto_matrix(sec, 1).evaluate_stack(np.array([_k(bad)])),
    "dims stack": lambda sec, bad: os_cohomology_dims_stack(sec, [_k(bad)]),
    "rank_over_Q": lambda sec, bad: rank_over_Q(_m(bad)),
    "rank_mod_p": lambda sec, bad: rank_mod_p(_m(bad), 5),
    "rank_mod_p prime": lambda sec, bad: rank_mod_p(_m(4), 7 + bad),
    "rank_stack": lambda sec, bad: rank_stack([_m(bad)], [2]),
    "rank_stack prime": lambda sec, bad: rank_stack([_m(4)], [2], 7 + bad),
    "bareiss_rank": lambda sec, bad: bareiss_rank(_m(bad)),
    "smith_normal_form": lambda sec, bad: smith_normal_form(_m(bad)),
    "NumberField": lambda sec, bad: NumberField([1, bad, 1]),
    "bounds box": lambda sec, bad: betti_bounds(sec, CEVA_WEIGHTS, bad),
}


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), 1.0], ids=["float", "fraction", "integral-float"])
@pytest.mark.parametrize("entry", list(NON_INTEGER_CALLS))
def test_non_integers_are_refused_rather_than_truncated(entry, bad):
    with pytest.raises(ValueError, match="expected an integer"):
        NON_INTEGER_CALLS[entry](catalog.get("ceva3-section"), bad)


def _lam(bad):
    return (bad,) + CEVA_WEIGHTS[1:]


# Entries that take rational weights or exact entries: a float's binary
# value is no weight, and 0.1 read at it is not 1/10.
NON_RATIONAL_CALLS = {
    "WeightVector": lambda sec, bad: WeightVector(_lam(bad)),
    "os_cohomology_dims": lambda sec, bad: os_cohomology_dims(sec, _lam(bad)),
    "betti_bounds": lambda sec, bad: betti_bounds(sec, _lam(bad)),
    "edge_weights": lambda sec, bad: edge_weights(sec, _lam(bad)),
    "in_W": lambda sec, bad: in_W(sec, _lam(bad)),
    "in_V": lambda sec, bad: in_V(sec, _lam(bad)),
    "resonance_membership": lambda sec, bad: resonance_membership(sec, _lam(bad), 1),
    "scaling weights": lambda sec, bad: os_cohomology_dims(sec, [2 * x for x in _lam(bad)]),
    "scaling factor": lambda sec, bad: os_cohomology_dims(sec, [bad * x for x in CEVA_WEIGHTS]),
    "build_arrangement form": lambda sec, bad: build_arrangement([[1, 0, bad], [0, 1, 0], [1, 1, 0]]),
    "NumberField coefficient": lambda sec, bad: NumberField([1, 1, 1])([bad, 1]),
    "vector_matroid": lambda sec, bad: vector_matroid([[1, 0], [0, bad]]),
    "field_rank": lambda sec, bad: field_rank(_m(bad)),
}


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5), 1.0], ids=["float", "numpy-float", "integral-float"])
@pytest.mark.parametrize("entry", list(NON_RATIONAL_CALLS))
def test_floats_are_refused_as_rational_weights(entry, bad):
    with pytest.raises(ValueError, match="expected an exact rational"):
        NON_RATIONAL_CALLS[entry](catalog.get("ceva3-section"), bad)


def test_a_mod_p_rank_above_the_complex_bound_is_refused(monkeypatch):
    # rank mu^q <= b_q - rank mu^(q-1) holds mod p as well; a kernel that
    # overstates the rank of mu^1 breaks it and the driver refuses
    real = exactla._rank_mod_p_numpy

    def overstated(m, p):
        return real(m, p) + (m.shape[1:] == aomoto_matrix(sec, 1).shape)

    sec = catalog.get("ceva3-section")
    k = (1, 1, 1, 1, 1, 1, -2, -2, 5)
    empty_rank_cache(sec)
    assert modN_cohomology_ranks(sec, k, 11).ranks == (1, 8, 0)  # mu^1 at its bound
    empty_rank_cache(sec)
    monkeypatch.setattr(exactla, "_rank_mod_p_numpy", overstated)
    with pytest.raises(ValueError, match="rank 9 exceeds the claimed upper bound 8"):
        modN_cohomology_ranks(sec, k, 11)
    empty_rank_cache(sec)  # drop what the overstating kernel left


# ---------------------------------------------------------------------------
# products and scaling

KUNNETH_NOTE = "Kunneth over the factors (9 + 8 hyperplanes)"


def test_kunneth_convolution_over_q():
    # product-example is ceva3-section x maclane-section: the package
    # convolves its factors' dims rather than rank the product's complex
    prod = os_cohomology_dims(catalog.get("product-example"), CEVA_WEIGHTS + MACLANE_SECTION_WEIGHTS)
    assert prod.dims == (0, 0, 0, 13, 221)
    assert prod.ring == ("Q",)
    assert prod.notes[0] == KUNNETH_NOTE


def test_kunneth_convolution_mod_3():
    k = (1, 1, 1, 1, 1, 1, -2, -2, -2) + (1, 0, -1, 1, -1, -1, 1, 0)
    prod = modN_cohomology_ranks(catalog.get("product-example"), k, 3)
    assert prod.dims == (0, 0, 2, 46, 252)
    assert prod.notes[0] == KUNNETH_NOTE


def test_scaling_equivalence():
    arr = catalog.get("ceva3-section")
    dims = os_cohomology_dims(arr, CEVA_WEIGHTS).dims
    for c in (2, -1, 5):
        assert os_cohomology_dims(arr, [c * x for x in CEVA_WEIGHTS]).dims == dims


def test_a_scaled_weight_is_ranked_afresh_and_agrees(monkeypatch):
    # The rank cache keys a row as given, so the dims at -2*lam are ranked
    # again rather than read back from lam's entry, and the paper's scaling
    # invariance is checked by two computations.  At the README weights
    # ceva3-section is resonant: no certificate answers before the ranks.
    sec = catalog.get("ceva3-section")
    empty_rank_cache(sec)
    want = os_cohomology_dims(sec, CEVA_WEIGHTS).dims
    calls = []
    real = cohom.rank_stack

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cohom, "rank_stack", counted)
    assert os_cohomology_dims(sec, [-2 * x for x in CEVA_WEIGHTS]).dims == want == (0, 1, 17)
    assert calls


# ---------------------------------------------------------------------------
# the reduction before ranking: Kunneth, exact central complexes, the decone

REDUCTION = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
# small factors for products: central of rank 1 and 2, and three affine lines
SMALL_FACTORS = {
    "boolean(1)": lambda: catalog.get("boolean(1)"),
    "boolean(2)": lambda: catalog.get("boolean(2)"),
    "triangle": lambda: build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, -1]]),
}


@st.composite
def central_arrangements(draw):
    """A central arrangement of integer forms through the origin in 3 or 4
    variables, alone or times a small arrangement (first or second)."""
    dim = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(dim, dim + 2))
    forms = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=n, max_size=n)
    )
    try:
        arr = build_arrangement([list(f) + [0] for f in forms])
    except ValueError:
        assume(False)
    other = draw(st.sampled_from([None, *SMALL_FACTORS]))
    if other is not None:
        pair = (arr, SMALL_FACTORS[other]())
        arr = product_arrangement(*(pair if draw(st.booleans()) else pair[::-1]))
    return arr


def zero_sum(row, lo, hi, target=0):
    """The row with k[hi-1] changed so that row[lo:hi] sums to target."""
    row = list(row)
    row[hi - 1] += target - sum(row[lo:hi])
    return row


def weight_stack(draw, arr, p):
    """Rows mixing zero-sum and non-zero-sum weights (over Q, mod p only,
    and per factor of a product), with repeated rays."""
    blocks = [(0, arr.n)]
    if arr.product_factors is not None:
        n1 = arr.product_factors[0].n
        blocks += [(0, n1), (n1, arr.n)]
    rows = []
    for _ in range(draw(st.integers(2, 4))):
        row = [draw(st.integers(-3, 3)) for _ in range(arr.n)]
        kind = draw(st.sampled_from(["free", "zero", "mod p"]))
        lo, hi = draw(st.sampled_from(blocks))
        if kind != "free":
            row = zero_sum(row, lo, hi, 0 if kind == "zero" else p)
        rows.append(row)
    rows.append([2 * x for x in rows[0]])  # the same ray as the first row
    rows.append([-x for x in rows[1]])
    return rows


@REDUCTION
@given(central_arrangements(), st.sampled_from([2, 3, 5, 7]), st.data())
def test_reduced_dims_match_the_full_complex(arr, p, data):
    K = weight_stack(data.draw, arr, p)
    stacked = os_cohomology_dims_stack(arr, K).tolist()
    for k, got in zip(K, stacked):
        ranks = full_ranks(arr, k)
        dims = bareiss_dims(arr, k)
        assert tuple(got) == dims, (k, got, dims)
        rep = os_cohomology_dims(arr, k)
        assert (rep.dims, rep.ranks) == (dims, ranks), k
        mod = modN_cohomology_ranks(arr, k, p)
        assert (mod.dims, mod.ranks) == (bareiss_dims(arr, k, p), full_ranks(arr, k, p)), k


def test_rank_one_central_arrangement():
    # one hyperplane in C^1: mu^0 is multiplication by k_1
    arr = build_arrangement([[2, 0]])
    for k in ((0,), (3,), (-5,)):
        rep = os_cohomology_dims(arr, k)
        assert (rep.dims, rep.ranks) == (bareiss_dims(arr, k), full_ranks(arr, k))
        for p in (2, 3, 5):
            mod = modN_cohomology_ranks(arr, k, p)
            assert (mod.dims, mod.ranks) == (bareiss_dims(arr, k, p), full_ranks(arr, k, p))
    assert os_cohomology_dims(arr, (0,)).dims == (1, 1)
    assert modN_cohomology_ranks(arr, (5,), 5).dims == (1, 1)
    assert os_cohomology_dims_stack(arr, [[0], [3], [0], [-1]]).tolist() == [
        [1, 1], [0, 0], [1, 1], [0, 0]
    ]


def test_notes_name_the_reduction():
    prod = catalog.get("product-example")
    rep = os_cohomology_dims(prod, CEVA_WEIGHTS + MACLANE_SECTION_WEIGHTS)
    assert rep.notes == ["Kunneth over the factors (9 + 8 hyperplanes)"]
    ceva = catalog.get("ceva3")
    assert os_cohomology_dims(ceva, CEVA_WEIGHTS).notes == [
        "central, weight sum zero: decone at H_9 (y-w2z)"
    ]
    exact = ["central, weight sum non-zero: the complex is exact"]
    assert os_cohomology_dims(ceva, (Fraction(1, 3),) * 9).notes == exact
    # mod 3 the sum 9 of these weights is zero, so the decone is used
    assert modN_cohomology_ranks(ceva, (1,) * 9, 3).notes[0].startswith("central, weight sum zero")
    assert modN_cohomology_ranks(ceva, (1,) * 9, 5).notes == exact
    # a product of central factors names each factor's reduction
    b = catalog.get("boolean(1)")
    rep = os_cohomology_dims(product_arrangement(b, ceva), (1,) + (0,) * 9)
    assert rep.notes == [
        "Kunneth over the factors (1 + 9 hyperplanes)",
        "factor 1: central, weight sum non-zero: the complex is exact",
        "factor 2: central, weight sum zero: decone at H_9 (y-w2z)",
    ]
    assert rep.dims == (0,) * 5
    assert os_cohomology_dims(catalog.get("ceva3-section"), CEVA_WEIGHTS).notes == []


# ---------------------------------------------------------------------------
# the non-resonance certificate over Q, against the full complex

CERTIFIED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
AFFINE_COMPLEXES = {
    "A3 decone": lambda: build_arrangement(braid_rows(3)).decone(),
    "A4 decone": lambda: build_arrangement(braid_rows(4)).decone(),
    "A5 decone": lambda: build_arrangement(braid_rows(5)).decone(),
    "ceva3-section": lambda: catalog.get("ceva3-section"),
    "maclane-section": lambda: catalog.get("maclane-section"),
    "ceva3 decone": lambda: catalog.get("ceva3").decone(),
    "example-lstrict decone": lambda: catalog.get("example-lstrict").decone(),
    "maclane decone": lambda: catalog.get("maclane").decone(),
}
_BUILT: dict = {}


@st.composite
def affine_complexes(draw):
    """A decone of A_3-A_5 or of a central catalog entry, an affine catalog
    entry, or an affine arrangement of 3-6 random lines in the plane."""
    name = draw(st.sampled_from([*AFFINE_COMPLEXES, "random lines"]))
    if name in AFFINE_COMPLEXES:
        return _BUILT.setdefault(name, AFFINE_COMPLEXES[name]())
    return draw(affine_lines())


def edge_sum(k, hs, n):
    """Weight of the closure edge through the hyperplanes hs, where H_inf
    (index n) weighs -sum k."""
    return sum(k[i] for i in hs if i < n) - (sum(k) if n in hs else 0)


def forced(k, hs, n, target, c):
    """k with entry c changed so that the edge hs weighs target; c is in hs
    when H_inf is not, and outside hs when it is."""
    k = list(k)
    k[c] += (target - edge_sum(k, hs, n)) * (-1 if n in hs else 1)
    return k


def adjustable(hs, n):
    """The entries whose change moves the weight of the edge hs."""
    return sorted(i for i in range(n) if (i in hs) != (n in hs))


def proper_dense_edges(arr):
    """The dense edges of the projective closure other than its center,
    read from the closure's lattice, by codimension."""
    closure, _ = arr.projective_closure()
    return [f for f in closure.dense_edges() if f.codim < closure.rank]


def local_row(X, n):
    """Weights supported on the closure edge X and weighing 0 there, with
    no other zero edge through a hyperplane of X except those containing
    X: distinct powers of 2 on X, the last one replaced by minus the sum of
    the others when H_inf (index n) is not in X."""
    row = [0] * n
    for t, i in enumerate(sorted(X - {n})):
        row[i] = 2**t
    if n not in X:
        row[max(X)] -= edge_sum(row, X, n)
    return row


def certificate_rows(draw, arr, p):
    """Weight rows of three kinds, over Q and for the prime p:
    * generic rows;
    * near misses: one dense edge through each of up to three tried
      hyperplanes of the closure forced to weigh 0, or p times +-1;
    * local rows, supported on one dense edge X (with H_inf weighing
      -sum k) and weighing 0 there: at any X, and at an X of the highest
      codimension, which no other proper edge lies in; the first also plus
      p times a generic row, so that p divides the edge sums while none of
      them is 0."""
    n = arr.n
    flats = proper_dense_edges(arr)
    edges = [f.hyperplanes for f in flats]
    highest = [f.hyperplanes for f in flats if f.codim == flats[-1].codim]
    small = st.integers(-6, 6)
    generic = [draw(small) for _ in range(n)]
    near = {None: generic, p: generic}
    for j in draw(st.lists(st.integers(0, n), min_size=1, max_size=3, unique=True)):
        hs = draw(st.sampled_from([e for e in edges if j in e]))
        c = draw(st.sampled_from(adjustable(hs, n)))
        near[None] = forced(near[None], hs, n, 0, c)
        near[p] = forced(near[p], hs, n, p * draw(st.sampled_from([-1, 1])), c)
    local = []
    for X in (draw(st.sampled_from(edges)), draw(st.sampled_from(highest))):
        row = [draw(st.integers(1, 4)) * draw(st.sampled_from([-1, 1])) if i in X else 0 for i in range(n)]
        if n not in X:
            row = forced(row, X, n, 0, draw(st.sampled_from(adjustable(X, n))))
        local.append(row)
    lifted = [x + p * draw(small) for x in local[0]]
    return [generic, near[None], *local], [near[p], lifted]


def zero_edge_free(arr, K):
    """Per row of K, the first closure hyperplane on no dense edge of
    weight 0, or -1: the certificate's test over Q."""
    return arr.free_hyperplane(arr.closure_edge_weights(exactla._exact_ints(K)) == 0)


@CERTIFIED
@given(affine_complexes(), st.sampled_from([2, 3, 5]), st.data())
def test_certified_rows_match_the_full_complex(arr, p, data):
    # A row is certified at the first hyperplane H_j of the closure whose
    # proper dense edges all have non-zero weight; its dims are then
    # (0, ..., 0, |chi|), those of the full complex over Q ranked by
    # cohom._ranks, as the dims of every row are; Bareiss ranks confirm the
    # first certified row of each draw.  A row with no zero edge weight at
    # all is certified at H_1.  Over Z_p nothing is certified: rows whose
    # edge weights p divides, none of them 0, rank as the full complex does
    # mod p.
    K, K_p = certificate_rows(data.draw, arr, p)
    edges = [f.hyperplanes for f in proper_dense_edges(arr)]
    # a local row has a zero edge through every hyperplane: X through those
    # in X, and each other hyperplane itself
    local = [local_row(X, arr.n) for X in edges]
    assert (zero_edge_free(arr, local) < 0).all()
    top = (0,) * arr.rank + (abs(arr.euler_characteristic()),)
    certified = zero_edge_free(arr, K).tolist()
    stacked = os_cohomology_dims_stack(arr, K).tolist()
    ranks = cohom._ranks(arr, exactla._exact_ints(K), None)
    full = (np.array(arr.betti_numbers()) - ranks[:, 1:] - ranks[:, :-1]).tolist()
    confirmed = False
    for k, j, got, want in zip(K, certified, stacked, full):
        assert got == want, (k, j)
        weights = [(hs, edge_sum(k, hs, arr.n)) for hs in edges]
        if j >= 0:
            assert tuple(want) == top and all(w for hs, w in weights if j in hs), (k, j)
            if not confirmed:
                assert bareiss_dims(arr, k) == top, (k, j)
                confirmed = True
        if all(w for _, w in weights):
            assert j == 0, k
    for k in K_p:
        assert modN_cohomology_ranks(arr, k, p).dims == bareiss_dims(arr, k, p), k


def test_the_certificate_answers_generic_rows_and_names_its_hyperplane():
    # at least 15 of 20 random rows (|k| <= 9, no zero entry) of every
    # complex above are certified, and a single vector's notes name the
    # certificate (with the decone's prefix)
    rng = random.Random(5)
    for name, build in AFFINE_COMPLEXES.items():
        arr = _BUILT.setdefault(name, build())
        K = [[rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(arr.n)] for _ in range(20)]
        assert (zero_edge_free(arr, K) >= 0).sum() >= 15, name
    ceva = catalog.get("ceva3")
    rep = os_cohomology_dims(ceva, [Fraction(x, 5) for x in (1, 2, 3, -1, 4, 2, -3, 1, -9)])
    assert rep.dims == (0, 0, 9, 9)
    assert rep.notes == [
        "central, weight sum zero: decone at H_9 (y-w2z)",
        "decone: non-resonant: the dense edges in H_1 (x-y) of the closure have non-zero weight (Yuzvinsky)",
    ]


def test_primes_rank_as_before_the_certificate(monkeypatch):
    # At a prime N, a composite N and in yuzvinsky_vanishing every boundary
    # is ranked, one rank_stack call per degree and prime, even where the
    # certificate answers the same weights over Q with none.
    sec = catalog.get("ceva3-section")
    k = [1, 2, -1, 3, 1, 5, 2, 1, 1]
    ranked = []
    real = cohom.rank_stack

    def counted(stack, upper, p):
        ranked.append(p)
        return real(stack, upper, p)

    monkeypatch.setattr(cohom, "rank_stack", counted)
    for call, want in [
        (lambda: os_cohomology_dims(sec, k), []),
        (lambda: modN_cohomology_ranks(sec, k, 7), [7, 7]),
        (lambda: modN_cohomology_ranks(sec, k, 6), [2, 2, 3, 3]),
        (lambda: modN_cohomology_ranks(sec, k, 12), [2, 2, 3, 3]),
        (lambda: yuzvinsky_vanishing(sec, k, 5), [5, 5]),
    ]:
        empty_rank_cache(sec)
        ranked.clear()
        call()
        assert ranked == want


def test_a7_zero_sum_weights_are_certified_before_the_cell_budget():
    # The decone of A_7 has a degree-3 Aomoto matrix above CELL_BUDGET.  A
    # generic zero-sum weight needs none of its matrices; one the
    # certificate rejects (a local weight at a triple point) still raises.
    a7 = build_arrangement(braid_rows(7))
    rng = random.Random(7)
    k = [rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(a7.n - 1)]
    rep = os_cohomology_dims(a7, k + [-sum(k)])
    assert rep.dims == (0,) * 6 + (720, 720)
    assert rep.notes[1].startswith("decone: non-resonant: the dense edges in H_")
    local = [0] * a7.n
    local[0], local[1], local[7] = 1, 1, -2  # on x_1, x_2 and x_1 - x_2
    with pytest.raises(ValueError, match="cell budget"):
        os_cohomology_dims(a7, local)
