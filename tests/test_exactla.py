"""Exact linear algebra: integer ranks, Smith form, number fields."""

import random
from fractions import Fraction
from math import lcm

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oscoh import build_arrangement, exactla
from oscoh.exactla import (
    NotPrimeError,
    NumberField,
    bareiss_rank,
    field_rank,
    is_prime,
    rank_mod_p,
    rank_over_Q,
    rank_stack,
    smith_normal_form,
)

import oracles
from conftest import next_prime


def fraction_rank(rows):
    """Independent oracle: plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [e * inv for e in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def gf_rank(rows, p):
    """Independent oracle: plain Gaussian elimination over Z_p."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [e * inv % p for e in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def planted_rank_matrix(rng, n_rows, n_cols, r):
    """Integer matrix of rank exactly r (identity blocks force a full factor)."""
    u = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n_rows)]
    v = [[rng.randint(-4, 4) for _ in range(n_cols)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            u[i][j] = int(i == j)
            v[i][j] = int(i == j)
    return [
        [sum(u[i][k] * v[k][j] for k in range(r)) for j in range(n_cols)]
        for i in range(n_rows)
    ]


# ---------------------------------------------------------------------------
# primality


def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# psi_12 and psi_13, the least strong pseudoprimes to the first 12 and 13
# prime bases (Sorenson-Webster 2017), as their two prime factors
PSI_12 = (399165290221, 798330580441)
PSI_13 = (1287836182261, 2575672364521)


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31)
    assert not is_prime(1_000_003 * 1_000_033)
    for e in (89, 107, 127):
        assert is_prime(2**e - 1)
    # the primes past 2**100 that the modulus tests pick
    assert [n - 2**100 for n in range(2**100, 2**100 + 400) if is_prime(n)] == [277, 331]
    # each passes Miller-Rabin to every base of is_prime: the strong Lucas
    # test refuses it
    assert PSI_12[0] * PSI_12[1] == exactla._PSI_12
    for a, b in (PSI_12, PSI_13):
        assert not is_prime(a * b)


def test_the_strong_lucas_test_passes_every_prime_and_its_known_pseudoprimes():
    # the composites below 2 * 10**4 that pass are the first five strong
    # Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)
    passed = [n for n in range(3, 2 * 10**4, 2) if exactla._strong_lucas(n)]
    assert [n for n in passed if not is_prime(n)] == [5459, 5777, 10877, 16109, 18971]
    assert [n for n in passed if is_prime(n)] == [n for n in range(3, 2 * 10**4, 2) if is_prime(n)]


def test_not_prime_error_is_value_error():
    assert issubclass(NotPrimeError, ValueError)


def test_factorize_splits_moduli_below_2_64_and_past_them():
    assert exactla._factorize(1) == {}
    assert exactla._factorize(360) == {2: 3, 3: 2, 5: 1}
    assert exactla._factorize(2**64 - 1) == {
        3: 1, 5: 1, 17: 1, 257: 1, 641: 1, 65537: 1, 6700417: 1
    }
    m31, m61 = 2**31 - 1, 2**61 - 1
    assert exactla._factorize(m31 * m61) == {m31: 1, m61: 1}
    assert exactla._factorize(12 * m31**2) == {2: 2, 3: 1, m31: 2}
    # the hardest moduli below 2**64: two prime factors near 2**32
    rng = random.Random(64)
    for _ in range(4):
        a, b = sorted(next_prime(rng.randrange(2**31, 2**32)) for _ in range(2))
        assert exactla._factorize(a * b) == ({a: 2} if a == b else {a: 1, b: 1})
    for a, b in (PSI_12, PSI_13):
        assert exactla._factorize(a * b) == {a: 1, b: 1}


# ---------------------------------------------------------------------------
# integer ranks


def test_one_rule_chooses_int64_or_python_integers():
    assert exactla._exact_ints([[1, -2], [2**63 - 1, 0]]).dtype == np.int64
    for past in ([2**63], [-(2**63)], [Fraction(2**70)], np.array([-(2**63)])):
        assert exactla._exact_ints(past).dtype == object
    assert exactla._exact_ints([Fraction(6, 3), np.int32(5)]).tolist() == [2, 5]
    with pytest.raises(ValueError, match="expected an integer"):
        exactla._exact_ints(np.array([1.0]))
    a = np.ones(3, dtype=np.int64)
    assert exactla._widen(a, 2**63 - 1) is a
    assert exactla._widen(a, 2**63).dtype == object


def test_rank_of_empty_and_zero_matrices():
    assert bareiss_rank([]) == 0
    assert rank_over_Q([]) == 0
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert rank_over_Q([[0, 0], [0, 0]]) == 0
    assert rank_mod_p([[0, 0]], 5) == 0


def test_rank_known_small_matrices():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]  # rank 2: rows in arithmetic progression
    assert bareiss_rank(m) == 2
    assert rank_over_Q(m) == 2
    assert fraction_rank(m) == 2
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert bareiss_rank(ident) == rank_over_Q(ident) == 3


def test_rank_methods_agree_on_random_matrices():
    rng = random.Random(20253)
    for trial in range(30):
        n_rows = rng.randint(1, 7)
        n_cols = rng.randint(1, 7)
        m = [[rng.randint(-9, 9) for _ in range(n_cols)] for _ in range(n_rows)]
        expected = fraction_rank(m)
        assert bareiss_rank(m) == expected
        assert rank_over_Q(m) == expected


def test_rank_on_planted_rank_matrices():
    rng = random.Random(7)
    for trial in range(20):
        r = rng.randint(0, 5)
        n_rows = rng.randint(r, r + 4)
        n_cols = rng.randint(r, r + 4)
        if n_rows == 0 or n_cols == 0:
            continue
        m = planted_rank_matrix(rng, n_rows, n_cols, r)
        assert bareiss_rank(m) == r
        assert rank_over_Q(m) == r


def test_rank_survives_huge_entries():
    big = 10**40
    m = [[big, big + 1], [big + 2, big + 3]]
    assert rank_over_Q(m) == 2
    assert bareiss_rank(m) == 2


def test_rank_mod_p_drops_on_divisible_pivots():
    m = [[1, 0], [0, 5]]
    assert rank_mod_p(m, 5) == 1
    assert rank_mod_p(m, 3) == 2
    assert rank_over_Q(m) == 2


def test_rank_over_Q_stops_at_a_proven_upper_bound(monkeypatch):
    # 60 x 200 of rank 40: a bound of 40 settles it at the first prime
    m = planted_rank_matrix(random.Random(40), 60, 200, 40)
    calls = []
    real = exactla._rank_mod_p_numpy

    def counted(rows, p):
        calls.append(p)
        return real(rows, p)

    monkeypatch.setattr(exactla, "_rank_mod_p_numpy", counted)
    assert rank_over_Q(m, upper=40) == 40
    assert len(calls) == 1
    calls.clear()
    assert rank_over_Q(m) == 40
    assert len(calls) > 1  # without a bound the Hadamard certificate needs more
    with pytest.raises(ValueError, match="upper bound 39"):
        rank_over_Q(m, upper=39)


def test_rank_over_Q_multimodular_path_takes_huge_entries():
    # 30 x 300 runs the multimodular loop; rows scaled past 2**31 keep rank 20
    m = planted_rank_matrix(random.Random(41), 30, 300, 20)
    m = [[x * (2**40 + i) for x in row] for i, row in enumerate(m)]
    assert rank_over_Q(m) == 20
    assert rank_over_Q(m, upper=20) == 20


def test_rank_over_Q_rejects_a_false_bound_on_small_matrices():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank_over_Q(ident, upper=3) == 3
    assert rank_over_Q(ident, upper=7) == 3
    with pytest.raises(ValueError):
        rank_over_Q(ident, upper=2)


def test_rank_mod_p_rejects_composite_modulus():
    with pytest.raises(NotPrimeError):
        rank_mod_p([[1]], 6)
    with pytest.raises(NotPrimeError, match="modulus 91 is not prime"):
        rank_stack([[[1, 2], [3, 4]]], [2], 91)


def _refuse_bareiss(monkeypatch):
    def refuse(rows):
        raise AssertionError("Bareiss called")

    monkeypatch.setattr(exactla, "bareiss_rank", refuse)


def test_rank_over_Q_needs_no_bareiss_on_small_matrices(monkeypatch):
    _refuse_bareiss(monkeypatch)
    assert rank_over_Q([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert rank_over_Q([[6]]) == 1 and rank_over_Q([]) == 0


def test_ranks_are_proved_past_512_primes(monkeypatch):
    # the Hadamard test refuses the first 600 primes, so the loop runs on
    # past them with no cap and no Bareiss fallback
    _refuse_bareiss(monkeypatch)
    real = exactla._hadamard_proves
    tries = []

    def slow(norms2, r, prod):
        tries.append(r)
        return len(tries) > 600 and real(norms2, r, prod)

    monkeypatch.setattr(exactla, "_hadamard_proves", slow)
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank_over_Q(m) == 2
    assert len(tries) == 601


def test_rank_mod_p_matches_oracle_elimination():
    rng = random.Random(99)
    for trial in range(25):
        p = rng.choice([2, 3, 5, 7, 13])
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        m = [[rng.randint(-20, 20) for _ in range(n_cols)] for _ in range(n_rows)]
        assert rank_mod_p(m, p) == gf_rank(m, p)


# ---------------------------------------------------------------------------
# field_rank over Fraction and number-field entries


def test_field_rank_fraction_entries():
    m = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(2, 1)],
        [Fraction(2, 1), Fraction(7, 3)],
    ]
    # row3 = row1 + row2 and rows 1, 2 are independent, so the rank is 2
    assert field_rank(m) == 2


def test_field_rank_matches_integer_rank_after_clearing_denominators():
    rng = random.Random(5)
    for trial in range(15):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        assert field_rank(m) == fraction_rank(m)


def test_field_rank_number_field_entries():
    nf = NumberField([1, 1, 1])
    w = nf.gen
    rows = [
        [nf(1), -nf(1), nf(0)],
        [nf(1), -w, nf(0)],
        [nf(1), -w * w, nf(0)],
    ]
    # all three rows annihilate (0, 0, 1); any two are independent
    assert field_rank(rows) == 2
    rows.append([nf(0), nf(0), nf(1)])
    assert field_rank(rows) == 3


# ---------------------------------------------------------------------------
# Smith normal form


def test_smith_normal_form_known_values():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([]) == []
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_smith_normal_form_properties_on_random_matrices():
    rng = random.Random(11)
    for trial in range(25):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        m = [[rng.randint(-8, 8) for _ in range(n_cols)] for _ in range(n_rows)]
        d = smith_normal_form(m)
        assert all(x > 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
        assert len(d) == fraction_rank(m)
        for p in (2, 3, 5, 7):
            assert rank_mod_p(m, p) == sum(1 for x in d if x % p)


def test_smith_normal_form_determinant_product():
    rng = random.Random(13)

    def det(rows):
        m = [[Fraction(x) for x in r] for r in rows]
        sign = 1
        n = len(m)
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                sign = -sign
            for i in range(c + 1, n):
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        out = Fraction(sign)
        for c in range(n):
            out *= m[c][c]
        return out

    found_nonsingular = 0
    for trial in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        dval = det(m)
        if not dval:
            continue
        found_nonsingular += 1
        d = smith_normal_form(m)
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(dval)
    assert found_nonsingular > 10


def local_oracle(m, p, e):
    """Elementary divisors of m over Z/p^e, counted by exponent t < e, from
    the integer Smith form: the divisor d_i becomes gcd(d_i, p^e).  The
    module over Z/p^e depends only on m mod p^e, which keeps the Smith
    form's entries small."""
    counts = [0] * e
    for d in smith_normal_form([[x % p**e for x in row] for row in m]):
        t = 0
        while t < e and d % p == 0:
            d //= p
            t += 1
        if t < e:
            counts[t] += 1
    return counts


def test_local_smith_known_values():
    # diag(1, 2, 4, 8) mixed by unimodular matrices, over Z/8 and Z/4
    m = matmul(matmul([[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, 5], [0, 0, 0, 1]],
                      [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]]),
               [[1, 0, 0, 0], [4, 1, 0, 0], [1, 1, 1, 0], [2, 0, 3, 1]])
    assert exactla._local_smith(exactla._exact_ints(m), 2, 3) == [1, 1, 1]
    assert exactla._local_smith(exactla._exact_ints(m), 2, 2) == [1, 1]
    assert exactla._local_smith(exactla._exact_ints(m), 3, 1) == [4]
    # the pivot of least valuation is not the first entry: [[4, 2], [2, 3]]
    # is diag(1, 8) over Z
    assert exactla._local_smith(exactla._exact_ints([[4, 2], [2, 3]]), 2, 4) == [1, 0, 0, 1]


def test_local_smith_past_int64():
    # p^e >= 2**31 takes the object path: residues are Python integers
    p = 2**31 - 1
    assert exactla._residues(np.array([[1]]), p**3).dtype == object
    m = matmul([[1, 1, 0], [2, 3, 0], [5, 1, 1]], [[1, 0, 0], [0, p, 0], [0, 0, p**2 * 7]])
    assert exactla._local_smith(exactla._exact_ints(m), p, 3) == [1, 1, 1]
    assert exactla._local_smith(exactla._exact_ints(m), p, 2) == [1, 1]
    assert local_oracle(m, p, 3) == [1, 1, 1]


# ---------------------------------------------------------------------------
# number field arithmetic (cyclotomic field of cube roots of unity)


def test_omega_relations():
    nf = NumberField([1, 1, 1])
    w = nf.gen
    one = nf.one
    assert w * w + w + one == nf.zero
    assert w * w * w == one
    assert (one + w) * w == -one  # 1 + w = -w^2


def test_number_field_division():
    nf = NumberField([1, 1, 1])
    w = nf.gen
    assert nf.one / w == w * w
    x = 2 * w - 3
    assert x * x.inverse() == nf.one
    assert (x / x) == nf.one
    with pytest.raises(ZeroDivisionError):
        nf.one / nf.zero


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_number_field_rejects_reducible_min_poly():
    # x^2 - 1 = (x - 1)(x + 1) would make x - 1 a zero divisor
    with pytest.raises(ValueError, match="reducible"):
        NumberField([-1, 0, 1])
    with pytest.raises(ValueError, match="reducible"):
        NumberField(poly_mul([1, 0, 1], [1, 1, 1]))  # (x^2 + 1)(x^2 + x + 1)
    with pytest.raises(ValueError, match="reducible"):
        NumberField([-100, 0, 1])  # roots +-10, far from the points tried
    rng = random.Random(12)
    for _ in range(40):
        factors = [
            [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
            for _ in range(rng.randint(2, 3))
        ]
        f = factors[0]
        for g in factors[1:]:
            f = poly_mul(f, g)
        with pytest.raises(ValueError, match="reducible"):
            NumberField(f)
    # a polynomial that factors modulo every prime (its Galois group is
    # Z/2 x Z/2), with values too large to search, is refused loudly
    with pytest.raises(ValueError, match="cannot prove"):
        NumberField([10**28, 0, -(10**15), 0, 1])  # 10**7 (sqrt 2 + sqrt 3)


def test_number_field_accepts_irreducible_min_poly():
    # x^4 - 10x^2 + 1, the minimal polynomial of sqrt(2) + sqrt(3), is
    # irreducible over Q though it factors modulo every prime
    for f in ([1, 1, 1], [1, 0, -1, 0, 1], [1, 0, -10, 0, 1]):
        nf = NumberField(f)
        x = nf.gen
        assert (x + 2) * (x + 2).inverse() == nf.one


def cyclotomic(n):
    """Phi_n, ascending integer coefficients, by dividing x^n - 1 by Phi_d
    for the proper divisors d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic(d)
            quot = [0] * (len(num) - len(den) + 1)
            for i in range(len(quot) - 1, -1, -1):  # den is monic
                quot[i] = num[i + len(den) - 1]
                for j, c in enumerate(den):
                    num[i + j] -= quot[i] * c
            num = quot
    return num


def test_number_field_irreducible_modulo_a_small_prime_is_accepted():
    # Kronecker's search cannot afford these degrees; each Phi_n stays
    # irreducible modulo a prime generating (Z/n)^*, which proves it
    for n in (17, 19, 23, 25, 27, 29, 31, 34, 37, 38):
        f = cyclotomic(n)
        assert exactla._irreducible_mod_p(f, next(p for p in range(2, n) if exactla._irreducible_mod_p(f, p)))
        assert NumberField(f).degree == len(f) - 1
    # x^2 + 10**30 + 1 is irreducible modulo 7, though too large to search
    assert NumberField([10**30 + 1, 0, 1]).degree == 2
    # (Z/32)^* is not cyclic: Phi_32 = x^16 + 1 factors modulo every prime
    assert not any(exactla._irreducible_mod_p(cyclotomic(32), p) for p in exactla._CERTIFICATE_PRIMES)


def test_number_field_coercion_and_equality():
    nf = NumberField([1, 1, 1])
    assert nf(2) == nf.coerce(2)
    assert nf(Fraction(1, 2)) + nf(Fraction(1, 2)) == nf.one
    assert nf([0, 1]) == nf.gen
    assert not nf.zero
    assert nf.one
    assert nf(5) == 5 + nf.zero


def test_number_field_random_ring_axioms():
    nf = NumberField([1, 1, 1])
    rng = random.Random(17)

    def rand_elt():
        return nf([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)])

    for trial in range(30):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        if b:
            assert (a / b) * b == a


def test_number_field_rejects_bad_min_poly():
    with pytest.raises(ValueError):
        NumberField([1])  # degree < 1 relation
    with pytest.raises(ValueError):
        NumberField([2, 0, 2])  # not monic


# ---------------------------------------------------------------------------
# differential properties: every kernel against the plain oracles above

DIFF = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
PRIMES = [2, 3, 13, 2**31 - 1, 2**61 - 1]  # 2**61 - 1 takes the object path


def matmul(u, v):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]


@st.composite
def int_matrices(draw, entries, size=7, shape=None):
    """Dense integer matrices, half of them a product through a thin middle;
    of the given (rows, columns) shape, else of a random one up to size."""
    nr, nc = shape or (draw(st.integers(1, size)), draw(st.integers(1, size)))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(nr, nc) - 1))
        u = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=nr, max_size=nr))
        v = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=k, max_size=k))
        return matmul(u, v) if k else [[0] * nc for _ in range(nr)]
    return draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))


WIDE = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))


@st.composite
def int_stacks(draw, entries):
    """Stacks of 1-4 integer matrices of one shape, as from int_matrices."""
    first = draw(int_matrices(entries))
    nr, nc = len(first), len(first[0])
    shaped = int_matrices(entries, shape=(nr, nc))
    rest = draw(st.lists(st.one_of(shaped, st.just([[0] * nc] * nr)), max_size=3))
    return [first] + rest


@pytest.mark.parametrize("p", PRIMES)
@DIFF
@given(int_stacks(WIDE))
def test_rank_mod_p_matches_the_oracle(p, stack):
    want = [gf_rank(m, p) for m in stack]
    assert [rank_mod_p(m, p) for m in stack] == want
    assert exactla._rank_mod_p_numpy(exactla._exact_ints(stack), p).tolist() == want
    assert rank_stack(stack, want, p).tolist() == want
    if max(want):
        with pytest.raises(ValueError, match="exceeds the claimed upper bound"):
            rank_stack(stack, [max(r - 1, 0) for r in want], p)


@DIFF
@given(int_stacks(WIDE), st.integers(0, 7))
def test_rank_stack_matches_the_fraction_oracle(stack, slack):
    want = [fraction_rank(m) for m in stack]
    nr, nc = len(stack[0]), len(stack[0][0])
    # no usable bound, the true rank, and a loose bound
    for upper in ([min(nr, nc)] * len(stack), want, [r + slack for r in want]):
        assert rank_stack(stack, upper).tolist() == want
    # a false bound is caught when a modular rank exceeds it
    low = [max(r - 1, 0) for r in want]
    if any(gf_rank(m, exactla._nth_prime(0)) > b for m, b in zip(stack, low)):
        with pytest.raises(ValueError, match="exceeds the claimed upper bound"):
            rank_stack(stack, low)


def test_rank_stack_settles_bounded_matrices_with_one_prime(monkeypatch):
    rng = random.Random(42)
    stack = [planted_rank_matrix(rng, 12, 30, r) for r in (3, 7, 12, 12)]
    calls = []
    real = exactla._rank_mod_p_numpy

    def counted(m, p):
        calls.append(m.shape[0])
        return real(m, p)

    monkeypatch.setattr(exactla, "_rank_mod_p_numpy", counted)
    # the first two are proved by their bounds, the full-rank ones by shape
    assert rank_stack(stack, [3, 7, 12, 12]).tolist() == [3, 7, 12, 12]
    assert calls == [4]
    calls.clear()
    # without bounds only the deficient matrices go on to further primes
    assert rank_stack(stack, [12] * 4).tolist() == [3, 7, 12, 12]
    assert calls[0] == 4 and len(calls) > 1 and max(calls[1:]) <= 2


@DIFF
@given(int_matrices(WIDE))
def test_integer_ranks_match_the_fraction_oracle(m):
    assert bareiss_rank(m) == rank_over_Q(m) == fraction_rank(m)


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@DIFF
@given(int_matrices(rationals))
def test_field_rank_matches_bareiss_after_clearing_denominators(m):
    cleared = []
    for row in m:
        den = lcm(*(x.denominator for x in row))
        cleared.append([int(x * den) for x in row])
    assert field_rank(m) == bareiss_rank(cleared) == fraction_rank(m)


OMEGA = NumberField([1, 1, 1])  # w^2 = -1 - w
omega_elements = st.builds(
    lambda a, b: OMEGA([a, b]), st.integers(-4, 4), st.integers(-4, 4)
)


def realify(rows):
    """Replace a = a0 + a1 w by its multiplication matrix on the basis 1, w."""
    out = []
    for row in rows:
        top, bottom = [], []
        for a in row:
            a0, a1 = OMEGA.coerce(a).coeffs
            top += [a0, -a1]
            bottom += [a1, a0 - a1]
        out += [top, bottom]
    return out


@DIFF
@given(int_matrices(omega_elements))
def test_field_rank_over_omega_is_half_the_realified_rank(m):
    assert 2 * field_rank(m) == fraction_rank(realify(m))


CUBE = NumberField([-2, 0, 0, 1])  # c^3 = 2: read backwards, c^3 = -1/2
cube_elements = st.builds(
    lambda a, b, c, den: CUBE([Fraction(a, den), b, c]),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
)


@settings(DIFF, max_examples=40)
@given(int_matrices(cube_elements, size=4))
def test_field_rank_over_a_cubic_field_matches_the_oracle(m):
    # a minimal polynomial that is no palindrome, and coefficients whose
    # denominators differ within a row
    assert field_rank(m) == oracles.field_rank(m)


@st.composite
def non_essential_forms(draw, entry):
    """Forms whose normals span a proper subspace: (W B | c) with thin B."""
    ell = draw(st.integers(2, 4))
    r = draw(st.integers(1, ell - 1))
    n = draw(st.integers(2, 6))
    w = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=ell, max_size=ell), min_size=r, max_size=r))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    return [row + [ci] for row, ci in zip(matmul(w, b), c)]


def cone_circuits_match(rows, field):
    try:
        arr = build_arrangement(rows, field=field, essentialize=True)
    except ValueError:  # zero or repeated forms: nothing to compare
        return
    coerce = field if field != "Q" else Fraction
    zero, one = coerce(0), coerce(1)
    vectors = [[coerce(x) for x in row] for row in rows]
    vectors.append([zero] * (len(rows[0]) - 1) + [one])
    assert arr.rank < len(rows[0]) - 1
    assert sorted(map(sorted, arr.cone_matroid.circuits())) == sorted(
        map(sorted, oracles.RankOracle(vectors).circuits())
    )


@DIFF
@given(non_essential_forms(st.integers(-3, 3)))
def test_essentialize_keeps_the_cone_matroid_over_Q(rows):
    cone_circuits_match(rows, "Q")


@settings(DIFF, max_examples=25)  # number-field matroids are slow to build
@given(non_essential_forms(omega_elements))
def test_essentialize_keeps_the_cone_matroid_over_omega(rows):
    cone_circuits_match(rows, OMEGA)


def p_adic_matrices(p):
    """Matrices from int_matrices whose entries carry powers of p, at most
    4 x 4: the integer Smith form, the oracle, can take seconds on 5 x 5
    and minutes on 6 x 6 ones with p = 2**31 - 1."""
    entries = st.builds(lambda x, v: x * p**v, st.integers(-5, 5), st.integers(0, 2))
    return int_matrices(entries, size=4)


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])  # 2**31 - 1 takes the object path
@pytest.mark.parametrize("e", [2, 3, 5])
@settings(DIFF, max_examples=25)
@given(st.data())
def test_local_smith_matches_the_integer_smith_form(p, e, data):
    m = data.draw(p_adic_matrices(p))
    got = exactla._local_smith(exactla._exact_ints(m), p, e)
    assert got == local_oracle(m, p, e)
    assert got[0] == gf_rank(m, p)


def test_row_keys_depend_on_the_rows_not_on_the_dtype():
    # The fitting rows of an object array are found in one pass and keyed by
    # their int64 bytes, as the same rows of an int64 array are; a row past
    # int64 is keyed by its decimal text.  -2**63 fits an int64 row.
    rows = [[1, -2, 3], [0, 0, 0], [2**63 - 1, -(2**63), 5], [7, 8, -9]]
    small = np.array(rows, dtype=np.int64)
    assert exactla._row_keys(small.astype(object)) == exactla._row_keys(small)
    mixed = np.array(rows[:2] + [[1, 2**63, 3]] + rows[3:], dtype=object)
    keys = exactla._row_keys(mixed)
    assert keys[2] == str([1, 2**63, 3])
    assert [keys[i] for i in (0, 1, 3)] == [exactla._row_keys(small)[i] for i in (0, 1, 3)]
    assert exactla._row_keys(np.zeros((0, 3), dtype=object)) == []
