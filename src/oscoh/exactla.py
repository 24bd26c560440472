"""Exact linear algebra over Q, number fields and Z_p.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
rationals, and algebraic numbers represented modulo a monic integer minimal
polynomial.  No floating point is used anywhere.

Each arithmetic has one elimination:

* Z and Q: fraction-free Bareiss elimination (``bareiss_rank``) for small
  integer matrices, and the certified multi-modular ``rank_over_Q`` for
  large ones.  Callers scale rational rows to integers, which keeps ranks.
* Z_p: one numpy row reduction, in int64 for p < 2**31 and in Python
  integers (object arrays) above that.
* Fields given by their entries (Fraction or NFElement): Gaussian
  elimination with exact pivot division (``pivot_columns``), whose pivot
  count is ``field_rank``.

Matrices are plain nested sequences (list of rows).  Every rank mod p is a
lower bound on the rank over Q.  When the caller proves an upper bound (in
a complex, d^2 = 0 gives rank d^q <= dim C^q - rank d^(q-1)), the first
prime whose rank reaches it proves the rational rank; this is the usual
case when the complex is exact in that degree.  Otherwise the loop ranks
modulo enough word-size primes for a Hadamard bound on the minors to turn
the modular ranks into a proof.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Fraction",
    "NumberField",
    "NFElement",
    "NotPrimeError",
    "bareiss_rank",
    "field_rank",
    "pivot_columns",
    "rank_mod_p",
    "rank_over_Q",
    "smith_normal_form",
    "is_prime",
]


class NotPrimeError(ValueError):
    """Raised when a modulus that must be prime is not."""


# ---------------------------------------------------------------------------
# primality


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    n = int(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# integer matrices


def _as_int_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[int(x) for x in row] for row in rows]


def bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Intermediate entries are determinants of submatrices of the input, so
    growth is polynomial in the bit size; every division below is exact.
    """
    a = _as_int_rows(rows)
    nr = len(a)
    nc = len(a[0]) if nr else 0
    r = 0
    prev = 1
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        pr = a[r]
        pv = pr[c]
        for i in range(r + 1, nr):
            ai = a[i]
            f = ai[c]
            if f:
                for j in range(c + 1, nc):
                    ai[j] = (pv * ai[j] - f * pr[j]) // prev
            elif pv != prev:
                for j in range(c + 1, nc):
                    ai[j] = pv * ai[j] // prev
            ai[c] = 0
        prev = pv
        r += 1
        if r == nr:
            break
    return r


def _int_array(a: list[list[int]]) -> np.ndarray:
    """Integer matrix as int64, or as Python ints once an entry reaches 2**31."""
    big = any(abs(x) >= 2**31 for row in a for x in row)
    return np.array(a, dtype=object if big else np.int64)


def _rank_mod_p_numpy(m: np.ndarray, p: int) -> int:
    """Rank over Z_p of an integer array: the one modular elimination.

    Below 2**31 the residues live in int64, where the update products stay
    below 2**62; larger primes reduce into Python ints (dtype=object).
    """
    m = (m % p).astype(np.int64) if p < 2**31 else m.astype(object) % p
    nr, nc = m.shape
    r = 0
    for c in range(nc):
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r, c:] = m[r, c:] * inv % p
        below = m[r + 1 :, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            f = below[nzb]
            m[r + 1 + nzb, c:] = (m[r + 1 + nzb, c:] - f[:, None] * m[r, c:]) % p
        r += 1
        if r == nr:
            break
    return r


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over the prime field Z_p."""
    p = int(p)
    if not is_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")
    a = _as_int_rows(rows)
    if not a or not a[0]:
        return 0
    return _rank_mod_p_numpy(_int_array(a), p)


# 31-bit primes for the certified multi-modular rank.  Generated on first use.
_modular_primes: list[int] = []


def _primes_for_rank(count: int) -> list[int]:
    n = _modular_primes[-1] - 2 if _modular_primes else 2**31 - 1
    while len(_modular_primes) < count:
        while not is_prime(n):
            n -= 2
        _modular_primes.append(n)
        n -= 2
    return _modular_primes[:count]


def rank_over_Q(rows: Sequence[Sequence[int]], upper: int | None = None) -> int:
    """Rank over Q of an integer matrix, certified exactly.

    Small matrices go through Bareiss.  Large ones are ranked modulo 31-bit
    primes p_1, p_2, ...; let r be the maximum modular rank seen.  Some r x r
    minor is nonzero mod one of the primes, so rank >= r.  If the rank
    exceeded r, some nonzero (r+1)-minor D would be divisible by every prime
    used, hence |D| >= prod p_i; once prod p_i beats the Hadamard bound on
    (r+1)-minors this is impossible and rank == r is proved.

    ``upper``, if given, must be a proven upper bound on the rank over Q,
    such as dim C^q - rank d^(q-1) for the boundary d^q of a complex.  The
    loop then stops at the first prime whose rank reaches
    min(rows, columns, upper), since that rank is also a lower bound.  A
    rank above ``upper`` shows the bound false and raises ValueError.
    """
    a = _as_int_rows(rows)
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if nr == 0 or nc == 0:
        return _check_upper(0, upper)
    if nr * nc <= 8000 or min(nr, nc) <= 24:
        return _check_upper(bareiss_rank(a), upper)

    maxdim = min(nr, nc) if upper is None else min(nr, nc, upper)
    norms2 = sorted((sum(x * x for x in row) for row in a), reverse=True)
    arr = _int_array(a)

    r = 0
    prod = 1
    batch = 8
    while True:
        primes = _primes_for_rank(batch)
        for p in primes[batch - 8 :]:
            rp = _rank_mod_p_numpy(arr, p)
            if rp > r:
                r = _check_upper(rp, upper)
            prod *= p
            if r == maxdim:
                return r
            # squared Hadamard bound on (r+1)-minors from the largest rows
            bound2 = 1
            for t in norms2[: r + 1]:
                if t == 0:
                    return r
                bound2 *= t
            if prod * prod > bound2:
                return r
        batch += 8
        if batch > 512:  # unreachable at sane sizes; stay exact regardless
            return _check_upper(bareiss_rank(a), upper)


def _check_upper(r: int, upper: int | None) -> int:
    if upper is not None and r > upper:
        raise ValueError(f"rank {r} exceeds the claimed upper bound {upper}")
    return r


# ---------------------------------------------------------------------------
# field matrices


def pivot_columns(rows: Sequence[Sequence]) -> list[int]:
    """Pivot columns of a matrix with Fraction/int or NFElement entries.

    The one field elimination: Gaussian elimination with exact pivot
    division, over Q or over the number field of the NFElement entries.
    The pivot columns index a maximal set of independent columns.
    """
    field = next(
        (x.field for row in rows for x in row if isinstance(x, NFElement)), None
    )
    coerce = field.coerce if field else Fraction
    a = [[coerce(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        pr = a[r] = [x * inv for x in a[r]]
        for i in range(r + 1, nr):
            f = a[i][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        pivots.append(c)
        if len(pivots) == nr:
            break
    return pivots


def field_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix with Fraction/int or NFElement entries."""
    return len(pivot_columns(rows))


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    The length of the result is the rank over Q; the rank over Z_p is the
    number of factors not divisible by p.
    """
    a = _as_int_rows(rows)
    nr = len(a)
    nc = len(a[0]) if nr else 0
    diag = []
    t = 0
    while True:
        # locate a smallest nonzero entry in the remaining block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t with Euclidean steps
            again = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        again = True
            if again:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        again = True
            if not again:
                break
        # pivot must divide the rest of the block
        d = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        diag.append(abs(d))
        t += 1
        if t == nr or t == nc:
            break
    # enforce d_1 | d_2 | ... (abs values may still be out of order)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            di, dj = diag[i], diag[j]
            g = gcd(di, dj)
            diag[i], diag[j] = g, di * dj // g
    return diag


# ---------------------------------------------------------------------------
# number fields


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    dlead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        f = num[k + len(den) - 1] / dlead
        if f:
            q[k] = f
            for j, d in enumerate(den):
                num[k + j] -= f * d
    return _poly_trim(q), _poly_trim(num)


class NumberField:
    """Q[x]/(p(x)) for a monic integer polynomial p, assumed irreducible.

    Coefficient lists are ascending: [1, 1, 1] is x^2 + x + 1.  Elements are
    immutable coefficient vectors of length deg(p).
    """

    def __init__(self, min_poly: Iterable[int], gen_name: str = "w"):
        mp = [int(c) for c in min_poly]
        if len(mp) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if mp[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.min_poly = tuple(mp)
        self.degree = len(mp) - 1
        self.gen_name = gen_name

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"

    def __call__(self, coeffs) -> "NFElement":
        if isinstance(coeffs, NFElement):
            return self.coerce(coeffs)
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            _, cs = _poly_divmod(cs, [Fraction(c) for c in self.min_poly])
        cs += [Fraction(0)] * (self.degree - len(cs))
        return NFElement(self, tuple(cs))

    def coerce(self, x) -> "NFElement":
        if isinstance(x, NFElement):
            if x.field != self:
                raise ValueError("mixed number fields")
            return x
        return self(x)

    @property
    def zero(self) -> "NFElement":
        return self([])

    @property
    def one(self) -> "NFElement":
        return self([1])

    @property
    def gen(self) -> "NFElement":
        return self([0, 1])


class NFElement:
    """Element of a NumberField; supports +, -, *, / and exact zero tests."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field(other)
        return (
            isinstance(other, NFElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        other = self.field.coerce(other)
        return NFElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self.field.coerce(other))

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        other = self.field.coerce(other)
        n = self.field.degree
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        mp = self.field.min_poly
        # monic reduction: x^n = -(mp[0] + ... + mp[n-1] x^(n-1))
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c:
                prod[k] = Fraction(0)
                for j in range(n):
                    prod[k - n + j] -= c * mp[j]
        return NFElement(self.field, tuple(prod[:n]))

    __rmul__ = __mul__

    def inverse(self) -> "NFElement":
        if not self:
            raise ZeroDivisionError("number field element is zero")
        # extended Euclid in Q[x] against the minimal polynomial
        a = [Fraction(c) for c in self.field.min_poly]
        b = _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while b:
            q, r = _poly_divmod(a, b)
            a, b = b, r
            # s_{k+1} = s_{k-1} - q * s_k
            qs = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        qs[i + j] += x * y
            s0, s1 = s1, _poly_trim(
                [(s0[i] if i < len(s0) else Fraction(0)) - (qs[i] if i < len(qs) else Fraction(0))
                 for i in range(max(len(s0), len(qs), 1))]
            )
        # a is now the gcd; it is a nonzero constant unless min_poly is reducible
        if len(a) != 1:
            raise ValueError(
                f"{self!r} is a zero divisor: the minimal polynomial "
                f"{list(self.field.min_poly)} is reducible"
            )
        c = a[0]
        return self.field([x / c for x in s0])

    def __truediv__(self, other):
        other = self.field.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.inverse()

    def __repr__(self):
        g = self.field.gen_name
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                pw = g if i == 1 else f"{g}^{i}"
                terms.append(pw if c == 1 else f"-{pw}" if c == -1 else f"{c}*{pw}")
        if not terms:
            return "0"
        return " + ".join(terms).replace("+ -", "- ")
