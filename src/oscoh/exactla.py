"""Exact linear algebra over Q, number fields, Z_p and Z/p^e.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
rationals, and algebraic numbers represented modulo a monic integer minimal
polynomial.  No floating point is used anywhere.

Each arithmetic has one elimination:

* Z_p and Z/p^e: one numpy row reduction (``_local_smith``), on residues
  in int64 below 2**31 and in Python integers above that.  Over
  Z/p^e it pivots on entries of least p-adic valuation, which divide the
  rest of their column, so it gives the local Smith form with entries
  that never grow past p^e (H. Cohen, GTM 138, 2.4; Hafner-McCurley
  1991).  With e = 1 it is the rank mod p of a stack of one (Stacks below).
* Z and Q: the certified multi-modular loop over those ranks mod p.
  ``rank_stack`` ranks a stack over Q or over one Z_p; ``rank_over_Q``
  and ``rank_mod_p`` rank one matrix as a stack of one, whatever its size.
  Callers scale rational rows to integers, which keeps ranks.
* Fields given by their entries (Fraction or NFElement): Gaussian
  elimination with exact pivot division (``pivot_columns``), whose pivot
  count is ``field_rank``.

Fraction-free Bareiss elimination (``bareiss_rank``) and the integer Smith
normal form (``smith_normal_form``) stay as reference oracles for these
eliminations; their entries grow, and no computation in the package calls
them.  Moduli are factored by trial division and Pollard-Brent rho
(``_factorize``).

Integers.  Two functions make every choice between int64 and Python
integers (object arrays), apart from the eliminations' residues.
``_exact_ints`` takes integers from a caller: int64 when all fit, Python
integers otherwise, and ValueError for a float or a non-integral Fraction,
never truncated.  ``_widen`` takes an array the package built and a bound
on every value the caller computes from it, and widens it to Python
integers when that bound reaches 2**63.

Matrices are plain nested sequences (list of rows).  Every rank mod p is a
lower bound on the rank over Q.  When the caller proves an upper bound (in
a complex, d^2 = 0 gives rank d^q <= dim C^q - rank d^(q-1)), the first
prime whose rank reaches it proves the rational rank; this is the usual
case when the complex is exact in that degree.  Otherwise the loop ranks
modulo further word-size primes until a Hadamard bound on the minors turns
the modular ranks into a proof (``_hadamard_proves``, the one place that
bound is tested); there is no cap on the primes and no fallback.  At a
given prime p the same bound is only checked: a rank above it raises
ValueError.

Stacks.  ``rank_stack`` ranks T matrices of one shape (such as the Aomoto
matrices at many weights) as one (T, rows, cols) array.  Over Q each
matrix keeps its own proof: it is settled when its rank modulo the first
prime reaches min(rows, cols, its upper bound), and the rest go on over
further primes, as a shrinking stack, until each one's own Hadamard bound
is beaten.  Modulo p, ``_rank_mod_p_numpy`` takes stacks only.  A stack of
one runs the row-swapping 2-D loop, which touches only the rows below the
pivot and the columns right of it.  A larger stack runs
``_rank_mod_p_stack``: one elimination step per column for every matrix at
once, so the Python loop runs min(rows, cols) times per stack instead of
per matrix.  That step updates every row of every matrix, so it would rank
one large matrix 2 to 6 times slower (on a 2-core x86 VM, A_5 mu^3,
225 x 274: about 28 against 15 ms; product-example mu^3, 372 x 480: about
110 against 20 ms).  Callers evaluate and rank chunks of at most
``STACK_CELLS`` entries, or one matrix when it is larger: memory stays flat
however large the box, a chunk's residues (512 KB of int64) stay in cache,
and no caller picks a kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import gcd, isqrt, prod
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
    "rank_stack",
    "smith_normal_form",
    "is_prime",
]


class NotPrimeError(ValueError):
    """Raised when a modulus that must be prime is not."""


# ---------------------------------------------------------------------------
# primality


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs; cached."""
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


# Rho steps allowed for one split.  Brent's search finds a prime factor p
# in the round whose stride r passes the length of the rho sequence mod p,
# after about 4r steps.  That length exceeds t with probability about
# exp(-t^2 / 2p): for the least prime factor of an N below 2**64, p < 2**32,
# strides up to 2**19 fail with probability about exp(-32), and a split
# takes 2*10^5 steps or fewer in practice.  Past the budget a refusal costs
# a few seconds.
_RHO_STEPS = 2**21


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes in increasing order.

    A prime n is answered by ``is_prime`` alone.  Otherwise trial division
    by the primes below 1000, then Pollard's rho with Brent's cycle search
    on what is left, split until every part passes ``is_prime``.  A part that rho does not split within ``_RHO_STEPS``
    steps, such as the product of two primes above 2**100, raises
    ValueError naming n rather than run on.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if is_prime(n):
        return {n: 1}
    out: dict[int, int] = {}
    rest = n
    for p in range(2, 1000):
        if p * p > rest:
            break
        while rest % p == 0:  # a composite p has no prime factor left in rest
            out[p] = out.get(p, 0) + 1
            rest //= p
    parts = [rest] if rest > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho_factor(m)
        if d is None:
            raise ValueError(
                f"cannot factor the modulus {n}: no factor of {m} found in "
                f"{_RHO_STEPS} Pollard rho steps"
            )
        parts += [d, m // d]
    return dict(sorted(out.items()))


def _rho_factor(n: int) -> int | None:
    """A proper factor of the odd composite n, or None after _RHO_STEPS
    steps (Brent 1980: x -> x^2 + c, differences multiplied in batches of
    128 between gcds, and a step back through a batch that overshot)."""
    steps = 0
    for c in range(1, 100):
        y, r, g = 2, 1, 1
        acc = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                done += 128
            steps += 2 * r
            r *= 2
            if g == 1 and steps > _RHO_STEPS:
                return None
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    return None


# ---------------------------------------------------------------------------
# integer matrices


def _exact_int(x) -> int:
    """An integer (or integral Fraction) from a caller as a Python int; a
    float or any other value raises ValueError rather than be truncated."""
    if isinstance(x, (int, np.integer)) or isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    raise ValueError(f"expected an integer, got {x!r}")


def _exact_rational(x) -> Fraction:
    """A rational from a caller (an int, a Fraction or a string like "2/3")
    as a Fraction; a float, whose binary value is no weight, raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, np.floating)):
        raise ValueError(f"expected an exact rational, got {x!r}")
    return Fraction(x)


def _exact_ints(a) -> np.ndarray:
    """Integers from a caller as an array: int64 when all fit (-2**63 does
    not: its negation wraps), Python integers otherwise.  Entries other than
    Python ints in an object array, or in a list, go through ``_exact_int``."""
    if isinstance(a, np.ndarray) and a.dtype.kind in "ib":
        out = a.astype(np.int64, copy=False)
    else:
        a = np.asarray(a, dtype=object)
        if set(map(type, a.flat)) - {int}:
            a = np.array([_exact_int(v) for v in a.flat], dtype=object).reshape(a.shape)
        try:
            out = a.astype(np.int64)
        except OverflowError:
            return a
    return out.astype(object) if out.min(initial=0) == -(2**63) else out


def _widen(a: np.ndarray, bound: int) -> np.ndarray:
    """The package's own array a, as Python integers when ``bound``, on
    every value the caller computes from a, reaches 2**63."""
    return a.astype(object) if bound >= 2**63 and a.dtype != object else a


def _absmax(a: np.ndarray) -> int:
    """The largest absolute value in an integer array, 0 when empty."""
    return int(np.abs(a).max(initial=0))


def _primitive(a: np.ndarray, axis: int) -> np.ndarray:
    """Divide every vector along ``axis`` by the gcd of its entries."""
    return a // np.maximum(np.gcd.reduce(a, axis=axis, keepdims=True), 1)


def _row_keys(a: np.ndarray) -> list:
    """Keys of the rows of a 2-D integer array, equal exactly when the rows
    are, whatever the array's dtype: the int64 bytes of a row whose entries
    fit, the decimal text of one whose entries do not.  Python hashes both
    with SipHash, unlike an int, whose hash is its value mod 2**61 - 1.
    Which rows of an object array fit is found in one pass over it."""
    if a.dtype != object:
        return [r.tobytes() for r in a]
    fits = ((a >= -(2**63)) & (a < 2**63)).all(axis=1)
    keys = np.empty(len(a), dtype=object)
    keys[fits] = [r.tobytes() for r in a[fits].astype(np.int64)]
    keys[~fits] = [str(r.tolist()) for r in a[~fits]]
    return keys.tolist()


def bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Intermediate entries are determinants of submatrices of the input, so
    growth is polynomial in the bit size; every division below is exact.
    """
    a = _exact_ints(rows).tolist()
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


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for |x| < 2**62, overwriting x when it is int64: numpy
    divides int64 by a scalar several times faster than it takes the
    remainder."""
    if x.dtype == object:
        return x % p
    x -= x // p * p
    return x


def _residues(m: np.ndarray, p: int) -> np.ndarray:
    """Residues mod p: int64 below 2**31, where update products stay below
    2**62, and Python ints (dtype=object) for larger primes."""
    return (m % p).astype(np.int64) if p < 2**31 else m.astype(object) % p


def _rank_mod_p_numpy(m: np.ndarray, p: int) -> np.ndarray:
    """Ranks over Z_p of a stack (T, rows, cols) of integer matrices: a
    stack of one runs the 2-D loop of ``_local_smith``, a larger one
    ``_rank_mod_p_stack``."""
    if len(m) == 1:
        return np.array([_local_smith(m[0], p)[0]])
    return _rank_mod_p_stack(m, p)


def _local_smith(m: np.ndarray, p: int, e: int = 1) -> list[int]:
    """Smith form over Z/p^e of a 2-D integer array, as the list whose
    entry t counts the elementary divisors p^t, t = 0..e-1 (the rest are
    0 mod p^e).  With e = 1 this is the 2-D loop of the Z_p elimination,
    and entry 0 is the rank mod p.

    Pass t sweeps the columns and pivots on entries of valuation t, which
    is the least valuation left: every entry of the remaining rows is then
    divisible by p^t, so the pivot p^t*u divides its whole column and one
    row operation per row clears it, with no Euclid steps.  Clearing the
    pivot row by column operations would touch nothing else, so the pivot
    row is just set aside.  Skipped columns stay divisible by p^(t+1), and
    after the sweep so does everything left.  Residues are int64 while
    p^e < 2**31 and Python integers above (as in ``_residues``); entries
    never grow past p^e.
    """
    q = p**e
    m = _residues(m, q)
    nr, nc = m.shape
    counts = []
    r = 0
    for t in range(e):
        start, pt, last = r, p**t, t == e - 1
        for c in range(nc):
            if r == nr:
                break
            col = m[r:, c]
            nz = np.nonzero(col if last else col % (pt * p))[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                m[[r, i]] = m[[i, r]]
            lo = c if last else 0  # before the last pass, columns left of c are not yet 0
            inv = pow(int(m[r, c]) // pt, -1, q)
            m[r, lo:] = _mod(m[r, lo:] * inv, q)
            below = m[r + 1 :, c]
            nzb = np.nonzero(below)[0]
            if nzb.size:
                f = below[nzb] // pt if t else below[nzb]
                m[r + 1 + nzb, lo:] = _mod(m[r + 1 + nzb, lo:] - f[:, None] * m[r, lo:], q)
            r += 1
        counts.append(r - start)
    return counts


def _rank_mod_p_stack(m: np.ndarray, p: int) -> np.ndarray:
    """Ranks over Z_p of a stack (T, rows, cols) of integer matrices.

    One elimination step per column for the whole stack.  No rows move:
    each matrix's pivot is its first row with a nonzero entry in the
    column, and every row is updated by
    row_i <- pivot * row_i - row_i[c] * pivot_row.  That multiplies the
    other rows by a unit mod p and clears their column c, and it zeroes the
    pivot row itself, which removes it: the rank is the number of pivots.
    The residues are stored column-major, one contiguous (T, rows) slab per
    column, so each step updates the trailing slabs in place.
    """
    t, nr, nc = m.shape
    if nc > nr:  # loop over the shorter side: rank(A) = rank(A^T)
        m = m.transpose(0, 2, 1)
        nr, nc = nc, nr
    m = np.ascontiguousarray(_residues(m, p).transpose(2, 0, 1))
    ranks = np.zeros(t, dtype=np.int64)
    mats = np.arange(t)
    buf = np.empty_like(m)
    for c in range(nc):
        col = m[c]
        nonzero = col != 0
        piv = nonzero.argmax(axis=1)
        has = nonzero[mats, piv]
        if not has.any():
            continue
        ranks += has
        prow = m[c:, mats, piv]
        pv = np.where(has, prow[0], 1)
        rest, tmp = m[c:], buf[c:]
        np.multiply(prow[:, :, None], col, out=tmp)
        rest *= pv[:, None]
        rest -= tmp
        if rest.dtype == object:
            rest %= p
        else:  # rest %= p as in _mod
            np.floor_divide(rest, p, out=tmp)
            tmp *= p
            rest -= tmp
    return ranks


def _stack_of_one(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """An integer matrix as a (1, rows, cols) stack."""
    m = _exact_ints(rows)
    return m.reshape(1, len(m), m.shape[1] if m.ndim == 2 else 0)


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over the prime field Z_p, as a stack of one."""
    m = _stack_of_one(rows)
    return int(rank_stack(m, [min(m.shape[1:])], p)[0])


# 31-bit primes for the certified multi-modular rank.  Generated on first use.
_modular_primes: list[int] = []

# Most entries in one evaluated stack chunk (see the module docstring).
STACK_CELLS = 2**16


def _nth_prime(i: int) -> int:
    """The i-th (from 0) largest prime below 2**31."""
    n = _modular_primes[-1] - 2 if _modular_primes else 2**31 - 1
    while len(_modular_primes) <= i:
        while not is_prime(n):
            n -= 2
        _modular_primes.append(n)
        n -= 2
    return _modular_primes[i]


def rank_over_Q(rows: Sequence[Sequence[int]], upper: int | None = None) -> int:
    """Rank over Q of an integer matrix, certified exactly: ``rank_stack``
    on a stack of one.

    ``upper``, if given, must be a proven upper bound on the rank over Q,
    such as dim C^q - rank d^(q-1) for the boundary d^q of a complex.  The
    loop then stops at the first prime whose rank reaches
    min(rows, columns, upper), since that rank is also a lower bound.  A
    rank above ``upper`` shows the bound false and raises ValueError.
    """
    m = _stack_of_one(rows)
    return int(rank_stack(m, [min(m.shape[1:]) if upper is None else upper])[0])


def _hadamard_proves(norms2: Sequence[int], r: int, prod: int) -> bool:
    """Do modular ranks at most r, modulo primes with product prod, prove
    the rank over Q is r?

    norms2 are the squared row norms in decreasing order.  A nonzero
    (r+1)-minor is at most the product of the r+1 largest row norms
    (Hadamard); were the rank above r, one such minor would vanish modulo
    every prime used, so prod would divide it.  prod**2 above the squared
    bound rules that out.  A zero among those norms leaves no r+1 nonzero
    rows at all.
    """
    bound2 = 1
    for t in norms2[: r + 1]:
        if t == 0:
            return True
        bound2 *= t
    return prod * prod > bound2


def _sorted_row_norms2(mats: np.ndarray) -> list[list[int]]:
    """Squared row norms of each matrix in a stack, largest first, exact."""
    mats = _widen(mats, _absmax(mats) ** 2 * mats.shape[2])
    norms = (mats * mats).sum(axis=2)
    return [sorted(row, reverse=True) for row in norms.tolist()]


def rank_stack(stack, upper: Sequence[int], p: int | None = None) -> np.ndarray:
    """Ranks of a stack (T, rows, cols) of integer matrices over Q (p None)
    or over Z_p (p prime), each exact.

    ``upper[t]`` must be a proven upper bound on the rank of matrix t, as
    in ``rank_over_Q``; a rank above it raises ValueError.  At p one
    elimination gives every rank, and the bound is only that check.  Over
    Q every matrix is ranked modulo the first 31-bit prime, and matrix t is
    settled when that rank reaches min(rows, cols, upper[t]); the others go
    on together over further primes until each one's own Hadamard bound is
    beaten, which a finite number of primes always does.  A p that is not
    prime raises NotPrimeError.
    """
    p = None if p is None else _exact_int(p)
    if p is not None and not is_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")
    m = _exact_ints(stack)
    if m.ndim != 3:
        raise ValueError(f"expected a (T, rows, cols) stack, got shape {m.shape}")
    t, nr, nc = m.shape
    upper = np.asarray(upper, dtype=np.int64).reshape(t)
    ranks = np.zeros(t, dtype=np.int64)
    if t and nr and nc:
        ranks = _rank_mod_p_numpy(m, _nth_prime(0) if p is None else p)
    if p is None:
        target = np.minimum(upper, min(nr, nc))
        todo = np.flatnonzero(ranks < target)
        norms2 = dict(zip(todo.tolist(), _sorted_row_norms2(m[todo]))) if todo.size else {}
        prod = _nth_prime(0)
        for i in count(1):
            proved = [_hadamard_proves(norms2[j], int(ranks[j]), prod) for j in todo.tolist()]
            todo = todo[~np.array(proved, dtype=bool)]
            if todo.size == 0:
                break
            q = _nth_prime(i)
            ranks[todo] = np.maximum(ranks[todo], _rank_mod_p_numpy(m[todo], q))
            prod *= q
            todo = todo[ranks[todo] < target[todo]]
    over = np.flatnonzero(ranks > upper)
    if over.size:
        j = over[0]
        raise ValueError(f"rank {ranks[j]} exceeds the claimed upper bound {upper[j]}")
    return ranks


# ---------------------------------------------------------------------------
# field matrices


def pivot_columns(rows: Sequence[Sequence]) -> list[int]:
    """Pivot columns of a matrix with Fraction/int or NFElement entries
    (a float raises ValueError, as in ``_exact_rational``).

    The one field elimination: Gaussian elimination with exact pivot
    division, over Q or over the number field of the NFElement entries.
    The pivot columns index a maximal set of independent columns.
    """
    field = next(
        (x.field for row in rows for x in row if isinstance(x, NFElement)), None
    )
    coerce = field.coerce if field else _exact_rational
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
    number of factors not divisible by p, and the Smith form over Z/p^e has
    the factors gcd(d, p^e).  Euclid steps on the integers make the entries
    grow, so this is the reference oracle the Z/p^e elimination
    (``_local_smith``) is tested against, not a path of the package.
    """
    a = _exact_ints(rows).tolist()
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


def poincare_product(a: Sequence, b: Sequence) -> tuple:
    """Coefficients of the product of two polynomials, lowest degree first,
    of the type of a's, skipping zeros: the Poincare polynomial (or Kunneth
    dimensions) of a product, and the product of number-field elements."""
    out = [type(a[0])()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


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


def _monic_factor(f: list[int]) -> list[int] | None:
    """A monic integer factor of degree 1..deg(f)//2 of the monic integer
    polynomial f (ascending coefficients), or None: then f is irreducible
    over Z, hence over Q (Gauss).

    Kronecker's method: a monic factor of degree m is g = x^m + r with
    deg r < m, and g(a) divides f(a) at every integer a.  So r interpolates
    the values d - a^m at m points a, over the divisors d of f(a); every
    such r with integer coefficients is tried by division.  The points are
    small integers where |f| is smallest, which keeps the divisors few.
    A value above 10**12 at a point, or more than 10**5 candidates in all,
    raises ValueError before the search rather than run for hours.
    """
    deg = len(f) - 1

    def value(a):
        return sum(c * a**i for i, c in enumerate(f))

    points = sorted(range(-deg - 2, deg + 3), key=lambda a: abs(value(a)))
    if value(points[0]) == 0:
        return [-points[0], 1]
    half = deg // 2
    values = [value(a) for a in points[:half]]
    divisors = [_divisors(v) for v in values] if max(map(abs, values)) <= 10**12 else []
    if not divisors or sum(prod(map(len, divisors[:m])) for m in range(half + 1)) > 10**5:
        raise ValueError(f"cannot prove {f} irreducible: too many candidate factors")
    for m in range(1, half + 1):
        xs = points[:m]
        # Lagrange basis: lagrange[i] is 1 at xs[i] and 0 at the others
        lagrange = []
        for i, xi in enumerate(xs):
            poly = [Fraction(1)]
            for xj in xs[:i] + xs[i + 1 :]:  # times (x - xj) / (xi - xj)
                poly = [(a - xj * b) / (xi - xj) for a, b in zip([0] + poly, poly + [0])]
            lagrange.append(poly)
        for ds in product(*divisors[:m]):
            r = [
                sum((d - a**m) * basis[k] for a, d, basis in zip(xs, ds, lagrange))
                for k in range(m)
            ]
            if all(c.denominator == 1 for c in r):
                g = [int(c) for c in r] + [1]
                if not _poly_divmod([Fraction(c) for c in f], g)[1]:
                    return g
    return None


def _irreducible_mod_p(f: list[int], p: int) -> bool:
    """Rabin's test: is the monic integer polynomial f (ascending
    coefficients, degree d >= 2) irreducible over F_p?

    It is iff x^(p^d) = x modulo f and x^(p^(d/r)) - x is coprime to f for
    every prime r dividing d.  A monic f irreducible modulo p is
    irreducible over Q, since a monic factorization over Z reduces to one
    modulo p with the same degrees.
    """
    d = len(f) - 1
    f = [c % p for c in f]

    def mulmod(a, b):  # residues of degree < d, reduced modulo f
        out = list(poincare_product(a, b))
        for k in range(2 * d - 2, d - 1, -1):
            c = out[k] % p
            if c:
                for j in range(d):
                    out[k - d + j] -= c * f[j]
        return [c % p for c in out[:d]]

    def frobenius(a):  # a^p modulo f
        out, sq, e = [1] + [0] * (d - 1), a, p
        while e:
            if e & 1:
                out = mulmod(out, sq)
            sq, e = mulmod(sq, sq), e >> 1
        return out

    def coprime_to_f(a):  # Euclid over F_p on (f, a)
        u, v = _poly_trim(list(f)), _poly_trim(list(a))
        while v:
            inv = pow(v[-1], p - 2, p)
            while len(u) >= len(v):
                c = u[-1] * inv % p
                shift = len(u) - len(v)
                for j, y in enumerate(v):
                    u[shift + j] = (u[shift + j] - c * y) % p
                _poly_trim(u)
            u, v = v, u
        return len(u) == 1

    x = [0, 1] + [0] * (d - 2)
    powers = [x]  # x^(p^i) modulo f
    for _ in range(d):
        powers.append(frobenius(powers[-1]))
    if powers[d] != x:
        return False
    for r in {r for r in range(2, d + 1) if d % r == 0 and is_prime(r)}:
        diff = [(a - b) % p for a, b in zip(powers[d // r], x)]
        if not coprime_to_f(diff):
            return False
    return True


# Primes tried by ``_irreducible_mod_p`` before Kronecker's search.
_CERTIFICATE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _divisors(v: int) -> list[int]:
    """Positive and negative divisors of the nonzero integer v."""
    v = abs(v)
    small = [d for d in range(1, isqrt(v) + 1) if v % d == 0]
    pos = small + [v // d for d in reversed(small) if d * d != v]
    return pos + [-d for d in pos]


class NumberField:
    """Q[x]/(p(x)) for a monic irreducible integer polynomial p.

    Coefficient lists are ascending: [1, 1, 1] is x^2 + x + 1.  Elements are
    immutable coefficient vectors of length deg(p), with rational
    coefficients (a float raises ValueError).  A reducible p (the quotient
    has zero divisors) or a non-integer coefficient of p raises ValueError.
    Irreducibility is proved modulo a small prime where p stays irreducible
    (Rabin's test), and otherwise by Kronecker's search over Z.
    """

    def __init__(self, min_poly: Iterable[int], gen_name: str = "w"):
        mp = [_exact_int(c) for c in min_poly]
        if len(mp) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if mp[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        certified = any(_irreducible_mod_p(mp, p) for p in _CERTIFICATE_PRIMES)
        factor = None if certified else _monic_factor(mp)
        if factor is not None:
            raise ValueError(
                f"minimal polynomial {mp} is reducible: it has the factor {factor}"
            )
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
        # one rational; a string such as "12" is not a list of coefficients
        if isinstance(coeffs, (int, float, str, Fraction)):
            coeffs = [coeffs]
        cs = [_exact_rational(c) for c in coeffs]
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
        prod = list(poincare_product(self.coeffs, other.coeffs))
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
            qs = poincare_product(q, s1) if q and s1 else ()
            s0, s1 = s1, _poly_trim(
                [(s0[i] if i < len(s0) else Fraction(0)) - (qs[i] if i < len(qs) else Fraction(0))
                 for i in range(max(len(s0), len(qs), 1))]
            )
        # a is now the gcd, a nonzero constant since min_poly is irreducible
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
