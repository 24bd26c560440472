"""Answer checks.  Each returns a list of problems; an empty list passes.

The facts used are theorems about the weighted Orlik-Solomon complex, not
calls back into the package:

* the alternating sum of the dimensions of any complex built on the
  Orlik-Solomon algebra is the Euler characteristic of the Betti numbers;
* on a central arrangement the complex is exact when the weights do not sum
  to zero (over Q, and over Z_p when the sum is nonzero mod p);
* when they do sum to zero, the complex is a copy of the decone's complex
  tensored with an exterior algebra on one generator, so its Poincare
  polynomial is divisible by 1 + t; differentiating at t = -1 gives
  sum q (-1)^(q-1) dims_q = sum q (-1)^(q-1) b_q;
* ranks drop modulo a prime, so dims over Q <= dims mod p at the same k;
* the lower sandwich bound never exceeds the upper one.
"""

from __future__ import annotations


def alt_sum(v) -> int:
    return sum((-1) ** q * x for q, x in enumerate(v))


def alt_derivative(v) -> int:
    return sum(q * (-1) ** (q - 1) * x for q, x in enumerate(v))


def betti(got, expected) -> list[str]:
    return [] if list(got) == list(expected) else [f"betti {list(got)} != {list(expected)}"]


def dims(got, b, central: bool, sum_is_zero: bool) -> list[str]:
    """Dimensions of a weighted complex (over Q, or over Z_p with
    ``sum_is_zero`` taken mod p)."""
    got = list(got)
    if len(got) != len(b):
        return [f"dims {got} have {len(got)} degrees, expected {len(b)}"]
    errs = []
    if any(not 0 <= d <= bq for d, bq in zip(got, b)):
        errs.append(f"dims {got} outside 0..betti {list(b)}")
    if alt_sum(got) != alt_sum(b):
        errs.append(f"alternating sum of {got} is not chi = {alt_sum(b)}")
    if central and not sum_is_zero and any(got):
        errs.append(f"central, weight sum nonzero, but dims {got} are not all zero")
    if central and sum_is_zero and alt_derivative(got) != alt_derivative(b):
        errs.append(
            f"central with zero weight sum: sum q(-1)^(q-1) dims = "
            f"{alt_derivative(got)}, expected {alt_derivative(b)}"
        )
    return errs


def dominated(lower, upper, what: str) -> list[str]:
    lower, upper = list(lower), list(upper)
    if len(lower) != len(upper) or any(a > b for a, b in zip(lower, upper)):
        return [f"{what}: {lower} not <= {upper}"]
    return []


def convolve(d1, d2) -> list[int]:
    out = [0] * (len(d1) + len(d2) - 1)
    for i, a in enumerate(d1):
        for j, c in enumerate(d2):
            out[i + j] += a * c
    return out


def equal(got, expected, what: str) -> list[str]:
    return [] if list(got) == list(expected) else [f"{what}: {list(got)} != {list(expected)}"]


def invariant_chain(factors) -> list[str]:
    """Smith invariant factors are positive and each divides the next."""
    for q, fs in enumerate(factors):
        if any(d <= 0 for d in fs) or any(b % a for a, b in zip(fs, fs[1:])):
            return [f"invariant factors of boundary {q} {list(fs)} are not a divisor chain"]
    return []
