"""Shared helpers for the test suite.

The catalog constructors are memoized, so tests obtain arrangements by
calling ``catalog.get`` directly; intersection lattices, NBC bases and
rank caches are then shared across the whole pytest run.
"""

import random
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from oscoh import build_arrangement, catalog

# Every catalog entry, with the parametrized family pinned to one size.
CATALOG_NAMES = [
    "boolean(4)",
    "ceva3",
    "ceva3-section",
    "example-lstrict",
    "maclane",
    "maclane-matroid",
    "maclane-section",
    "product-example",
]


def next_prime(m: int) -> int:
    """Smallest prime strictly greater than m."""

    def is_prime(x):
        if x < 2:
            return False
        f = 2
        while f * f <= x:
            if x % f == 0:
                return False
            f += 1
        return True

    p = m + 1
    while not is_prime(p):
        p += 1
    return p


def braid_rows(l):
    """Forms of the essential braid arrangement A_l: x_i and x_i - x_j."""
    unit = [[int(c == i) for c in range(l)] for i in range(l)]
    rows = [u + [0] for u in unit]
    rows += [[a - b for a, b in zip(unit[i], unit[j])] + [0] for i in range(l) for j in range(i + 1, l)]
    return rows


def random_weight_vector(rng: random.Random, n: int, denominators=(2, 3, 5, 7)):
    """Random nonzero rational weight vector with prime denominators."""
    while True:
        lam = tuple(
            Fraction(rng.randint(-3, 3), rng.choice(denominators))
            for _ in range(n)
        )
        if any(lam):
            return lam


def empty_rank_cache(*arrs):
    """Empty the rank family of each arrangement's cache (the rank vector
    of each field and weight row that ``cohom._ranks`` ranked), so the next
    call ranks afresh."""
    for a in arrs:
        a._cache.get("ranks", {}).clear()


def catalog_arrangements():
    """(name, arrangement) pairs for every catalog entry."""
    return [(name, catalog.get(name)) for name in CATALOG_NAMES]


@st.composite
def affine_lines(draw):
    """An affine arrangement of 3-6 random lines in the plane."""
    rows = [[draw(st.integers(-2, 2)) for _ in range(3)] for _ in range(draw(st.integers(3, 6)))]
    try:
        arr = build_arrangement(rows)
    except ValueError:
        assume(False)
    assume(not arr.central)
    return arr
