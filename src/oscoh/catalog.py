"""Built-in arrangements used throughout the test corpus and the CLI.

Entries are constructed lazily and cached, so repeated lookups share one
instance (and therefore one set of computed lattices and matrices).

Available names: ``boolean(n)`` for any n >= 1, ``example-lstrict``,
``ceva3``, ``maclane``, ``maclane-matroid``, ``ceva3-section``,
``maclane-section``, ``product-example``.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .arrangement import (
    Arrangement,
    arrangement_from_circuits,
    build_arrangement,
    generic_section,
    product_arrangement,
)
from .exactla import NumberField

__all__ = [
    "boolean",
    "example_lstrict",
    "ceva3",
    "maclane",
    "maclane_matroid",
    "ceva3_section",
    "maclane_section",
    "product_example",
    "omega_field",
    "get",
    "names",
]


@lru_cache(maxsize=None)
def omega_field() -> NumberField:
    """Q(w) with w a primitive third root of unity: w^2 + w + 1 = 0."""
    return NumberField([1, 1, 1])


@lru_cache(maxsize=None)
def boolean(n: int) -> Arrangement:
    """The n coordinate hyperplanes z_1 = 0, ..., z_n = 0 in C^n."""
    if n < 1:
        raise ValueError("boolean arrangement needs n >= 1")
    rows = [[1 if j == i else 0 for j in range(n)] + [0] for i in range(n)]
    return build_arrangement(rows, labels=[f"z{i+1}" for i in range(n)])


@lru_cache(maxsize=None)
def example_lstrict() -> Arrangement:
    """Seven central planes in C^3: x(x+y+z)(x+y-z)y(x-y-z)(x-y+z)z."""
    rows = [
        [1, 0, 0, 0],
        [1, 1, 1, 0],
        [1, 1, -1, 0],
        [0, 1, 0, 0],
        [1, -1, -1, 0],
        [1, -1, 1, 0],
        [0, 0, 1, 0],
    ]
    labels = ["x", "x+y+z", "x+y-z", "y", "x-y-z", "x-y+z", "z"]
    return build_arrangement(rows, labels=labels)


@lru_cache(maxsize=None)
def ceva3() -> Arrangement:
    """Ceva(3): nine central planes in C^3, (x^3-y^3)(x^3-z^3)(y^3-z^3).

    Each cubic factors as three linear forms over Q(w); the hyperplane
    order follows the factor order x-y, x-wy, x-w^2y, then the x,z and
    y,z groups likewise.
    """
    F = omega_field()
    w = F.gen
    w2 = w * w
    one, zero = F.one, F.zero
    rows = [
        [one, -one, zero, zero],
        [one, -w, zero, zero],
        [one, -w2, zero, zero],
        [one, zero, -one, zero],
        [one, zero, -w, zero],
        [one, zero, -w2, zero],
        [zero, one, -one, zero],
        [zero, one, -w, zero],
        [zero, one, -w2, zero],
    ]
    labels = [
        "x-y", "x-wy", "x-w2y",
        "x-z", "x-wz", "x-w2z",
        "y-z", "y-wz", "y-w2z",
    ]
    return build_arrangement(rows, field=F, labels=labels)


@lru_cache(maxsize=None)
def maclane() -> Arrangement:
    """MacLane (8_3): eight central planes in C^3 over Q(w),
    xy(y-x)z(z-x-w^2*y)(z+wy)(z-x)(z+w^2*x+wy)."""
    F = omega_field()
    w = F.gen
    w2 = w * w
    one, zero = F.one, F.zero
    rows = [
        [one, zero, zero, zero],
        [zero, one, zero, zero],
        [-one, one, zero, zero],
        [zero, zero, one, zero],
        [-one, -w2, one, zero],
        [zero, w, one, zero],
        [-one, zero, one, zero],
        [w2, w, one, zero],
    ]
    labels = [
        "x", "y", "y-x", "z",
        "z-x-w2y", "z+wy", "z-x", "z+w2x+wy",
    ]
    return build_arrangement(rows, field=F, labels=labels)


# The eight concurrent triples of the MacLane configuration, 0-based.
# Derived from the realization above; the tests check that the two
# descriptions agree.
_MACLANE_TRIPLES = (
    (0, 1, 2),
    (0, 3, 6),
    (0, 5, 7),
    (1, 3, 5),
    (1, 4, 6),
    (2, 4, 5),
    (2, 6, 7),
    (3, 4, 7),
)


@lru_cache(maxsize=None)
def maclane_matroid() -> Arrangement:
    """MacLane as an abstract rank-3 matroid on its 8 collinear triples."""
    return arrangement_from_circuits(
        8,
        _MACLANE_TRIPLES,
        rank=3,
        labels=[f"P{i+1}" for i in range(8)],
    )


@lru_cache(maxsize=None)
def ceva3_section() -> Arrangement:
    """Generic plane section of Ceva(3): nine affine lines in C^2."""
    return generic_section(ceva3(), 2)


@lru_cache(maxsize=None)
def maclane_section() -> Arrangement:
    """Generic plane section of MacLane: eight affine lines in C^2."""
    return generic_section(maclane(), 2)


@lru_cache(maxsize=None)
def product_example() -> Arrangement:
    """ceva3-section x maclane-section: 17 hyperplanes of rank 4."""
    return product_arrangement(ceva3_section(), maclane_section())


_CATALOG = {
    "example-lstrict": example_lstrict,
    "ceva3": ceva3,
    "maclane": maclane,
    "maclane-matroid": maclane_matroid,
    "ceva3-section": ceva3_section,
    "maclane-section": maclane_section,
    "product-example": product_example,
}

_BOOLEAN_RE = re.compile(r"^boolean\((\d+)\)$")


def names() -> list[str]:
    """Catalog names, with boolean(n) shown generically."""
    return ["boolean(n)"] + sorted(_CATALOG)


def get(name: str) -> Arrangement:
    """Look up a catalog arrangement by name; KeyError if unknown."""
    m = _BOOLEAN_RE.match(name.strip())
    if m:
        return boolean(int(m.group(1)))
    ctor = _CATALOG.get(name.strip())
    if ctor is None:
        raise KeyError(
            f"unknown catalog name {name!r}; available: {', '.join(names())}"
        )
    return ctor()
