"""Orlik-Solomon algebra: NBC bases, circuit reduction, Aomoto matrices."""

import random

import numpy as np

from oscoh import build_arrangement, catalog
from oscoh.osalg import aomoto_matrix, nbc_basis, reduce_to_nbc

from conftest import CATALOG_NAMES


def three_concurrent_lines():
    return build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def symbolic_compose(first, second):
    """Compose two Aomoto matrices as matrices of linear forms.

    Returns the nonzero quadratic-form coefficients of the product, keyed by
    (row, col, var_a, var_b) with var_a <= var_b.  The weight variables
    commute, so a zero product must vanish coefficient by coefficient.
    """
    out = {}
    by_row = {}
    for (j, k), form in second.entries.items():
        by_row.setdefault(j, []).append((k, form))
    for (i, j), form1 in first.entries.items():
        for k, form2 in by_row.get(j, []):
            for va, ca in form1.items():
                for vb, cb in form2.items():
                    key = (i, k, min(va, vb), max(va, vb))
                    out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# NBC bases


def test_nbc_basis_sizes_match_whitney_numbers():
    for name in CATALOG_NAMES:
        arr = catalog.get(name)
        betti = arr.betti_numbers()
        for q in range(arr.rank + 1):
            assert len(nbc_basis(arr, q)) == betti[q], (name, q)


def test_nbc_basis_low_degrees_explicit():
    arr = three_concurrent_lines()
    assert nbc_basis(arr, 0) == [()]
    assert nbc_basis(arr, 1) == [(0,), (1,), (2,)]
    assert nbc_basis(arr, 2) == [(0, 1), (0, 2)]


def test_nbc_monomials_are_sorted_and_independent():
    arr = catalog.get("maclane")
    for q in range(arr.rank + 1):
        for mono in nbc_basis(arr, q):
            assert list(mono) == sorted(mono)
            assert arr.cone_matroid.rank(mono) == len(mono)


# ---------------------------------------------------------------------------
# reduction to the NBC basis


def test_reduce_broken_pair_in_pencil():
    arr = three_concurrent_lines()
    # e_1 e_2 = e_0 e_2 - e_0 e_1 modulo the circuit relation
    assert reduce_to_nbc(arr, (1, 2)) == {(0, 2): 1, (0, 1): -1}


def test_reduce_is_identity_on_nbc_monomials():
    arr = catalog.get("example-lstrict")
    for q in range(arr.rank + 1):
        for mono in nbc_basis(arr, q):
            assert reduce_to_nbc(arr, mono) == {mono: 1}


def test_circuit_boundary_relations_reduce_to_zero():
    # for a circuit {a<b<c}: e_bc - e_ac + e_ab = 0 in the algebra
    for name in ("example-lstrict", "ceva3", "maclane"):
        arr = catalog.get(name)
        triples = [
            tuple(sorted(c)) for c in arr.central_circuits() if len(c) == 3
        ]
        assert triples, name
        for (a, b, c) in triples:
            total = {}
            for sign, pair in ((1, (b, c)), (-1, (a, c)), (1, (a, b))):
                for mono, coef in reduce_to_nbc(arr, pair).items():
                    total[mono] = total.get(mono, 0) + sign * coef
            assert not any(total.values()), (name, (a, b, c))


def test_reduce_output_supported_on_nbc_basis():
    arr = catalog.get("ceva3")
    basis = set(nbc_basis(arr, 2))
    rng = random.Random(3)
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    for pair in rng.sample(pairs, 12):
        expansion = reduce_to_nbc(arr, pair)
        assert set(expansion) <= basis


# ---------------------------------------------------------------------------
# Aomoto matrices of linear forms


def test_boolean_matrices_explicit():
    b2 = catalog.get("boolean(2)")
    a0 = aomoto_matrix(b2, 0)
    assert a0.row_monomials == [()]
    assert a0.col_monomials == [(0,), (1,)]
    assert a0.entries == {(0, 0): {0: 1}, (0, 1): {1: 1}}
    a1 = aomoto_matrix(b2, 1)
    assert a1.shape == (2, 1)
    assert a1.entries == {(0, 0): {1: -1}, (1, 0): {0: 1}}


def test_pencil_matrix_explicit():
    arr = three_concurrent_lines()
    a1 = aomoto_matrix(arr, 1)
    assert a1.row_monomials == [(0,), (1,), (2,)]
    assert a1.col_monomials == [(0, 1), (0, 2)]
    assert a1.entries == {
        (0, 0): {1: -1},
        (0, 1): {2: -1},
        (1, 0): {0: 1, 2: 1},
        (1, 1): {2: -1},
        (2, 0): {1: -1},
        (2, 1): {0: 1, 1: 1},
    }


def test_top_degree_matrix_is_empty():
    arr = catalog.get("example-lstrict")
    top = aomoto_matrix(arr, arr.rank)
    assert top.shape == (arr.betti_numbers()[arr.rank], 0)
    assert top.entries == {}


def test_matrix_shapes_follow_whitney_numbers():
    for name in ("ceva3", "maclane", "product-example"):
        arr = catalog.get(name)
        betti = arr.betti_numbers()
        for q in range(arr.rank):
            assert aomoto_matrix(arr, q).shape == (betti[q], betti[q + 1]), (name, q)


def test_squared_differential_vanishes_symbolically():
    for name in ("boolean(3)", "example-lstrict", "maclane-section"):
        arr = catalog.get(name)
        for q in range(arr.rank - 1):
            first = aomoto_matrix(arr, q)
            second = aomoto_matrix(arr, q + 1)
            assert symbolic_compose(first, second) == {}, (name, q)


def by_forms(mat, k):
    """The matrix at the weights k, entry by entry from the stored forms;
    entries without a form are zero."""
    nr, nc = mat.shape
    out = [[0] * nc for _ in range(nr)]
    for (i, j), form in mat.entries.items():
        out[i][j] = sum(c * k[v] for v, c in form.items())
    return out


def test_evaluate_matches_entry_forms():
    arr = catalog.get("ceva3-section")
    a1 = aomoto_matrix(arr, 1)
    k = [2, -1, 3, 0, 1, -2, 4, 5, -3]
    dense = a1.evaluate(k)
    assert len(dense) == a1.shape[0]
    assert all(len(row) == a1.shape[1] for row in dense)
    assert dense == by_forms(a1, k)
    # stacks of several rows: int64 while the entries fit, exact Python
    # integers once they could pass int64 (inputs near 2**62 and beyond)
    rng = random.Random(11)
    small = [[rng.randint(-9, 9) for _ in range(arr.n)] for _ in range(4)]
    past = [[rng.choice((-1, 1)) * rng.randint(2**62, 2**63 - 1) for _ in range(arr.n)]]
    huge = [[rng.randint(-(2**70), 2**70) for _ in range(arr.n)] for _ in range(2)]
    cases = [
        (np.array(small, dtype=np.int64), np.int64),
        (np.array(small + past, dtype=np.int64), object),
        (np.array(huge + small, dtype=object), object),
    ]
    for K, dtype in cases:
        stack = a1.evaluate_stack(K)
        assert stack.dtype == dtype and stack.shape == (len(K), *a1.shape)
        assert stack.tolist() == [by_forms(a1, row) for row in K.tolist()]
    assert max(abs(x) for x in stack.ravel()) > 2**70
