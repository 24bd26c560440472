"""Circuit-based matroids: rank, closure, flats, truncation, gluing."""

from fractions import Fraction

import pytest

from oscoh.exactla import field_rank
from oscoh.matroid import Matroid, parallel_connection, vector_matroid


def uniform_line():
    """U(2,3): three points on a line, the single circuit is all three."""
    return Matroid(3, [(0, 1, 2)], validate=True)


def test_uniform_line_ranks_and_independence():
    m = uniform_line()
    assert m.full_rank == 2
    assert m.rank([]) == 0
    assert m.rank([0]) == 1
    assert m.rank([0, 1]) == 2
    assert m.rank([0, 1, 2]) == 2
    assert m.is_independent([0, 2])
    assert not m.is_independent([0, 1, 2])


def test_uniform_line_closure_and_flats():
    m = uniform_line()
    assert m.closure([]) == frozenset()
    assert m.closure([1]) == frozenset({1})
    assert m.closure([0, 2]) == frozenset({0, 1, 2})


def test_free_matroid_has_no_circuits():
    m = Matroid(4, [])
    assert m.circuits() == []
    assert m.full_rank == 4
    assert m.closure([1, 3]) == frozenset({1, 3})
    assert m.is_independent(range(4))


def test_circuit_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Matroid(3, [(0, 3)])


def test_validation_rejects_nested_circuits():
    with pytest.raises(ValueError, match="properly contains"):
        Matroid(4, [(0, 1), (0, 1, 2)], validate=True)


def test_validation_rejects_broken_elimination():
    # {1,2,3} = ({0,1,2} u {0,1,3}) - {0} contains no declared circuit
    with pytest.raises(ValueError, match="elimination"):
        Matroid(4, [(0, 1, 2), (0, 1, 3)], validate=True)


def test_validation_accepts_completed_elimination():
    m = Matroid(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], validate=True)
    assert m.full_rank == 2


def test_parallel_elements():
    m = Matroid(3, [(0, 1)], validate=True)
    assert m.full_rank == 2
    assert m.closure([0]) == frozenset({0, 1})
    assert m.rank([0, 1]) == 1


def test_truncation_of_free_matroid():
    m = Matroid(4, []).truncate(2)
    assert m.full_rank == 2
    assert sorted(len(c) for c in m.circuits()) == [3, 3, 3, 3]
    # truncation to its own rank changes nothing
    same = Matroid(3, [(0, 1, 2)]).truncate(2)
    assert sorted(same.circuits()) == [frozenset({0, 1, 2})]


def test_truncation_preserves_low_rank_structure():
    # 5 points, one collinear triple, truncated from rank 5 to rank 3
    gen = Matroid(5, [(0, 1, 2)])
    m = gen.truncate(3)
    assert m.full_rank == 3
    assert m.rank([0, 1, 2]) == 2  # the declared triple stays a circuit
    assert m.is_independent([0, 1, 3])
    assert not m.is_independent([0, 1, 3, 4])  # every 4-set is dependent
    # the result satisfies the circuit axioms
    Matroid(5, m.circuits(), validate=True)


def test_restriction_connected():
    m = Matroid(5, [(0, 1, 2), (2, 3, 4), (0, 1, 3, 4)], validate=True)
    assert m.restriction_connected([0, 1, 2])
    assert m.restriction_connected([0, 1, 2, 3, 4])
    assert not m.restriction_connected([0, 3])  # no circuit inside
    assert m.restriction_connected([2])  # single element is trivially connected
    assert not m.restriction_connected([0, 1, 2, 3])  # {3} dangles off the triple


def test_vector_matroid_finds_dependencies():
    vectors = [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1)],
        [Fraction(2), Fraction(2)],
    ]
    m = vector_matroid(vectors, field_rank)
    assert m.full_rank == 2
    assert frozenset({2, 3}) in m.circuits()  # parallel vectors
    assert m.rank([0, 1, 2, 3]) == 2
    assert not m.is_independent([0, 1, 2])
    Matroid(4, m.circuits(), validate=True)


def test_parallel_connection_of_two_triangles():
    # glue two 3-point lines at a basepoint; the shared point is labelled last
    t1 = Matroid(3, [(0, 1, 2)])
    t2 = Matroid(3, [(0, 1, 2)])
    glued = parallel_connection(t1, 2, t2, 2)
    assert glued.n == 5
    expected = [
        frozenset({0, 1, 4}),  # first triangle through the shared point 4
        frozenset({2, 3, 4}),  # second triangle
        frozenset({0, 1, 2, 3}),  # their join with the shared point removed
    ]
    assert sorted(glued.circuits(), key=sorted) == sorted(expected, key=sorted)
    assert glued.full_rank == 3
    Matroid(5, glued.circuits(), validate=True)


def test_parallel_connection_with_free_factor():
    free = Matroid(2, [])
    t = Matroid(3, [(0, 1, 2)])
    glued = parallel_connection(free, 1, t, 2)
    # basepoint is a coloop in the free factor, so no new circuits appear
    assert glued.n == 4
    assert glued.full_rank == 3
    assert sorted(glued.circuits()) == [frozenset({1, 2, 3})]
