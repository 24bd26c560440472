"""Circuit-based matroids: rank, closure, flats, truncation, gluing."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscoh import matroid
from oscoh.exactla import field_rank
from oscoh.matroid import Matroid, _bits, _mask, parallel_connection, vector_matroid


def uniform_line():
    """U(2,3): three points on a line, the single circuit is all three."""
    return Matroid(3, [(0, 1, 2)], validate=True)


def test_uniform_line_ranks_and_independence():
    m = uniform_line()
    assert m.full_rank == 2
    assert m.rank([]) == 0
    assert m.rank([0]) == 1
    assert m.rank([0, 1]) == 2
    assert m.rank([0, 1, 2]) == 2  # dependent: rank below its size
    assert m.rank([0, 2]) == 2  # independent


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
    assert m.rank(range(4)) == 4


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


def test_validation_eliminates_every_common_element():
    # at the lowest common element 0, ({0,1,3} u {0,2,3}) - {0} = {1,2,3} is a
    # circuit; at 3, {0,1,2} contains none.  Betti numbers (1, 4, 9, 6) came
    # out of this family when only the lowest element was eliminated.
    with pytest.raises(ValueError, match="circuit elimination axiom fails"):
        Matroid(4, [(0, 1, 3), (0, 2, 3), (1, 2, 3)], validate=True)


def satisfies_circuit_axioms(family: set) -> bool:
    """C1-C3 by brute force over masks: no empty circuit, none properly
    inside another, and for distinct a, b and every e in both, a circuit
    inside (a | b) - e."""
    if 0 in family:
        return False
    for a in family:
        for b in family - {a}:
            if a & b == a:
                return False
            for e in _bits(a & b):
                union = (a | b) & ~(1 << e)
                if not any(c & ~union == 0 for c in family):
                    return False
    return True


@st.composite
def near_matroids(draw):
    """(n, masks) on n <= 7 elements: the circuits of a uniform matroid or
    of vectors in {-1, 0, 1}^d, less one circuit or plus up to two
    arbitrary subsets."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        family = {_mask(c) for c in combinations(range(n), r + 1)}
    else:
        d = draw(st.integers(1, 3))
        vectors = draw(st.lists(st.lists(st.integers(-1, 1), min_size=d, max_size=d), min_size=n, max_size=n))
        family = {_mask(c) for c in vector_matroid(vectors).circuits()}
    if family and draw(st.booleans()):
        return n, family - {draw(st.sampled_from(sorted(family)))}
    return n, family | draw(st.sets(st.integers(1, 2**n - 1), max_size=2))


@given(near_matroids())
@settings(max_examples=300, deadline=None)
@example((4, {0b1011, 0b1101, 0b1110}))  # C3 fails at the second common element only
@example((3, {0b011, 0b101, 0b110, 0b111}))  # C3 holds, C2 fails
@example((2, {0b01, 0b10}))  # two loops: disjoint circuits
def test_validation_accepts_exactly_the_circuit_axioms(case):
    n, family = case
    try:
        Matroid(n, [_bits(c) for c in family], validate=True)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == satisfies_circuit_axioms(family)


@pytest.mark.parametrize("cells", [1, 7, 2**16])
def test_validation_in_blocks_of_any_size(monkeypatch, cells):
    monkeypatch.setattr(matroid, "STACK_CELLS", cells)
    line = list(combinations(range(6), 3))  # U(2,6): 20 circuits
    assert Matroid(6, line, validate=True).full_rank == 2
    with pytest.raises(ValueError, match="elimination"):
        Matroid(6, line[1:], validate=True)  # less {0,1,2}
    with pytest.raises(ValueError, match="properly contains"):
        Matroid(6, line + [(2, 3, 4, 5)], validate=True)


def test_validation_past_63_elements():
    # a direct sum of 22 rank-one triangles on 66 elements: each triangle is
    # three parallel elements, its circuits the three edges, and the last
    # triangle's masks pass 2**63
    circuits = [(3 * t + i, 3 * t + j) for t in range(22) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert max(_mask(c) for c in circuits) >= 2**63
    assert Matroid(66, circuits, validate=True).full_rank == 22
    # without the edge {64, 65}, ({63,64} u {63,65}) - {63} holds no circuit
    with pytest.raises(ValueError, match="elimination"):
        Matroid(66, circuits[:-1], validate=True)


def test_validation_accepts_completed_elimination():
    m = Matroid(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], validate=True)
    assert m.full_rank == 2


def brute_rank(family: set, sm: int) -> int:
    """The largest subset of the masked set that contains no circuit."""
    best, sub = 0, sm
    while True:  # every submask of sm, sm itself first
        if sub.bit_count() > best and not any(c & ~sub == 0 for c in family):
            best = sub.bit_count()
        if sub == 0:
            return best
        sub = (sub - 1) & sm


def brute_closure(n: int, family: set, sm: int) -> int:
    """cl(S) = {e : r(S + e) = r(S)}, with ranks from the definition."""
    r = brute_rank(family, sm)
    return _mask(e for e in range(n) if brute_rank(family, sm | 1 << e) == r)


@given(near_matroids().filter(lambda case: satisfies_circuit_axioms(case[1])))
@settings(max_examples=200, deadline=None)
@example((3, {0b001, 0b110}))  # a loop and a parallel pair
@example((4, {0b0111, 0b1011, 0b1101, 0b1110}))  # U(2,4)
def test_circuit_oracle_rank_closure_and_covers_match_the_definition(case):
    n, family = case
    full = (1 << n) - 1
    closure = {sm: brute_closure(n, family, sm) for sm in range(full + 1)}
    rank = {sm: brute_rank(family, sm) for sm in range(full + 1)}
    flats = sorted(set(closure.values()))
    for cells in (1, 7, 2**16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matroid, "STACK_CELLS", cells)
            m = Matroid(n, [_bits(c) for c in family])
            for sm in range(full + 1):
                assert m.rank(_bits(sm)) == rank[sm]
                assert m.closure(_bits(sm)) == frozenset(_bits(closure[sm]))
            m = Matroid(n, [_bits(c) for c in family])  # the levels on fresh caches
            levels, covers = m.flat_levels(None, rank[full])
        assert levels == [[f for f in flats if rank[f] == r] for r in range(rank[full] + 1)]
        assert covers == {
            f: {e: closure[f | 1 << e] for e in range(n) if not f >> e & 1}
            for f in flats if rank[f] < rank[full]
        }


@pytest.mark.parametrize("cells", [1, 7, 2**16])
def test_circuit_oracle_closes_past_63_elements(monkeypatch, cells):
    # the sum of 22 rank-one triangles: cl(S) is every triangle S meets,
    # and its rank is their count; the masks pass 2**63
    monkeypatch.setattr(matroid, "STACK_CELLS", cells)
    circuits = [(3 * t + i, 3 * t + j) for t in range(22) for i, j in ((0, 1), (0, 2), (1, 2))]
    m = Matroid(66, circuits)

    def triangles(sm):
        return _mask(x for e in _bits(sm) for x in range(e - e % 3, e - e % 3 + 3))

    for sm in (0, 1, 1 << 65, 0b110 << 60 | 1 << 2, (1 << 66) - 1, sum(1 << 3 * t for t in range(0, 22, 3))):
        assert m.closure(_bits(sm)) == frozenset(_bits(triangles(sm)))
        assert m.rank(_bits(sm)) == triangles(sm).bit_count() // 3
    levels, covers = Matroid(66, circuits).flat_levels(None, 2)
    assert [len(level) for level in levels] == [1, 22, 231]
    for f, cov in covers.items():
        assert cov == {e: f | triangles(1 << e) for e in range(66) if not f >> e & 1}


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
    assert m.rank([0, 1, 3]) == 3  # independent
    assert m.rank([0, 1, 3, 4]) < 4  # every 4-set is dependent
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
    assert m.rank([0, 1, 2]) < 3  # dependent
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
