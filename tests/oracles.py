"""Reference oracles that the tests compare the package against.

Gaussian elimination with exact pivot division, in Fraction or NFElement
arithmetic, and the matroid of a list of vectors whose ranks are asked of
it one subset at a time, with circuits found by a search over subsets.
None of this shares code with the package's integer kernels: the package
ranks vectors over Q and number fields as integer rows (``exactla``).
"""

from fractions import Fraction

from oscoh.exactla import NFElement


def pivot_columns(rows):
    """Pivot columns of a matrix with int/Fraction or NFElement entries,
    over Q or over the number field of the NFElement entries.  They index
    a maximal set of independent columns, the first one in column order."""
    field = next((x.field for row in rows for x in row if isinstance(x, NFElement)), None)
    coerce = field.coerce if field else Fraction
    a = [[coerce(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots = []
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


def field_rank(rows):
    """Rank of a matrix with int/Fraction or NFElement entries."""
    return len(pivot_columns(rows))


class RankOracle:
    """The matroid of a list of vectors over an exact field, each rank
    asked of ``field_rank`` on the subset's vectors."""

    def __init__(self, vectors):
        self.vectors = list(vectors)
        self.n = len(self.vectors)
        self._ranks = {}

    def rank(self, s) -> int:
        key = tuple(sorted(set(s)))
        if key not in self._ranks:
            self._ranks[key] = field_rank([self.vectors[i] for i in key]) if key else 0
        return self._ranks[key]

    @property
    def full_rank(self) -> int:
        return self.rank(range(self.n))

    def circuits(self) -> list[frozenset]:
        """The dependent sets whose every proper subset is independent,
        grown size by size from the independent sets: a set one larger
        than an independent set s, all of whose subsets of the size of s
        are independent, is independent or a circuit."""
        found, indep = [], [()]
        while indep:
            known, grown = set(indep), []
            for s in indep:
                for e in range(s[-1] + 1 if s else 0, self.n):
                    t = s + (e,)
                    if all(t[:i] + t[i + 1 :] in known for i in range(len(s))):
                        if self.rank(t) == len(t):
                            grown.append(t)
                        else:
                            found.append(frozenset(t))
            indep = grown
        return found


def restriction_connected(circuits, s) -> bool:
    """Is the restriction to s of the matroid with these circuits (a list
    of sets, listed once by the caller) connected (a single element counts
    as yes)?  Its components are the classes of "lies on a common circuit
    inside s"; an element of s on no such circuit is its own component."""
    elems = set(s)
    parent = {e: e for e in elems}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c in circuits:
        if c <= elems:
            first, *rest = c
            for e in rest:
                parent[find(e)] = find(first)
    return len({find(e) for e in elems}) <= 1
