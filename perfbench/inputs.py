"""Seeded inputs for the benchmark, with expected invariants computed here.

Everything the package receives is generated from ``random.Random(seed)``:
arrangement rows, weight vectors and integer weights.  Expected Betti
numbers come from closed forms or from the small exact lattice routine in
this file, never from the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# arrangements as JSON documents (the input file schema of the package)


def braid_rows(l: int) -> list[list[int]]:
    """Essential braid arrangement A_l in C^l: x_i = 0 and x_i = x_j."""
    rows = []
    for i in range(l):
        rows.append([1 if c == i else 0 for c in range(l)] + [0])
    for i in range(l):
        for j in range(i + 1, l):
            rows.append([1 if c == i else -1 if c == j else 0 for c in range(l)] + [0])
    return rows


def boolean_rows(n: int) -> list[list[int]]:
    return [[1 if c == i else 0 for c in range(n)] + [0] for i in range(n)]


def random_plane_rows(rng, n: int) -> list[list[int]]:
    """n distinct affine planes a.z + c = 0 in C^3 with entries in {-1,0,1},
    whose normals span C^3."""
    pool = []
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            for c in (-1, 0, 1):
                for d in (-1, 0, 1):
                    row = [a, b, c, d]
                    if not any(row[:3]):
                        continue
                    lead = next(x for x in row if x)
                    if lead > 0:  # one representative per pair +-row
                        pool.append(row)
    while True:
        rows = rng.sample(pool, n)
        if rank([r[:3] for r in rows]) == 3:
            return rows


def shuffled_plane_rows(rng, base) -> list[list[int]]:
    """The arrangement ``base`` with its planes reordered, its coordinates
    permuted and negated, and each row's sign flipped, all at random.

    The result still has entries in {-1,0,1} and the same matroid up to
    relabeling, so a draw changes the input but not the amount of work.
    """
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    rows = []
    for r in rng.sample(base, len(base)):
        row = [signs[j] * r[perm[j]] for j in range(3)] + [r[3]]
        rows.append([-x for x in row] if rng.random() < 0.5 else row)
    return rows


def forms_doc(rows) -> dict:
    return {"hyperplanes": [list(r) for r in rows]}


# ---------------------------------------------------------------------------
# exact rank and an independent lattice for realized arrangements


def rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def realized_betti(rows) -> list[int]:
    """Betti numbers of the complement of a rational arrangement.

    Flats are enumerated from homogenized rows: the subsets of hyperplanes
    meeting in a nonempty intersection, closed under "contains the
    intersection".  The Moebius function is computed from the bottom and
    b_q = sum |mu| over flats of codimension q.
    """
    homog = [list(r) for r in rows]
    normals = [r[:-1] for r in rows]
    n = len(rows)
    ell = rank(normals)
    levels = [{frozenset()}]
    for q in range(1, ell + 1):
        nxt = set()
        for flat in levels[-1]:
            base = sorted(flat)
            for h in range(n):
                if h in flat:
                    continue
                s = base + [h]
                if rank([normals[i] for i in s]) != q:
                    continue
                if rank([homog[i] for i in s]) != q:  # empty intersection
                    continue
                closed = frozenset(
                    i for i in range(n)
                    if rank([homog[j] for j in s] + [homog[i]]) == q
                )
                nxt.add(closed)
        levels.append(nxt)
    mu = {frozenset(): 1}
    below = [frozenset()]
    betti = [1]
    for level in levels[1:]:
        total = 0
        for f in level:
            mu[f] = -sum(mu[g] for g in below if g < f)
            total += abs(mu[f])
        below.extend(level)
        betti.append(total)
    return betti


# ---------------------------------------------------------------------------
# closed forms


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def braid_betti(l: int) -> list[int]:
    """Poincare polynomial of A_l is prod_{i=1..l} (1 + i t)."""
    p = [1]
    for i in range(1, l + 1):
        p = poly_mul(p, [1, i])
    return p


def boolean_betti(n: int) -> list[int]:
    return [math.comb(n, q) for q in range(n + 1)]


def line_config_betti(n: int, multiple_points: list[int]) -> list[int]:
    """Central arrangement of n planes in C^3 from its multiple points.

    In P^2 the n lines meet in points of multiplicity m; every pair not on a
    listed point meets in a double point.  b_2 = sum (m - 1) and b_3 follows
    from chi = 0.
    """
    pairs_on = sum(m * (m - 1) // 2 for m in multiple_points)
    doubles = n * (n - 1) // 2 - pairs_on
    b2 = sum(m - 1 for m in multiple_points) + doubles
    return [1, n, b2, b2 - n + 1]


# Ceva(3): 9 lines, 12 triple points, no double point.  MacLane: 8 lines,
# 8 triple points (and 4 double points).
CEVA3_BETTI = line_config_betti(9, [3] * 12)
MACLANE_BETTI = line_config_betti(8, [3] * 8)
LSTRICT_BETTI = line_config_betti(7, [3] * 6)


def truncated(betti: list[int], r: int) -> list[int]:
    """Betti numbers of a generic rank-r section: the first r+1 survive."""
    return list(betti[: r + 1])


# ---------------------------------------------------------------------------
# weights


def ray_key(values) -> tuple:
    """Projective normal form of a rational vector (same ray, same key)."""
    fr = [Fraction(x) for x in values]
    den = math.lcm(*(f.denominator for f in fr))
    ints = [int(f * den) for f in fr]
    g = math.gcd(*ints) or 1
    ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    return tuple(-x for x in ints) if lead < 0 else tuple(ints)


def random_weights(rng, n: int, dens, span: int = 2) -> list[Fraction]:
    """Each entry a/d with 0 < |a| <= span*d.  Every d in dens is used at
    least once (when n allows), so the common denominator, and with it the
    size of the evaluated matrices' entries, is the same from draw to draw."""
    chosen = list(dens[:n]) + [rng.choice(dens) for _ in range(n - len(dens))]
    rng.shuffle(chosen)
    out = []
    for d in chosen:
        a = 0
        while a == 0:
            a = rng.randint(-span * d, span * d)
        out.append(Fraction(a, d))
    return out


def zero_sum(rng, lam: list[Fraction]) -> list[Fraction]:
    """Shift one entry so that the weights sum to zero."""
    i = rng.randrange(len(lam))
    out = list(lam)
    out[i] -= sum(out)
    return out
