"""The three workloads: set-up, seeded op plans and per-op answer checks.

Every workload is a closed loop in one process: one op at a time, no
threads, no pools, and ``jobs`` is never passed.  An op is a call into the
package's public API whose answer is checked by ``check`` after the clock
stops.  A plan is a fixed list of cycles; the number of cycles comes from
``--seconds`` and the workload's nominal cycle time, so every run of a
seed performs the same ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import check
import inputs


@dataclass
class Op:
    name: str
    fn: Callable[[], object]
    check: Callable[[object], list]


def _primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _cycles(seconds: float, nominal: float) -> int:
    return max(1, round(seconds / nominal))


def _weight_sum_is_zero(lam) -> bool:
    return sum(Fraction(x) for x in lam) == 0


def _integer_weights(lam) -> list[int]:
    """k = N * lam, N the lcm of the denominators (the same ray as lam)."""
    N = math.lcm(*(Fraction(x).denominator for x in lam))
    return [int(Fraction(x) * N) for x in lam]


# ---------------------------------------------------------------------------
# cold-cli: one in-process CLI call per op on a JSON file written at set-up

PLANES_SEED = 9907117


class ColdCli:
    name = "cold-cli"
    nominal_cycle_s = 11.0

    def setup(self, seed: int, oscoh, workdir: str):
        rng = random.Random(seed)
        from oscoh import catalog
        from oscoh.fileio import write_arrangement

        entries = []  # (label, path, expected betti, central)

        def put(label, doc, betti, central):
            path = os.path.join(workdir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            entries.append((label, path, betti, central))

        for l in (3, 4, 5):
            put(f"A{l}", inputs.forms_doc(inputs.braid_rows(l)), inputs.braid_betti(l), True)
        for n in (6, 7, 8):
            put(f"boolean{n}", inputs.forms_doc(inputs.boolean_rows(n)), inputs.boolean_betti(n), True)
        for n in (10, 11, 12):
            # One random arrangement per size, fixed across seeds, so every
            # seed does the same work; the seed relabels and re-signs it.
            base = inputs.random_plane_rows(random.Random(PLANES_SEED + n), n)
            betti = inputs.realized_betti(base)
            central = not any(r[-1] for r in base)
            for i in range(2):
                rows = inputs.shuffled_plane_rows(rng, base)
                put(f"planes{n}-{i}", inputs.forms_doc(rows), betti, central)
        catalog_inputs = [
            ("ceva3", inputs.CEVA3_BETTI, True),  # forms over Q(w)
            ("maclane", inputs.MACLANE_BETTI, True),  # forms over Q(w)
            ("maclane-matroid", inputs.MACLANE_BETTI, True),  # circuits
            ("ceva3-section", inputs.truncated(inputs.CEVA3_BETTI, 2), False),  # cone circuits
            ("maclane-section", inputs.truncated(inputs.MACLANE_BETTI, 2), False),  # cone circuits
        ]
        for name, betti, central in catalog_inputs:
            path = os.path.join(workdir, f"{name}.json")
            write_arrangement(catalog.get(name), path)
            entries.append((name, path, betti, central))
        return {"entries": entries, "main": oscoh.cli.main}

    def plan(self, state, seed: int, seconds: float) -> list[Op]:
        rng = random.Random(seed + 1)
        ops = []
        for c in range(_cycles(seconds, self.nominal_cycle_s)):
            for label, path, betti, central in state["entries"]:
                n = betti[1]
                ops.append(self._lattice_op(state, f"lattice:{label}#{c}", path, betti))
                p = rng.choice(_primes_between(n + 1, 100))
                k = [rng.randint(-3, 3) for _ in range(n)]
                if rng.random() < 1 / 3:
                    k[-1] -= sum(k)  # zero sum: the non-exact case on central inputs
                ops.append(self._modn_op(state, f"modn:{label}#{c}", path, betti, central, k, p))
                q = rng.choice(_primes_between(n + 1, 60))
                lam = [Fraction(rng.choice((-1, 1)) * rng.randint(1, q - 1), q) for _ in range(n)]
                ops.append(self._nonres_op(state, f"nonres:{label}#{c}", path, betti, central, lam))
        return ops

    @staticmethod
    def _call(main, argv, ok_codes=(0,)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue(), ok_codes

    @staticmethod
    def _parsed(result):
        code, out, ok_codes = result
        if code not in ok_codes:
            return None, [f"exit code {code}"]
        return json.loads(out), []

    def _lattice_op(self, state, name, path, betti):
        argv = ["lattice", path, "--format", "json"]

        def verify(result):
            doc, errs = self._parsed(result)
            if errs:
                return errs
            errs = check.betti(doc["betti"], betti)
            if doc["euler_characteristic"] != check.alt_sum(betti):
                errs.append(f"euler characteristic {doc['euler_characteristic']}")
            # Moebius values recomputed from the listed flats
            flats = [(frozenset(f["hyperplanes"]), f["moebius"], f["codim"]) for f in doc["flats"]]
            by_codim = [0] * len(betti)
            for hs, mu, q in flats:
                want = 1 if q == 0 else -sum(m for g, m, _ in flats if g < hs)
                if mu != want:
                    errs.append(f"moebius of flat {sorted(hs)} is {mu}, recomputed {want}")
                    break
                by_codim[q] += abs(mu)
            return errs + check.equal(by_codim, betti, "sum |mu| by codimension")

        return Op(name, lambda: self._call(state["main"], argv), verify)

    def _modn_op(self, state, name, path, betti, central, k, p):
        argv = ["modn", path, "--format", "json", "--k=" + ",".join(map(str, k)), "--N", str(p)]

        def verify(result):
            doc, errs = self._parsed(result)
            if errs:
                return errs
            return check.dims(doc["dims"], betti, central, sum(k) % p == 0)

        return Op(name, lambda: self._call(state["main"], argv), verify)

    def _nonres_op(self, state, name, path, betti, central, lam):
        argv = ["nonres", path, "--format", "json", "--weights=" + ",".join(map(str, lam))]
        k_sum = sum(x.numerator for x in lam)  # all denominators are the same prime q
        q = lam[0].denominator

        def verify(result):
            doc, errs = self._parsed(result)
            if errs:
                return errs
            code = result[0]
            weights = {frozenset(e["labels"]): Fraction(e["weight"]) for e in doc["edges"]}
            codim1 = sorted(Fraction(e["weight"]) for e in doc["edges"] if e["codim"] == 1)
            if codim1 != sorted(lam + [-sum(lam)]):
                errs.append(f"codimension-1 edge weights {codim1} are not the weights and -sum")
            nonneg = [w for w in weights.values() if w.denominator == 1 and w >= 0]
            if doc["in_W"] != (not nonneg):
                errs.append("in_W disagrees with the listed edge weights")
            if doc["in_W"] and doc.get("claimed_dims") != [0] * (len(betti) - 1) + [abs(check.alt_sum(betti))]:
                errs.append(f"claimed dims {doc.get('claimed_dims')}")
            cert = doc.get("mod_p_certificate")
            if cert is None:
                errs.append("prime denominator but no mod-p certificate")
            else:
                errs += check.dims(cert["mod_p_dims"], betti, central, k_sum % q == 0)
                if cert["holds"] and not cert["confirmed"]:
                    errs.append("edge test holds but the mod-p vanishing is not confirmed")
            if (code == 0) != doc["certified"]:
                errs.append(f"exit code {code} disagrees with certified={doc['certified']}")
            return errs

        return Op(name, lambda: self._call(state["main"], argv, (0, 2)), verify)


# ---------------------------------------------------------------------------
# warm-rank-q: os_cohomology_dims over Q on arrangements assembled at set-up


CEVA_WEIGHTS = [Fraction(x, 3) for x in (1, 1, 1, 1, 1, 1, -2, -2, -2)]
MACLANE_SECTION_WEIGHTS = [Fraction(x, 3) for x in (1, 0, -1, 1, -1, -1, 1, 0)]
LSTRICT_WEIGHTS = [Fraction(x, 2) for x in (1, 0, 0, 1, 1, 0, 1)]
# 0-based concurrent triple of the MacLane realization in the catalog
MACLANE_TRIPLE = (0, 1, 2)


def _pencil(rng, dens):
    """A point (a,a,a,b,b,b,c,c,c), a+b+c = 0, of the Ceva(3) pencil component."""
    while True:
        a, b = (Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(2))
        if a and b and a + b:
            c = -a - b
            return [a] * 3 + [b] * 3 + [c] * 3


class WarmRankQ:
    name = "warm-rank-q"
    nominal_cycle_s = 4.8
    catalog_names = ("boolean(8)", "product-example", "ceva3", "maclane")
    dens = (2, 3, 5, 7)

    def setup(self, seed: int, oscoh, workdir: str):
        from oscoh import catalog
        from oscoh.arrangement import build_arrangement
        from oscoh.osalg import aomoto_matrix

        arrs = {"A5": build_arrangement(inputs.braid_rows(5))}
        for name in self.catalog_names:
            arrs[name] = catalog.get(name)
        for arr in arrs.values():
            arr.betti_numbers()
            for q in range(arr.rank + 1):
                aomoto_matrix(arr, q)
        sections = (catalog.get("ceva3-section"), catalog.get("maclane-section"))
        expected = {
            "A5": inputs.braid_betti(5),
            "product-example": check.convolve(
                inputs.truncated(inputs.CEVA3_BETTI, 2), inputs.truncated(inputs.MACLANE_BETTI, 2)
            ),
            "boolean(8)": inputs.boolean_betti(8),
            "ceva3": inputs.CEVA3_BETTI,
            "maclane": inputs.MACLANE_BETTI,
        }
        return {"arrs": arrs, "sections": sections, "expected": expected}

    def _weights(self, rng, name, n, resonant):
        if name == "A5" and resonant:
            return inputs.zero_sum(rng, inputs.random_weights(rng, n, self.dens))
        if name == "ceva3" and resonant:
            return _pencil(rng, self.dens)
        if name == "maclane" and resonant:  # local component of a triple point
            lam = [Fraction(0)] * n
            i, j, k = MACLANE_TRIPLE
            lam[i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(self.dens))
            lam[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(self.dens))
            lam[k] = -lam[i] - lam[j]
            return lam
        if name == "product-example" and resonant:
            return _pencil(rng, self.dens) + inputs.random_weights(rng, 8, self.dens)
        return inputs.random_weights(rng, n, self.dens)

    @staticmethod
    def _cycle(c: int) -> list[tuple[str, bool]]:
        """(arrangement, resonant) per op.  Three cycles make 30 ops: 6
        tiny (ceva3, maclane), 15 boolean(8) and 9 heavy (A5, product).
        The median op and the tail, which has the 9 heavy ops and one more
        above it, are both boolean(8) ops, however the draws fall.  7 of
        the 30 ops are resonant: one A5 op per cycle, and ceva3, or
        product-example and maclane, in turn."""
        odd = c % 2 == 1
        return [
            ("A5", False), ("boolean(8)", False), ("product-example", odd),
            ("boolean(8)", False), ("ceva3", not odd), ("boolean(8)", False),
            ("A5", True), ("boolean(8)", False), ("maclane", odd), ("boolean(8)", False),
        ]

    def plan(self, state, seed: int, seconds: float) -> list[Op]:
        from oscoh.cohom import modN_cohomology_ranks, os_cohomology_dims

        rng = random.Random(seed + 2)
        seen = {name: set() for name in state["arrs"]}
        ops = []
        for c in range(_cycles(seconds, self.nominal_cycle_s)):
            for name, resonant in self._cycle(c):
                arr = state["arrs"][name]
                while True:
                    lam = self._weights(rng, name, arr.n, resonant)
                    key = inputs.ray_key(lam)
                    if any(key) and key not in seen[name]:
                        seen[name].add(key)
                        break
                tag = "resonant" if resonant else "generic"
                ops.append(
                    Op(
                        f"oscohom:{name}:{tag}#{c}.{len(ops)}",
                        (lambda arr=arr, lam=lam: os_cohomology_dims(arr, lam)),
                        self._checker(state, name, arr, lam, resonant, os_cohomology_dims, modN_cohomology_ranks),
                    )
                )
        return ops

    def _checker(self, state, name, arr, lam, resonant, os_dims, modN):
        betti = state["expected"][name]

        def verify(rep):
            errs = check.dims(rep.dims, betti, arr.central, _weight_sum_is_zero(lam))
            k = _integer_weights(lam)
            errs += check.dominated(rep.dims, modN(arr, k, 2147483647).dims, "dims over Q <= dims mod p")
            if resonant and not any(rep.dims):
                errs.append(f"resonant weights gave zero cohomology {rep.dims}")
            if name == "product-example":
                s1, s2 = state["sections"]
                d1 = os_dims(s1, lam[: s1.n]).dims
                d2 = os_dims(s2, lam[s1.n :]).dims
                errs += check.equal(rep.dims, check.convolve(d1, d2), "Kunneth convolution of the factors")
            return errs

        return verify


# ---------------------------------------------------------------------------
# bounds-sweep: sandwich bounds over translate boxes, composite N, vanishing


BOUNDS_NAMES = (
    "example-lstrict", "maclane", "ceva3", "ceva3-section",
    "maclane-section", "boolean(6)", "product-example",
)
EXPECTED_BETTI = {
    "example-lstrict": inputs.LSTRICT_BETTI,
    "maclane": inputs.MACLANE_BETTI,
    "ceva3": inputs.CEVA3_BETTI,
    "ceva3-section": inputs.truncated(inputs.CEVA3_BETTI, 2),
    "maclane-section": inputs.truncated(inputs.MACLANE_BETTI, 2),
    "boolean(6)": inputs.boolean_betti(6),
    "product-example": check.convolve(
        inputs.truncated(inputs.CEVA3_BETTI, 2), inputs.truncated(inputs.MACLANE_BETTI, 2)
    ),
}
# Stated answers (README and acceptance tests): name -> (weights, lower floor, upper)
README_BOUNDS = {
    "example-lstrict": (LSTRICT_WEIGHTS, (0, 0, 4, 4), (0, 0, 4, 4)),
    "ceva3": (CEVA_WEIGHTS, (0, 1, 0, 0), None),
    "ceva3-section": (CEVA_WEIGHTS, (0, 1, 17), (0, 2, 18)),
    "maclane-section": (MACLANE_SECTION_WEIGHTS, (0, 0, 13), (0, 1, 14)),
    "product-example": (CEVA_WEIGHTS + MACLANE_SECTION_WEIGHTS, (0, 0, 0, 13, 221), (0, 0, 2, 46, 252)),
}
# Composite-N boundary matrices whose integer Smith normal form is slow but
# finishes (entry growth in the elimination): a fixed op keeps that cost
# visible.  Seeded composite-N draws use |k| <= 1, where the form is fast.
SLOW_SNF = ("maclane", (-1, -3, -3, 3, 2, -3, 3, -3), 10)
MODN_NAMES = ("example-lstrict", "maclane", "ceva3", "maclane-section")
VANISHING_NAMES = ("ceva3-section", "boolean(6)", "ceva3", "maclane")


class BoundsSweep:
    name = "bounds-sweep"
    nominal_cycle_s = 15.7
    primes = (2, 3, 5)

    def setup(self, seed: int, oscoh, workdir: str):
        from oscoh import catalog
        from oscoh.osalg import aomoto_matrix

        arrs = {}
        for name in BOUNDS_NAMES:
            arr = arrs[name] = catalog.get(name)
            arr.betti_numbers()
            for q in range(arr.rank + 1):
                aomoto_matrix(arr, q)
            if arr.product_factors is None:  # dense edges for the vanishing ops
                arr.projective_closure()[0].dense_edges()
        return {"arrs": arrs}

    def _random_lam(self, rng, arr, d):
        lam = [Fraction(rng.choice((-1, 1)) * rng.randint(1, d), d) for _ in range(arr.n)]
        r = rng.randrange(arr.n)
        lam[r] = Fraction(1, d)  # keeps the common denominator d
        if arr.central:
            # Only integral weight sums reach the translate search, and the
            # number of translates on the sum slice depends on that integer:
            # zero keeps it the same for every draw.
            lam[(r + 1) % arr.n] -= sum(lam)
        return lam

    def _small_k(self, rng, n):
        k = [rng.randint(-1, 1) for _ in range(n)]
        k[rng.randrange(n)] = 1
        return k

    def _small_zero_sum(self, rng, n, d):
        """Weights +-1/d on n // 2 disjoint pairs, summing to zero: the upper
        bound at a composite d then runs Smith normal form on entries <= 1.
        A fixed number of pairs keeps the work the same from draw to draw."""
        m = n // 2
        pos = rng.sample(range(n), 2 * m)
        lam = [Fraction(0)] * n
        for t, i in enumerate(pos):
            lam[i] = Fraction(1 if t < m else -1, d)
        return lam

    def _translate(self, rng, arr, lam):
        """An integer translate (same local system), keeping the weight sum
        on central arrangements."""
        lam = list(lam)
        i, j = rng.sample(range(arr.n), 2)
        lam[i] += 1
        lam[j] -= arr.central
        return lam

    def plan(self, state, seed: int, seconds: float) -> list[Op]:
        """Per cycle: 7 large boxes and SNF, 40 small boxes, 8 cheap ops.

        The 40 small boxes (example-lstrict and boolean(6), four per
        denominator 2, 3, 5, 6, 10) hold both the median op and the op with
        10 slower ones beyond it, so those two metrics do not hop between
        op kinds from seed to seed.
        """
        from oscoh.cohom import modN_cohomology_ranks, os_cohomology_dims
        from oscoh.resonance import betti_bounds, yuzvinsky_vanishing

        api = (betti_bounds, os_cohomology_dims, modN_cohomology_ranks, yuzvinsky_vanishing)
        rng = random.Random(seed + 3)
        arrs = state["arrs"]
        ops = []
        previous = {}

        def bounds(tag, name, lam, stated=False):
            ops.append(self._bounds_op(f"bounds:{name}{tag}", arrs[name], name, lam, stated, api))

        for c in range(_cycles(seconds, self.nominal_cycle_s)):
            d = rng.choice(self.primes)  # shared by the sections, so N is prime on the product
            lams = {}
            for name in ("ceva3", "ceva3-section", "maclane-section"):
                if c == 0:
                    lams[name] = list(README_BOUNDS[name][0])
                elif rng.random() < 0.5:
                    lams[name] = self._translate(rng, arrs[name], previous[name])
                else:
                    lams[name] = self._random_lam(rng, arrs[name], d)
            if c == 0:
                lams["product-example"] = list(README_BOUNDS["product-example"][0])
            else:
                lam = lams["ceva3-section"] + lams["maclane-section"]
                lam[rng.randrange(len(lam))] += rng.choice((-1, 1))
                lams["product-example"] = lam
            previous = lams
            for name in ("ceva3", "ceva3-section", "maclane-section", "product-example"):
                bounds(f"#{c}", name, lams[name], c == 0)
            # shares most of its box with the ceva3 op just before
            bounds(f":translate#{c}", "ceva3", self._translate(rng, arrs["ceva3"], lams["ceva3"]))
            bounds(f"#{c}", "maclane", self._random_lam(rng, arrs["maclane"], rng.choice(self.primes)))
            name, k, N = SLOW_SNF
            ops.append(self._modn_op(f"modN:{name}:N{N}:slow-snf#{c}", arrs[name], name, list(k), N, api))

            for name in ("example-lstrict", "boolean(6)"):
                seen = set()  # a repeated ray would find its whole box cached
                for dd in (2, 3, 5, 6, 10):
                    for i in range(4):
                        tag = f":d{dd}.{i}#{c}"
                        if c == i == 0 and name in README_BOUNDS and dd == 2:
                            bounds(tag, name, list(README_BOUNDS[name][0]), True)
                            continue
                        while True:
                            if dd in self.primes:
                                lam = self._random_lam(rng, arrs[name], dd)
                            else:
                                lam = self._small_zero_sum(rng, arrs[name].n, dd)
                            if inputs.ray_key(lam) not in seen:
                                seen.add(inputs.ray_key(lam))
                                break
                        bounds(tag, name, lam)

            for name in MODN_NAMES:
                N = rng.choice((6, 10, 30))
                ops.append(self._modn_op(f"modN:{name}:N{N}#{c}", arrs[name], name, self._small_k(rng, arrs[name].n), N, api))
            for name in VANISHING_NAMES:
                p = rng.choice((2, 3, 5, 7))
                k = [rng.randint(-p, p) for _ in range(arrs[name].n)]
                ops.append(self._vanishing_op(f"vanishing:{name}:p{p}#{c}", arrs[name], name, k, p, api))
        return ops

    def _bounds_op(self, opname, arr, name, lam, stated, api):
        betti_bounds, os_dims, modN, _ = api
        betti = EXPECTED_BETTI[name]

        def verify(rep):
            errs = check.dominated(rep.lower, rep.upper, "lower <= upper")
            errs += check.dims(rep.upper, betti, False, False) if rep.N > 1 else []
            if arr.central and sum(lam) != round(sum(lam)) and any(rep.lower):
                errs.append(f"central, non-integral weight sum, lower {rep.lower} not zero")
            # the box contains the weights themselves (factorwise on products)
            if arr.product_factors is None:
                at_lam = os_dims(arr, lam).dims
            else:  # Kunneth on the factors, as the bounds themselves are found
                a1, a2 = arr.product_factors
                at_lam = check.convolve(os_dims(a1, lam[: a1.n]).dims, os_dims(a2, lam[a1.n :]).dims)
            errs += check.dominated(at_lam, rep.lower, "dims at the weights <= lower")
            if stated:
                _, floor, upper = README_BOUNDS[name]
                errs += check.dominated(floor, rep.lower, "stated lower")
                if upper is not None:
                    errs += check.equal(rep.upper, upper, "stated upper")
            return errs

        return Op(opname, lambda: betti_bounds(arr, lam, box=1), verify)

    def _modn_op(self, opname, arr, name, k, N, api):
        _, _, modN, _ = api
        betti = EXPECTED_BETTI[name]

        def verify(rep):
            errs = check.dims(rep.dims, betti, False, False)
            if rep.invariant_factors is None:
                return errs + ["composite N without invariant factors"]
            errs += check.invariant_chain(rep.invariant_factors)
            per_prime = [modN(arr, k, p).ranks for p in _primes_between(2, N + 1) if N % p == 0]
            errs += check.equal(rep.ranks, [min(r) for r in zip(*per_prime)], "ranks = min over p | N")
            return errs

        return Op(opname, lambda: modN(arr, k, N), verify)

    def _vanishing_op(self, opname, arr, name, k, p, api):
        *_, vanishing = api
        betti = EXPECTED_BETTI[name]

        def verify(rep):
            errs = check.dims(rep.cohomology.dims, betti, arr.central, sum(k) % p == 0)
            if rep.holds and not rep.confirmed:
                errs.append("edge test holds but mod-p vanishing is not confirmed")
            if any(int(e.weight) % p for e in rep.failures):
                errs.append("a listed failing edge has weight not divisible by p")
            if rep.holds == bool(rep.failures):
                errs.append("holds disagrees with the failure list")
            return errs

        return Op(opname, lambda: vanishing(arr, k, p), verify)


WORKLOADS = {w.name: w for w in (ColdCli(), WarmRankQ(), BoundsSweep())}
