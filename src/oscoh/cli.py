"""Command-line interface.

    oscoh <command> <catalog-name | path> [flags]

Commands: lattice, oscohom, modn, bounds, nonres, resonance.  Inputs are
catalog names (see catalog module) or arrangement files (see fileio).
Weights are exact rational strings; floats are never accepted.

Exit codes: 0 computed, 1 input error, 2 a requested certificate does not
hold (non-resonance not established, resonance membership false).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache

from . import catalog
from .arrangement import Arrangement, essentialize
from .cohom import WeightVector, modN_cohomology_ranks, os_cohomology_dims
from .exactla import is_prime
from .fileio import read_arrangement
from .resonance import (
    _vanishing,
    betti_bounds,
    edge_weights,
    in_W_and_V,
    resonance_membership,
)

__all__ = ["main"]


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_rationals(text: str, what: str) -> list[Fraction]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad {what} entry {tok!r}: expected p or p/q")
    return out


def _parse_ints(text: str, what: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(int(tok))
        except ValueError:
            raise CliError(f"bad {what} entry {tok!r}: expected an integer")
    return out


def _load(name_or_path: str, want_essentialize: bool) -> Arrangement:
    try:
        arr = catalog.get(name_or_path)
    except KeyError:
        if not os.path.exists(name_or_path):
            raise CliError(
                f"{name_or_path!r} is neither a catalog name "
                f"({', '.join(catalog.names())}) nor a file"
            )
        return read_arrangement(name_or_path, essentialize=want_essentialize)
    if want_essentialize and arr.forms is not None:
        arr = essentialize(arr)
    return arr


def _emit(doc: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def _cmd_lattice(arr: Arrangement, args) -> int:
    lat = arr.intersection_lattice()
    dense_sets = {f.hyperplanes for f in arr.closure_dense_edges()}
    rows = []
    for level in lat.levels:
        for f in level:
            rows.append(
                {
                    "codim": f.codim,
                    "hyperplanes": [i + 1 for i in f.sorted_hyperplanes],
                    "labels": [arr.labels[i] for i in f.sorted_hyperplanes],
                    "moebius": f.moebius,
                    "dense_in_closure": f.hyperplanes in dense_sets
                    if f.codim
                    else False,
                }
            )
    doc = {
        "n": arr.n,
        "rank": arr.rank,
        "central": arr.central,
        "betti": arr.betti_numbers(),
        "euler_characteristic": arr.euler_characteristic(),
        "flats": rows,
    }
    lines = [
        f"n={arr.n} rank={arr.rank} central={'yes' if arr.central else 'no'}",
        f"betti: {arr.betti_numbers()}",
        f"euler characteristic: {arr.euler_characteristic()}",
        f"{len(rows)} flats (dense flag refers to the projective closure):",
    ]
    for r in rows:
        hs = "{" + ",".join(str(i) for i in r["hyperplanes"]) + "}"
        dense = " dense" if r["dense_in_closure"] else ""
        lines.append(
            f"  codim {r['codim']}  {hs}  mu={r['moebius']}{dense}"
        )
    _emit(doc, lines, args.format)
    return 0


def _report_lines(rep) -> list[str]:
    lines = [
        f"ring: {rep.ring_name}",
        f"dims by degree: {list(rep.dims)}",
        f"poincare: {rep.poincare}",
    ]
    lines.append(f"boundary ranks: {list(rep.ranks)}")
    if rep.invariant_factors is not None:
        for q, f in enumerate(rep.invariant_factors):
            lines.append(f"invariant factors of boundary {q}: {list(f)}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    return lines


def _cmd_oscohom(arr: Arrangement, args) -> int:
    rep = os_cohomology_dims(arr, _parse_rationals(args.weights, "weight"))
    _emit(rep.to_dict(), _report_lines(rep), args.format)
    return 0


def _cmd_modn(arr: Arrangement, args) -> int:
    rep = modN_cohomology_ranks(arr, _parse_ints(args.k, "k"), args.N)
    _emit(rep.to_dict(), _report_lines(rep), args.format)
    return 0


def _cmd_bounds(arr: Arrangement, args) -> int:
    rep = betti_bounds(arr, _parse_rationals(args.weights, "weight"), box=args.box)
    doc = rep.to_dict()
    lines = [
        f"weights: ({', '.join(str(w) for w in rep.weights)})",
        f"modulus N={rep.N}, translate box radius {rep.box}",
        "degree  lower  upper  exact",
    ]
    for row in doc["rows"]:
        lines.append(
            f"{row['degree']:>6}  {row['lower']:>5}  {row['upper']:>5}  "
            f"{'yes' if row['exact'] else 'no'}"
        )
    for row in doc["rows"]:
        if row["witness"] is not None:
            lines.append(f"witness {row['degree']}: {','.join(row['witness'])}")
    for note in doc["convention_notes"]:
        lines.append(f"note: {note}")
    _emit(doc, lines, args.format)
    return 0


def _cmd_nonres(arr: Arrangement, args) -> int:
    lam = _parse_rationals(args.weights, "weight")
    edges = edge_weights(arr, lam)
    w_ok, v_ok = in_W_and_V(edges)
    top = abs(arr.euler_characteristic())
    doc = {
        "in_W": w_ok,
        "in_V": v_ok,
        "edges": [
            {
                "labels": list(e.labels),
                "codim": e.codim,
                "weight": str(e.weight),
            }
            for e in edges
        ],
        "convention_notes": [
            "the hyperplane at infinity carries weight -(sum of all "
            "weights); codimension-1 flats (including infinity itself) "
            "count as dense edges"
        ],
    }
    lines = [f"{len(edges)} dense edges of the projective closure:"]
    for e in edges:
        lines.append(
            f"  codim {e.codim}  {{{', '.join(e.labels)}}}  "
            f"weight {e.weight}"
        )
    lines.append(f"in V (no dense edge weight a positive integer): "
                 f"{'yes' if v_ok else 'no'}")
    lines.append(f"in W (no dense edge weight a nonnegative integer): "
                 f"{'yes' if w_ok else 'no'}")
    if w_ok:
        claimed = [0] * arr.rank + [top]
        doc["claimed_dims"] = claimed
        lines.append(
            f"certified vanishing: weighted cohomology is {claimed} "
            f"(top dimension |e| = {top})"
        )
    wv = WeightVector(lam)
    verified = None
    if wv.N >= 2 and is_prime(wv.N):
        scaled = [replace(e, weight=e.weight * wv.N) for e in edges]
        cert = _vanishing(arr, list(wv.k), wv.N, scaled)
        verified = cert.holds and cert.confirmed
        doc["mod_p_certificate"] = cert.to_dict()
        lines.append(
            f"mod-{wv.N} certificate: edge test "
            f"{'holds' if cert.holds else 'fails'}, computed dims "
            f"{list(cert.cohomology.dims)} "
            f"({'confirmed' if cert.confirmed else 'not confirmed'})"
        )
        if cert.failures:
            for e in cert.failures:
                lines.append(
                    f"  offending edge {{{', '.join(e.labels)}}} with "
                    f"weight {e.weight} divisible by {wv.N}"
                )
    for note in doc["convention_notes"]:
        lines.append(f"note: {note}")
    ok = w_ok if verified is None else (w_ok or verified)
    doc["certified"] = bool(ok)
    lines.append(f"non-resonance certified: {'yes' if ok else 'no'}")
    _emit(doc, lines, args.format)
    return 0 if ok else 2


def _cmd_resonance(arr: Arrangement, args) -> int:
    lam = _parse_rationals(args.weights, "weight")
    member, dim = resonance_membership(arr, lam, args.q, args.m)
    doc = {
        "degree": args.q,
        "depth": args.m,
        "dim": dim,
        "member": member,
    }
    lines = [
        f"dim H^{args.q} of the weighted complex: {dim}",
        f"membership in the degree-{args.q} depth-{args.m} resonance "
        f"variety: {'yes' if member else 'no'}",
    ]
    _emit(doc, lines, args.format)
    return 0 if member else 2


# ---------------------------------------------------------------------------


@cache
def _build_parser() -> _Parser:
    p = _Parser(
        prog="oscoh",
        description=(
            "Exact Orlik-Solomon cohomology, mod-N ranks, resonance tests "
            "and certified local-system Betti bounds for hyperplane "
            "arrangements."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, **need):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "input",
            help="catalog name (e.g. ceva3, boolean(3)) or arrangement file",
        )
        sp.add_argument(
            "--format", choices=("text", "json"), default="text"
        )
        sp.add_argument(
            "--essentialize",
            action="store_true",
            help="quotient a realized arrangement by the common center "
            "of its normals",
        )
        if need.get("weights"):
            sp.add_argument(
                "--weights",
                required=True,
                help="comma-separated exact rationals, e.g. 1/3,1/3,-2/3",
            )
        if need.get("modn"):
            sp.add_argument("--k", required=True,
                            help="comma-separated integer weights")
            sp.add_argument("--N", required=True, type=int,
                            help="modulus, at least 2")
        if need.get("box"):
            sp.add_argument("--box", type=int, default=1,
                            help="translate search radius (default 1)")
        if need.get("qm"):
            sp.add_argument("--q", required=True, type=int,
                            help="cohomological degree")
            sp.add_argument("--m", type=int, default=1,
                            help="dimension threshold (default 1)")
        return sp

    add("lattice", "intersection lattice with Moebius values and "
                   "closure-density flags")
    add("oscohom", "weighted Orlik-Solomon cohomology over Q",
        weights=True)
    add("modn", "cohomology ranks of the mod-N complex", modn=True)
    add("bounds", "certified sandwich bounds for local-system Betti "
                  "numbers", weights=True, box=True)
    add("nonres", "dense-edge weight tests and vanishing certificates",
        weights=True)
    add("resonance", "resonance-variety membership", weights=True, qm=True)
    return p


_DISPATCH = {
    "lattice": _cmd_lattice,
    "oscohom": _cmd_oscohom,
    "modn": _cmd_modn,
    "bounds": _cmd_bounds,
    "nonres": _cmd_nonres,
    "resonance": _cmd_resonance,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-" as an option unless it is
    # a plain negative number, so a list such as -1/2,1/2 joins its option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--weights", "--k") and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        arr = _load(args.input, args.essentialize)
        return _DISPATCH[args.command](arr, args)
    except (CliError, ValueError) as e:  # ArrangementFileError is a ValueError
        print(f"oscoh: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
