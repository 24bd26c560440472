"""Arrangement files: a small JSON schema for exact arrangement input.

A file is a single JSON object with these keys:

- ``field``: ``"Q"`` (default) or ``{"min_poly": [c0, c1, ..., 1]}`` for
  the number field Q[x]/(p(x)), coefficients ascending, p monic and
  irreducible (a reducible p is refused).
- ``labels``: optional list of hyperplane names.
- exactly one of:

  - ``hyperplanes``: rows ``[a_1, ..., a_l, c]`` (constant term last) for
    the hyperplane a.z + c = 0.  Entries are integers, exact rational
    strings like ``"-2/3"``, or (over a number field) coefficient lists.
    Floats are rejected.
  - ``circuits``: 1-based index lists of the minimal dependent sets of a
    central arrangement's matroid; requires ``n``.  With the optional
    ``rank`` key the listed circuits only generate: every (rank+1)-subset
    containing none of them becomes a circuit too (point-line
    configuration entry).
  - ``cone_circuits``: 1-based circuits of the projective cone matroid on
    n+1 elements, element n+1 being the hyperplane at infinity; requires
    ``n``.  This is the general abstract form and covers affine
    combinatorial arrangements such as generic sections.

Every kind passes one check on its cone matroid: a hyperplane that is zero
or at infinity (a loop, or an element parallel to infinity) and two
hyperplanes that coincide (a parallel pair) raise ``ArrangementFileError``
with the messages that forms get.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .arrangement import (
    Arrangement,
    arrangement_from_circuits,
    arrangement_from_cone_circuits,
    build_arrangement,
)
from .exactla import NFElement, NumberField

__all__ = [
    "ArrangementFileError",
    "read_arrangement",
    "write_arrangement",
    "arrangement_from_dict",
    "arrangement_to_dict",
]


class ArrangementFileError(ValueError):
    """Malformed arrangement file."""


def _parse_field(value):
    if value is None or value == "Q":
        return "Q"
    if isinstance(value, dict) and set(value) == {"min_poly"}:
        coeffs = value["min_poly"]
        if not (
            isinstance(coeffs, list)
            and len(coeffs) >= 3
            and all(type(c) is int for c in coeffs)
        ):
            raise ArrangementFileError(
                "field.min_poly must be a list of at least 3 integers "
                "(ascending coefficients of a monic polynomial)"
            )
        try:
            return NumberField(coeffs)
        except ValueError as e:
            raise ArrangementFileError(f"field.min_poly: {e}")
    raise ArrangementFileError(
        'field must be "Q" or {"min_poly": [c0, ..., 1]}'
    )


def _parse_scalar(x, field, where):
    if isinstance(x, bool) or isinstance(x, float):
        raise ArrangementFileError(
            f"{where}: entry {x!r} is not exact; use integers or "
            'rational strings like "-2/3"'
        )
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ArrangementFileError(f"{where}: bad rational {x!r} ({e})")
    if isinstance(x, list):
        if not isinstance(field, NumberField):
            raise ArrangementFileError(
                f"{where}: coefficient lists need a number field"
            )
        return field([_parse_scalar(c, "Q", where) for c in x])
    raise ArrangementFileError(f"{where}: unsupported entry {x!r}")


def _parse_index_lists(raw, n, key):
    if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
        raise ArrangementFileError(f"{key} must be a list of index lists")
    out = []
    for pos, c in enumerate(raw):
        idxs = []
        for x in c:
            if type(x) is not int or not 1 <= x <= n:
                raise ArrangementFileError(
                    f"{key}[{pos}]: index {x!r} outside 1..{n}"
                )
            idxs.append(x - 1)
        if len(set(idxs)) != len(idxs):
            raise ArrangementFileError(f"{key}[{pos}]: repeated index")
        out.append(idxs)
    return out


def arrangement_from_dict(doc: dict, essentialize: bool = False) -> Arrangement:
    if not isinstance(doc, dict):
        raise ArrangementFileError("top level must be a JSON object")
    keys = {"hyperplanes", "circuits", "cone_circuits"} & set(doc)
    if len(keys) != 1:
        raise ArrangementFileError(
            "exactly one of hyperplanes, circuits, cone_circuits required"
        )
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(s, str) for s in labels)
    ):
        raise ArrangementFileError("labels must be a list of strings")

    if "hyperplanes" in keys:
        field = _parse_field(doc.get("field"))
        raw = doc["hyperplanes"]
        if not isinstance(raw, list) or not raw:
            raise ArrangementFileError("hyperplanes must be a nonempty list")
        width = None
        rows = []
        for i, r in enumerate(raw):
            where = f"hyperplane {i + 1}"
            if not isinstance(r, list):
                raise ArrangementFileError(f"{where}: row must be a list")
            if width is None:
                width = len(r)
                if width < 2:
                    raise ArrangementFileError(
                        f"{where}: need at least one coefficient plus the "
                        "constant term"
                    )
            elif len(r) != width:
                raise ArrangementFileError(
                    f"{where}: expected {width} entries, got {len(r)}"
                )
            rows.append([_parse_scalar(x, field, where) for x in r])
        try:
            return build_arrangement(
                rows, field=field, labels=labels, essentialize=essentialize
            )
        except ValueError as e:
            raise ArrangementFileError(str(e))

    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise ArrangementFileError(
            f"matroid input requires a positive integer n, got {n!r}"
        )
    if doc.get("field") not in (None, "Q"):
        raise ArrangementFileError("matroid input does not take a field")
    if labels and len(labels) != n:  # before a matroid on n elements is built
        raise ArrangementFileError("label count does not match hyperplane count")
    try:
        if "circuits" in keys:
            circuits = _parse_index_lists(doc["circuits"], n, "circuits")
            rank = doc.get("rank")
            if rank is not None and (type(rank) is not int or rank < 1):
                raise ArrangementFileError("rank must be a positive integer")
            return arrangement_from_circuits(
                n, circuits, labels=labels, rank=rank
            )
        cone = _parse_index_lists(doc["cone_circuits"], n + 1, "cone_circuits")
        return arrangement_from_cone_circuits(n, cone, labels=labels)
    except ArrangementFileError:
        raise
    except ValueError as e:
        raise ArrangementFileError(str(e))


def read_arrangement(path, essentialize: bool = False) -> Arrangement:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ArrangementFileError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ArrangementFileError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: "
            f"{e.msg}"
        )
    return arrangement_from_dict(doc, essentialize=essentialize)


def _dump_scalar(x):
    if isinstance(x, NFElement):
        return [_dump_scalar(c) for c in x.coeffs]
    f = Fraction(x)
    return int(f) if f.denominator == 1 else str(f)


def arrangement_to_dict(arr: Arrangement) -> dict:
    doc: dict = {}
    if arr.forms is not None:
        if isinstance(arr.field, NumberField):
            doc["field"] = {"min_poly": list(arr.field.min_poly)}
        else:
            doc["field"] = "Q"
        doc["hyperplanes"] = [
            [_dump_scalar(x) for x in list(a) + [c]] for a, c in arr.forms
        ]
    else:  # a central cone's infinity is a coloop, on no circuit
        circuits = [sorted(i + 1 for i in c) for c in arr.cone_matroid.circuits()]
        doc["n"] = arr.n
        if arr.central:
            doc["circuits"] = sorted(circuits)
        else:
            doc["cone_circuits"] = circuits
    doc["labels"] = list(arr.labels)
    return doc


def write_arrangement(arr: Arrangement, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(arrangement_to_dict(arr), fh, indent=1)
        fh.write("\n")
