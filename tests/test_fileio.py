"""JSON arrangement files: round trips and input validation."""

import json
from fractions import Fraction

import pytest

from oscoh import build_arrangement, catalog
from oscoh.exactla import NumberField
from oscoh.fileio import (
    ArrangementFileError,
    arrangement_from_dict,
    arrangement_to_dict,
    read_arrangement,
    write_arrangement,
)


def round_trip(arr, tmp_path):
    path = tmp_path / "arr.json"
    write_arrangement(arr, path)
    return read_arrangement(path)


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_rational_forms(tmp_path):
    arr = catalog.get("example-lstrict")
    back = round_trip(arr, tmp_path)
    assert back.n == arr.n
    assert back.central == arr.central
    assert back.betti_numbers() == arr.betti_numbers()
    assert back.forms == arr.forms


def test_round_trip_fraction_entries(tmp_path):
    arr = build_arrangement([[Fraction(1, 2), 0, 0], [0, Fraction(-2, 3), 1], [1, 1, 0]])
    path = tmp_path / "frac.json"
    write_arrangement(arr, path)
    raw = json.loads(path.read_text())
    assert raw["hyperplanes"][0][0] == "1/2"  # non-integers dump as strings
    assert raw["hyperplanes"][1][1] == "-2/3"
    back = read_arrangement(path)
    assert back.forms == arr.forms


def test_round_trip_number_field_forms(tmp_path):
    arr = catalog.get("maclane")
    path = tmp_path / "nf.json"
    write_arrangement(arr, path)
    raw = json.loads(path.read_text())
    assert raw["field"] == {"min_poly": [1, 1, 1]}
    back = read_arrangement(path)
    assert isinstance(back.field, NumberField)
    assert back.field == arr.field
    assert back.betti_numbers() == [1, 8, 20, 13]
    assert back.forms == arr.forms


def test_round_trip_abstract_central(tmp_path):
    arr = catalog.get("maclane-matroid")
    path = tmp_path / "matroid.json"
    write_arrangement(arr, path)
    raw = json.loads(path.read_text())
    assert "circuits" in raw and raw["n"] == 8
    assert all(all(1 <= i <= 8 for i in c) for c in raw["circuits"])  # 1-based
    back = read_arrangement(path)
    assert back.central
    assert back.forms is None
    assert back.betti_numbers() == [1, 8, 20, 13]


def test_round_trip_abstract_affine(tmp_path):
    arr = catalog.get("ceva3-section")
    path = tmp_path / "affine.json"
    write_arrangement(arr, path)
    raw = json.loads(path.read_text())
    assert "cone_circuits" in raw and raw["n"] == 9
    back = read_arrangement(path)
    assert not back.central
    assert back.betti_numbers() == [1, 9, 24]


def test_labels_survive_round_trip(tmp_path):
    arr = build_arrangement([[1, 0, 0], [0, 1, 0]], labels=["left", "right"])
    back = round_trip(arr, tmp_path)
    assert back.labels == ["left", "right"]


# ---------------------------------------------------------------------------
# reading dicts directly


def test_dict_with_rank_completion():
    triples = [
        [1, 2, 3], [1, 4, 7], [1, 6, 8], [2, 4, 6],
        [2, 5, 7], [3, 5, 6], [3, 7, 8], [4, 5, 8],
    ]
    arr = arrangement_from_dict({"n": 8, "circuits": triples, "rank": 3})
    assert arr.betti_numbers() == [1, 8, 20, 13]


def test_dict_essentialize_flag():
    doc = {
        "field": "Q",
        "hyperplanes": [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, -1]],
    }
    with pytest.raises(ArrangementFileError, match="essentialize"):
        arrangement_from_dict(doc)
    arr = arrangement_from_dict(doc, essentialize=True)
    assert arr.rank == 2
    assert arr.betti_numbers() == [1, 3, 3]


def test_dict_string_rationals():
    arr = arrangement_from_dict(
        {"field": "Q", "hyperplanes": [["1/2", 0, 0], [0, "2/3", "-1/6"]]}
    )
    assert arr.forms[0][0] == (Fraction(1, 2), Fraction(0))


# ---------------------------------------------------------------------------
# validation errors


def test_exactly_one_source_required():
    with pytest.raises(ArrangementFileError, match="exactly one"):
        arrangement_from_dict({"hyperplanes": [[1, 0]], "circuits": [[1, 2]], "n": 2})
    with pytest.raises(ArrangementFileError, match="exactly one"):
        arrangement_from_dict({"labels": ["a"]})


def test_floats_rejected():
    with pytest.raises(ArrangementFileError, match="not exact"):
        arrangement_from_dict({"field": "Q", "hyperplanes": [[1.5, 0, 0], [0, 1, 0]]})


def test_bad_rational_string_rejected():
    with pytest.raises(ArrangementFileError, match="bad rational"):
        arrangement_from_dict({"field": "Q", "hyperplanes": [["1//2", 0, 0], [0, 1, 0]]})


def test_bad_min_poly_rejected():
    with pytest.raises(ArrangementFileError, match="monic"):
        arrangement_from_dict(
            {"field": {"min_poly": [2, 0, 2]}, "hyperplanes": [[1, 0], [0, 1]]}
        )


def test_matroid_input_requires_n():
    with pytest.raises(ArrangementFileError, match="positive integer n"):
        arrangement_from_dict({"circuits": [[1, 2, 3]]})


def test_matroid_input_takes_no_field():
    # the default field "Q" is tolerated, an actual number field is not
    arr = arrangement_from_dict({"n": 3, "circuits": [[1, 2, 3]], "field": "Q"})
    assert arr.central
    with pytest.raises(ArrangementFileError, match="does not take a field"):
        arrangement_from_dict(
            {"n": 3, "circuits": [[1, 2, 3]], "field": {"min_poly": [1, 1, 1]}}
        )


def test_circuit_index_out_of_range():
    with pytest.raises(ArrangementFileError):
        arrangement_from_dict({"n": 3, "circuits": [[1, 2, 4]]})


def test_repeated_circuit_index():
    with pytest.raises(ArrangementFileError, match="repeated"):
        arrangement_from_dict({"n": 3, "circuits": [[1, 2, 2]]})


def test_row_length_mismatch():
    with pytest.raises(ArrangementFileError, match="expected 3 entries"):
        arrangement_from_dict({"field": "Q", "hyperplanes": [[1, 0, 0], [0, 1]]})


def test_labels_must_be_strings():
    with pytest.raises(ArrangementFileError, match="labels"):
        arrangement_from_dict(
            {"field": "Q", "hyperplanes": [[1, 0], [0, 1]], "labels": [1, 2]}
        )


def test_top_level_must_be_object():
    with pytest.raises(ArrangementFileError, match="JSON object"):
        arrangement_from_dict([1, 2, 3])


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ArrangementFileError, match="cannot read"):
        read_arrangement(tmp_path / "missing.json")


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": "Q",\n  "hyperplanes": [[1, 0],]}\n')
    with pytest.raises(ArrangementFileError, match="line 2"):
        read_arrangement(path)


def test_written_file_is_plain_json(tmp_path):
    path = tmp_path / "plain.json"
    write_arrangement(catalog.get("ceva3"), path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"field", "hyperplanes", "labels"}
    assert arrangement_to_dict(catalog.get("ceva3")) == doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 3, "circuits": [[1, 2]]}, "hyperplanes 1 and 2 coincide"),
        ({"n": 3, "circuits": [[1]]}, "hyperplane 1 has zero coefficient part"),
        ({"n": 3, "cone_circuits": [[1, 4]]}, "hyperplane 1 has zero coefficient part"),
        ({"n": 3, "cone_circuits": [[4]]}, "hyperplane at infinity"),
        ({"n": 3, "cone_circuits": [[2, 3]]}, "hyperplanes 2 and 3 coincide"),
        ({"hyperplanes": [[1, 0, 0], [0, 1, 0], [2, 0, 0]]}, "hyperplanes 1 and 3 coincide"),
        ({"hyperplanes": [[1, 0, 0], [0, 0, 3], [0, 1, 0]]}, "hyperplane 2 has zero"),
        ({"hyperplanes": [[1, 0, 0], [0, 0, 0], [0, 1, 0]]}, "hyperplane 2 has zero"),
        ({"n": 3, "circuits": [[]]}, "the empty set is not a circuit"),
        ({"n": 3, "cone_circuits": [[1, 2, 3], []]}, "the empty set is not a circuit"),
    ],
)
def test_loops_and_parallel_pairs_are_refused_for_every_input_kind(doc, message):
    # one atom check on the cone matroid: a loop is a zero hyperplane, an
    # element parallel to infinity a hyperplane at infinity, and a parallel
    # pair two hyperplanes that coincide; an empty circuit is refused first
    with pytest.raises(ArrangementFileError, match=message):
        arrangement_from_dict(doc)
