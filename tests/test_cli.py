"""Command line interface: output, formats, exit codes."""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oscoh
from oscoh import build_arrangement, catalog, exactla
from oscoh.arrangement import Arrangement
from oscoh.cli import _build_parser, main
from oscoh.cohom import os_cohomology_dims
from oscoh.fileio import read_arrangement, write_arrangement

CEVA_W = "1/3,1/3,1/3,1/3,1/3,1/3,-2/3,-2/3,-2/3"
MACLANE_SEC_W = "1/3,0,-1/3,1/3,-1/3,-1/3,1/3,0"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# lattice


def test_lattice_text(capsys):
    code, out, _ = run(capsys, ["lattice", "boolean(3)"])
    assert code == 0
    assert "n=3 rank=3 central=yes" in out
    assert "betti: [1, 3, 3, 1]" in out
    assert "euler characteristic: 0" in out
    assert "codim 3  {1,2,3}  mu=-1" in out


def test_lattice_dense_flags(capsys):
    code, out, _ = run(capsys, ["lattice", "boolean(3)"])
    # the coordinate hyperplanes are dense, the higher flats are not
    assert out.count("dense") >= 3
    for line in out.splitlines():
        if "codim 2" in line or "codim 3" in line:
            assert "dense" not in line


def test_lattice_json(capsys):
    code, out, _ = run(capsys, ["lattice", "ceva3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [1, 9, 24, 16]
    assert doc["central"] is True
    assert len(doc["flats"]) == 1 + 9 + 12 + 1


def test_lattice_from_file(capsys, tmp_path):
    path = tmp_path / "ceva.json"
    write_arrangement(catalog.get("ceva3"), path)
    code, out, _ = run(capsys, ["lattice", str(path)])
    assert code == 0
    assert "betti: [1, 9, 24, 16]" in out


def test_reducible_min_poly_file_is_refused(capsys, tmp_path):
    path = tmp_path / "reducible.json"
    path.write_text(
        '{"field": {"min_poly": [-1, 0, 1]}, "hyperplanes": [[1, 0, 0], [0, 1, 0]]}\n'
    )
    code, _, err = run(capsys, ["lattice", str(path)])
    assert code == 1
    assert "reducible" in err


def test_a_label_count_off_a_huge_n_is_refused_before_any_matroid(capsys, tmp_path):
    # the labels are checked against n first: a matroid on 2**70 elements
    # would be validated one element at a time
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2**70, "circuits": [], "labels": [f"H{i}" for i in range(8)]}))
    start = time.process_time()
    code, _, err = run(capsys, ["lattice", str(path)])
    assert time.process_time() - start < 1
    assert code == 1
    assert "label count does not match hyperplane count" in err


def test_lattice_essentialize_flag(capsys, tmp_path):
    path = tmp_path / "nonessential.json"
    path.write_text(
        '{"field": "Q", "hyperplanes": '
        "[[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, -1]]}\n"
    )
    code, out, _ = run(capsys, ["lattice", str(path)])
    assert code == 1
    code, out, _ = run(capsys, ["lattice", str(path), "--essentialize"])
    assert code == 0
    assert "n=3 rank=2 central=no" in out


# ---------------------------------------------------------------------------
# cohomology commands


def test_oscohom_text(capsys):
    code, out, _ = run(capsys, ["oscohom", "ceva3-section", "--weights", CEVA_W])
    assert code == 0
    assert "ring: Q" in out
    assert "dims by degree: [0, 1, 17]" in out
    assert "poincare: t + 17*t^2" in out
    assert "boundary ranks: [1, 7, 0]" in out


def test_oscohom_json(capsys):
    code, out, _ = run(
        capsys, ["oscohom", "ceva3-section", "--weights", CEVA_W, "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["dims"] == [0, 1, 17]
    assert doc["poincare"] == "t + 17*t^2"
    assert doc["ring"] == "Q"


def test_oscohom_names_the_reduction(capsys):
    code, out, _ = run(capsys, ["oscohom", "ceva3", "--weights", CEVA_W])
    assert code == 0
    assert "dims by degree: [0, 1, 11, 10]" in out
    assert "note: central, weight sum zero: decone at H_9 (y-w2z)" in out
    _, out, _ = run(capsys, ["oscohom", "ceva3", "--weights", CEVA_W, "--format", "json"])
    assert json.loads(out)["notes"] == ["central, weight sum zero: decone at H_9 (y-w2z)"]
    _, out, _ = run(capsys, ["modn", "boolean(2)", "--k", "1,1", "--N", "3", "--format", "json"])
    assert json.loads(out)["notes"] == ["central, weight sum non-zero: the complex is exact"]
    # the upper bound's reduction reaches the bounds notes
    _, out, _ = run(capsys, ["bounds", "ceva3", "--weights", CEVA_W, "--format", "json"])
    notes = json.loads(out)["convention_notes"]
    assert "central, weight sum zero: decone at H_9 (y-w2z)" in notes


def test_modn_text(capsys):
    code, out, _ = run(
        capsys,
        ["modn", "maclane-section", "--k", "1,0,-1,1,-1,-1,1,0", "--N", "3"],
    )
    assert code == 0
    assert "ring: Z_3" in out
    assert "dims by degree: [0, 1, 14]" in out
    assert "poincare: t + 14*t^2" in out


def test_modn_at_a_prime_past_2_63_with_small_weights(capsys):
    code, out, err = run(
        capsys,
        ["modn", "maclane", "--k=1,1,1,1,1,1,1,-7", "--N", str(2**89 - 1)],
    )
    assert code == 0 and err == ""
    assert "dims by degree: [0, 0, 7, 7]" in out


def test_modn_composite_notes(capsys):
    code, out, _ = run(capsys, ["modn", "boolean(2)", "--k", "2,2", "--N", "4"])
    assert code == 0
    assert "dims by degree: [1, 2, 1]" in out
    assert "units" in out


def test_modn_composite_factors_depend_only_on_k_mod_N(capsys):
    _, out, _ = run(capsys, ["modn", "boolean(2)", "--k=2,2", "--N", "4"])
    _, lifted, _ = run(capsys, ["modn", "boolean(2)", "--k=6,6", "--N", "4"])
    assert "invariant factors of boundary 0: [2]" in out
    assert lifted == out


def test_modn_refuses_a_modulus_it_cannot_factor(capsys, monkeypatch):
    # a short rho budget keeps this quick; tests/test_cohom.py refuses the
    # same kind of modulus with the real one
    monkeypatch.setattr(exactla, "_RHO_STEPS", 2**12)
    p, q = [n for n in range(2**100, 2**100 + 1000) if exactla.is_prime(n)][:2]
    code, _, err = run(capsys, ["modn", "boolean(2)", "--k", "1,1", "--N", str(p * q)])
    assert code == 1
    assert f"cannot factor the modulus {p * q}" in err


def test_modn_at_a_composite_that_passes_every_miller_rabin_base(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441: the units
    # convention, as --k 3,0 --N 15 gives it at small scale
    argv = ["modn", "boolean(2)", "--k", "399165290221,0", "--N", "318665857834031151167461"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "dims by degree: [1, 2, 1]\n" in out and "boundary ranks: [0, 0, 0]\n" in out
    assert "note: composite modulus" in out
    for q, factors in enumerate(("[399165290221]", "[399165290221]", "[]")):
        assert f"invariant factors of boundary {q}: {factors}\n" in out


# ---------------------------------------------------------------------------
# bounds


def test_bounds_table(capsys):
    code, out, _ = run(
        capsys,
        ["bounds", "example-lstrict", "--weights", "1/2,0,0,1/2,1/2,0,1/2"],
    )
    assert code == 0
    assert "modulus N=2, translate box radius 1" in out
    lines = [ln.split() for ln in out.splitlines() if ln.strip() and ln.split()[0].isdigit()]
    table = {int(row[0]): (int(row[1]), int(row[2]), row[3]) for row in lines}
    assert table == {
        0: (0, 0, "yes"),
        1: (0, 0, "yes"),
        2: (4, 4, "yes"),
        3: (4, 4, "yes"),
    }
    assert "not a certified supremum" in out
    witness = [ln for ln in out.splitlines() if ln.startswith("witness")]
    assert [ln.split(":")[0] for ln in witness] == ["witness 2", "witness 3"]


def test_bounds_json_and_determinism(capsys):
    argv = [
        "bounds", "example-lstrict", "--format", "json",
        "--weights", "1/2,0,0,1/2,1/2,0,1/2", "--box", "1",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["N"] == 2
    assert [r["lower"] for r in doc["rows"]] == [0, 0, 4, 4]
    assert [r["upper"] for r in doc["rows"]] == [0, 0, 4, 4]
    assert all(r["exact"] for r in doc["rows"])
    # degrees with a nonzero lower bound name the translate that reached it
    witness = [r["witness"] for r in doc["rows"]]
    assert witness[:2] == [None, None]
    arr = catalog.get("example-lstrict")
    for q in (2, 3):
        assert len(witness[q]) == 7
        assert os_cohomology_dims(arr, [Fraction(x) for x in witness[q]]).dims[q] == 4


# ---------------------------------------------------------------------------
# nonres


def test_nonres_certified(capsys):
    lam = ",".join(["1/11"] * 9)
    code, out, _ = run(capsys, ["nonres", "ceva3", "--weights", lam])
    assert code == 0
    assert "23 dense edges of the projective closure" in out
    assert "in W (no dense edge weight a nonnegative integer): yes" in out
    assert "certified vanishing: weighted cohomology is [0, 0, 0, 0]" in out
    assert "mod-11 certificate: edge test holds" in out
    assert "non-resonance certified: yes" in out


def test_nonres_failure_exit_code(capsys):
    code, out, _ = run(capsys, ["nonres", "ceva3", "--weights", CEVA_W])
    assert code == 2
    assert "in V (no dense edge weight a positive integer): no" in out
    assert "non-resonance certified: no" in out


def test_nonres_at_a_prime_past_2_63_answers(capsys):
    p = 2**89 - 1
    lam = f"1/{p},0,0,0,0,0,-1/{p}"
    code, out, err = run(capsys, ["nonres", "example-lstrict", f"--weights={lam}"])
    assert code == 2 and err == ""
    assert f"mod-{p} certificate: edge test fails" in out
    assert "non-resonance certified: no" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_nonres_builds_the_dense_edge_weights_once(capsys, monkeypatch, fmt):
    # at the prime denominator 3 the mod-3 certificate reads the same list
    calls = []
    product = Arrangement.closure_edge_weights

    def counted(self, K):
        calls.append(K)
        return product(self, K)

    monkeypatch.setattr(Arrangement, "closure_edge_weights", counted)
    code, out, _ = run(capsys, ["nonres", "ceva3", "--weights", CEVA_W, "--format", fmt])
    assert code == 2
    assert "mod_p_certificate" in out or "mod-3 certificate" in out
    assert len(calls) == 1


def test_nonres_infinity_edge_listed(capsys):
    lam = ",".join(["1/11"] * 9)
    code, out, _ = run(capsys, ["nonres", "ceva3", "--weights", lam])
    assert "{H_inf}  weight -9/11" in out
    assert "hyperplane at infinity carries weight -(sum of all" in out


# ---------------------------------------------------------------------------
# resonance


def test_resonance_member(capsys):
    code, out, _ = run(
        capsys, ["resonance", "ceva3", "--weights", CEVA_W, "--q", "1"]
    )
    assert code == 0
    assert "dim H^1 of the weighted complex: 1" in out
    assert "membership in the degree-1 depth-1 resonance variety: yes" in out


def test_resonance_non_member(capsys):
    code, out, _ = run(
        capsys, ["resonance", "ceva3", "--weights", CEVA_W, "--q", "1", "--m", "2"]
    )
    assert code == 2
    assert "membership in the degree-1 depth-2 resonance variety: no" in out


# ---------------------------------------------------------------------------
# error handling


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oscohom", "ceva3", "--weights", "1/3,1/3"], "expected 9 weights, got 2"),
        (["bounds", "ceva3", "--weights", "1/3,1/3"], "expected 9 weights, got 2"),
        (["nonres", "ceva3", "--weights", "1/3,1/3"], "expected 9 weights, got 2"),
        (["resonance", "ceva3", "--weights", "1/3,1/3", "--q", "1"], "expected 9 weights, got 2"),
        (["modn", "ceva3", "--k", "1,1", "--N", "3"], "expected 9 weights, got 2"),
        (["bounds", "ceva3", "--weights", CEVA_W, "--box", "-1"], "box radius must be nonnegative"),
        (["bounds", "ceva3", "--weights", "-x"], "bad weight entry '-x': expected p or p/q"),
        (["modn", "ceva3", "--k", "-x", "--N", "3"], "bad k entry '-x': expected an integer"),
    ],
    ids=["oscohom", "bounds", "nonres", "resonance", "modn", "bounds-box", "bounds-dash", "modn-dash"],
)
def test_wrong_weight_count(capsys, argv, message):
    # the library checks its input; the CLI prints its ValueError
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"oscoh: error: {message}\n"


def test_a_list_with_a_negative_first_entry_is_the_option_value(capsys):
    # README's bounds witness, pasted back as --weights: argparse alone reads
    # any token starting with "-" that is no plain number as an option
    code, out, err = run(capsys, ["oscohom", "example-lstrict", "--weights", "-1/2,-1,-1,-1/2,1/2,1,3/2"])
    assert (code, err) == (0, "")
    assert "dims by degree: [0, 0, 4, 4]" in out
    code, out, err = run(capsys, ["modn", "boolean(2)", "--k", "-1,1", "--N", "3"])
    assert (code, err) == (0, "")
    assert out == run(capsys, ["modn", "boolean(2)", "--k=-1,1", "--N", "3"])[1]
    # an option name after --weights is still a missing value
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "boolean(2)", "--weights", "--box", "1"])
    assert exc.value.code == 1
    assert "argument --weights: expected one argument" in capsys.readouterr().err


def test_bounds_refuses_a_translate_box_over_budget(capsys):
    # ceva3 is central and resonant at CEVA_W, so no theorem decides it:
    # 7**8 = 5764801 zero-sum candidates at box 3
    code, out, err = run(capsys, ["bounds", "ceva3", "--weights", CEVA_W, "--box", "3"])
    assert code == 1
    assert out == ""
    assert err.startswith("oscoh: error:")
    assert "5764801 candidate translates" in err and "box 3" in err


def test_bounds_answers_a_decided_box_over_budget(capsys):
    # boolean(14) at 1/2 has 3**13 = 1594323 zero-sum candidates at box 1,
    # but every hyperplane is a dense edge of weight 1/2: the local system
    # is acyclic, proved before any translate is counted
    code, out, err = run(
        capsys, ["bounds", "boolean(14)", "--weights", ",".join(["1/2"] * 14), "--format", "json"]
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert [(r["lower"], r["upper"], r["witness"]) for r in rows] == [(0, 0, None)] * 15


def test_modn_answers_a_complex_over_the_cell_budget_at_squarefree_N(capsys):
    # the degree-5 matrix of boolean(14) is 2002 x 3003, over the cell
    # budget, but k has unit sums mod 3 and mod 2 goes to the decone: no
    # full boundary matrix is needed, not even for invariant factors
    code, out, err = run(
        capsys, ["modn", "boolean(14)", "--k=" + ",".join(["1"] * 14), "--N", "6", "--format", "json"]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["dims"] == [0] * 15
    arr = catalog.get("boolean(14)")
    assert not any(key[0] == "aomoto" for key in arr._cache if isinstance(key, tuple))


def test_bad_weight_token(capsys):
    code, _, err = run(capsys, ["oscohom", "boolean(2)", "--weights", "1/3,x"])
    assert code == 1
    assert "expected p or p/q" in err


def test_unknown_input_name(capsys):
    code, _, err = run(capsys, ["lattice", "no-such-arrangement"])
    assert code == 1
    assert "neither a catalog name" in err


def test_the_parser_is_built_once():
    # every in-process call of main, including those after an argparse
    # error, parses with this one parser
    assert _build_parser() is _build_parser()


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "ceva3"])
    assert exc.value.code == 1


def test_missing_required_weights_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["nonres", "ceva3"])
    assert exc.value.code == 1


def readme_examples():
    """The ``oscoh`` lines of README's "Command line" example block, each as
    (argv, the ``#   `` lines under it with that prefix removed)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("oscoh "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("#   "):
            examples[-1][1].append(line[4:])
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv, shown", README_EXAMPLES, ids=[a[0] for a, _ in README_EXAMPLES])
def test_the_readme_examples_print_what_readme_shows(capsys, argv, shown):
    code, out, _ = run(capsys, argv)
    assert code == 0
    for line in shown:
        assert line in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "oscoh.cli", "lattice", "boolean(2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "betti: [1, 2, 1]" in proc.stdout


def test_console_script_entry_point():
    exe = shutil.which("oscoh")
    if exe is not None:
        command, env = [exe], None
    else:
        # not installed: run the declared [project.scripts] target the way a
        # generated console script does
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["oscoh"]
        module, func = target.split(":")
        command = [
            sys.executable,
            "-c",
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'oscoh'; sys.exit({func}())",
        ]
        src = str(Path(oscoh.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        command + ["lattice", "boolean(2)"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "betti: [1, 2, 1]" in proc.stdout


def test_non_matroid_circuits_exit_1(capsys, tmp_path):
    # eliminating 4 from {1,2,4} and {1,3,4} leaves {1,2,3}: no circuit
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "circuits": [[1, 2, 4], [1, 3, 4], [2, 3, 4]]}\n')
    code, out, err = run(capsys, ["lattice", str(path)])
    assert code == 1
    assert out == ""
    assert err == "oscoh: error: circuit elimination axiom fails\n"


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 3, "circuits": [[1, 2]]}',
        '{"n": 3, "circuits": [[1]]}',
        '{"n": 3, "cone_circuits": [[1, 4]]}',
        '{"n": 3, "cone_circuits": [[4]]}',
    ],
)
@pytest.mark.parametrize("command", ["lattice", "oscohom", "modn", "nonres"])
def test_loops_and_parallel_pairs_exit_1(capsys, tmp_path, doc, command):
    path = tmp_path / "bad.json"
    path.write_text(doc + "\n")
    extra = {
        "lattice": [],
        "oscohom": ["--weights", "1/2,1/3,1/5"],
        "modn": ["--k", "1,2,3", "--N", "5"],
        "nonres": ["--weights", "1/2,1/3,1/5"],
    }[command]
    code, out, err = run(capsys, [command, str(path)] + extra)
    assert code == 1
    assert out == ""
    assert "coincide" in err or "zero coefficient part" in err or "infinity" in err


# ---------------------------------------------------------------------------
# the projective closure's dense edges


def test_no_command_builds_the_closure_lattice(capsys, monkeypatch, tmp_path):
    # The closure's dense edges come from the input's own lattice (central)
    # or one walk of its cone (affine); the closure's lattice stays unbuilt.
    fresh = {"planes": build_arrangement([[1, 0, 0], [0, 1, 0], [1, 1, -1], [1, -1, 2]])}
    for name in ("ceva3", "maclane-section"):
        write_arrangement(catalog.get(name), tmp_path / f"{name}.json")
        fresh[name] = read_arrangement(tmp_path / f"{name}.json")
    monkeypatch.setattr(catalog, "get", fresh.__getitem__)
    for name, arr in fresh.items():
        lam = [Fraction(i + 1, 101) for i in range(arr.n)]
        assert run(capsys, ["lattice", name])[0] == 0
        assert run(capsys, ["nonres", name, "--weights", ",".join(map(str, lam))])[0] == 0
        if arr.central:
            lam[-1] -= sum(lam)  # zero sum: the certificate runs on the decone
        report = os_cohomology_dims(arr, lam)
        assert any("non-resonant" in note for note in report.notes)
        assert "lattice" not in arr.projective_closure()[0]._cache


def golden_argvs(tmp_path):
    """{key: argv} of `lattice` and `nonres`, in text and JSON, on every
    fixed catalog entry and on the plain circuit file and both sections
    read back from their JSON; of README's `oscohom`, `modn`, `bounds` and
    `resonance` examples; and of two `bounds` calls that read the box's
    zero-sum slice: one it misses, and one whose weight sum is off the
    integers."""
    inputs = {name: name for name in catalog.names() if name != "boolean(n)"}
    for name in ("maclane-matroid", "ceva3-section", "maclane-section"):
        path = tmp_path / f"{name}.json"
        write_arrangement(catalog.get(name), path)
        inputs[f"{name} read back"] = str(path)
    argvs = {}
    for key, source in inputs.items():
        weights = ",".join(f"{i % 5 + 1}/7" for i in range(catalog.get(key.split()[0]).n))
        for fmt in ("text", "json"):
            argvs[f"lattice {key} {fmt}"] = ["lattice", source, "--format", fmt]
            argvs[f"nonres {key} {fmt}"] = ["nonres", source, "--weights", weights, "--format", fmt]
    slices = [
        ["bounds", "ceva3", "--weights", "301/3,1/3,1/3,1/3,1/3,1/3,-2/3,-2/3,-2/3", "--box", "3"],
        ["bounds", "example-lstrict", "--weights", "0,2/3,1/6,1/3,1/2,1/6,2/3"],
    ]
    for argv in [a for a, _ in README_EXAMPLES if a[0] not in ("lattice", "nonres")] + slices:
        for fmt in ("text", "json"):
            argvs[f"{argv[0]} {argv[1]} {argv[-1]} {fmt}"] = argv + ["--format", fmt]
    return argvs


# sha256 of the stdout of each of golden_argvs.  The lattice and nonres
# ones were recorded before the closure's dense edges stopped coming from
# a lattice of the closure (the maclane-matroid read-back ones before the
# circuit oracle's closure became a walk through covers).
GOLDEN_DIGESTS = {
    "lattice ceva3 text": "fd6362320c16cc94dc19d07bcb9fc684beda0753acceae835c410b5cdb060032",
    "nonres ceva3 text": "a6303081f0513acb9c1af06590b635ce28c516ba70d304a12395bcfce2b987f9",
    "lattice ceva3 json": "4f914632f0ae3cfc32280b099292ccc478721125ddaf34220d127e99004630d1",
    "nonres ceva3 json": "09f30c64aa980aa1d171754bcbe51c2ce5ff449b713b36a71e09933d941d1902",
    "lattice ceva3-section text": "3436960050345c487093f17c2b819bca543bb0b9cc9a12ceb3266994f18472fb",
    "nonres ceva3-section text": "730308cba34b2f558fe6da6dc533373da06c22f1e57b56bd41805d77390208d0",
    "lattice ceva3-section json": "6ffcb9992134d9d2897258edc2a51dc26699ae72490d58a2f9a7a673b4c4bdc7",
    "nonres ceva3-section json": "5e6445027fce9f63e41da54807de50b5ce01390f839b8d8daa6a0247c235bf9a",
    "lattice example-lstrict text": "96a9a228348e19be3921f42e71344a7994377b31ac1f3e414dfafe0f73b46350",
    "nonres example-lstrict text": "7bdc3567ec3a5365734000a914f9d66c734624a18af64e850210511eaa4d9888",
    "lattice example-lstrict json": "8960231e28a95d26c355dba5c2698757b5d32aab71ffd1e64131234c132e007e",
    "nonres example-lstrict json": "2b6a8d9c820e8863257657a71b3783e757c3df7712327d55633348737e381835",
    "lattice maclane text": "9534b5d17736a5350188f0a065f920ac0fe2ae42b680815bcb1c185c554890b2",
    "nonres maclane text": "2e2ed572bb30c5f0b9e40a82c752b7ab67291fb50ccda679e44935e17fbbcfff",
    "lattice maclane json": "be49db9294486b1a7d3534e4ae7bb2743e7aef3e177105deb067c43341114a50",
    "nonres maclane json": "2960f20a3ee80154e48e8150a9bbae6952a3e53f93850fb5b20e7d7953640eec",
    "lattice maclane-matroid text": "9534b5d17736a5350188f0a065f920ac0fe2ae42b680815bcb1c185c554890b2",
    "nonres maclane-matroid text": "7a4db36944803dabb6b0bc678e17e1d2461f74fefcb2eeef34f67df29b90666b",
    "lattice maclane-matroid json": "79f0a122163c0ec8e5591d9ebaf86db4fb7d89c693747b258e8989c6114da3d7",
    "nonres maclane-matroid json": "4d91949911d1d04a9e43a9125d986876458ea58ba7b3a49ef6c26147abcd6df8",
    "lattice maclane-section text": "394d8a272326982cf04c310d41c6cc97c14943cc19d0c224be2f8a19356223bf",
    "nonres maclane-section text": "7b88df325fbe31471df48a2d29bce95b3617302f7cdc5c5da4f5840332062774",
    "lattice maclane-section json": "df77240ecaa21053f1f32209b28d509a7252d6ceca6d96319e65dbe1c3b96b70",
    "nonres maclane-section json": "c451e2f73e3f1a62d79dfcbf5fad33c241869c9f94e308c1188f4a8abc60caf0",
    "lattice product-example text": "1daadf1a0f824a74469310b72af86972586e0d0d685301d07b16fbbe6813a0e6",
    "nonres product-example text": "ad5f3986474ec75d1398f48b0411df50f8a0d735aa44bd0f36fa9238c42f609c",
    "lattice product-example json": "bbae887fc9c55ad23503bbb121e03ab5ad97124f9462b5dc79eac794e1e1ad3b",
    "nonres product-example json": "c9134da564671b18f803f90cb2af11ab7b031070c0c2e17ce684846d67b84570",
    "lattice maclane-matroid read back text": "9534b5d17736a5350188f0a065f920ac0fe2ae42b680815bcb1c185c554890b2",
    "nonres maclane-matroid read back text": "7a4db36944803dabb6b0bc678e17e1d2461f74fefcb2eeef34f67df29b90666b",
    "lattice maclane-matroid read back json": "79f0a122163c0ec8e5591d9ebaf86db4fb7d89c693747b258e8989c6114da3d7",
    "nonres maclane-matroid read back json": "4d91949911d1d04a9e43a9125d986876458ea58ba7b3a49ef6c26147abcd6df8",
    "lattice ceva3-section read back text": "3436960050345c487093f17c2b819bca543bb0b9cc9a12ceb3266994f18472fb",
    "nonres ceva3-section read back text": "730308cba34b2f558fe6da6dc533373da06c22f1e57b56bd41805d77390208d0",
    "lattice ceva3-section read back json": "6ffcb9992134d9d2897258edc2a51dc26699ae72490d58a2f9a7a673b4c4bdc7",
    "nonres ceva3-section read back json": "5e6445027fce9f63e41da54807de50b5ce01390f839b8d8daa6a0247c235bf9a",
    "lattice maclane-section read back text": "394d8a272326982cf04c310d41c6cc97c14943cc19d0c224be2f8a19356223bf",
    "nonres maclane-section read back text": "7b88df325fbe31471df48a2d29bce95b3617302f7cdc5c5da4f5840332062774",
    "lattice maclane-section read back json": "df77240ecaa21053f1f32209b28d509a7252d6ceca6d96319e65dbe1c3b96b70",
    "nonres maclane-section read back json": "c451e2f73e3f1a62d79dfcbf5fad33c241869c9f94e308c1188f4a8abc60caf0",
    "oscohom ceva3-section 1/3,1/3,1/3,1/3,1/3,1/3,-2/3,-2/3,-2/3 text": "9a35449eef50482ee1449efa665f1d92ce8f4dde185df5661779dd79fd52a457",
    "oscohom ceva3-section 1/3,1/3,1/3,1/3,1/3,1/3,-2/3,-2/3,-2/3 json": "326673b8e9b27346dcf064ebe8cef0ca2a94e7adfe31b8bbcba1a2abdd419f42",
    "modn maclane-section 3 text": "8bf90f48acd557d0847548f63bb3a48ff709d66c90766ca4dbd97d1f3840f34d",
    "modn maclane-section 3 json": "25ef6364d534c051d6f4d6ba5198795c337bd9e7e5962af5010e0beedc8961e1",
    "bounds example-lstrict 1/2,0,0,1/2,1/2,0,1/2 text": "22ad461b9c80f3af6e2e1a4f861412b9078ed3b824c017612029bf5d17b55faf",
    "bounds example-lstrict 1/2,0,0,1/2,1/2,0,1/2 json": "6a38885d6ab80394e1ff85a4ab5b1b78092e8b4634c9bdc7efbde5a937322c1b",
    "resonance ceva3 1 text": "a3b27ee2241ed18b32cfd632c9645d65cf2a84674ce41d9a4bd819e1cf577402",
    "resonance ceva3 1 json": "8949f82e178152902480d6840aaa7dd57879b52f5a3316a825529f7b43c8c505",
    "bounds ceva3 3 text": "88b2930c2024cf0eb1eb96a5eb397424cff32d5d42123b028fd5c23965714c57",
    "bounds ceva3 3 json": "c39952fe876cf08e35e9312fcf5bba66b44fa5a4afe6673eb29e5a846058b6f0",
    "bounds example-lstrict 0,2/3,1/6,1/3,1/2,1/6,2/3 text": "f46f63f44f9ee51e125d2c775b44b2e9c56f82936db92042fe23c5aada1ad0b8",
    "bounds example-lstrict 0,2/3,1/6,1/3,1/2,1/6,2/3 json": "8a8be84d21ce3b0bdf8b13c50082c58d4725b1f6c6e9611631fb17f199ce2c3c",
}


def test_every_command_output_matches_its_recorded_digest(capsys, tmp_path):
    got = {}
    for key, argv in golden_argvs(tmp_path).items():
        _, out, _ = run(capsys, argv)
        got[key] = hashlib.sha256(out.encode()).hexdigest()
    assert got == GOLDEN_DIGESTS
