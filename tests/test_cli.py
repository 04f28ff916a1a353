"""Tests for the command-line interface: outputs and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chowq
from chowq.basis import QuadricGeometry, cycle_from_json, h, l, single
from chowq.cli import _verdict, main


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("CHOWQ_COLOR", "0")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# algebra subcommands


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "-D", "8", "h1 x l3", "h2 x h0")
    assert code == 0 and out.strip() == "h3 x l3"


def test_mul_cannot_infer_the_arity_of_zero(capsys):
    code, out, err = run(capsys, "mul", "-D", "4", "0", "h1")
    assert code == 1 and out == "" and "pass --arity" in err


def test_mul_json(capsys):
    code, out, _ = run(capsys, "mul", "-D", "8", "--json", "h1 x l3", "h2 x h0")
    assert code == 0
    g = QuadricGeometry(8)
    assert cycle_from_json(json.loads(out)) == single(g, h(3), l(3))


def test_steenrod(capsys):
    code, out, _ = run(capsys, "steenrod", "-D", "6", "-k", "1", "l3")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "steenrod", "-D", "8", "h2")
    assert code == 0 and out.strip() == "h2 + h4"
    code, out, _ = run(capsys, "steenrod", "-D", "8", "--upto", "1", "h2")
    assert code == 0 and out.strip() == "h2"


def test_steenrod_order_and_upto_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["steenrod", "-D", "8", "-k", "1", "--upto", "2", "h2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "not allowed with argument" in err and "usage" in err


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", "-D", "10", "h2 x l0", "h0 x l5")
    assert code == 0 and out.strip() == "h2 x l5"


def test_derive(capsys):
    code, out, _ = run(
        capsys, "derive", "-D", "6", "-i", "1", "-j", "1", "h0 x l2 + l2 x h0"
    )
    assert code == 0 and out.strip() == "h1 x l1 + l1 x h1"


def test_syntax_and_geometry_errors(capsys):
    code, _, err = run(capsys, "mul", "-D", "8", "hx x l3", "h0 x h0")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "mul", "-D", "-2", "h0", "h0")
    assert code == 1
    code, _, err = run(capsys, "mul", "-D", "4", "h9 x h0", "h0 x h0")
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["mul", "-D", "8"])  # missing operand
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# diagram


def test_diagram_shape(capsys):
    code, out, _ = run(capsys, "diagram", "-D", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert [len(line.split()) for line in lines] == [1, 4, 6]
    code, again, _ = run(capsys, "diagram", "-D", "2")
    assert again == out  # deterministic


def test_diagram_marks_cycle(capsys):
    code, out, _ = run(capsys, "diagram", "-D", "2", "h0 x l1 + l1 x h0")
    assert code == 0 and out.count("●") == 2


def test_diagram_splitting(capsys):
    code, out, _ = run(capsys, "diagram", "-D", "6", "--splitting", "2,2")
    assert code == 0 and "●" in out


# ---------------------------------------------------------------------------
# check


KNOWN = {
    "D": 6,
    "max_arity": 2,
    "generators": ["h0 x l1 + h2 x l3 + l1 x h0 + l3 x h2"],
    "splitting": [2, 2],
}


def test_check_passes(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(KNOWN))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "springer: PASS" in out
    assert "FAIL" not in out


def test_check_skips_a_zero_generator(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(dict(KNOWN, generators=["0"] + KNOWN["generators"])))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and "springer: PASS" in out and "FAIL" not in out


def test_check_json(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(KNOWN))
    code, out, _ = run(capsys, "check", "--json", str(path))
    assert code == 0
    results = json.loads(out)
    assert all(r["passed"] for r in results)
    assert {"springer", "primordial", "known"} <= {r["name"] for r in results}


def test_check_fails_on_point(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"D": 6, "max_arity": 1, "generators": ["l0"]}))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "springer: FAIL" in out


def test_check_inner_family_needs_splitting(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"D": 8, "max_arity": 2, "generators": ["h0 x l4 + l4 x h0"]}))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps({"D": 2, "max_arity": 2, "generators": ["h0 x l1 + l1 x h0"]}))
    code, out, err = run(capsys, "check", str(family), str(inner))
    assert code == 1 and out == ""
    assert "the supplement check needs splitting data" in err


def test_check_rejects_boolean_factor_indices(tmp_path, capsys):
    family = tmp_path / "family.json"
    gen = {"D": 6, "r": 2, "terms": [[["h", False], ["l", True]], [["l", True], ["h", False]]]}
    family.write_text(json.dumps({"D": 6, "max_arity": 2, "generators": [gen]}))
    code, out, err = run(capsys, "check", str(family))
    assert code == 1 and out == ""
    assert "is not a non-negative integer" in err


@pytest.mark.parametrize("field, value", [("D", True), ("D", 6.0), ("r", True), ("r", 2.0)])
def test_check_rejects_non_integer_dimension_and_arity(tmp_path, capsys, field, value):
    gen = {"D": 6, "r": 2, "terms": [[["h", 0], ["l", 1]], [["l", 1], ["h", 0]]]}
    gen[field] = value
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"D": 6, "max_arity": 2, "generators": [gen]}))
    code, out, err = run(capsys, "check", str(family))
    assert code == 1 and out == ""
    assert "must be a non-negative integer" in err


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("D", 6.9, "6.9"),
        ("D", True, "True"),
        ("D", "6", "'6'"),
        ("max_arity", 2.5, "2.5"),
        ("splitting", [2.0, 2], "(2.0, 2)"),
        ("splitting", 5, "splitting must be a list of Witt indices"),
        ("generators", "h0 x l1", "generators must be a list"),
        ("generators", {"a": 1}, "generators must be a list"),
        ("generators", 5, "generators must be a list"),
        ("splitting", {"a": 1}, "splitting must be a list of Witt indices"),
        ("splitting", 0, "splitting must be a list of Witt indices"),
        ("generators", [["h0 x l1"]], "generators[0] must be cycle text or a JSON cycle"),
        ("generators", ["h0 x l1 + l1 x h0", 5], "generators[1] must be cycle text"),
    ],
)
def test_check_rejects_family_fields_of_the_wrong_type(tmp_path, capsys, field, value, shown):
    data = {"D": 6, "max_arity": 2, "splitting": [2, 2], "generators": ["h0 x l1 + l1 x h0"]}
    data[field] = value
    family = tmp_path / "family.json"
    family.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(family))
    assert code == 1 and out == ""
    assert err.startswith("error:") and shown in err


@pytest.mark.parametrize("field", ["D", "max_arity", "generators"])
def test_check_names_a_missing_family_field(tmp_path, capsys, field):
    data = {"D": 6, "max_arity": 2, "generators": ["h0 x l1 + l1 x h0"]}
    del data[field]
    family = tmp_path / "family.json"
    family.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(family))
    assert code == 1 and out == ""
    assert err == f"error: family file lacks the field {field!r}\n"


@pytest.mark.parametrize("data", [[], [{"D": 6}], "family", 6])
def test_check_rejects_a_family_file_that_is_not_an_object(tmp_path, capsys, data):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(family))
    assert code == 1 and out == ""
    assert err.startswith("error: family file must be a JSON object")


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
    assert code == 1 and "error" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_ok(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--m", "3", "--p", "1",
        "--method", "bilinear",
    )
    assert code == 0
    assert "contradiction: PASS" in out
    assert "cases=4096" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--m", "3", "--p", "1",
        "--method", "bilinear", "--json",
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["passed"] is True and cert["method"] == "bilinear"


def test_verify_bad_params(capsys):
    code, _, err = run(capsys, "verify", "--n", "4", "--m", "3", "--p", "2")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("jobs", ["0", "-1", "2"])
def test_verify_bad_job_count(capsys, jobs):
    """The certifier runs in one process: --jobs is no option, whatever its value."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "4", "--m", "3", "--p", "1", "--jobs", jobs])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert "unrecognized arguments: --jobs" in out.err


def test_verify_refuses_brute_force_above_its_limit(capsys):
    code, out, err = run(
        capsys, "verify", "--n", "6", "--m", "5", "--p", "1", "--method", "brute"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--method bilinear" in err


def test_verify_unknown_kind(capsys):
    code, _, err = run(
        capsys, "verify", "nonsense", "--n", "4", "--m", "3", "--p", "1"
    )
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv, first", [
    (["verify", "--n", "11", "--m", "3", "--p", "1", "--json"], b"{\n"),  # 180 KB: the write fails
    (["mul", "-D", "8", "h1 x l3", "h2 x h0"], None),  # closed at once: the flush fails, data kept
])
def test_a_closed_stdout_ends_with_exit_1_and_no_traceback(argv, first):
    """The reader closes after the first line of a certificate larger than a pipe holds, or
    before reading anything; the exit flush must not fail again on the data left buffered."""
    env = {**os.environ, "PYTHONPATH": str(Path(chowq.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered, as by default
    with subprocess.Popen([sys.executable, "-m", "chowq.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        if first is not None:
            assert child.stdout.readline() == first
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1 and "Traceback" not in err, err


# ---------------------------------------------------------------------------
# pattern


def test_pattern_dim_in(capsys):
    code, out, _ = run(capsys, "pattern", "dim-in", "--n", "3", "--cap", "20")
    assert code == 0 and out.strip() == "0 8 12 14 16 18 20"
    code, _, err = run(capsys, "pattern", "dim-in", "--n", "3")
    assert code == 1


def test_pattern_vishik_and_small(capsys):
    code, out, _ = run(capsys, "pattern", "vishik", "--n", "2", "--m", "3")
    assert code == 0 and out.strip() == "0 4 6 8 10 12"
    code, out, _ = run(capsys, "pattern", "small", "--n", "4", "--m", "2", "--json")
    assert code == 0 and json.loads(out) == [0, 16, 24, 28]
    code, _, _ = run(capsys, "pattern", "vishik", "--n", "2")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dim-in", "--n", "0", "--cap", "10"],
        ["vishik", "--n", "0", "--m", "3"],
        ["small", "--n", "0", "--m", "1"],
    ],
)
def test_pattern_needs_n_at_least_1(capsys, argv):
    """I^0 = W(F) holds forms of every dimension, so the formulas start at n = 1."""
    code, out, err = run(capsys, "pattern", *argv)
    assert code == 1 and out == "" and "error: need n >= 1, got n=0" in err


# ---------------------------------------------------------------------------
# color


def test_verdicts_are_colored_on_a_terminal(monkeypatch):
    monkeypatch.delenv("CHOWQ_COLOR")
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    assert _verdict("springer", True) == "springer: \x1b[32mPASS\x1b[0m"
    assert _verdict("springer", False) == "springer: \x1b[31mFAIL\x1b[0m"
    monkeypatch.setenv("CHOWQ_COLOR", "0")
    assert _verdict("springer", True) == "springer: PASS"
    assert _verdict("springer", False) == "springer: FAIL"


# ---------------------------------------------------------------------------
# installed entry point


@pytest.mark.skipif(shutil.which("chowq") is None, reason="entry point not installed")
def test_console_script():
    proc = subprocess.run(
        ["chowq", "mul", "-D", "8", "h1 x l3", "h2 x h0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "h3 x l3"
