"""Golden-file tests for the command line tool.

Every example command is pinned byte-exactly, stdout and exit code both,
plus the exit-code contract: 0 success, 1 semantic negative, 2 usage or
parse error.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import boole.polynomial
from boole import Polynomial
from boole.cli import _build_parser, main, poly_from_json, poly_to_json
from boole.polynomial import MAX_POWER_BITS
from boole.terms import poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = [
    # (argv, expected stdout, expected exit code)
    (["normalize", "x*(x + y - x*y)"], "x\n", 0),
    (["normalize", "0"], "0\n", 0),
    (["normalize", "x ^ 3"], "x\n", 0),
    (["normalize", "x + (1-x)*y"], "x + y - x*y\n", 0),
    (["normalize", "--", "-x"], "-x\n", 0),
    (["develop", "x + y"], "00 0\n01 1\n10 1\n11 2\n", 0),
    (["develop", "1"], "1\n", 0),
    (["develop", "x", "--vars=x,y"], "00 0\n01 0\n10 1\n11 1\n", 0),
    (["equal", "x*(x+y-x*y)", "x"], "equal\n", 0),
    (["equal", "x+y", "x+y-x*y"], "not-equal at σ=11\n", 1),
    (["equal", "0", "0"], "equal\n", 0),
    (["reduce", "x - x*y", "y - x*y"], "x + y - 2*x*y\n", 0),
    (["reduce", "0", "0"], "0\n", 0),
    (["eliminate", "y - x", "--elim=y"], "0\n", 0),
    (["eliminate", "1 - x*y", "--elim=y"], "1 - x\n", 0),
    (["solve", "y - x", "--for=y"], "condition: 0\ny = x + v*(0)\n", 0),
    (["solve", "y", "--for=y"], "condition: 0\ny = 0 + v*(0)\n", 0),
    (["solve", "1 - y", "--for=y"], "condition: 0\ny = 1 + v*(0)\n", 0),
    (
        ["interpretable", "x + y"],
        "totally interpretable: no\nidempotent: no\ncore: x + y - x*y\nconstituents: 01 10 11\n",
        1,
    ),
    (
        ["interpretable", "x + (1-x)*y"],
        "totally interpretable: yes\nidempotent: yes\ncore: x + y - x*y\nconstituents: 01 10 11\n",
        0,
    ),
    (
        ["interpretable", "x + y - x*y"],
        "totally interpretable: no\nidempotent: yes\ncore: x + y - x*y\nconstituents: 01 10 11\n",
        0,
    ),
    (["setexpr", "1 - x"], "x′\n", 0),
    (["setexpr", "x + (1-x)*y"], "x ∪ (x′ ∩ y)\n", 0),
    (
        ["setexpr", "x + y"],
        "not totally interpretable: x + y (x and y are not disjoint)\n",
        1,
    ),
    (["r01", "x+y=z -> x*y*z=0"], "holds\n", 0),
    (["r01", "(x+y)*(x+y)=x+y -> x*y=0"], "holds\n", 0),
    (["r01", "x+y = x+y-x*y"], "fails at x=1,y=1\n", 1),
    (["r01", "y = 1 & w = 0 -> x*y + z = w + 1"], "fails at w=0,x=0,y=1,z=0\n", 1),
    (
        ["eval", "x + y", "--classes", "U=2; x={0}; y={0}"],
        "undefined: x+y requires x∩y=∅\n",
        1,
    ),
    (["eval", "x + y", "--classes", "U=2; x={0}; y={1}"], "{0, 1}\n", 0),
    (["eval", "x - y", "--classes", "U=2; x={0,1}; y={0}"], "{1}\n", 0),
    (["eval", "x * y", "--classes", "U=2; x={0}; y={1}"], "∅\n", 0),
    (["eval", "x + y", "--multisets", "U=2; x=[1,0]; y=[1,1]"], "[2, 1]\n", 0),
    (["eval", "1 - x", "--multisets", "U=2; x=[1,0]"], "[0, 1]\n", 0),
]


@pytest.mark.parametrize("argv, stdout, code", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden(capsys, argv, stdout, code):
    got_code, got_out, _ = run(capsys, *argv)
    assert got_out == stdout
    assert got_code == code


# Every GOLDEN call again with --format json: one JSON object per result
# (a whole solve or interpretable report is one), the same exit code.


@pytest.mark.parametrize("argv, stdout, code", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden_as_json(capsys, argv, stdout, code):
    got_code, got_out, _ = run(capsys, argv[0], "--format", "json", *argv[1:])
    lines = got_out.splitlines()
    assert len(lines) == (1 if argv[0] in ("solve", "interpretable") else stdout.count("\n"))
    assert all(isinstance(json.loads(line), dict) for line in lines)
    assert got_code == code


# ----------------------------------------------------------------------
# Help texts, pinned byte for byte at an 80-column terminal. Each block of
# cli_help.txt starts with the command line that prints it.

COMMANDS = ("normalize", "develop", "equal", "reduce", "eliminate", "solve", "interpretable", "setexpr", "r01", "eval")
HELP = Path(__file__).with_name("cli_help.txt").read_text(encoding="utf-8").split("$ boole ")[1:]


@pytest.mark.parametrize("block", HELP, ids=lambda block: block.partition("\n")[0])
def test_help_text(capsys, monkeypatch, block):
    monkeypatch.setenv("COLUMNS", "80")
    command, _, text = block.partition("\n")
    with pytest.raises(SystemExit) as excinfo:
        main(command.split())
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == text


def test_help_pins_every_command():
    assert [block.partition("\n")[0] for block in HELP] == [
        "--help",
        *(f"{command} --help" for command in COMMANDS),
    ]


# ----------------------------------------------------------------------
# Errors: exit code 2, message on stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "x ++ y"],
        ["normalize", "x $ y"],
        ["normalize", "x ^ 0"],
        ["develop", "x + y", "--vars=x"],
        ["develop", "x", "--vars=x,x"],
        ["eliminate", "x", "--elim=2x"],
        ["solve", "x - y", "--for=2y"],
        ["eval", "x", "--classes", "x={0}"],
        ["eval", "x", "--classes", "U=2; x=[0]"],
        ["eval", "x", "--multisets", "U=2; x=[1]"],
        ["eval", "x + q", "--classes", "U=2; x={0}"],
        ["eval", "x", "--classes", "U=17; x={0}"],
        ["r01", "x + y"],
        ["r01"],
        ["r01", "x=0", "--file", "nowhere"],
        ["r01", "--file", "/nonexistent/path"],
    ],
)
def test_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_parse_error_reports_offset(capsys):
    code, _, err = run(capsys, "normalize", "x ++ y")
    assert code == 2
    assert "offset 3" in err


@pytest.mark.parametrize(
    "argv, where",
    [
        (["equal", "x +", "y"], "left: "),
        (["equal", "x", "y +"], "right: "),
        (["reduce", "x", "y +"], "expr 2: "),
        (["reduce", "x +", "y", "z"], "expr 1: "),
        (["reduce", "x +"], "expr 1: "),
        (["normalize", "x +"], ""),  # one term: nothing to name
    ],
)
def test_parse_error_names_the_argument(capsys, argv, where):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {where}expected a number, a variable or '(' at offset 3\n"


@pytest.mark.parametrize("text, offset", [("²", 0), ("x²", 1), ("x + ٣", 4), ("é", 0)])
def test_non_ascii_digits_and_letters_are_parse_errors(capsys, text, offset):
    code, out, err = run(capsys, "normalize", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: unexpected character") and f"offset {offset}" in err


def test_horn_parse_error_offsets_count_from_the_line(capsys):
    code, _, err = run(capsys, "r01", "x = y & y = z -> x = q +")
    assert code == 2
    assert err == "error: line 1: expected a number, a variable or '(' at offset 24\n"


def test_negative_class_element(capsys):
    code, out, err = run(capsys, "eval", "x", "--classes", "U=2; x={-1}")
    assert (code, out) == (2, "")
    assert err == "error: element -1 is outside the universe\n"


def test_huge_class_element_is_outside_the_universe(capsys):
    code, out, err = run(capsys, "eval", "x", "--classes", "U=2; x={100000000000}")
    assert (code, out) == (2, "")
    assert err == "error: assignment for 'x' is not a subset of the universe\n"


@pytest.mark.parametrize(
    "option, spec, message",
    [
        ("--classes", "U=2; x={0}; x={1}", "variable 'x' is assigned twice"),
        ("--multisets", "U=2; x=[0,1]; y=[1,1]; x=[1,1]", "variable 'x' is assigned twice"),
        ("--classes", "U=2; x={0,}", "bad element in assignment entry 'x={0,}'"),
        ("--multisets", "U=2; x=[1,]", "bad element in assignment entry 'x=[1,]'"),
        ("--classes", "U=2; y={}; x={ 0 , a }", "bad element in assignment entry 'x={ 0 , a }'"),
        # numbers are an optional sign and the ASCII digits 0-9
        ("--multisets", "U=2; x=[\u0661,1_000]", "bad element in assignment entry 'x=[\u0661,1_000]'"),
        ("--multisets", "U=2; x=[1_0,1]", "bad element in assignment entry 'x=[1_0,1]'"),
        ("--classes", "U=2; x={\u0661}", "bad element in assignment entry 'x={\u0661}'"),
        (
            "--multisets",
            "U=\u0662; x=[1,0]",
            "bad universe size: invalid integer '\u0662': expected an optional sign and the digits 0-9",
        ),
        ("--classes", "U=1_0; x={0}", "bad universe size: invalid integer '1_0': expected an optional sign and the digits 0-9"),
    ],
)
def test_repeated_or_malformed_assignment_entries(capsys, option, spec, message):
    assert run(capsys, "eval", "x", option, spec) == (2, "", f"error: {message}\n")


def test_assignment_numbers_may_have_spaces_and_a_sign(capsys):
    assert run(capsys, "eval", "x", "--multisets", " U = 2 ; x=[ +1 , -0 ]") == (0, "[1, 0]\n", "")


def test_parsed_arguments_name_the_command_and_hold_no_handler():
    args = _build_parser().parse_args(["normalize", "x"])
    assert vars(args) == {"command": "normalize", "expr": "x", "format": "text", "max_vars": None}


COMMAND_OPTIONS = ("--vars", "--elim", "--for", "--file", "--classes", "--multisets")


def test_main_builds_only_the_invoked_subcommand(capsys, monkeypatch):
    # ArgumentParser inherits add_argument from the container class, as the eval group does
    added = []
    add_argument = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(
        argparse._ActionsContainer,
        "add_argument",
        lambda container, *flags, **options: added.extend(flags) or add_argument(container, *flags, **options),
    )
    assert run(capsys, "normalize", "x") == (0, "x\n", "")
    assert [flag for flag in COMMAND_OPTIONS if flag in added] == []
    added.clear()
    _build_parser()
    assert [flag for flag in COMMAND_OPTIONS if flag not in added] == []


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("boole.cli._cmd_normalize", crash)
    code, out, err = run(capsys, "normalize", "x")
    assert (code, out) == (2, "")
    assert err == "error: internal error: RuntimeError: boom\n"


# A unary minus fails set translation before its operand is looked at,
# while partial evaluation reports an undefined operand first.


def test_setexpr_rejects_unary_minus_before_its_operand(capsys):
    code, out, _ = run(capsys, "setexpr", "--", "(-(x+x))*y")
    assert code == 1
    assert out == "not totally interpretable: -(x + x) (unary minus has no class meaning)\n"


def test_eval_reports_the_undefined_operand_of_unary_minus(capsys):
    code, out, _ = run(capsys, "eval", "--classes", "U=1; x={0}; y={0}", "--", "(-(x+x))*y")
    assert code == 1
    assert out == "undefined: x+x requires x∩x=∅\n"


def test_variable_cap_error(capsys):
    expr = "*".join(f"x{i:02d}" for i in range(21))
    code, _, err = run(capsys, "develop", expr)
    assert code == 2
    assert "limit" in err
    code, _, _ = run(capsys, "develop", "x*y", "--max-vars=1")
    assert code == 2
    code, _, err = run(capsys, "r01", "--max-vars", "0", "x = 0")
    assert code == 2
    assert "1 variable would enumerate 2**1 cases" in err
    code, out, _ = run(capsys, "develop", "x*y", "--max-vars=2")
    assert code == 0
    assert out.endswith("11 1\n")


@pytest.mark.parametrize("command", [["normalize", "x"], ["develop", "x"], ["r01", "x = x"]])
def test_negative_max_vars_exits_2(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--max-vars", "-5"])
    assert excinfo.value.code == 2
    assert "--max-vars: the variable limit must be nonnegative, got -5" in capsys.readouterr().err
    assert run(capsys, *command, "--max-vars", "0")[0] in (0, 2)


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate", "x"])
    assert excinfo.value.code == 2


def test_solve_vacuous_warns_on_stderr(capsys):
    code, out, err = run(capsys, "solve", "x - 1", "--for=y")
    assert code == 0
    assert out == "condition: 1 - x\ny = 0 + v*(1)\n"
    assert err.startswith("warning:")


# ----------------------------------------------------------------------
# r01 file mode


def test_r01_file_mode(tmp_path, capsys):
    batch = tmp_path / "sentences.txt"
    batch.write_text(
        "x+y=z -> x*y*z=0\n\nx*(x + y - x*y) = x\nx+y = x+y-x*y\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "r01", "--file", str(batch))
    assert out == "holds\nholds\nfails at x=1,y=1\n"
    assert code == 1


def test_r01_file_parse_error_names_the_line(tmp_path, capsys):
    batch = tmp_path / "sentences.txt"
    batch.write_text("x = 0\nnonsense\n", encoding="utf-8")
    code, out, err = run(capsys, "r01", "--file", str(batch))
    assert code == 2
    assert "line 2" in err


# ----------------------------------------------------------------------
# JSON output


def test_json_normalize_round_trip(capsys):
    code, out, _ = run(capsys, "normalize", "x + (1-x)*y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    p = poly_from_json(payload["polynomial"])
    assert p == poly("x + y - x*y")
    # re-encoding reproduces the identical structure
    assert poly_to_json(p) == payload["polynomial"]


def test_json_polynomial_encoding_is_canonical():
    p = poly("y + x - 2*x*y")
    assert poly_to_json(p) == [
        {"monomial": ["x"], "coefficient": "1"},
        {"monomial": ["y"], "coefficient": "1"},
        {"monomial": ["x", "y"], "coefficient": "-2"},
    ]
    assert poly_to_json(poly("0")) == []
    assert poly_from_json([]) == poly("0")


def test_json_coefficients_are_ascii_numerals():
    assert poly_from_json([{"monomial": ["x"], "coefficient": " -12 "}]) == poly("-12*x")
    for numeral in (" \u0661\u0662 ", "1_000", "12.0", ""):
        with pytest.raises(ValueError, match="invalid integer"):
            poly_from_json([{"monomial": [], "coefficient": numeral}])
    # A JSON number is its own value; other JSON values are no numeral.
    assert poly_from_json([{"monomial": [], "coefficient": -2}]) == poly("-2")
    for value in (2.0, True, None):
        with pytest.raises(TypeError, match="neither a string nor an int"):
            poly_from_json([{"monomial": [], "coefficient": value}])


def test_json_round_trips_a_bool_constant():
    # True is an int; stored as such it would print as "True", which
    # poly_from_json rejects.
    for p in (Polynomial.constant(True), Polynomial({(): True, ("x",): False})):
        assert poly_to_json(p) == [{"monomial": [], "coefficient": "1"}]
        assert poly_from_json(poly_to_json(p)) == p == poly("1")


def test_json_develop(capsys):
    code, out, _ = run(capsys, "develop", "x + y", "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [entry["sigma"] for entry in lines] == ["00", "01", "10", "11"]
    assert poly_from_json(lines[3]["coefficient"]) == poly("2")


def test_json_equal(capsys):
    code, out, _ = run(capsys, "equal", "x+y", "x+y-x*y", "--format", "json")
    assert code == 1
    assert json.loads(out) == {"equal": False, "sigma": "11"}


def test_equal_over_twenty_names_differing_last_is_quick(capsys):
    # the two sides differ only where all 20 variables are 1
    product = "*".join(f"x{i:02d}" for i in range(20))
    start = time.perf_counter()
    code, out, _ = run(capsys, "equal", f"{product} + x00", "x00")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, f"not-equal at σ={'1' * 20}\n")


def test_json_solve(capsys):
    code, out, _ = run(capsys, "solve", "y - x", "--for=y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unknown"] == "y" and payload["parameter"] == "v"
    assert poly_from_json(payload["particular"]) == poly("x")
    assert poly_from_json(payload["freedom"]) == poly("0")
    assert payload["vacuous"] is False


def test_json_interpretable(capsys):
    code, out, _ = run(capsys, "interpretable", "x + y", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["totally_interpretable"] is False
    assert payload["idempotent"] is False
    assert payload["constituents"] == ["01", "10", "11"]
    assert poly_from_json(payload["core"]) == poly("x + y - x*y")


def test_interpretable_reads_idempotence_from_the_core(capsys, monkeypatch):
    # p is idempotent exactly when its values are all 0 or 1, so no p*p is formed
    products = []
    multiply = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda p, q: products.append(q) or multiply(p, q))
    code, out, _ = run(capsys, "interpretable", "x + y + 2*x*y*z")
    assert (code, out) == (1, "totally interpretable: no\nidempotent: no\ncore: x + y - x*y\nconstituents: 010 011 100 101 110 111\n")
    assert products == []


@pytest.mark.parametrize("expr, transforms", [("x*y + (1-x)*z", [8]), ("x + y", [4, 4])])
def test_interpretable_develops_once(capsys, monkeypatch, expr, transforms):
    # One zeta transform gives p's values, which decide idempotence and the
    # constituents; only a p that is not idempotent needs a Moebius pass for
    # its core.
    sizes = []
    transform = boole.polynomial._transform
    monkeypatch.setattr(boole.polynomial, "_transform", lambda vector, op: sizes.append(len(vector)) or transform(vector, op))
    run(capsys, "interpretable", expr)
    assert sizes == transforms


def test_json_setexpr(capsys):
    code, out, _ = run(capsys, "setexpr", "x + (1-x)*y", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"set_expression": "x ∪ (x′ ∩ y)"}
    code, out, _ = run(capsys, "setexpr", "x + y", "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == "not-totally-interpretable"


def test_json_r01(capsys):
    code, out, _ = run(capsys, "r01", "x+y = x+y-x*y", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "holds": False,
        "witness": {"x": 1, "y": 1},
        "consequent_value": "1",
    }
    # y = 1 and w = 0 are forced; the consequent is then x + z - 1
    code, out, _ = run(capsys, "r01", "y = 1 & w = 0 -> x*y + z = w + 1", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "holds": False,
        "witness": {"w": 0, "x": 0, "y": 1, "z": 0},
        "consequent_value": "-1",
    }


def test_json_eval(capsys):
    code, out, _ = run(capsys, "eval", "x + y", "--classes", "U=2; x={0}; y={1}", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"defined": True, "subset": [0, 1]}
    code, out, _ = run(capsys, "eval", "x + y", "--multisets", "U=2; x=[1,0]; y=[1,1]", "--format", "json")
    assert json.loads(out) == {"values": ["2", "1"]}


# ----------------------------------------------------------------------
# The README's CLI block: every ``boole ...`` line but the one that reads a
# file runs as documented.  After "# -> " comes the output: " / "
# separates its lines and "..." stands for any text.  A trailing
# "(exit N)" gives the exit code, 0 otherwise.


def readme_cli_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    examples = []
    for line in filter(None, block.splitlines()):
        command, _, comment = line.partition("# ")
        argv = shlex.split(command)
        assert argv[0] == "boole"
        if "--file" in argv:
            continue
        documented = re.sub(r"\s*\(one per line\)$", "", comment.strip())
        code = re.search(r"\s*\(exit (\d)\)$", documented)
        if code:
            documented = documented[: code.start()]
        lines = documented[3:].split(" / ") if documented.startswith("-> ") else None
        examples.append(pytest.param(argv[1:], lines, int(code.group(1)) if code else 0, id=command.strip()))
    return examples


def test_readme_cli_block_is_annotated():
    examples = readme_cli_examples()
    assert len(examples) == 14
    assert sum(example.values[1] is not None for example in examples) == 12


@pytest.mark.parametrize("argv, lines, exit_code", readme_cli_examples())
def test_readme_cli_examples(capsys, argv, lines, exit_code):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "")
    if lines is None:
        return
    shown = out.splitlines()
    assert len(shown) == len(lines)
    for got, want in zip(shown, lines):
        assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), got), (got, want)


def test_a_leading_minus_is_read_as_an_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["normalize", "-x"])
    assert excinfo.value.code == 2
    assert "the following arguments are required: expr" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Integers past the interpreter's 4300-digit limit on int/str conversion


def unlimited_str(n: int) -> str:
    """The reference rendering: str with the digit limit lifted for the
    call only, so the code under test runs with the limit in force."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_huge_coefficients_print_exactly(capsys):
    assert sys.get_int_max_str_digits() == 4300
    expected = unlimited_str(3**10000)
    assert len(expected) > 4300
    assert run(capsys, "normalize", "3^10000") == (0, expected + "\n", "")
    code, out, err = run(capsys, "normalize", "--format", "json", "3^10000 - x")
    assert (code, err) == (0, "")
    payload = json.loads(out)["polynomial"]
    assert payload == [
        {"monomial": [], "coefficient": expected},
        {"monomial": ["x"], "coefficient": "-1"},
    ]
    assert poly_from_json(payload) == poly("3^10000 - x")
    assert poly_from_json([{"monomial": [], "coefficient": "-" + expected}]).terms == {(): -(3**10000)}
    code, out, _ = run(capsys, "eval", "x^99^99", "--multisets", "U=2; x=[3,1]", "--format", "json")
    assert (code, json.loads(out)) == (0, {"values": [unlimited_str(3 ** (99 * 99)), "1"]})


def test_multiset_power_past_the_bit_limit_is_refused(capsys):
    power = "x^" + "1" * 400
    refused = f"error: power too large: its values pass {MAX_POWER_BITS} bits\n"
    assert run(capsys, "eval", power, "--multisets", "U=1; x=[2]") == (2, "", refused)
    assert run(capsys, "eval", power, "--multisets", "U=2; x=[1,-1]") == (0, "[1, -1]\n", "")


def test_huge_numerals_parse_exactly(capsys):
    numeral = "1" * 5000
    assert poly(numeral).terms == {(): (10**5000 - 1) // 9}
    assert run(capsys, "normalize", f"{numeral} - 1") == (0, "1" * 4999 + "0\n", "")
    assert run(capsys, "normalize", "10^5000 + 1") == (0, "1" + "0" * 4999 + "1\n", "")
    assert run(capsys, "eval", "x", "--multisets", f"U=1; x=[-{numeral}]") == (0, f"[-{numeral}]\n", "")
    assert run(capsys, "eval", "x", "--classes", f"U=1; x={{-{numeral}}}") == (
        2, "", f"error: element -{numeral} is outside the universe\n"
    )
    assert run(capsys, "eval", "x", "--classes", f"U={numeral}; x={{0}}") == (
        2, "", f"error: bad universe size: universe size must be in 0..16, got {numeral}\n"
    )
    code, out, err = run(capsys, "normalize", numeral + "x")
    assert (code, out) == (2, "") and err.startswith("error: unexpected trailing input at offset 5000")


# ----------------------------------------------------------------------
# The installed entry points


def test_python_dash_m_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "boole", "normalize", "x*(x + y - x*y)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "x\n"


# The promise of no runtime dependency: a fresh interpreter imports boole
# and runs every command, as text and as JSON, and what that loads is the
# standard library and boole.  The child prints the top-level names of the
# modules it loaded after its own start-up.
STDLIB_ONLY = """\
import contextlib, io, json, sys
before = set(sys.modules)
from boole.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        main(argv)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_commands_load_only_the_standard_library():
    first = {argv[0]: argv for argv, _, _ in reversed(GOLDEN)}
    assert sorted(first) == sorted(COMMANDS)
    calls = [*first.values(), *([argv[0], "--format", "json", *argv[1:]] for argv in first.values())]
    result = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY, json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    loaded = json.loads(result.stdout)
    assert "boole" in loaded and "argparse" in loaded
    assert [name for name in loaded if name != "boole" and name not in sys.stdlib_module_names] == []


def test_import_leaves_pathlib_unloaded():
    # -S keeps site's .pth hooks, which may load pathlib themselves, out of it
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, boole.cli; print('pathlib' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


def test_stdout_is_utf8():
    result = subprocess.run(
        [sys.executable, "-m", "boole", "setexpr", "1 - x"],
        capture_output=True,
    )
    assert result.returncode == 0
    assert result.stdout.decode("utf-8") == "x′\n"
