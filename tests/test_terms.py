import random
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boole import ONE, ZERO, Polynomial, variables
from boole.r01 import parse_horn
from boole.terms import (
    _TOKEN,
    Add,
    IntLit,
    Mul,
    Neg,
    NotTotallyInterpretableError,
    One,
    ParseError,
    Pow,
    SetComplement,
    SetEmpty,
    SetIntersection,
    SetUnion,
    SetUniverse,
    SetVar,
    Sub,
    Var,
    Zero,
    _read,
    eval_set_expression,
    format_term,
    is_totally_interpretable,
    parse,
    poly,
    term_to_poly,
    term_variables,
    to_set_expression,
    to_term,
)
from conftest import eval_term_int, oracle_read, polynomials, random_term, zero_one_points

x, y = variables("x, y")


# ----------------------------------------------------------------------
# Parsing


def test_parse_structure():
    assert parse("x + (1-x)*y") == Add(Var("x"), Mul(Sub(One(), Var("x")), Var("y")))
    assert parse("x^2") == Pow(Var("x"), 2)
    assert parse("0") == Zero()
    assert parse("1") == One()
    assert parse("7") == IntLit(7)


def test_parse_precedence_and_associativity():
    assert parse("x + y * z") == Add(Var("x"), Mul(Var("y"), Var("z")))
    assert parse("x - y - z") == Sub(Sub(Var("x"), Var("y")), Var("z"))
    assert parse("x * y ^ 2") == Mul(Var("x"), Pow(Var("y"), 2))
    assert parse("(x + y)^2") == Pow(Add(Var("x"), Var("y")), 2)
    assert parse("x^2^3") == Pow(Pow(Var("x"), 2), 3)
    assert parse("-x + y") == Add(Neg(Var("x")), Var("y"))
    assert parse("- x * y") == Neg(Mul(Var("x"), Var("y")))


def test_whitespace_is_insignificant():
    assert parse(" x+ ( 1 -x ) *y ") == parse("x + (1-x)*y")


@pytest.mark.parametrize(
    "text, offset",
    [
        ("x ++ y", 3),
        ("x y", 2),
        ("", 0),
        ("(x", 2),
        ("x ^ 0", 4),
        ("x ^ y", 4),
        ("x * * y", 4),
        ("x $ y", 2),
        ("x @", 2),
        # numbers and names are ASCII only
        ("²", 0),
        ("x²", 1),
        ("x + ٣", 4),
        ("é", 0),
        ("x + yé", 5),
        # "_" may follow a name's first character but may not start a token
        ("x_ + _y", 5),
        ("9_", 1),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    # parse_horn reads the text as the second side of "0 = ..."
    for read, at in ((parse, offset), (poly, offset), (lambda text: parse_horn("0 = " + text), offset + 4)):
        with pytest.raises(ParseError) as excinfo:
            read(text)
        assert excinfo.value.position == at
        assert f"offset {at}" in str(excinfo.value)


# Letters, digits, the symbols, spaces the reader skips (tab, newline,
# "\x1c", no-break and ideographic spaces) and characters it rejects,
# among them digits and letters that are not ASCII.
READER_ALPHABET = list("abxyzXY0129_+-*^()") + [" ", "\t", "\n", "\x1c", "\xa0", "\u3000", "²", "٣", "é", "$"]


def read_outcome(read, text):
    try:
        return read(text)
    except ParseError as error:
        return error.message, error.position


# The oracle reads to (op, payload) code; each op is one node class of
# the flat form, and "int" one of three by its value.
ORACLE_OPS = {"var": Var, "^": Pow, "*": Mul, "neg": Neg, "+": Add, "-": Sub}


def oracle_flat(text):
    flat = []
    for op, payload in oracle_read(text):
        if op == "int":
            flat.append((IntLit, payload) if payload > 1 else (One, None) if payload else (Zero, None))
        else:
            flat.append((ORACLE_OPS[op], payload))
    return flat


@given(st.text(st.sampled_from(READER_ALPHABET), max_size=30))
@example("x_ + _y")
@example("x^ 2_ + y")
@example("(x + \u3000y)^0")
@example("0 + 1*00 - 007")
def test_reader_matches_the_character_loop(text):
    assert read_outcome(_read, text) == read_outcome(oracle_flat, text)


def test_reader_skips_exactly_the_whitespace():
    # The tokens are substrings in order, so joining them drops exactly
    # the characters the reader skips.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(_TOKEN.findall(every)) == "".join(ch for ch in every if not ch.isspace())


def test_no_juxtaposition_multiplication():
    with pytest.raises(ParseError):
        parse("x(x + y)")
    with pytest.raises(ParseError):
        parse("2 x")


# (x0 + ... + x19)^20 multiplied out has 2^20 monomials; the stray ")" is
# at offset 113.
COSTLY_THEN_BAD = "(" + " + ".join(f"x{i}" for i in range(20)) + ")^20 )"


def test_whole_text_is_read_before_compiling():
    start = time.perf_counter()
    with pytest.raises(ParseError) as excinfo:
        poly(COSTLY_THEN_BAD)
    assert (excinfo.value.message, excinfo.value.position) == ("unexpected trailing input", 113)
    sentence = f"x0 = 1 -> {COSTLY_THEN_BAD} = 0"
    with pytest.raises(ParseError) as excinfo:
        parse_horn(sentence)
    shifted = sentence.index(COSTLY_THEN_BAD) + 113
    assert (excinfo.value.message, excinfo.value.position) == ("unexpected trailing input", shifted)
    assert time.perf_counter() - start < 1


# ----------------------------------------------------------------------
# Compilation


def test_absorption_law():
    assert poly("x*(x + y - x*y)") == x


def test_symmetric_difference_encoding():
    assert dict(poly("x + y - 2*x*y").terms) == {("x",): 1, ("y",): 1, ("x", "y"): -2}


def test_square_of_sum():
    p = poly("(x+y)^2")
    assert p == x + y + 2 * x * y
    # cross-check against direct integer evaluation at all 0/1 points
    term = parse("(x+y)^2")
    for env in zero_one_points(("x", "y")):
        assert p.evaluate(env) == eval_term_int(term, env)


def test_compilation_soundness_on_random_terms():
    rng = random.Random(7)
    for _ in range(150):
        term = random_term(rng, depth=3)
        p = term_to_poly(term)
        names = term_variables(term)
        for env in zero_one_points(names):
            assert p.evaluate(env) == eval_term_int(term, env)


def test_union_encoding_equivalence():
    assert poly("x + (1-x)*y") == poly("x + y - x*y")


# ----------------------------------------------------------------------
# Formatting round trips


@given(polynomials)
def test_polynomial_rendering_reparses(p):
    assert poly(str(p)) == p


def test_term_formatting_examples():
    assert format_term(parse("x + (1-x)*y")) == "x + (1 - x)*y"
    assert format_term(parse("x^2")) == "x^2"
    assert format_term(parse("-x + y")) == "-x + y"
    assert format_term(Add(Var("x"), Neg(Var("y")))) == "x + (-y)"
    assert format_term(parse("x - (y - z)")) == "x - (y - z)"
    assert format_term(parse("(x + y)*z"), compact=True) == "(x+y)*z"


def test_bool_operands_are_stored_as_ints():
    # True is an int; stored as such it would print as "True", which
    # does not reparse.
    assert format_term(IntLit(True)) == "1" and repr(IntLit(True)) == "IntLit(value=1)"
    assert format_term(Pow(Var("x"), True)) == "x^1"
    assert parse(format_term(Pow(Var("x"), True))) == Pow(Var("x"), 1)


def test_term_format_parse_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        term = random_term(rng, depth=3)
        again = parse(format_term(term))
        assert term_to_poly(again) == term_to_poly(term)


@given(polynomials)
def test_to_term_round_trip(p):
    assert term_to_poly(to_term(p)) == p


def test_to_term_of_zero():
    assert to_term(ZERO) == Zero()


# ----------------------------------------------------------------------
# Total interpretability


def test_totally_interpretable_examples():
    assert is_totally_interpretable(parse("x + (1-x)*y"))
    assert not is_totally_interpretable(parse("x + y"))
    assert not is_totally_interpretable(parse("x - y"))
    assert is_totally_interpretable(parse("1 - x"))
    assert is_totally_interpretable(parse("x*y"))
    assert is_totally_interpretable(parse("x^2"))
    assert is_totally_interpretable(parse("0")) and is_totally_interpretable(parse("1"))
    assert is_totally_interpretable(IntLit(0)) and is_totally_interpretable(IntLit(1))
    assert not is_totally_interpretable(IntLit(2))
    assert not is_totally_interpretable(Neg(Var("x")))
    assert not is_totally_interpretable(Pow(Add(Var("x"), Var("x")), 2))


def test_totally_interpretable_implies_idempotent():
    rng = random.Random(23)
    seen = 0
    for _ in range(400):
        term = random_term(rng, names=("x", "y"), depth=3)
        if is_totally_interpretable(term):
            seen += 1
            assert term_to_poly(term).is_idempotent()
    assert seen > 20
    # The converse is false: x + y - x*y is idempotent but its Add subterm
    # is not disjoint, so the term is not totally interpretable.
    witness = parse("x + y - x*y")
    assert term_to_poly(witness).is_idempotent()
    assert not is_totally_interpretable(witness)


# ----------------------------------------------------------------------
# Set expressions


def test_set_expression_structure():
    assert to_set_expression(parse("1 - x")) == SetComplement(SetVar("x"))
    assert to_set_expression(parse("x + (1-x)*y")) == SetUnion(
        SetVar("x"), SetIntersection(SetComplement(SetVar("x")), SetVar("y"))
    )
    assert to_set_expression(parse("0")) == SetEmpty()
    assert to_set_expression(parse("1")) == SetUniverse()
    assert to_set_expression(parse("x^3")) == SetVar("x")
    assert to_set_expression(parse("x*y - x*y*z")) == SetIntersection(
        SetIntersection(SetVar("x"), SetVar("y")),
        SetComplement(SetIntersection(SetIntersection(SetVar("x"), SetVar("y")), SetVar("z"))),
    )


def test_set_expression_rendering():
    assert str(to_set_expression(parse("1 - x"))) == "x′"
    assert str(to_set_expression(parse("x + (1-x)*y"))) == "x ∪ (x′ ∩ y)"
    assert str(SetComplement(SetUnion(SetVar("x"), SetVar("y")))) == "(x ∪ y)′"
    assert str(SetEmpty()) == "∅" and str(SetUniverse()) == "U"


def test_set_expression_rejections():
    with pytest.raises(NotTotallyInterpretableError) as excinfo:
        to_set_expression(parse("x + y"))
    assert excinfo.value.term == Add(Var("x"), Var("y"))
    with pytest.raises(NotTotallyInterpretableError) as excinfo:
        to_set_expression(parse("x - y"))
    assert excinfo.value.term == Sub(Var("x"), Var("y"))
    # the innermost offender is reported
    with pytest.raises(NotTotallyInterpretableError) as excinfo:
        to_set_expression(parse("x*(y + y)"))
    assert excinfo.value.term == Add(Var("y"), Var("y"))
    with pytest.raises(NotTotallyInterpretableError):
        to_set_expression(parse("2"))
    with pytest.raises(NotTotallyInterpretableError):
        to_set_expression(parse("-x"))


def test_set_expression_evaluation_matches_masks():
    expr = to_set_expression(parse("x + (1-x)*y"))
    # over universe {0,1,2}: x = {0}, y = {1,2} gives x | (x' & y) = {0,1,2}
    assert eval_set_expression(expr, {"x": 0b001, "y": 0b110}, 0b111) == 0b111
    assert eval_set_expression(SetComplement(SetVar("x")), {"x": 0b001}, 0b111) == 0b110
    with pytest.raises(KeyError):
        eval_set_expression(SetVar("q"), {}, 0b1)


def test_set_expression_denotation_matches_partial_evaluation():
    from itertools import product as iproduct

    from boole.models import ClassAssignment, Defined, Universe, eval_partial

    rng = random.Random(47)
    corpus = [
        parse("x + (1-x)*y"),
        parse("x*(1-y) + (1-x)*y"),
        parse("1 - x*y"),
        parse("(1-x)*(1-y)"),
        parse("x - x*y"),
    ]
    tries = 0
    while len(corpus) < 30 and tries < 2000:
        tries += 1
        candidate = random_term(rng, names=("x", "y"), depth=3)
        if is_totally_interpretable(candidate):
            corpus.append(candidate)
    assert len(corpus) == 30
    for term in corpus:
        expr = to_set_expression(term)
        for size in range(4):
            universe = Universe(size)
            for mx, my in iproduct(range(1 << size), repeat=2):
                assignment = ClassAssignment(universe, {"x": mx, "y": my})
                value = eval_partial(term, assignment)
                assert isinstance(value, Defined)
                denoted = eval_set_expression(
                    expr, {"x": mx, "y": my}, universe.mask
                )
                assert denoted == value.subset


def test_term_variables():
    assert term_variables(parse("z*(y + 1) - x^2")) == ("x", "y", "z")
    assert term_variables(parse("3")) == ()
