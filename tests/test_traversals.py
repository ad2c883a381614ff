"""The term traversals against their recursive definitions, and on inputs
far deeper than Python's recursion limit.

Every traversal of a Term or SetExpr runs on one iterative fold, except
compiling, which runs one compiler on a tree's flat form: the parser
emits it for text, and a tree gives its own.  The oracles in conftest
are the direct recursions; here they are compared result for result and
error for error, including where a unary minus sits inside a product, a
sum or a power (set translation rejects a unary minus before looking at
its operand, partial evaluation looks first).
"""

import copy
import itertools
import pickle
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import boole.polynomial
import boole.terms
from boole.cli import main
from boole.models import ClassAssignment, Defined, Multiset, Universe, eval_multiset, eval_partial
from boole.polynomial import Polynomial
from boole.terms import (
    Add,
    IntLit,
    Mul,
    Neg,
    NotTotallyInterpretableError,
    One,
    Pow,
    SetVar,
    Sub,
    Var,
    Zero,
    _flat,
    _read,
    eval_set_expression,
    format_set_expression,
    format_term,
    is_totally_interpretable,
    parse,
    poly,
    term_to_poly,
    term_variables,
    to_set_expression,
)
from conftest import (
    constituent_sum,
    oracle_eval_multiset,
    oracle_eval_partial,
    oracle_format_set_expression,
    oracle_format_term,
    oracle_term_to_poly,
    oracle_term_variables,
    oracle_to_set_expression,
    terms,
)

X, Y = Var("x"), Var("y")
NEG_INSIDE = [
    Mul(Neg(Add(X, X)), Y),
    Add(Y, Neg(Add(X, X))),
    Pow(Neg(Add(X, X)), 2),
    Mul(Neg(IntLit(2)), Add(X, X)),
]


def outcome(function, *args):
    """The result, or what identifies the error: its type, message and,
    for a term that is not totally interpretable, the subterm and the
    condition."""
    try:
        return "ok", function(*args)
    except NotTotallyInterpretableError as error:
        return type(error), str(error), error.term, error.condition
    except (KeyError, TypeError, ValueError) as error:
        return type(error), str(error)


# ----------------------------------------------------------------------
# Differential tests against the recursive oracles


def one_term_runs(test):
    """Examples of runs of factors, which compile to one coefficient and
    one mask: a zero factor, a repeated name, signs, and powers."""
    for text in ("0*x*y + x", "(0*x)^5", "x*y*x", "-(2*x)*3*y", "x*y - y*x", "(2*x*y)^3", "(-x*y)^2"):
        test = example(parse(text))(test)
    return test


@given(terms)
@example(Pow(Neg(Add(X, Y)), 2))
@example(Neg(Pow(Neg(Add(X, IntLit(2))), 3)))
@example(Mul(Neg(X), Neg(Add(X, Y))))
@example(parse("x - (y - (x*y - (1 - x)))"))
@example(parse("x*(1 + x + y + x*y)"))  # x*1 and x*x meet in x, x*y and x*x*y in x*y
@example(parse("(x*y)*(x + y + 2*z) - (1 + x)*(1 - x)"))
@one_term_runs
def test_compile_matches_oracle(term):
    assert term_to_poly(term).terms == oracle_term_to_poly(term).terms


# The heads of a nest's levels: runs of factors with coefficients and
# masks, a zero coefficient and a repeated name among them, factors that
# are tables, and a sum that defers a factor.  A level joins its head to
# the rest of the nest with a sign, a product, a unary minus or a power.
NEST_HEADS = ("x", "y*z", "2*x", "3*x*y*x", "0*z", "(x - z)", "(1 + y)*w", "(x + 2*y)^2", "(w - x*(y - z))")
NEST_LEVELS = (
    "{} + ({})", "{} - ({})", "{} * ({})", "{} * (-({}))", "{} - (({})^2)", "{} + ({})^3",
    "({} + w)*({})", "{}*x*({})", "{} - 2*y*({})", "-({1}) + {0}",
)


@st.composite
def nests(draw):
    text = draw(st.sampled_from(NEST_HEADS))
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        text = draw(st.sampled_from(NEST_LEVELS)).format(draw(st.sampled_from(NEST_HEADS)), text)
    return text


@given(nests())
@example("x*(y - (2*z + (3*w*((x + y) - x*(1 - w)))))")
@example("-(2*x*(y + z)) - (3*y*(x - w) + (x + z)*(y - 2*w))")
@example("(w + x*(y - z)) - (y + z*(x + w))")
@example("-(x + y) + z")
def test_nests_compile_as_the_oracle(text):
    # Pending coefficients and masks deferred at + and -, under unary
    # minus, powers and products of two tables
    assert outcome(poly, text) == outcome(oracle_term_to_poly, parse(text))


@pytest.mark.parametrize("count", [1, 3, 6, 10])
def test_negated_idempotent_powers_return_at_once(count):
    # The sign of -(c)^k stays outside the table of an idempotent c, which
    # is its own power, so a 30-digit exponent costs one squaring.
    constituent = constituent_sum(NAMES[:count], 1)
    start = time.perf_counter()
    assert poly(f"(-({constituent}))^{'9' * 30}") == -poly(constituent)
    assert time.perf_counter() - start < 1


def reparsed(term):
    """The tree that parsing the term's printed form gives: the literals
    0 and 1 read back as Zero and One."""
    if isinstance(term, IntLit) and term.value < 2:
        return One() if term.value else Zero()
    if isinstance(term, (Add, Sub, Mul)):
        return type(term)(reparsed(term.left), reparsed(term.right))
    if isinstance(term, Neg):
        return Neg(reparsed(term.operand))
    if isinstance(term, Pow):
        return Pow(reparsed(term.base), term.exponent)
    return term


@given(terms)
@example(Neg(Pow(Neg(Add(X, IntLit(2))), 3)))
@example(Mul(Neg(X), Neg(Add(X, Y))))
@example(Add(Neg(Mul(X, Y)), Pow(Pow(Y, 2), 3)))
@one_term_runs
def test_text_compiles_as_its_tree(term):
    # poly compiles the flat form that the parser reads, term_to_poly the
    # tree's own, and the two are the same
    for compact in (False, True):
        text = format_term(term, compact)
        tree = parse(text)
        assert tree == reparsed(term)
        assert tuple(_read(text)) == _flat(tree)
        expected = outcome(oracle_term_to_poly, tree)
        assert outcome(poly, text) == expected
        assert outcome(term_to_poly, tree) == expected


@given(terms, st.booleans())
def test_format_matches_oracle(term, compact):
    assert format_term(term, compact) == oracle_format_term(term, compact)
    assert str(term) == oracle_format_term(term)


def translated(term, budget=boole.terms._MASK_BUDGET_BITS):
    """The outcome of to_set_expression under a mask budget of `budget`
    bits, and whether it held classes as point masks."""
    built, masks = [], boole.terms._PointMasks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boole.terms, "_MASK_BUDGET_BITS", budget)
        patch.setattr(boole.terms, "_PointMasks", lambda names: built.append(1) or masks(names))
        return outcome(to_set_expression, term), bool(built)


def set_cases(test):
    """Terms that fail each side condition, inside and outside a product or
    a power, and terms that pass them over an empty or a whole class."""
    for text in (
        "x*(y + y)", "(x - y)^2", "x - (x - y)", "(x + x*y)*z", "2*x - x", "x + (1 - x) - y",
        "(1 - x) - (y - y)", "1 - 1 + x*0", "x*y - x*y*z", "x^3 + (1 - x)^2*y",
    ):
        test = example(parse(text))(test)
    return test


@given(terms)
@example(NEG_INSIDE[0])
@example(NEG_INSIDE[1])
@example(NEG_INSIDE[2])
@example(NEG_INSIDE[3])
@set_cases
def test_set_translation_matches_oracle(term):
    # The same set expression, or the same message, subterm and condition,
    # on point masks and, with no budget for them, on polynomials
    expected = outcome(oracle_to_set_expression, term)
    assert translated(term) == (expected, True)
    assert translated(term, -1) == (expected, False)
    if expected[0] == "ok":
        assert format_set_expression(expected[1]) == oracle_format_set_expression(expected[1])


# Over 30 names one point mask takes 2^30 bits (128 MiB), past the mask
# budget, so these translate through the polynomial checks.
W30 = "*".join(f"w{i:02d}" for i in range(30))


@pytest.mark.parametrize(
    "text", [f"{W30} + (1 - w00)", f"{W30} + w29", f"w29 - {W30}", f"{W30} - w29", f"(1 - w00)*{W30}"]
)
def test_terms_over_the_mask_budget_match_oracle(text):
    term = parse(text)
    assert translated(term) == (outcome(oracle_to_set_expression, term), False)


@pytest.mark.parametrize(
    "text, names, masks",
    [
        ("x", 1, 2),
        ("x*y", 2, 5),
        ("x0 + (x1 + (x2 + x3))", 4, 8),
        ("x*y + (y*z + x*z)", 3, 9),
        ("1 - (1 - (1 - x))", 1, 5),
        ("-(x*y) + x^2", 1, 4),
        ("(x*y)^2*(z*w) + u*v", 6, 11),
    ],
)
def test_mask_budget_counts_names_and_held_masks(text, names, masks):
    # 2^n bits for each name, the universe and the most masks the fold
    # holds at once, with its result and a temporary at each +, - or *.
    # A power holds its base's mask, and a unary minus fails unvisited.
    term = parse(text)
    expected = outcome(oracle_to_set_expression, term)
    assert translated(term, masks << names) == (expected, True)
    assert translated(term, (masks << names) - 1) == (expected, False)


def test_constituent_sums_translate_without_polynomials(monkeypatch):
    # The benchmark's constituent sums, and one over 20 names whose
    # polynomial checks took about two minutes, are decided on point masks.
    cases = [([f"y{i:02d}" for i in range(n)], count) for n, count in ((4, 8), (5, 16), (6, 32), (6, 48), (20, 64))]
    sums = [parse(constituent_sum(names, count)) for names, count in cases]
    expected = [oracle_to_set_expression(term) for term in sums[:-1]]
    calls = []
    for module, name in ((boole.terms, "term_to_poly"), (boole.terms, "_product"), (boole.polynomial, "_product")):
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, function=function: calls.append(1) or function(*args))
    got = [to_set_expression(term) for term in sums]
    assert calls == []
    assert got[:-1] == expected
    text = str(got[-1])
    assert (text.count("∪"), text.count("′")) == (63, str(sums[-1]).count("(1 - "))


universes = st.integers(min_value=0, max_value=3)


@st.composite
def class_assignments(draw, names=("x", "y", "z")):
    universe = Universe(draw(universes))
    masks = st.integers(min_value=0, max_value=universe.mask)
    return ClassAssignment(universe, {name: draw(masks) for name in names})


@given(terms, class_assignments())
@example(NEG_INSIDE[0], ClassAssignment(Universe(1), {"x": 1, "y": 1}))
@example(NEG_INSIDE[2], ClassAssignment(Universe(1), {"x": 1, "y": 1}))
@example(NEG_INSIDE[3], ClassAssignment(Universe(2), {"x": 1, "y": 3}))
def test_partial_evaluation_matches_oracle(term, assignment):
    assert outcome(eval_partial, term, assignment) == outcome(oracle_eval_partial, term, assignment)


@given(terms, class_assignments(names=("x", "y")))
def test_partial_evaluation_of_unassigned_variables_matches_oracle(term, assignment):
    assert outcome(eval_partial, term, assignment) == outcome(oracle_eval_partial, term, assignment)


@given(terms, class_assignments())
def test_set_denotation_matches_partial_evaluation(term, assignment):
    try:
        expr = to_set_expression(term)
    except NotTotallyInterpretableError:
        return
    value = eval_partial(term, assignment)
    assert value == Defined(eval_set_expression(expr, assignment.masks, assignment.universe.mask))


# The free algebra's 0/1 points are the one-element assignments: a term is
# totally interpretable exactly when it is defined at each of them.


@given(terms)
@example(NEG_INSIDE[0])
@example(NEG_INSIDE[3])
def test_total_interpretability_is_definedness_at_every_point(term):
    names = term_variables(term)
    defined = all(
        isinstance(eval_partial(term, ClassAssignment(Universe(1), dict(zip(names, bits)))), Defined)
        for bits in itertools.product((0, 1), repeat=len(names))
    )
    assert is_totally_interpretable(term) == defined


multisets = st.integers(min_value=1, max_value=3).flatmap(
    lambda size: st.lists(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * size).map(Multiset),
        min_size=3,
        max_size=3,
    )
)


@given(terms, multisets, st.booleans())
def test_multiset_evaluation_matches_oracle(term, values, drop_z):
    assignment = dict(zip(("x", "y", "z"), values))
    if drop_z:
        del assignment["z"]
    size = values[0].size
    assert outcome(eval_multiset, term, assignment) == outcome(
        oracle_eval_multiset, term, assignment, size
    )


@given(terms)
def test_variables_match_oracle(term):
    assert term_variables(term) == oracle_term_variables(term)


def test_errors_for_what_is_not_a_node():
    for function in (term_to_poly, format_term, to_set_expression):
        with pytest.raises(TypeError, match="unexpected int: 5"):
            function(Add(X, 5))
    with pytest.raises(TypeError, match="unexpected int: 5"):
        format_set_expression(5)
    with pytest.raises(TypeError, match="unexpected Var: Var"):
        format_set_expression(X)
    with pytest.raises(TypeError, match=r"^unexpected SetVar: SetVar\(name='y'\)$"):
        term_to_poly(Add(X, SetVar("y")))
    with pytest.raises(TypeError, match="^unexpected int: 5$"):
        term_to_poly(5)
    # past the first undefined node, here x + x
    with pytest.raises(TypeError, match="^unexpected int: 5$"):
        eval_partial(Add(Add(X, X), 5), ClassAssignment(Universe(1), {"x": 1}))


# ----------------------------------------------------------------------
# Deep inputs, at the default recursion limit
#
# Terms are compared with ==, which, like every traversal, keeps its own
# stack.

NAMES = [f"x{i}" for i in range(20)]
# x0 - x0 + x1 - x1 + ...: every + joins disjoint classes and every -
# removes a contained one, so the sum is totally interpretable.
LONG_SUM = " ".join(
    ("" if i == 0 else "- " if i % 2 else "+ ") + NAMES[i // 2 % 20] for i in range(5000)
)
# 1 - (1 - (... (1 - x) ...)), 3000 parentheses deep
DEEP_NEST = "1 - (" * 3000 + "x" + ")" * 3000
LONG_PRODUCT = "*".join(NAMES[i % 20] for i in range(1500))
CLASSES = "U=2; " + "; ".join(f"{name}={{0}}" for name in NAMES + ["x"])
MULTISETS = "U=2; " + "; ".join(f"{name}=[1,2]" for name in NAMES + ["x"])


@pytest.fixture(autouse=True, scope="module")
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000


def deep_cases():
    universe = Universe(2)
    classes = ClassAssignment(universe, {name: 1 for name in NAMES + ["x"]})
    values = {name: Multiset((1, 2)) for name in NAMES + ["x"]}
    return universe, classes, values


def test_long_sum():
    universe, classes, values = deep_cases()
    term = parse(LONG_SUM)
    assert term_to_poly(term).terms == {}
    assert parse(format_term(term)) == term
    assert format_term(term, compact=True).count("-") == 2500
    expr = to_set_expression(term)
    assert str(expr).count("′") == 2500
    assert eval_set_expression(expr, classes.masks, universe.mask) == 0
    assert eval_partial(term, classes) == Defined(0)
    assert eval_multiset(term, values) == Multiset((0, 0))
    assert term_variables(term) == tuple(sorted(NAMES))


def test_deep_nesting():
    universe, classes, values = deep_cases()
    assert parse("(" * 3000 + "x" + ")" * 3000) == X
    term = parse(DEEP_NEST)
    assert term_to_poly(term).terms == {("x",): 1}
    assert parse(format_term(term)) == term
    expr = to_set_expression(term)
    assert str(expr) == "x" + "′" * 3000
    assert eval_set_expression(expr, classes.masks, universe.mask) == 1
    assert eval_partial(term, classes) == Defined(1)
    assert eval_multiset(term, values) == Multiset((1, 2))
    assert term_variables(term) == ("x",)


@pytest.mark.parametrize(
    "text", [DEEP_NEST, " + ".join(NAMES[i % 20] for i in range(20000))], ids=["nest", "sum"]
)
def test_deep_terms_copy_and_pickle(text):
    term = parse(text)
    assert copy.deepcopy(term) == term
    assert copy.copy(term) == term
    assert pickle.loads(pickle.dumps(term)) == term


def test_long_product():
    universe, classes, values = deep_cases()
    term = parse(LONG_PRODUCT)
    assert term_to_poly(term).terms == {tuple(sorted(NAMES)): 1}
    assert parse(format_term(term)) == term
    expr = to_set_expression(term)
    assert str(expr).count("∩") == 1499
    assert eval_set_expression(expr, classes.masks, universe.mask) == 1
    assert eval_partial(term, classes) == Defined(1)
    assert eval_multiset(term, values) == Multiset((1, 2**1500))
    assert term_variables(term) == tuple(sorted(NAMES))


# 200 summands, with a leading minus, powers and both signs
SIGNED_SUM = "-" + "".join(f"{i % 9 + 1}*{NAMES[i % 20]}^{i % 3 + 1} {'+-'[i % 2]} " for i in range(199)) + "7"


def spine(depth):
    """d0 + (d1 * (d2 - (d3 + (d4 * ...)))), `depth` parentheses deep: each
    product has a one-term factor."""
    return "".join(f"d{i} {'+*-'[i % 3]} (" for i in range(depth)) + f"d{depth}" + ")" * depth


SPINE_50, SPINE = spine(50), spine(300)


@pytest.mark.parametrize("text", [SIGNED_SUM, SPINE_50], ids=["sum", "nest"])
def test_text_compiles_without_a_tree(monkeypatch, text):
    expected = term_to_poly(parse(text))

    def no_tree(*args):
        raise AssertionError("poly built a tree")

    for kind in (Var, IntLit, Pow, boole.terms._Nullary, boole.terms._Unary, boole.terms._Binary):
        monkeypatch.setattr(kind, "__init__", no_tree)
    monkeypatch.setattr(boole.terms, "_postorder", no_tree)
    assert poly(text) == expected
    with pytest.raises(AssertionError, match="poly built a tree"):
        parse(text)


# 120 summands, each a run of one to four factors: a coefficient (0
# among them) and names, some repeated, with both signs
ONE_TERM_SUM = "-" + "".join(
    "*".join([str(i % 7), NAMES[i % 20], NAMES[i % 3], NAMES[i % 20]][: 1 + i % 4]) + f" {'+-'[i % 2]} " for i in range(120)
) + "x0"


def test_one_term_products_compile_without_the_product_kernel(monkeypatch):
    # A run of factors is a coefficient and a mask, and so is its power
    # when the coefficient is -1, 0 or 1: the kernel's product runs only
    # where a * meets two tables, and its power only on a table or on a
    # run with another coefficient.
    expected = [oracle_term_to_poly(parse(text)) for text in (ONE_TERM_SUM, SIGNED_SUM)]
    multiply, power, calls, powers = boole.terms._product, boole.terms._power, [], []
    monkeypatch.setattr(boole.terms, "_product", lambda p, q: calls.append(1) or multiply(p, q))
    monkeypatch.setattr(boole.terms, "_power", lambda table, k: powers.append(1) or power(table, k))
    assert poly(ONE_TERM_SUM) == expected[0]
    assert term_to_poly(parse(ONE_TERM_SUM)) == expected[0]
    assert poly(SIGNED_SUM) == expected[1]
    assert calls == powers == []
    assert poly("(x + y)*(x - z)") == oracle_term_to_poly(parse("(x + y)*(x - z)"))
    assert len(calls) == 1
    assert poly("(x + y)^2") == oracle_term_to_poly(parse("(x + y)^2"))
    assert len(powers) == 1


def test_one_term_powers_with_a_coefficient_past_one_reach_the_power_kernel(monkeypatch):
    power, powers = boole.terms._power, []
    monkeypatch.setattr(boole.terms, "_power", lambda table, k: powers.append(k) or power(table, k))
    assert poly("(3*x*y)^5") == oracle_term_to_poly(parse("(3*x*y)^5"))
    assert powers == [5]
    powers.clear()
    text = "x^7 + (-x*y)^4 + (0*x)^9"
    assert poly(text) == term_to_poly(parse(text)) == oracle_term_to_poly(parse(text))
    assert powers == []


def test_nested_sums_compile_without_the_product_kernel(monkeypatch):
    # In d0 + (d1 * (d2 - ...)) every product has a one-term factor, whose
    # coefficient and mask a + or - above it defers instead of multiplying
    # into the table: the kernel's product never runs.
    expected = oracle_term_to_poly(parse(SPINE))

    def no_product(p, q):
        raise AssertionError("the product kernel ran")

    monkeypatch.setattr(boole.terms, "_product", no_product)
    assert poly(SPINE) == expected
    assert term_to_poly(parse(SPINE)) == expected


@pytest.mark.parametrize("text", [LONG_SUM, DEEP_NEST, LONG_PRODUCT], ids=["sum", "nest", "product"])
@pytest.mark.parametrize(
    "command",
    [["normalize"], ["setexpr"], ["eval", "--classes", CLASSES], ["eval", "--multisets", MULTISETS]],
    ids=["normalize", "setexpr", "eval-classes", "eval-multisets"],
)
def test_deep_inputs_on_the_command_line(capsys, command, text):
    code = main([*command, text])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.endswith("\n")


# ----------------------------------------------------------------------
# Wide inputs whose cost depends on what the fold multiplies or copies

# Multiplied out, this product of 30 complements has 2^30 monomials.
WIDE_PRODUCT = "*".join(f"(1 - y{i})" for i in range(30))
# y0 + (y1 + (y2 + ...)) and y0 - (y1 - (y2 - ...)), nested to the right
RIGHT_SUM = " + (".join(f"y{i}" for i in range(20000)) + ")" * 19999
RIGHT_DIFFERENCE = RIGHT_SUM.replace("+", "-")


def test_wide_product_is_not_multiplied_out(capsys, monkeypatch):
    multiply = Polynomial.__mul__

    def small_product(p, q):
        product = multiply(p, q)
        assert len(product.terms) <= 4, "a product was multiplied out"
        return product

    monkeypatch.setattr(Polynomial, "__mul__", small_product)
    start = time.perf_counter()
    assert str(to_set_expression(parse(WIDE_PRODUCT))).count("′") == 30
    assert main(["setexpr", WIDE_PRODUCT]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.count("′") == 30


def test_right_nested_sum_compiles_without_copying_each_level():
    start = time.perf_counter()
    assert len(term_to_poly(parse(RIGHT_SUM)).terms) == 20000
    assert time.perf_counter() - start < 5


def test_right_nested_difference_compiles_without_negating_each_level():
    start = time.perf_counter()
    table = term_to_poly(parse(RIGHT_DIFFERENCE)).terms
    assert [table[(f"y{i}",)] for i in range(20000)] == [1, -1] * 10000
    assert time.perf_counter() - start < 5


def test_nested_sums_compile_in_linear_time():
    # A 12,000-level spine is about 120 KB of text.  Multiplying each
    # pending factor out at the + or - above it took 16-19 s for each
    # call.  Its 8001 monomials are never turned into name tuples here.
    text = spine(12000)
    start = time.perf_counter()
    compiled = poly(text)
    assert term_to_poly(parse(text)) == compiled
    assert time.perf_counter() - start < 5
    assert len(compiled._table) == 8001
    assert set(compiled._table.values()) == {1, -1}


def test_deferred_factors_of_a_long_sum_compile_in_linear_time():
    # y0*(a + b) + y1*(a + b) + ...: 20,000 summands, each a pending factor
    # over a table, deferred one by one into the same sum.  The names
    # repeat every 100 summands, so that masks stay small.
    text = " + ".join(f"y{i % 100}*(a + b)" for i in range(20000))
    expected = Polynomial({(f"y{i}", name): 200 for i in range(100) for name in "ab"})
    start = time.perf_counter()
    assert poly(text) == expected
    assert term_to_poly(parse(text)) == expected
    assert time.perf_counter() - start < 5


def test_products_with_a_one_term_factor_are_sorted_once(monkeypatch):
    term = parse(SPINE)
    expected = oracle_term_to_poly(term).terms
    sorts = []
    ordered = boole.polynomial._ordered
    monkeypatch.setattr(boole.polynomial, "_ordered", lambda p: sorts.append(1) or ordered(p))
    compiled = term_to_poly(term)
    assert sorts == []
    assert compiled.terms == expected
    assert len(sorts) == 1
