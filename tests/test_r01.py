import random
import sys
import time
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings

import boole.development
import boole.polynomial
import boole.terms
from boole import Polynomial, variables
from boole.development import develop, equal_by_development, first_difference, least_point
from boole.models import Universe, chi, eval_multiset, holds_in_idempotents
from boole.polynomial import ONE, ZERO, VariableLimitError, check_variable_limit
from boole.r01 import HornSentence, check_equation, check_r01, parse_horn
from boole.terms import ParseError, poly, to_term
from conftest import horn_sentences, oracle_check_r01, random_polynomial

x, y, z = variables("x, y, z")


# ----------------------------------------------------------------------
# Parsing Horn lines


def test_parse_horn_quasi_equation():
    sentence = parse_horn("x+y=z -> x*y*z=0")
    assert sentence.antecedents == (x + y - z,)
    assert sentence.consequent == x * y * z
    assert sentence.variables == ("x", "y", "z")


def test_parse_horn_multiple_antecedents():
    sentence = parse_horn("x=y & y=z -> x=z")
    assert sentence.antecedents == (x - y, y - z)
    assert sentence.consequent == x - z


def test_parse_horn_bare_equation():
    sentence = parse_horn("x*(x + y - x*y) = x")
    assert sentence.antecedents == ()
    assert sentence.consequent == Polynomial.zero()


def test_parse_horn_errors():
    # offsets count from the start of the whole sentence
    cases = [
        ("x + y", 0),
        ("x=y -> y=z -> x=z", 11),
        ("x = y = z", 6),
        ("x = y & y = z -> x = q +", 24),
        ("x = y & y -> x = z", 7),
        ("x = y & y = z = x -> x = z", 14),
        ("x = y -> y", 8),
        ("x = $", 4),
        ("x + = y", 4),
        ("x = y & (y = z -> x = z", 11),
        # a bad leading "_" in a second side, after a name with one inside
        ("x_ = _y", 5),
        ("x = y & x_ = _y -> x = z", 13),
    ]
    for text, offset in cases:
        with pytest.raises(ParseError) as excinfo:
            parse_horn(text)
        assert excinfo.value.position == offset, text


# (x0+...+x15)^16 multiplied out has 2^16 monomials.  The stray ")" is in
# a later side, or in a later equation, than that power.
COSTLY = "(" + "+".join(f"x{i}" for i in range(16)) + ")^16"


@pytest.mark.parametrize(
    "sentence",
    [f"{COSTLY} = 1 -> x0 = )", f"{COSTLY} = 0 & x0 = ) -> x1 = 0"],
    ids=["later-side", "later-equation"],
)
def test_sentence_is_read_whole_before_it_compiles(monkeypatch, sentence):
    expected = ("expected a number, a variable or '('", sentence.rindex(")"))
    start = time.perf_counter()
    with pytest.raises(ParseError) as excinfo:
        parse_horn(sentence)
    assert time.perf_counter() - start < 0.05
    assert (excinfo.value.message, excinfo.value.position) == expected

    def no_compile(code):
        raise AssertionError("compiled before the whole sentence was read")

    original = boole.terms._compile
    for name, module in list(sys.modules.items()):
        if (name == "boole" or name.startswith("boole.")) and vars(module).get("_compile") is original:
            monkeypatch.setattr(module, "_compile", no_compile)
    with pytest.raises(ParseError) as excinfo:
        parse_horn(sentence)
    assert (excinfo.value.message, excinfo.value.position) == expected


# ----------------------------------------------------------------------
# The checker


def test_fermat_style_quasi_equation_holds():
    assert check_r01(parse_horn("x+y=z -> x*y*z=0")).holds


def test_square_condition_forces_disjointness():
    assert check_r01(parse_horn("(x+y)*(x+y)=x+y -> x*y=0")).holds


def test_failing_equation_has_least_witness():
    verdict = check_r01(parse_horn("x+y = x+y-x*y"))
    assert not verdict.holds
    assert dict(verdict.witness) == {"x": 1, "y": 1}
    assert verdict.antecedent_values == ()
    assert verdict.consequent_value == 1
    assert bool(verdict) is False


def test_witness_is_lexicographically_least():
    # x - y = 0 fails at 01 and 10; 01 must be reported
    verdict = check_equation(x - y)
    assert dict(verdict.witness) == {"x": 0, "y": 1}
    assert verdict.consequent_value == -1


@pytest.mark.parametrize("count", [18, 19])
def test_witness_fixed_by_a_split_keeps_its_leading_zeros(count):
    # Past 17 names the search splits on x00 (and x01) before it scans,
    # so x00 = 0 is fixed by a split, not by the scan.
    names = tuple(f"x{i:02d}" for i in range(count))
    first, second, *middle, last = (Polynomial.variable(name) for name in names)
    sentence = HornSentence((sum(middle, ZERO), last - 1), second - first * second)
    sigma = "01" + "0" * (count - 3) + "1"
    assert least_point(sentence.consequent, sentence.antecedents, names) == (sigma, 1)
    verdict = check_r01(sentence)
    assert "".join(str(verdict.witness[name]) for name in names) == sigma


def test_check_equation_examples():
    assert check_equation(poly("x*(x + y - x*y)") - x).holds
    assert check_equation(x * x - x).holds
    verdict = check_equation(x + y - x * y - 1)
    assert not verdict.holds
    assert dict(verdict.witness) == {"x": 0, "y": 0}
    assert verdict.consequent_value == -1


def test_witness_satisfies_antecedents():
    sentence = parse_horn("x*y=0 -> x+y=1")
    verdict = check_r01(sentence)
    assert not verdict.holds
    env = dict(verdict.witness)
    assert all(p.evaluate(env) == 0 for p in sentence.antecedents)
    assert sentence.consequent.evaluate(env) != 0
    assert verdict.antecedent_values == (0,)
    assert env == {"x": 0, "y": 0}


def test_forced_names_between_free_ones_keep_their_places():
    # x01*x03 = 1 forces x01 and x03 to 1, and x02 = 0 forces x02 to 0;
    # the consequent is then 3*x04 + x00, least nonzero at x00 = 0, x04 = 1.
    sentence = parse_horn("x01*x03 = 1 & x02 = 0 -> 3*x04 + x00*x01 = x02")
    names = sentence.variables
    assert least_point(sentence.consequent, sentence.antecedents, names) == ("01011", 3)
    verdict = check_r01(sentence)
    assert dict(verdict.witness) == {"x00": 0, "x01": 1, "x02": 0, "x03": 1, "x04": 1}
    assert list(verdict.witness) == list(names)
    assert (verdict.antecedent_values, verdict.consequent_value) == ((0, 0), 3)
    assert verdict == oracle_check_r01(sentence)


def test_names_forced_below_a_split_keep_their_places():
    # Nothing is forced over all 19 names.  The split x00 = 0 leaves the
    # consequent 0; below x00 = 1 the first antecedent forces x09 to 1, and
    # the other 17 names are scanned.
    names = tuple(f"x{i:02d}" for i in range(19))
    others = "*".join(name for name in names[1:] if name != "x09")
    sentence = parse_horn(f"x00*(1 - x09) = 0 & {others} = 0 -> 3*x00*x09*(1 + x18) = 0")
    sigma = "1" + "0" * 8 + "1" + "0" * 9
    assert least_point(sentence.consequent, sentence.antecedents, names) == (sigma, 3)
    assert check_r01(sentence) == oracle_check_r01(sentence)


def test_unsatisfiable_antecedent_holds_vacuously():
    assert check_r01(parse_horn("1=0 -> x=1")).holds
    assert check_r01(parse_horn("x=1 & x=0 -> 1=0")).holds


def test_variable_free_sentences():
    assert check_equation(Polynomial.zero()).holds
    verdict = check_equation(Polynomial.constant(3))
    assert not verdict.holds and dict(verdict.witness) == {}


def test_torsion_freeness_as_quasi_equations():
    for n in range(1, 6):
        assert check_r01(parse_horn(f"{n}*x = 0 -> x = 0")).holds


def test_cap_and_override():
    names = tuple(f"x{i:02d}" for i in range(21))
    p = Polynomial({names: 1})
    with pytest.raises(VariableLimitError):
        check_equation(p)
    small = Polynomial({("a", "b"): 1})
    with pytest.raises(VariableLimitError):
        check_equation(small, max_vars=1)
    assert not check_equation(small, max_vars=2).holds


@pytest.mark.parametrize("limit", [-1, -20])
def test_a_negative_cap_is_refused(limit):
    x = Polynomial.variable("x")
    for call in (
        lambda: check_variable_limit(0, limit),
        lambda: check_equation(x - x, max_vars=limit),
        lambda: develop(ONE, max_vars=limit),
    ):
        with pytest.raises(ValueError, match=f"the variable limit must be nonnegative, got {limit}"):
            call()


# ----------------------------------------------------------------------
# Agreement with the signed-multiset models (desk-scale Theorem check)


def sentence_holds_over_characteristic_functions(sentence, universe):
    """Independent oracle: quantify the variables over all characteristic
    functions on the universe and evaluate pointwise."""
    names = sentence.variables
    antecedents = [to_term(p) for p in sentence.antecedents]
    consequent = to_term(sentence.consequent)
    for masks in product(universe.subsets(), repeat=len(names)):
        env = {name: chi(mask, universe) for name, mask in zip(names, masks)}
        if not all(
            eval_multiset(t, env, universe=universe).is_zero() for t in antecedents
        ):
            continue
        if not eval_multiset(consequent, env, universe=universe).is_zero():
            return False
    return True


def test_agreement_with_idempotents_of_the_multiset_ring():
    rng = random.Random(43)
    names = ("x", "y", "z")
    universe = Universe(2)
    for _ in range(40):
        antecedents = tuple(
            random_polynomial(rng, names=names, max_terms=3)
            for _ in range(rng.randint(0, 2))
        )
        consequent = random_polynomial(rng, names=names, max_terms=3)
        sentence = HornSentence(antecedents, consequent)
        assert check_r01(sentence).holds == sentence_holds_over_characteristic_functions(
            sentence, universe
        )


def test_twenty_variables_complete():
    # x00 = 0 leaves the zero polynomial, so the search drops that half at
    # once and finds the witness in the other
    names = tuple(f"x{i:02d}" for i in range(20))
    p = Polynomial({names: 1, names[:1]: -1})
    verdict = check_equation(p)
    assert not verdict.holds
    # everything below x00=1, rest 0 satisfies the equation
    expected = {name: 0 for name in names}
    expected[names[0]] = 1
    assert dict(verdict.witness) == expected


# ----------------------------------------------------------------------
# The search against the exhaustive sweep

TWENTY = tuple(f"x{i:02d}" for i in range(20))
DEMO = "*".join(TWENTY) + " = 1 -> " + " + ".join(TWENTY) + " = 20"
# Nothing can be dropped above the scanning size: the antecedent is a
# nonzero constant only once every variable is fixed, and the consequent
# is a square that never vanishes on a whole subcube.
SQUARED = " + ".join(TWENTY) + " = 10 -> (" + " + ".join(TWENTY) + " - 10)^2 = 0"


@settings(deadline=None, max_examples=100)
@given(horn_sentences())
@example(parse_horn(DEMO))
# A scan looks for 0 < |P| <= B, for P = (2B+1)*(sum of squares) + c and B
# the sum of |c|'s coefficients.  The witness value 7 here is B itself:
@example(parse_horn("x = y & y = 1 -> 3*x + 4*y = 0"))
# at x = 0, y = 1 the antecedent fails and c = -B, so P = B + 1:
@example(parse_horn("x = 1 -> 0 = y + 1"))
# coefficients of about 10**40:
@example(parse_horn("x + y = 1 -> 10^40*x = 10^40*y + 1"))
@example(parse_horn("x = y -> 10^40*x*y = 10^40*x"))
# squares that share monomials, and constant antecedents:
@example(parse_horn("x - y = 0 & y - x = 0 -> x*y = x"))
@example(parse_horn("x - y = 0 & y - x = 0 -> x = 0"))
@example(parse_horn("1 = 2 -> x = 0"))
@example(parse_horn("0 = 0 -> x = 0"))
# forcing: a chain through x = y, both bits forced, and c*x = c
@example(parse_horn("y*z = 1 & x = y & w = 0 -> x + w*z = z"))
@example(parse_horn("y*z = 1 & x = y & w = 0 -> x + w = 2*z"))
@example(parse_horn("x = 2 -> y = 0"))
@example(parse_horn("x*y = 1 & y = 0 -> z = 1"))
@example(parse_horn("3*y = 3 -> x*y = x + z"))
# chains a*(1 - b) = 0 & ...: nothing is forced until a split fixes a
@example(parse_horn("a*(1 - b) = 0 & b*(1 - c) = 0 & c*(1 - d) = 0 -> a*d = a"))
@example(parse_horn("a*(1 - b) = 0 & b*(1 - c) = 0 & c*(1 - d) = 0 -> a*d = 0"))
@example(parse_horn("a*(1 - b) = 0 & b*(1 - c) = 0 & c*(1 - d) = 0 -> b*(1 - d) + a = 0"))
def test_check_r01_matches_sweep(sentence):
    want = oracle_check_r01(sentence)
    verdict = check_r01(sentence)
    # scanning at most half the names splits every sentence before it scans
    with mock.patch.object(boole.development, "_SCAN_NAMES", len(sentence.variables) // 2):
        assert check_r01(sentence) == verdict
    assert verdict == want
    if not verdict.holds:
        assert list(verdict.witness) == list(want.witness)


def transforms_of(monkeypatch):
    # The length of every vector _transform is handed, in call order.
    sizes = []
    original = boole.polynomial._transform

    def spy(vector, op):
        sizes.append(len(vector))
        return original(vector, op)

    monkeypatch.setattr(boole.polynomial, "_transform", spy)
    monkeypatch.setattr(boole.development, "_transform", spy)
    return sizes


def test_search_scans_at_most_ten_names(monkeypatch):
    scanned = transforms_of(monkeypatch)
    assert check_r01(parse_horn(SQUARED)).holds
    assert scanned and max(scanned) == 2**10


def test_forced_names_need_no_transform(monkeypatch):
    # The demo's antecedent forces all 20 names to 1, where the consequent
    # is 0.  The mirror leaves x00..x09 free and forces the last ten, and
    # the consequent is the zero polynomial once they are 1.
    free, last = " + ".join(TWENTY[:10]), "*".join(TWENTY[10:])
    mirror = f"{last} = 1 -> ({free})*{last} = {free}"
    transforms = transforms_of(monkeypatch)
    assert check_r01(parse_horn(DEMO)).holds
    assert check_r01(parse_horn(mirror)).holds
    assert transforms == []


def chain(count, consequent):
    # x00*(1 - x01) = 0 & ... & x{n-2}*(1 - x{n-1}) = 0 -> x00*x{n-1} = consequent
    names = [f"x{i:02d}" for i in range(count)]
    links = " & ".join(f"{a}*(1 - {b}) = 0" for a, b in zip(names, names[1:]))
    return parse_horn(f"{links} -> {names[0]}*{names[-1]} = {consequent}")


def test_names_forced_after_a_split_need_no_transform(monkeypatch):
    # A chain forces nothing over all its names.  The split x00 = 0 makes
    # the consequent 0; x00 = 1 forces x01, which forces x02, and so on.
    transforms = transforms_of(monkeypatch)
    assert check_r01(chain(20, "x00")).holds
    verdict = check_r01(chain(20, "0"))
    assert dict(verdict.witness) == dict.fromkeys(TWENTY, 1)
    assert verdict.consequent_value == 1
    assert transforms == []


def test_scan_cost_does_not_depend_on_name_order(monkeypatch):
    # Nothing is pruned at 17 variables or fewer, and a scan evaluates the
    # sentence, folded into one polynomial, on every piece, so two
    # sentences of one shape make the same transforms wherever their
    # variables fall in name order.  Forced names are fixed before any
    # split, so three of them first, in the middle or last among 20 names
    # leave the same 17-name scan.
    sizes = transforms_of(monkeypatch)
    counts = []
    cases = [(("x00", "x01"), ()), (("x15", "x16"), ())]
    cases += [(pair, forced) for pair in (("x03", "x04"), ("x18", "x19")) for forced in (TWENTY[:3], TWENTY[8:11])]
    cases += [(("x00", "x01"), TWENTY[17:])]
    for (a, b), forced in cases:
        sizes.clear()
        free = [name for name in TWENTY if name not in forced][:17]
        rest = " + ".join(name for name in free if name not in (a, b))
        force = f"{'*'.join(forced)} = 1 & " if forced else ""
        tail = f"*{forced[0]}" if forced else ""
        assert check_r01(parse_horn(f"{force}{a} = {b} -> {a}*({rest}){tail} = {b}*({rest})")).holds
        counts.append(sizes.count(2**10))
    assert counts == [2**7] * len(cases)


# ----------------------------------------------------------------------
# Equations: a walk down the names, no scan


def test_equations_run_no_transform(monkeypatch):
    square = poly(f"({' + '.join(TWENTY[:17])} - 8)^2")
    last = Polynomial({TWENTY: 1})
    transforms = transforms_of(monkeypatch)
    assert check_equation(poly("x*(x + y - x*y) - x")).holds
    assert check_equation(square - square).holds
    assert dict(check_equation(square).witness) == dict.fromkeys(TWENTY[:17], 0)
    assert check_equation(last).consequent_value == 1
    assert first_difference(square, square + last) == "1" * 20
    assert equal_by_development(square, square)
    assert holds_in_idempotents(last - last, Universe(1)) is True
    counter = holds_in_idempotents(last, Universe(1))
    assert dict(counter.masks) == dict.fromkeys(TWENTY, 1)
    assert transforms == []


def test_equation_failing_only_at_the_last_point_is_quick():
    # p is nonzero only where all 20 variables are 1, the last of 2**20
    # points in sigma order
    start = time.perf_counter()
    verdict = check_equation(Polynomial({TWENTY: 3}))
    assert time.perf_counter() - start < 1.0
    assert dict(verdict.witness) == dict.fromkeys(TWENTY, 1)
    assert verdict.consequent_value == 3
