"""The hand-built records against the dataclasses they replaced.

Every record class is compared with its oracle in ``conftest``: the same
construction by position, keyword and default, the same validation
errors, the same ``==``, equal hashes for equal values, the same repr,
and no assignment or deletion.  Term and set-expression nodes also
compare, hash and print at any depth.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given

import boole
from boole import ONE, ZERO, Polynomial, parse
from boole import terms as terms_module

from conftest import ORACLE_RECORDS, oracle_record, terms

NEW = SimpleNamespace(**{name: getattr(terms_module, name, None) or getattr(boole, name) for name in ORACLE_RECORDS})
OLD = SimpleNamespace(**ORACLE_RECORDS)
X = Polynomial.variable("x")

# Each case builds a record from one namespace of classes, so that the
# same recipe gives a new record and its oracle.
CASES = [
    lambda R: R.Var("x"),
    lambda R: R.Var(name="y"),
    lambda R: R.Zero(),
    lambda R: R.One(),
    lambda R: R.IntLit(2),
    lambda R: R.IntLit(value=0),
    lambda R: R.Add(R.Var("x"), R.One()),
    lambda R: R.Add(left=R.Var("x"), right=R.One()),
    lambda R: R.Sub(R.Var("x"), R.One()),
    lambda R: R.Mul(R.IntLit(3), R.Neg(R.Var("x"))),
    lambda R: R.Neg(operand=R.Zero()),
    lambda R: R.Pow(R.Var("x"), 3),
    lambda R: R.Pow(base=R.Var("x"), exponent=2),
    lambda R: R.Add(R.Var("x"), 5),
    lambda R: R.SetVar("x"),
    lambda R: R.SetVar(name="1 not checked"),
    lambda R: R.SetUniverse(),
    lambda R: R.SetEmpty(),
    lambda R: R.SetUnion(R.SetVar("x"), R.SetEmpty()),
    lambda R: R.SetIntersection(left=R.SetVar("x"), right=R.SetComplement(R.SetVar("y"))),
    lambda R: R.SetComplement(R.SetUniverse()),
    lambda R: R.Universe(3),
    lambda R: R.Universe(size=0),
    lambda R: R.ClassAssignment(R.Universe(2), {"y": {1}, "x": 1}),
    lambda R: R.ClassAssignment(universe=R.Universe(2), masks={}),
    lambda R: R.Defined(3),
    lambda R: R.Defined(subset=0),
    lambda R: R.Undefined(R.Neg(R.Var("x")), "-x uses unary minus"),
    lambda R: R.Undefined(term=R.IntLit(2), reason="2 is not a class"),
    lambda R: R.Multiset((1, -2)),
    lambda R: R.Multiset(values=[True, 3]),
    lambda R: R.HornSentence((X,), ZERO),
    lambda R: R.HornSentence(antecedents=[X, ONE], consequent=X),
    lambda R: R.Verdict(True),
    lambda R: R.Verdict(holds=True),
    lambda R: R.Verdict(False, {"x": 1}, (0,), 2),
    lambda R: R.Verdict(False, witness={"x": 1}, consequent_value=2),
    lambda R: R.DevelopmentTable(("x",), {"0": ZERO, "1": ONE}),
    lambda R: R.DevelopmentTable(variables=[], coefficients={"": X}),
    lambda R: R.Solution("y", ZERO, X, ONE, "v"),
    lambda R: R.Solution("y", ZERO, X, ONE, "v", vacuous=True),
    lambda R: R.Solution(unknown="y", condition=ZERO, particular=X, freedom=ONE, parameter="v"),
]

INVALID = [
    lambda R: R.Var("1x"),
    lambda R: R.Var(name=""),
    lambda R: R.IntLit(-1),
    lambda R: R.IntLit(value="2"),
    lambda R: R.Pow(R.Var("x"), 0),
    lambda R: R.Pow(R.Var("x"), exponent=1.5),
    lambda R: R.Universe(17),
    lambda R: R.Universe(size=-1),
    lambda R: R.ClassAssignment(R.Universe(2), {"x": {2}}),
    lambda R: R.ClassAssignment(R.Universe(1), {"x": 2}),
    lambda R: R.Multiset(("a",)),
    lambda R: R.DevelopmentTable(("y", "x"), {}),
    lambda R: R.DevelopmentTable(("x",), {"0": ZERO}),
    lambda R: R.DevelopmentTable(("x",), {"0": ZERO, "1": ZERO, "2": ZERO}),
]

# Wrong calls: the messages differ from the generated __init__'s, the
# exception type does not.
MISCALLED = [
    lambda R: R.Var(),
    lambda R: R.Zero(1),
    lambda R: R.Add(R.Zero()),
    lambda R: R.Neg(R.Zero(), R.Zero()),
    lambda R: R.Pow(base=R.One()),
    lambda R: R.Universe(),
    lambda R: R.Universe(1, 2),
    lambda R: R.Universe(1, size=2),
    lambda R: R.Universe(width=2),
    lambda R: R.Verdict(),
    lambda R: R.Solution("y", ZERO, X, ONE),
]


def outcome(function, *args):
    try:
        return "ok", function(*args)
    except Exception as error:  # compared between the two sides
        return type(error), str(error)


def hash_outcome(record):
    try:
        return "ok", hash(record)
    except TypeError as error:
        return TypeError, str(error)


def test_every_record_has_an_oracle_and_no_dataclass():
    assert len(ORACLE_RECORDS) == 24
    for name in ORACLE_RECORDS:
        cls = getattr(NEW, name)
        assert cls.__name__ == name and not hasattr(cls, "__dataclass_fields__")
        assert cls._fields == ORACLE_RECORDS[name].__match_args__ == cls.__match_args__


@pytest.mark.parametrize("case", range(len(CASES)))
def test_construction_and_repr_match_the_oracle(case):
    new, old = CASES[case](NEW), CASES[case](OLD)
    assert repr(new) == repr(old).replace("oracle_", "")
    assert repr(oracle_record(new)) == repr(old)
    assert new == CASES[case](NEW) and not new != CASES[case](NEW) and copy.copy(new) == new
    new_hash, old_hash = hash_outcome(new), hash_outcome(old)
    assert new_hash[0] == old_hash[0]
    if new_hash[0] == "ok":
        assert hash(new) == hash(CASES[case](NEW)) and pickle.loads(pickle.dumps(new)) == new


@pytest.mark.parametrize("case", range(len(CASES)))
def test_copies_and_pickles_are_equal(case):
    record = CASES[case](NEW)
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_equality_matches_the_oracle_between_every_pair():
    new = [case(NEW) for case in CASES]
    old = [case(OLD) for case in CASES]
    for i in range(len(CASES)):
        for j in range(len(CASES)):
            assert (new[i] == new[j], new[i] != new[j]) == (old[i] == old[j], old[i] != old[j]), (i, j)
    assert NEW.Var("x") != "x" and NEW.Universe(1) != 1 and NEW.Add(1, 2) != (1, 2)


def test_a_value_in_a_subtree_place_stays_a_value():
    # A tuple that looks like a node's entry in the flat form is a value,
    # not the node: it compares unequal to the node, and copies and
    # pickles keep it.
    value, node = NEW.Add(NEW.Var("x"), (NEW.Zero,)), NEW.Add(NEW.Var("x"), NEW.Zero())
    assert value != node and not value == node
    for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and twin.right == (NEW.Zero,)


@pytest.mark.parametrize("case", range(len(INVALID)))
def test_validation_errors_match_the_oracle(case):
    new = outcome(INVALID[case], NEW)
    assert new[0] != "ok" and new == outcome(INVALID[case], OLD)


@pytest.mark.parametrize("case", range(len(MISCALLED)))
def test_wrong_calls_raise_type_errors(case):
    assert outcome(MISCALLED[case], NEW)[0] is TypeError
    assert outcome(MISCALLED[case], OLD)[0] is TypeError


@pytest.mark.parametrize("case", range(len(CASES)))
def test_records_are_frozen(case):
    record = CASES[case](NEW)
    before = repr(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == before


@given(terms, terms)
def test_term_repr_equality_and_hash_match_the_oracle(a, b):
    assert repr(a) == repr(oracle_record(a)).replace("oracle_", "")
    twin = eval(repr(a), vars(terms_module))
    assert twin == a and hash(twin) == hash(a)
    assert (a == b, a != b) == (oracle_record(a) == oracle_record(b), oracle_record(a) != oracle_record(b))
    assert hash(a) == hash(b) or a != b


# ----------------------------------------------------------------------
# Deep trees, at the default recursion limit

NAMES = [f"x{i}" for i in range(20)]
LONG_SUM = " + ".join(NAMES[i % 20] for i in range(5000))
DEEP_NEST = "1 - (" * 3000 + "x" + ")" * 3000


@pytest.mark.parametrize("text", [LONG_SUM, DEEP_NEST], ids=["sum", "nest"])
def test_deep_terms_compare_hash_and_print(text):
    assert sys.getrecursionlimit() <= 1000
    term, again = parse(text), parse(text)
    assert term == again and not term != again and hash(term) == hash(again)
    for changed in (text.replace("x", "y", 1), text[::-1].replace("x", "y", 1)[::-1]):
        assert term != parse(changed) and not term == parse(changed)
    shown = repr(term)
    assert shown.startswith(("Add(left=Add(left=", "Sub(left=One(), right=Sub("))
    assert shown.count("Var(name='x") == text.count("x")


def test_deep_set_expressions_compare_hash_and_print():
    expr, again = (boole.to_set_expression(parse(DEEP_NEST)) for _ in range(2))
    assert expr == again and hash(expr) == hash(again)
    assert repr(expr) == "SetComplement(operand=" * 3000 + "SetVar(name='x')" + ")" * 3000


# ----------------------------------------------------------------------
# Start-up

STARTUP = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import boole, boole.cli
print(sorted({"dataclasses", "inspect", "json", "string"} & (set(sys.modules) - before)))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(boole.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-I", "-c", STARTUP, src], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout == "[]\n"
