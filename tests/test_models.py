import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boole import Polynomial, variables
from boole.models import (
    ClassAssignment,
    Defined,
    Multiset,
    Undefined,
    Universe,
    chi,
    elements_of,
    eval_multiset,
    eval_partial,
    holds_in_idempotents,
    mask_of,
)
from boole.polynomial import MAX_POWER_BITS, VariableLimitError
from boole.terms import parse, term_to_poly, term_variables
from conftest import coefficients, oracle_holds_in_idempotents, random_term

x, y = variables("x, y")

U2 = Universe(2)
U3 = Universe(3)


# ----------------------------------------------------------------------
# Universes, assignments, masks


def test_universe_bounds():
    assert Universe(0).mask == 0
    assert Universe(16).mask == 0xFFFF
    with pytest.raises(ValueError):
        Universe(17)
    with pytest.raises(ValueError):
        Universe(-1)


def test_universe_stores_its_size_as_an_int():
    assert repr(Universe(True)) == "Universe(size=1)" and Universe(True) == Universe(1)
    with pytest.raises(TypeError):
        Universe(2.5)


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert elements_of(0b101) == (0, 2)
    assert elements_of(0) == ()


def test_negative_elements_are_outside_the_universe():
    with pytest.raises(ValueError, match="element -1 is outside the universe"):
        mask_of([0, -1])
    with pytest.raises(ValueError, match="element -1 is outside the universe"):
        ClassAssignment(U2, {"x": [-1]})


def test_huge_elements_are_rejected_before_shifting():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="assignment for 'x' is not a subset"):
            ClassAssignment(U2, {"x": [10**9]})
        with pytest.raises(ValueError, match="subset is not contained in the universe"):
            chi([0, 10**9], U2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_class_assignment():
    a = ClassAssignment(U2, {"x": [0], "y": 0b11})
    assert a.mask("x") == 0b01 and a.subset("y") == {0, 1}
    assert str(a) == "U=2; x={0}; y={0, 1}"
    assert list(a.items()) == [("x", 0b01), ("y", 0b11)]
    with pytest.raises(ValueError):
        ClassAssignment(U2, {"x": [5]})
    with pytest.raises(KeyError):
        a.mask("q")


# ----------------------------------------------------------------------
# Partial class semantics


def test_disjoint_union_is_defined():
    a = ClassAssignment(U2, {"x": [0], "y": [1]})
    assert eval_partial(parse("x + y"), a) == Defined(0b11)


def test_overlapping_union_is_undefined():
    a = ClassAssignment(U2, {"x": [0], "y": [0]})
    result = eval_partial(parse("x + y"), a)
    assert isinstance(result, Undefined)
    assert result.term == parse("x + y")
    assert result.reason == "x+y requires x∩y=∅"


def test_contained_difference_is_defined():
    a = ClassAssignment(U2, {"x": [0, 1], "y": [0]})
    assert eval_partial(parse("x - y"), a) == Defined(0b10)


def test_uncontained_difference_is_undefined():
    a = ClassAssignment(U2, {"x": [1], "y": [0]})
    result = eval_partial(parse("x - y"), a)
    assert isinstance(result, Undefined)
    assert result.reason == "x-y requires y⊆x"


def test_constants_and_powers():
    a = ClassAssignment(U2, {"x": [0]})
    assert eval_partial(parse("1"), a) == Defined(0b11)
    assert eval_partial(parse("0"), a) == Defined(0)
    assert eval_partial(parse("x^5"), a) == Defined(0b01)
    assert eval_partial(parse("(1-x)^2"), a) == Defined(0b10)


def test_negation_and_large_literals_are_undefined():
    a = ClassAssignment(U2, {"x": [0]})
    result = eval_partial(parse("-x"), a)
    assert isinstance(result, Undefined) and result.term == parse("-x")
    result = eval_partial(parse("2"), a)
    assert isinstance(result, Undefined) and result.reason == "2 is not a class"
    # 2 - 1 is undefined even though its value "would be" 1
    assert isinstance(eval_partial(parse("2 - 1"), a), Undefined)


def test_strictness_no_short_circuit():
    # x*y is empty here, but the undefined right operand still poisons it
    a = ClassAssignment(U2, {"x": [], "y": [0]})
    result = eval_partial(parse("x*(y + y)"), a)
    assert isinstance(result, Undefined)
    assert result.term == parse("y + y")


def test_unassigned_variable_raises():
    with pytest.raises(KeyError):
        eval_partial(parse("x + q"), ClassAssignment(U2, {"x": [0]}))


def test_definedness_is_not_idempotence():
    # (x + y) - x*y is idempotent as a polynomial but undefined on
    # overlapping classes; the two notions must not be conflated.
    term = parse("(x + y) - x*y")
    assert term_to_poly(term).is_idempotent()
    a = ClassAssignment(U2, {"x": [0], "y": [0]})
    assert isinstance(eval_partial(term, a), Undefined)


# ----------------------------------------------------------------------
# Characteristic functions and multisets


def test_chi():
    assert chi(0, U3) == Multiset((0, 0, 0))
    assert chi(U3.mask, U3) == Multiset((1, 1, 1))
    assert chi([0], U3) == Multiset((1, 0, 0))
    with pytest.raises(ValueError):
        chi([4], U2)


def test_multiset_arithmetic():
    a, b = Multiset((1, 0)), Multiset((1, 1))
    assert a + b == Multiset((2, 1))
    assert b - a == Multiset((0, 1))
    assert -a == Multiset((-1, 0))
    assert a * b == Multiset((1, 0))
    assert Multiset((2, -1)) ** 3 == Multiset((8, -1))
    assert Multiset((-1, 0, 1)) ** (10**12) == Multiset((1, 0, 1))
    assert Multiset((2,)) ** MAX_POWER_BITS == Multiset((2**MAX_POWER_BITS,))
    with pytest.raises(ValueError, match=f"power too large: its values pass {MAX_POWER_BITS} bits"):
        Multiset((1, -2)) ** (MAX_POWER_BITS + 1)
    assert 1 - a == Multiset((0, 1))
    assert 3 * a == Multiset((3, 0))
    with pytest.raises(ValueError):
        a + Multiset((1,))
    with pytest.raises(ValueError, match="universe mismatch: sizes 1 and 2"):
        Multiset((1,)) - a
    with pytest.raises(ValueError, match="exponent must be a nonnegative integer, got -1"):
        Multiset((1,)) ** -1
    with pytest.raises(TypeError, match="cannot combine a Multiset with 'a'"):
        Multiset((1,)) + "a"  # type: ignore[operator]


@pytest.mark.parametrize("values", [(1.5, 2.7), ("3",), (None,), (2, 1.0)])
def test_multiset_values_must_be_integers(values):
    bad = next(v for v in values if type(v) is not int)
    with pytest.raises(TypeError, match=f"multiset value {bad!r} is not an integer"):
        Multiset(values)


def test_multiset_stores_a_bool_as_its_int():
    assert str(Multiset((True, 2))) == "[1, 2]"


def test_multiset_predicates():
    assert Multiset((0, 0)).is_zero()
    assert Multiset((1, 0)).is_characteristic()
    assert not Multiset((2, 0)).is_characteristic()
    assert Multiset((1, 0)).as_mask() == 0b01
    with pytest.raises(ValueError):
        Multiset((2, 0)).as_mask()
    assert str(Multiset((2, -1))) == "[2, -1]"


def test_eval_multiset_union_encoding():
    env = {"x": chi([0], U2), "y": chi([0, 1], U2)}
    assert eval_multiset(parse("x + y - x*y"), env) == Multiset((1, 1))


def test_eval_multiset_leaves_the_characteristic_functions():
    env = {"x": chi([0], U2), "y": chi([0], U2)}
    assert eval_multiset(parse("x + y"), env) == Multiset((2, 0))


def test_eval_multiset_complement():
    env = {"x": chi([0], U2)}
    assert eval_multiset(parse("1 - x"), env) == Multiset((0, 1))


def test_eval_multiset_powers_are_genuine():
    env = {"x": Multiset((2, -1))}
    assert eval_multiset(parse("x^2"), env) == Multiset((4, 1))
    assert eval_multiset(parse("x^2 - x"), env) == Multiset((2, 2))


def test_eval_multiset_universe_handling():
    assert eval_multiset(parse("2"), {}, universe=U2) == Multiset((2, 2))
    with pytest.raises(ValueError):
        eval_multiset(parse("1"), {})
    with pytest.raises(ValueError):
        eval_multiset(parse("x + y"), {"x": Multiset((1,)), "y": Multiset((1, 0))})
    with pytest.raises(ValueError):
        eval_multiset(parse("x"), {"x": Multiset((1,))}, universe=U2)
    with pytest.raises(KeyError):
        eval_multiset(parse("q"), {"x": Multiset((1, 0))})


def test_multiset_torsion_free():
    values = [Multiset((0, 0)), Multiset((1, -2)), Multiset((0, 5))]
    for m in values:
        for n in range(1, 6):
            assert ((n * m).is_zero()) == (m.is_zero())


def test_hailperin_footnote_fact():
    # on characteristic functions, (a+b)^2 = a+b forces a*b = 0
    for size in range(4):
        universe = Universe(size)
        for s, t in product(universe.subsets(), repeat=2):
            a, b = chi(s, universe), chi(t, universe)
            if (a + b) ** 2 == a + b:
                assert (a * b).is_zero()


def test_partial_total_coherence_random_terms():
    rng = random.Random(41)
    for _ in range(60):
        term = random_term(rng, names=("x", "y"), depth=3)
        for size in range(3):
            universe = Universe(size)
            for sx, sy in product(universe.subsets(), repeat=2):
                a = ClassAssignment(universe, {"x": sx, "y": sy})
                result = eval_partial(term, a)
                if isinstance(result, Defined):
                    env = {"x": chi(sx, universe), "y": chi(sy, universe)}
                    assert chi(result.subset, universe) == eval_multiset(
                        term, env, universe=universe
                    )


# ----------------------------------------------------------------------
# Idempotent-model checking


def test_holds_in_idempotents_examples():
    assert holds_in_idempotents(x * x - x, U3) is True
    assert holds_in_idempotents(Polynomial.constant(0), U2) is True
    counter = holds_in_idempotents(-(x * y), U2)
    assert isinstance(counter, ClassAssignment)
    assert counter.mask("x") == 0b01 and counter.mask("y") == 0b01


def test_holds_in_idempotents_counterexample_is_first_in_order():
    # x*y - x vanishes unless x has an element outside y; the least such
    # pair in (x-mask, y-mask) lexicographic order is x={0}, y={}.
    counter = holds_in_idempotents(x * y - x, U2)
    assert isinstance(counter, ClassAssignment)
    assert (counter.mask("x"), counter.mask("y")) == (0b01, 0b00)


def test_holds_in_idempotents_empty_universe():
    # the trivial ring satisfies everything
    assert holds_in_idempotents(Polynomial.constant(1), Universe(0)) is True


def test_holds_in_idempotents_cap():
    p = Polynomial({tuple(f"x{i}" for i in range(8)): 1})
    with pytest.raises(VariableLimitError):
        holds_in_idempotents(p, U3)  # 3 * 8 = 24 > 20
    assert holds_in_idempotents(p - p, U3, max_vars=24) is True


# Few enough names that the product loop over all (2**|U|)**n assignments
# stays small.
idempotent_monomials = st.frozensets(st.sampled_from(("w", "x", "y", "z")), max_size=4).map(
    lambda s: tuple(sorted(s))
)


@settings(deadline=None, max_examples=150)
@given(
    st.dictionaries(idempotent_monomials, coefficients, max_size=5).map(Polynomial),
    st.integers(min_value=0, max_value=3).map(Universe),
)
def test_holds_in_idempotents_matches_product_loop(p, universe):
    assert holds_in_idempotents(p, universe) == oracle_holds_in_idempotents(p, universe)
