import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boole import ONE, ZERO, Polynomial, variables
from boole.development import (
    DevelopmentTable,
    constituent,
    constituent_equations,
    develop,
    develop_partial,
    equal_by_development,
    first_difference,
    from_table,
    interpretable_core,
    sigma_assignment,
    sigma_strings,
)
from boole.polynomial import VariableLimitError, point_values
from boole.terms import poly
from boole.theorems import solve
from conftest import (
    VAR_NAMES,
    coefficients,
    WIDE_NAMES,
    oracle_constituent,
    oracle_develop_partial,
    oracle_from_table,
    oracle_interpretable_core,
    oracle_sigmas,
    polynomials,
    random_polynomial,
    wide_polynomials,
    zero_one_points,
)

x, y, z = variables("x, y, z")


def table_of(p, names=None):
    return {sigma: coeff.constant_value() for sigma, coeff in develop(p, names).items()}


# ----------------------------------------------------------------------
# Sigma plumbing


def test_sigma_strings_counting_order():
    assert list(sigma_strings(2)) == ["00", "01", "10", "11"]
    assert list(sigma_strings(0)) == [""]


def test_sigma_assignment():
    assert sigma_assignment("10", ("x", "y")) == {"x": 1, "y": 0}
    with pytest.raises(ValueError):
        sigma_assignment("2", ("x",))
    with pytest.raises(ValueError):
        sigma_assignment("01", ("x",))


@pytest.mark.parametrize(
    "sigma, names",
    [("2", ("x",)), ("0 ", ("x", "y")), ("0 ", ("x",)), ("", ("x",)), ("010", ("x", "y"))],
)
def test_malformed_sigmas_are_refused_everywhere(sigma, names):
    message = f"sigma {sigma!r} is not a 0/1 string of length {len(names)}"
    table = develop(ONE, names)
    for read in (sigma_assignment, constituent, lambda s, _: table[s]):
        with pytest.raises(ValueError) as refused:
            read(sigma, names)
        assert str(refused.value) == message


# ----------------------------------------------------------------------
# Constituents


def test_constituent_examples():
    assert constituent("11", ("x", "y")) == x * y
    assert constituent("10", ("x", "y")) == x - x * y
    assert constituent("01", ("x", "y")) == y - x * y
    assert constituent("00", ("x", "y")) == 1 - x - y + x * y
    assert constituent("1", ("x",)) == x
    assert constituent("", ()) == ONE


def test_constituent_validation():
    with pytest.raises(ValueError):
        constituent("1", ("x", "y"))
    with pytest.raises(ValueError):
        constituent("11", ("y", "x"))
    with pytest.raises(ValueError):
        constituent("11", ("x", "x"))


def test_constituent_algebra_small():
    for names in [("x",), ("x", "y"), ("x", "y", "z")]:
        sigmas = list(sigma_strings(len(names)))
        total = ZERO
        for sigma in sigmas:
            c = constituent(sigma, names)
            assert c * c == c
            total = total + c
        assert total == ONE
        for s, t in combinations(sigmas, 2):
            assert constituent(s, names) * constituent(t, names) == ZERO


# ----------------------------------------------------------------------
# Complete development


def test_develop_examples():
    assert table_of(x + y) == {"00": 0, "01": 1, "10": 1, "11": 2}
    assert table_of(x + y - 2 * x * y) == {"00": 0, "01": 1, "10": 1, "11": 0}
    assert table_of(ZERO, ("x",)) == {"0": 0, "1": 0}
    assert table_of(ONE) == {"": 1}


def test_develop_superset_variables():
    assert table_of(x, ("x", "y")) == {"00": 0, "01": 0, "10": 1, "11": 1}


def test_develop_missing_variable_is_an_error():
    with pytest.raises(ValueError, match="missing"):
        develop(x + y, ("x",))


def test_develop_respects_variable_cap():
    wide = Polynomial({tuple(f"x{i:02d}" for i in range(21)): 1})
    with pytest.raises(VariableLimitError):
        develop(wide)
    with pytest.raises(VariableLimitError):
        develop(x, ("x",), max_vars=0)
    assert table_of(x + y) == {
        sigma: coeff.constant_value()
        for sigma, coeff in develop(x + y, max_vars=2).items()
    }


# Each entry point that builds a 2**m value vector, called on a polynomial
# and a cap: the cap counts the developed variables (for solve, the
# parameters).
CAPPED = {
    "develop_partial": lambda p, **cap: develop_partial(p, p.variables(), **cap),
    "interpretable_core": interpretable_core,
    "constituent_equations": constituent_equations,
    "first_difference": lambda p, **cap: first_difference(p, ZERO, **cap),
    "equal_by_development": lambda p, **cap: equal_by_development(p, ZERO, **cap),
    "solve": lambda p, **cap: solve(p * Polynomial.variable("u"), "u", **cap),
}


@pytest.mark.parametrize("entry", CAPPED.values(), ids=CAPPED.keys())
def test_kernel_entry_points_respect_variable_cap(entry):
    wide = Polynomial({tuple(f"x{i:02d}" for i in range(21)): 1})
    with pytest.raises(VariableLimitError):
        entry(wide)
    with pytest.raises(VariableLimitError):
        entry(x + y + z, max_vars=2)
    entry(x + y + z, max_vars=3)


@given(polynomials)
def test_develop_coefficients_are_point_values(p):
    names = p.variables()
    for sigma, coeff in develop(p).items():
        assert coeff.constant_value() == p.evaluate(sigma_assignment(sigma, names))


# ----------------------------------------------------------------------
# Partial development


def test_develop_partial_examples():
    t = develop_partial(y - x, ("y",))
    assert t["1"] == 1 - x and t["0"] == -x
    t = develop_partial(x * y, ("x",))
    assert t["1"] == y and t["0"] == ZERO
    t = develop_partial(x, ("y",))
    assert t["1"] == x and t["0"] == x


def test_develop_partial_reexpands_to_the_polynomial():
    rng = random.Random(5)
    for _ in range(60):
        p = random_polynomial(rng)
        split = rng.randint(0, len(VAR_NAMES))
        eliminated = VAR_NAMES[:split]
        assert from_table(develop_partial(p, eliminated)) == p


# ----------------------------------------------------------------------
# from_table and the bijection


def test_from_table_examples():
    table = DevelopmentTable(
        ("x", "y"),
        {
            "11": Polynomial.constant(2),
            "10": ONE,
            "01": ONE,
            "00": ZERO,
        },
    )
    assert from_table(table) == x + y
    assert table.to_polynomial() == x + y
    zero_table = DevelopmentTable(("x", "y"), {s: ZERO for s in sigma_strings(2)})
    assert from_table(zero_table) == ZERO
    ones = DevelopmentTable(("x",), {"0": ONE, "1": ONE})
    assert from_table(ones) == ONE


def test_from_table_substitutes_nothing(monkeypatch):
    # entries that mention the table's variables are restricted to each
    # point's bits in one pass, not one substitution per name
    table = DevelopmentTable(("x", "y"), {"00": x * y + z, "01": x - y * z, "10": 3 * x * z, "11": x * y * z - 2})
    want = oracle_from_table(table)
    calls = []
    substitute = Polynomial.substitute
    monkeypatch.setattr(Polynomial, "substitute", lambda p, *args: calls.append(args) or substitute(p, *args))
    assert from_table(table) == want
    assert calls == []


def test_table_validation():
    with pytest.raises(ValueError):
        DevelopmentTable(("x",), {"0": ZERO})
    with pytest.raises(ValueError):
        DevelopmentTable(("x",), {"0": ZERO, "1": ZERO, "11": ZERO})
    table = DevelopmentTable(("x",), {"0": ZERO, "1": ONE})
    with pytest.raises(ValueError):
        table["01"]
    with pytest.raises(TypeError):
        table.coefficients["0"] = ONE  # type: ignore[index]
    # an int entry would fail only later, in from_table and is_complete
    with pytest.raises(TypeError, match="^the entry for sigma '0' is not a Polynomial: 1$"):
        DevelopmentTable(("x",), {"0": 1, "1": 2})  # type: ignore[dict-item]


@given(polynomials, st.sets(st.sampled_from(VAR_NAMES)))
def test_built_tables_match_the_validating_constructor(p, extra):
    # develop and develop_partial build their tables on a trusted path;
    # the validating constructor, handed the same entries in reverse,
    # must give the same table in the same sigma order.
    for table in (develop(p, set(p.variables()) | extra), develop_partial(p, extra)):
        entries = list(table.coefficients.items())
        rebuilt = DevelopmentTable(table.variables, dict(reversed(entries)))
        assert table == rebuilt
        assert list(table.coefficients) == list(rebuilt.coefficients) == list(sigma_strings(len(table.variables)))
        oracle = oracle_develop_partial(p, table.variables)
        for sigma, coeff in entries:
            # canonical (a 0 entry has an empty table), as rebuilt from its terms
            assert coeff == Polynomial(dict(coeff.terms)) == oracle[sigma]
        with pytest.raises(TypeError):
            table.coefficients["0"] = ONE  # type: ignore[index]


@given(polynomials)
def test_develop_from_table_bijection(p):
    assert from_table(develop(p)) == p


def test_from_table_develop_bijection_random_tables():
    rng = random.Random(9)
    for _ in range(60):
        names = ("x", "y")
        table = DevelopmentTable(
            names,
            {
                sigma: Polynomial.constant(rng.randint(-10, 10))
                for sigma in sigma_strings(len(names))
            },
        )
        assert develop(from_table(table), names) == table


def test_partial_bijection_with_residual_coefficients():
    rng = random.Random(13)
    for _ in range(40):
        # residual coefficients over a disjoint variable set
        table = DevelopmentTable(
            ("x", "y"),
            {
                sigma: random_polynomial(rng, names=("a", "b"), max_terms=3)
                for sigma in sigma_strings(2)
            },
        )
        assert develop_partial(from_table(table), ("x", "y")) == table


@given(polynomials, polynomials)
def test_development_is_a_pointwise_ring_homomorphism(p, q):
    names = tuple(sorted(set(p.variables()) | set(q.variables())))
    tp = develop(p, names)
    tq = develop(q, names)
    t_sum = develop(p + q, names)
    t_prod = develop(p * q, names)
    for sigma in sigma_strings(len(names)):
        a = tp[sigma].constant_value()
        b = tq[sigma].constant_value()
        assert t_sum[sigma].constant_value() == a + b
        assert t_prod[sigma].constant_value() == a * b


def test_is_complete():
    assert develop(x + y).is_complete()
    assert not develop_partial(y - x, ("y",)).is_complete()
    assert develop_partial(y - x, ("y",)).variables == ("y",)


# ----------------------------------------------------------------------
# Equality criterion


def test_equality_by_development():
    assert equal_by_development(x * (x + y - x * y), x)
    assert not equal_by_development(x + y, x + y - x * y)
    assert first_difference(x + y, x + y - x * y) == "11"
    # no names at all, and a witness made only of ones
    assert first_difference(ONE, ZERO) == ""
    assert first_difference(Polynomial({tuple(f"x{i:02d}" for i in range(20)): 1}), ZERO) == "1" * 20
    p = poly("z*(1 - z) + x")
    assert equal_by_development(p, p)


def test_one_shot_variable_iterators():
    assert first_difference(x, y, iter(["x", "y"])) == "01"
    assert equal_by_development(x, x, iter(["x", "y"]))
    assert not equal_by_development(x, y, iter(["x", "y"]))


@given(polynomials, polynomials)
def test_development_equality_is_structural_equality(p, q):
    assert equal_by_development(p, q) == (p == q)


# ----------------------------------------------------------------------
# Interpretable core


def test_interpretable_core_examples():
    assert interpretable_core(x + y) == x + y - x * y
    idempotent = x + y - x * y
    assert interpretable_core(idempotent) == idempotent
    assert interpretable_core(ZERO) == ZERO
    assert interpretable_core(Polynomial.constant(5)) == ONE


@given(polynomials)
def test_interpretable_core_properties(p):
    core = interpretable_core(p)
    assert core.is_idempotent()
    names = tuple(sorted(set(p.variables()) | set(core.variables())))
    dp = develop(p, names)
    dc = develop(core, names)
    for sigma in sigma_strings(len(names)):
        value = dp[sigma].constant_value()
        assert dc[sigma].constant_value() == (1 if value else 0)


def test_idempotence_iff_zero_one_coefficients():
    rng = random.Random(3)
    for _ in range(100):
        p = random_polynomial(rng)
        flags = {coeff.constant_value() in (0, 1) for _, coeff in develop(p).items()}
        assert p.is_idempotent() == (flags == {True} or not flags)


# ----------------------------------------------------------------------
# Constituent equations


def test_constituent_equations():
    assert constituent_equations(x + y) == {"01", "10", "11"}
    assert constituent_equations(ZERO) == frozenset()
    assert constituent_equations(ONE, ("x", "y")) == set(sigma_strings(2))


# ----------------------------------------------------------------------
# The value kernel against substitution and constituent sums


def test_point_values_always_give_the_residual_0_vector():
    assert point_values(ZERO, ("x", "y")) == {0: [0, 0, 0, 0]}
    assert point_values(x * z, ("x", "y")) == {0: [0, 0, 0, 0], 1: [0, 0, 1, 1]}


name_lists = st.lists(st.sampled_from(WIDE_NAMES + ("a",)), max_size=4)
# The oracles are quadratic in 2**m.
oracle_settings = settings(deadline=None, max_examples=60)


@oracle_settings
@given(wide_polynomials, name_lists)
def test_develop_partial_matches_substitution(p, eliminated):
    # residual variables, the empty list and names absent from p alike
    assert develop_partial(p, eliminated) == oracle_develop_partial(p, eliminated)


@oracle_settings
@given(wide_polynomials, name_lists)
def test_develop_matches_substitution_on_superset_lists(p, extra):
    names = set(p.variables()) | set(extra)
    assert develop(p, names) == oracle_develop_partial(p, names)


@oracle_settings
@given(st.data())
def test_from_table_matches_constituent_sum(data):
    # entries may mention the table's own variables as well as others
    names = sorted(data.draw(st.sets(st.sampled_from(WIDE_NAMES), max_size=4)))
    table = DevelopmentTable(
        tuple(names),
        {sigma: data.draw(wide_polynomials) for sigma in oracle_sigmas(len(names))},
    )
    assert from_table(table) == oracle_from_table(table)


@oracle_settings
@given(wide_polynomials, name_lists)
def test_core_and_equations_match_constituent_sum(p, extra):
    names = sorted(set(p.variables()) | set(extra))
    assert interpretable_core(p, names) == oracle_interpretable_core(p, names)
    oracle = oracle_develop_partial(p, names)
    assert constituent_equations(p, names) == {s for s, c in oracle.items() if c}


@oracle_settings
@given(wide_polynomials, wide_polynomials, name_lists)
def test_first_difference_matches_substitution(p, q, extra):
    names = sorted(set(p.variables()) | set(q.variables()) | set(extra))
    left = oracle_develop_partial(p, names)
    right = oracle_develop_partial(q, names)
    want = next((s for s in oracle_sigmas(len(names)) if left[s] != right[s]), None)
    assert first_difference(p, q, names) == want


# The search over 11-14 names, more than a scanned piece holds; r adds only
# monomials of degree 6 or more, so p and p + r can first differ late.
LONG_NAMES = tuple(f"x{i:02d}" for i in range(14))
long_polynomials = st.dictionaries(
    st.frozensets(st.sampled_from(LONG_NAMES), max_size=14).map(lambda s: tuple(sorted(s))),
    coefficients,
    max_size=6,
).map(Polynomial)
high_degree_polynomials = st.dictionaries(
    st.frozensets(st.sampled_from(LONG_NAMES), min_size=6).map(lambda s: tuple(sorted(s))),
    coefficients,
    max_size=3,
).map(Polynomial)


@settings(deadline=None, max_examples=40)
@given(long_polynomials, high_degree_polynomials, st.integers(min_value=11, max_value=14))
def test_first_difference_walks_above_ten_names(p, r, count):
    q = p + r
    names = sorted(set(p.variables()) | set(q.variables()) | set(LONG_NAMES[:count]))
    points = zip(oracle_sigmas(len(names)), zero_one_points(tuple(names)))
    want = next((s for s, point in points if p.evaluate(point) != q.evaluate(point)), None)
    assert first_difference(p, q, names) == want


@oracle_settings
@given(st.data())
def test_constituent_matches_product(data):
    names = sorted(data.draw(st.sets(st.sampled_from(WIDE_NAMES), max_size=6)))
    sigma = data.draw(st.sampled_from(oracle_sigmas(len(names))))
    assert constituent(sigma, names) == oracle_constituent(sigma, names)
