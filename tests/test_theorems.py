import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boole import ONE, ZERO, Polynomial, polynomial, theorems, variables
from boole.development import DevelopmentTable, develop, sigma_assignment, sigma_strings
from boole.polynomial import VariableLimitError
from boole.theorems import Solution, eliminate, reduce_system, solve
from conftest import WIDE_NAMES, oracle_solve, random_polynomial, wide_polynomials, zero_one_points

x, y, z = variables("x, y, z")


# ----------------------------------------------------------------------
# Reduction


def test_reduce_examples():
    assert reduce_system([x - x * y, y - x * y]) == x + y - 2 * x * y
    idempotent = x + y - x * y
    assert reduce_system([idempotent]) == idempotent
    assert reduce_system([ZERO, ZERO]) == ZERO
    with pytest.raises(ValueError):
        reduce_system([])


def test_reduction_preserves_zero_sets():
    rng = random.Random(17)
    names = ("x", "y", "z")
    for _ in range(80):
        system = [
            random_polynomial(rng, names=names, max_terms=4)
            for _ in range(rng.randint(1, 4))
        ]
        reduced = reduce_system(system)
        for env in zero_one_points(names):
            all_zero = all(p.evaluate(env) == 0 for p in system)
            assert (reduced.evaluate(env) == 0) == all_zero


@given(st.lists(wide_polynomials | st.integers(-3, 3), min_size=1, max_size=6))
def test_reduce_system_matches_the_running_sum(system):
    # An int in the system is the constant equation it names.
    total = ZERO
    for p in system:
        total = total + p * p
    reduced = reduce_system(system)
    assert reduced == total
    assert (reduced._names, reduced._table) == (total._names, total._table)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_reduce_system_work_is_linear_in_the_equations(monkeypatch, order):
    # Count the table entries that reach the polynomial constructor or
    # are re-keyed: a running total re-made (and, with names arriving in
    # ascending order, re-keyed) per equation makes the count quadratic
    # in the number of equations, so doubling them would quadruple it.
    handled = []
    make, move = Polynomial._make.__func__, polynomial._move

    def counted_make(cls, names, table):
        handled.append(len(table))
        return make(cls, names, table)

    def counted_move(table, *pairs):
        handled.append(len(table))
        return move(table, *pairs)

    def work(count):
        names = [f"x{i:04d}" for i in range(count)]
        system = [Polynomial.variable(name) - 1 for name in names]
        if order == "descending":
            system.reverse()
        # each (x - 1)^2 is 1 - x
        expected = Polynomial({(): count, **{(name,): -1 for name in names}})
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "_make", classmethod(counted_make))
            patch.setattr(polynomial, "_move", counted_move)
            handled.clear()
            assert reduce_system(system) == expected
        return sum(handled)

    assert work(400) <= 2.1 * work(200)


# ----------------------------------------------------------------------
# Elimination


def test_eliminate_examples():
    assert eliminate(y - x, ("y",)) == ZERO
    assert eliminate(1 - x * y, ("y",)) == 1 - x
    # eliminating an absent variable squares the polynomial
    assert eliminate(x + y, ("q",)) == (x + y) * (x + y)
    assert eliminate(x, ()) == x


def test_eliminate_is_existential_projection():
    rng = random.Random(19)
    for _ in range(60):
        names = ("w", "x", "y", "z")
        p = random_polynomial(rng, names=names, max_terms=5)
        split = rng.randint(0, len(names))
        eliminated = names[:split]
        residual = names[split:]
        result = eliminate(p, eliminated)
        assert set(result.variables()) <= set(residual)
        for env in zero_one_points(residual):
            projected = result.evaluate(env) == 0
            witnessed = any(
                p.evaluate({**env, **inner}) == 0
                for inner in zero_one_points(eliminated)
            )
            assert projected == witnessed


def test_eliminate_builds_no_development_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("eliminate built a development table")

    monkeypatch.setattr(DevelopmentTable, "_make", classmethod(no_table))
    assert eliminate(1 - x * y, ("y",)) == 1 - x
    assert eliminate(x + y, ("q",)) == (x + y) * (x + y)


def test_eliminate_cap():
    names = tuple(f"x{i:02d}" for i in range(21))
    p = Polynomial({names: 1})
    with pytest.raises(VariableLimitError):
        eliminate(p, names)
    with pytest.raises(VariableLimitError):
        eliminate(x, ("x",), max_vars=0)
    assert eliminate(x, ("x",), max_vars=1) == ZERO


# ----------------------------------------------------------------------
# Solving


def test_solve_y_minus_x():
    solution = solve(y - x, "y")
    assert solution.condition == ZERO
    assert solution.particular == x
    assert solution.freedom == ZERO
    assert solution.parameter == "v"
    assert not solution.vacuous
    assert solution.expression() == x


def test_solve_forcing_zero_and_one():
    solution = solve(Polynomial.variable("y"), "y")
    assert (solution.condition, solution.particular, solution.freedom) == (ZERO, ZERO, ZERO)
    solution = solve(1 - Polynomial.variable("y"), "y")
    assert (solution.condition, solution.particular, solution.freedom) == (ZERO, ONE, ZERO)


def test_solve_unconstrained_unknown():
    # y*(1-y) = 0 holds for every 0/1 value of y
    solution = solve(y * (1 - y), "y")
    assert solution.condition == ZERO
    assert solution.particular == ZERO
    assert solution.freedom == ONE
    assert solution.expression() == Polynomial.variable("v")


def test_solve_vacuous_case():
    solution = solve(x - 1, "y")
    assert solution.vacuous
    assert solution.condition == (x - 1) * (x - 1)
    assert solution.particular == ZERO
    assert solution.freedom == ONE


def test_solve_condition_is_the_elimination():
    rng = random.Random(29)
    for _ in range(40):
        p = random_polynomial(rng, names=("x", "y", "z"), max_terms=4)
        assert solve(p, "y").condition == eliminate(p, ("y",))


def test_fresh_parameter_avoids_collisions():
    v, v1 = variables("v v1")
    assert solve(y - v, "y").parameter == "v1"
    assert solve(y - v - v1, "y").parameter == "v2"
    assert solve(v * (1 - v), "v").parameter == "v1"


def test_solution_parts_are_idempotent():
    rng = random.Random(31)
    for _ in range(40):
        p = random_polynomial(rng, names=("x", "y"), max_terms=4)
        solution = solve(p, "y")
        assert solution.particular.is_idempotent()
        assert solution.freedom.is_idempotent()


def brute_force_solutions(p, params_env):
    return {b for b in (0, 1) if p.evaluate({**params_env, "y": b}) == 0}


def test_solution_soundness_and_completeness():
    rng = random.Random(37)
    names = ("w", "x", "y")
    for _ in range(80):
        p = random_polynomial(rng, names=names, max_terms=5)
        solution = solve(p, "y")
        params = tuple(n for n in names if n != "y")
        for env in zero_one_points(params):
            if solution.condition.evaluate(env) != 0:
                # condition violated: no 0/1 value of y may solve p = 0
                assert not brute_force_solutions(p, env)
                continue
            produced = set()
            for v_bit in (0, 1):
                y_val = solution.expression().evaluate({**env, solution.parameter: v_bit})
                assert y_val in (0, 1)
                assert p.evaluate({**env, "y": y_val}) == 0
                produced.add(y_val)
            assert produced == brute_force_solutions(p, env)


@pytest.mark.parametrize("unknown", ["2y", "", "x y", "x²"])
def test_solve_rejects_an_invalid_unknown(unknown):
    with pytest.raises(ValueError, match="invalid variable name"):
        solve(x, unknown)


def test_solve_checks_the_cap_before_building_vectors(monkeypatch):
    def refuse(*args):
        raise AssertionError("a value vector was built")

    monkeypatch.setattr(theorems, "point_values", refuse)
    wide = Polynomial({tuple(f"x{i:02d}" for i in range(21)) + ("y",): 1})
    with pytest.raises(VariableLimitError, match="21 variables"):
        solve(wide, "y")


# ----------------------------------------------------------------------
# Solving on the value kernel against Boole's formula term by term

big_coefficients = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.integers(-(10**40), -(10**39)),
    st.integers(10**39, 10**40),
)


@st.composite
def solve_cases(draw):
    """p = a + d*unknown over 0-8 parameters, the unknown sorting before,
    among or after them, and a cap.  a may be 0 (p = unknown*d), d may be
    a multiple of a parameter or of its complement (so it vanishes at some
    points) or 0 (the vacuous case)."""
    params = WIDE_NAMES[: draw(st.integers(min_value=0, max_value=8))]
    unknown = draw(st.sampled_from(("a", "x3a", "y")))
    if params:
        monos = st.frozensets(st.sampled_from(params)).map(lambda s: tuple(sorted(s)))
    else:
        monos = st.just(())
    halves = st.dictionaries(monos, big_coefficients, min_size=1, max_size=12).map(Polynomial)
    rest = draw(st.one_of(halves, st.just(ZERO)))
    coefficient = draw(halves) if draw(st.integers(0, 3)) else ZERO
    if params and draw(st.booleans()):
        factor = Polynomial.variable(draw(st.sampled_from(params)))
        coefficient = coefficient * (factor if draw(st.booleans()) else ONE - factor)
    cap = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
    return rest + coefficient * Polynomial.variable(unknown), unknown, cap


def solve_outcome(solver, p, unknown, cap):
    """Every field of the solution, polynomials as their ordered terms,
    or the cap's error message."""
    try:
        solution = solver(p, unknown, max_vars=cap)
    except VariableLimitError as error:
        return str(error)
    fields = (getattr(solution, name) for name in solution._fields)
    return [list(value.terms.items()) if isinstance(value, Polynomial) else value for value in fields]


@settings(deadline=None, max_examples=300)
@given(solve_cases())
@example((x - 1, "y", None))
@example((y * (x - x * z), "y", None))
@example((y * (x - x * z), "y", 1))
@example((y - x * z, "y", None))
@example((Polynomial({("x0", "x1", "x2"): 10**40}) - 10**40 * y, "y", None))
def test_solve_matches_boole_formula_term_by_term(case):
    p, unknown, cap = case
    assert solve_outcome(solve, p, unknown, cap) == solve_outcome(oracle_solve, p, unknown, cap)
