import doctest
import random
import time
from functools import reduce
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boole.polynomial
from boole import ONE, ZERO, Polynomial, variables
from boole.polynomial import _bits, _dense_product, _from_decimal, _power, _spread
from boole.terms import poly
from conftest import WIDE_NAMES, oracle_product, polynomials, wide_polynomials, zero_one_points

x, y, z = variables("x, y, z")


def test_docstrings():
    failures, _ = doctest.testmod(boole.polynomial)
    assert failures == 0


# ----------------------------------------------------------------------
# Construction and canonical form


def test_constants():
    assert dict(Polynomial.constant(0).terms) == {}
    assert dict(Polynomial.constant(1).terms) == {(): 1}
    assert dict(Polynomial.constant(-2).terms) == {(): -2}
    assert Polynomial.constant(0) == ZERO
    assert Polynomial.constant(1) == ONE


def test_variable():
    assert dict(Polynomial.variable("x").terms) == {("x",): 1}
    assert dict(Polynomial.variable("y").terms) == {("y",): 1}


@pytest.mark.parametrize("bad", ["2x", "", "x y", "x-y", "_x", "xéé"])
def test_variable_rejects_bad_names(bad):
    with pytest.raises(ValueError):
        Polynomial.variable(bad)


def test_underscores_and_digits_allowed():
    assert Polynomial.variable("x_1").variables() == ("x_1",)


def test_mapping_constructor_merges_and_drops_zeros():
    p = Polynomial({("x",): 2, "x": -2, ("y", "x"): 3})
    assert dict(p.terms) == {("x", "y"): 3}
    assert bool(ZERO) is False and bool(p) is True


def test_mapping_constructor_rejects_junk():
    with pytest.raises(ValueError):
        Polynomial({("x", "x"): 1})
    with pytest.raises(TypeError):
        Polynomial({("x",): 1.5})
    with pytest.raises(ValueError):
        Polynomial({("2x",): 1})


def test_mapping_constructor_checks_each_distinct_name_once(monkeypatch):
    checked = []
    require = boole.polynomial._require_name
    monkeypatch.setattr(boole.polynomial, "_require_name", lambda name: checked.append(name) or require(name))
    names = [f"x{i}" for i in range(8)]
    p = Polynomial({tuple(n for i, n in enumerate(names) if mask >> i & 1): 1 for mask in range(256)})
    assert len(p.terms) == 256
    assert sorted(checked) == names


@pytest.mark.parametrize(
    "terms, message",
    [
        ({("x", "x"): 1, ("2x",): 1}, "repeats variable 'x'"),
        ({("2x",): 1, ("x", "x"): 1}, "invalid variable name '2x'"),
        ({("x",): 1, ("y", "x", "1"): 1}, "invalid variable name '1'"),
        ({"x": 1, ("x", "y", "x"): 1}, "repeats variable 'x'"),
        ({(7,): 1}, "invalid variable name 7"),
    ],
)
def test_mapping_constructor_reports_the_first_fault_in_order(terms, message):
    with pytest.raises(ValueError, match=message):
        Polynomial(terms)


def test_terms_view_is_read_only():
    with pytest.raises(TypeError):
        (x + y).terms[("x",)] = 5  # type: ignore[index]


def test_storage_order_degree_then_name():
    p = 1 + x * y - y + x
    assert list(p.terms) == [(), ("x",), ("y",), ("x", "y")]


# ----------------------------------------------------------------------
# Arithmetic


def test_addition_and_subtraction():
    assert x + y == Polynomial({("x",): 1, ("y",): 1})
    assert (x + y) - y == x
    symmetric_difference = (x + y) - Polynomial.constant(2) * x * y
    assert dict(symmetric_difference.terms) == {("x",): 1, ("y",): 1, ("x", "y"): -2}


def test_product_flattens_exponents():
    assert (x * y) * (x + y) == 2 * x * y
    assert x * x == x
    assert ONE * (x + y - 2 * x * y) == x + y - 2 * x * y
    assert ZERO * x == ZERO


def test_numerals_are_a_sign_and_ascii_digits():
    assert _from_decimal(" 12 ") == 12
    assert _from_decimal("\t-7\n") == -7
    assert _from_decimal("+0") == 0
    numeral = "9" * 5000  # past the interpreter's 4300-digit limit
    assert _from_decimal(f" -{numeral} ") == -(10**5000 - 1)
    for text in ("\u0661", " \u0661\u0662 ", "1\u0662", "\uff11", "1_000", "", "-", "+-1", "1 2", "0x1", "1.0", "2" * 5000 + "_"):
        with pytest.raises(ValueError, match="invalid integer"):
            _from_decimal(text)
    assert _from_decimal(12) == 12  # a JSON number
    for value in (12.0, True, None, b"12"):
        with pytest.raises(TypeError):
            _from_decimal(value)  # type: ignore[arg-type]


def test_int_coercion():
    assert 2 * x == x + x
    assert x - 1 == -(1 - x)
    # the flattening product turns 1 - x*x into 1 - x
    assert (1 + x) * (1 - x) == 1 - x


def test_powers():
    assert x**3 == x
    assert (x + y) ** 2 == x + y + 2 * x * y
    assert (x + y) ** 0 == ONE
    with pytest.raises(ValueError):
        x ** (-1)


def test_huge_power_of_an_idempotent_returns_at_once():
    start = time.perf_counter()
    assert poly("x^10000000") == x
    assert (x + y - x * y) ** 10_000_000 == x + y - x * y
    assert time.perf_counter() - start < 1.0


def test_powers_past_the_size_bound_are_refused_at_once():
    start = time.perf_counter()
    bound = boole.polynomial.MAX_POWER_BITS
    assert max(map(abs, ((x + y) ** 40000).terms.values())).bit_length() < bound
    for text in (
        "(x+y)^99^99^99^99", "2^99^99^99^99", f"2^{bound}", "(2 - x)^99^99^99", f"(2*x)^{bound}",
        f"(3*x)^{10**30}", f"(-2*x*y)^{2**24}", "(7*x)^99^99^99",
    ):
        with pytest.raises(ValueError, match=f"power too large: its coefficients pass {bound} bits"):
            poly(text)
    # Values at 0/1 points of 0 and -1 keep the coefficients small.
    assert (x - y) ** 10_000_001 == x - y
    assert (x - 1) ** 10_000_000 == 1 - x
    assert poly(f"2^{bound - 1}").constant_value() == 2 ** (bound - 1)
    assert time.perf_counter() - start < 2.0


def outcome(compute):
    try:
        return compute()
    except ValueError as error:
        return str(error)


# The first exponent at which |c|^k passes the bound of 65536 bits:
# 2^65536 has 65537 bits, 3^41348 has 65536 and 3^41349 has 65537; 5^28225
# is seen to pass only once its last product is built.  A first power is
# never refused, even of a coefficient that is already past the bound.
HUGE = 10**20000
FIRST_REFUSED = {2: 65536, 3: 41349, 5: 28225, HUGE: 2}
COEFFICIENTS = [pytest.param(str(c), c, id=str(c)) for c in (-3, -2, -1, 0, 1, 2, 3, 5)]
COEFFICIENTS.append(pytest.param("1" + "0" * 20000, HUGE, id="10^20000"))


@pytest.mark.parametrize("text, coeff", COEFFICIENTS)
def test_one_term_powers_are_refused_where_the_kernel_refuses(text, coeff):
    # A power of one term is compiled as a power of its coefficient, and
    # must be refused exactly where the table power would be.
    assert boole.polynomial.MAX_POWER_BITS == 65536
    edge = FIRST_REFUSED.get(abs(coeff))
    exponents = [1, 2, 3, 65535, 65536, 65537, 10**30] if edge is None else [edge - 1, edge, edge + 1]
    for k in exponents:
        got = outcome(lambda: poly(f"({text}*x)^{k}"))
        kernel = outcome(lambda: Polynomial._make(("x",), _power({1: coeff}, k)))
        assert got == kernel
        assert isinstance(got, str) == (edge is not None and k >= edge)


def test_power_of_an_idempotent_with_zero_terms_returns_at_once():
    # Zero coefficients, as x - x and 0*x leave them, do not hide that a
    # base is idempotent: squaring it all the way to 9...9 took seconds,
    # twice as long per added name.
    constituent = "*".join(f"(1 - y{i})" for i in range(13))
    expected = poly(constituent)
    start = time.perf_counter()
    for base in (constituent, f"x - x + {constituent}", f"0*x + {constituent}"):
        assert poly(f"({base})^{'9' * 30}") == expected
    assert time.perf_counter() - start < 1.0


def test_power_squares_nothing_past_the_size_bound(monkeypatch):
    bound = boole.polynomial.MAX_POWER_BITS
    multiply = boole.polynomial._product
    calls = []

    def bounded(p, q):
        calls.append(1)
        for operand in (p, q):
            assert max(map(abs, operand.values()), default=0).bit_length() <= bound
        return multiply(p, q)

    monkeypatch.setattr(boole.polynomial, "_product", bounded)
    for exponent in (2**24, 2**24 + 1):
        with pytest.raises(ValueError, match="power too large"):
            poly(f"(x + y)^{exponent}")
        with pytest.raises(ValueError, match="power too large"):
            (x + y) ** exponent
    assert calls


@given(polynomials, st.integers(min_value=0, max_value=9))
def test_power_is_repeated_product(p, k):
    assert p**k == reduce(mul, [p] * k, ONE)


# ----------------------------------------------------------------------
# Dense products through the value kernel


def full(n):
    """prod(1 + x_i) over n variables: all 2**n monomials."""
    return reduce(mul, (1 + Polynomial.variable(f"x{i}") for i in range(n)), ONE)


@given(wide_polynomials, wide_polynomials)
def test_dense_product_matches_pairwise(p, q):
    # Both tables over names with gaps between the ones they use, as the
    # term compiler's are, and the vectors over one name neither uses.
    layout = tuple(sorted(WIDE_NAMES + ("x05", "x15", "x9")))
    used = _bits(layout, {*p.variables(), *q.variables(), "x0"})
    dense = _dense_product(_spread(p, layout), _spread(q, layout), used)
    assert Polynomial._make(layout, dense) == oracle_product(p, q) == p * q


@pytest.mark.parametrize(
    "p, q, dense",
    [
        (full(4), full(4), True),  # 256 pairs > 4 * 2**4 + 64
        (full(5), full(3), True),  # 256 pairs > 5 * 2**5 + 64
        (full(5), full(2), False),  # 128 pairs < 5 * 2**5 + 64
        (full(2), 1 + Polynomial.variable("x0"), False),  # 8 pairs < 2 * 2**2 + 64
        (full(4), 1 - x - y, False),  # 48 pairs < 6 * 2**6 + 64
        (full(4), x, False),
        # past n*2**n, but under the vector path's fixed cost of 64 pairs
        (x - 1, x - 1, False),  # 4 pairs > 1 * 2**1
        (x + y - 1, x + y - 1, False),  # 9 pairs > 2 * 2**2
    ],
)
def test_product_takes_the_dense_path_exactly_past_n_2n(monkeypatch, p, q, dense):
    calls = []

    def spy(*args):
        calls.append(args)
        return _dense_product(*args)
    monkeypatch.setattr(boole.polynomial, "_dense_product", spy)
    assert p * q == oracle_product(p, q)
    assert bool(calls) == dense


def test_wide_products_never_hit_the_variable_cap():
    # 25 variables: a value vector would need 2**25 entries.
    names = [f"x{i:02d}" for i in range(25)]
    p = sum((Polynomial.variable(n) for n in names), ZERO)
    q = 1 - p + Polynomial({tuple(names): 3})
    product = p * q
    point = dict.fromkeys(names, 1)
    assert product.evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_equality_and_hash():
    assert x + y == y + x
    assert hash(x + y) == hash(y + x)
    assert x + y != x + y - x * y
    assert x != "x"


def test_int_equality_is_hash_consistent():
    assert Polynomial.constant(2) == 2
    assert hash(Polynomial.constant(2)) == hash(2)
    assert len({Polynomial.constant(2), 2}) == 1
    assert ZERO == 0 and hash(ZERO) == hash(0)


# ----------------------------------------------------------------------
# Evaluation and substitution


def test_evaluate():
    assert (x + y).evaluate({"x": 1, "y": 1}) == 2
    assert (x + y - 2 * x * y).evaluate({"x": 1, "y": 0}) == 1
    assert ZERO.evaluate({}) == 0
    with pytest.raises(KeyError):
        (x + y).evaluate({"x": 1})


def test_evaluate_matches_symmetric_difference_truth_table():
    p = x + y - 2 * x * y
    for env in zero_one_points(("x", "y")):
        assert p.evaluate(env) == env["x"] ^ env["y"]


def test_substitute():
    assert (x * y).substitute("x", 1) == y
    assert (x * y).substitute("x", 0) == ZERO
    assert (x + y).substitute("y", 1 - x) == ONE
    # recombination uses the flattening product
    assert (x * y).substitute("y", x + y) == x * (x + y)
    assert (x + y).substitute("q", 5) == x + y


def test_substitute_derived_check():
    p, r = x + y, 1 - x
    substituted = p.substitute("y", r)
    for env in zero_one_points(("x",)):
        assert substituted.evaluate(env) == p.evaluate({**env, "y": r.evaluate(env)})


def test_is_idempotent():
    assert (x + y - x * y).is_idempotent()
    assert not (x + y).is_idempotent()
    assert ZERO.is_idempotent() and ONE.is_idempotent()


def test_inspectors():
    p = x + y - 2 * x * y
    assert p.variables() == ("x", "y")
    assert p.coefficient(("x", "y")) == -2
    assert p.coefficient("x") == 1
    assert p.coefficient() == 0
    assert Polynomial.constant(7).constant_value() == 7
    assert ZERO.constant_value() == 0
    with pytest.raises(ValueError):
        p.constant_value()


# ----------------------------------------------------------------------
# Rendering


@pytest.mark.parametrize(
    "p, expected",
    [
        (x + y - 2 * x * y, "x + y - 2*x*y"),
        (ZERO, "0"),
        (Polynomial({(): -1, ("x",): 1}), "-1 + x"),
        (-x, "-x"),
        (Polynomial.constant(-7), "-7"),
        (3 * x * y - x, "-x + 3*x*y"),
        (ONE, "1"),
    ],
)
def test_str(p, expected):
    assert str(p) == expected


# ----------------------------------------------------------------------
# Ring laws and structural properties


@given(polynomials, polynomials, polynomials)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO
    assert p + (-p) == ZERO


@given(polynomials, polynomials)
def test_evaluation_homomorphism_at_zero_one_points(p, q):
    names = tuple(sorted(set(p.variables()) | set(q.variables())))
    for env in zero_one_points(names):
        assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)
        assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)


def test_product_evaluation_not_multiplicative_off_zero_one():
    # x*x == x, so at x=2 the product evaluates to 2, not 4.  This is by
    # design and must not be asserted away.
    assert (x * x).evaluate({"x": 2}) == 2


@given(polynomials)
def test_torsion_free(p):
    for n in range(1, 6):
        assert (n * p == ZERO) == (p == ZERO)


def test_idempotent_generators():
    for name in ("a", "b", "x", "long_name_1"):
        v = Polynomial.variable(name)
        assert v * v == v


def test_variables_helper():
    a, b = variables("a b")
    assert a == Polynomial.variable("a") and b == Polynomial.variable("b")
    assert variables(["p", "q"])[1] == Polynomial.variable("q")


# ----------------------------------------------------------------------
# The representation against tuple-keyed oracle arithmetic
#
# Random expressions over two name pools: one whose operands' names fall
# before, between and after each other, and one of 70 names, so that
# monomial masks pass 64 bits.  Coefficients reach 10**40, and `cancel`
# adds and takes away one operand, removing every name only it has.

NAME_POOLS = (("a", "b", "c", "d", "e", "f"), tuple(f"v{i:02d}" for i in range(70)))


def oracle_add(a, b, sign=1):
    total = dict(a)
    for mono, coeff in b.items():
        total[mono] = total.get(mono, 0) + sign * coeff
    return {mono: coeff for mono, coeff in total.items() if coeff}


def oracle_mul(a, b):
    total = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(sorted(set(m1) | set(m2)))
            total[mono] = total.get(mono, 0) + c1 * c2
    return {mono: coeff for mono, coeff in total.items() if coeff}


def oracle_substitute(a, name, b):
    kept = {mono: coeff for mono, coeff in a.items() if name not in mono}
    factored = {tuple(v for v in mono if v != name): coeff for mono, coeff in a.items() if name in mono}
    return oracle_add(kept, oracle_mul(factored, b))


def oracle_str(items):
    parts = []
    for mono, coeff in items:
        body = "*".join(([str(abs(coeff))] if abs(coeff) != 1 or not mono else []) + list(mono))
        parts.append(("-" if coeff < 0 else "") + body if not parts else ("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts) or "0"


def expressions(pool):
    monomials = st.frozensets(st.sampled_from(pool), max_size=4).map(lambda s: tuple(sorted(s)))
    leaves = st.one_of(
        st.tuples(st.just("int"), st.integers(-3, 3)),
        st.tuples(st.just("var"), st.sampled_from(pool)),
        st.tuples(st.just("table"), st.dictionaries(monomials, st.integers(-(10**40), 10**40), max_size=4)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "cancel"]), inner, inner),
            st.tuples(st.sampled_from(["int+", "int-", "int*"]), st.integers(-3, 3), inner),
            st.tuples(st.just("**"), inner, st.integers(0, 3)),
            st.tuples(st.just("neg"), inner),
            st.tuples(st.just("substitute"), inner, st.sampled_from(pool), inner),
        ),
        max_leaves=8,
    )


def build(expr):
    """The polynomial an expression denotes and its tuple-keyed table."""
    kind, *args = expr
    if kind == "int":
        return Polynomial.constant(args[0]), {(): args[0]} if args[0] else {}
    if kind == "var":
        return Polynomial.variable(args[0]), {(args[0],): 1}
    if kind == "table":
        return Polynomial(args[0]), {mono: coeff for mono, coeff in args[0].items() if coeff}
    if kind in ("int+", "int-", "int*"):
        c, (p, a) = args[0], build(args[1])
        constant = {(): c} if c else {}
        if kind == "int+":
            return c + p, oracle_add(constant, a)
        if kind == "int-":
            return c - p, oracle_add(constant, a, -1)
        return c * p, oracle_mul(constant, a)
    if kind == "neg":
        p, a = build(args[0])
        return -p, {mono: -coeff for mono, coeff in a.items()}
    if kind == "**":
        (p, a), k = build(args[0]), args[1]
        power = {(): 1}
        for _ in range(k):
            power = oracle_mul(power, a)
        return p**k, power
    if kind == "substitute":
        (p, a), name, (q, b) = build(args[0]), args[1], build(args[2])
        return p.substitute(name, q), oracle_substitute(a, name, b)
    (p, a), (q, b) = build(args[0]), build(args[1])
    if kind == "+":
        return p + q, oracle_add(a, b)
    if kind == "-":
        return p - q, oracle_add(a, b, -1)
    if kind == "*":
        return p * q, oracle_mul(a, b)
    return (p + q) - q, a  # cancel


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_representation_matches_tuple_oracle(data):
    pool = data.draw(st.sampled_from(NAME_POOLS))
    p, table = build(data.draw(expressions(pool)))
    items = sorted(table.items(), key=lambda item: (len(item[0]), item[0]))
    assert list(p.terms.items()) == items
    assert str(p) == oracle_str(items)
    assert p.variables() == tuple(sorted({name for mono in table for name in mono}))
    # built in another order, by the constructor and by sums of terms
    for other in (Polynomial(dict(reversed(items))), sum((Polynomial({m: c}) for m, c in reversed(items)), ZERO)):
        assert p == other and hash(p) == hash(other)
    if not p.variables():
        assert p == p.constant_value() and hash(p) == hash(p.constant_value())
    assert p != p + Polynomial.variable(pool[-1]) and p != p + 1
    for mono, coeff in items:
        assert p.coefficient(mono) == coeff
    assert p.coefficient((pool[0], "zz")) == table.get((pool[0], "zz"), 0) == 0
    values = {name: i % 5 - 2 for i, name in enumerate(pool)}
    assert p.evaluate(values) == sum(coeff * prod(values[v] for v in mono) for mono, coeff in items)
