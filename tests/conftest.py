"""Shared generators and independent oracles for the test suite.

The oracles here re-derive semantics from scratch (direct integer
evaluation of term trees, truth-table style enumeration) so the tests
never trust the code paths they are checking.
"""

from __future__ import annotations

import random
from itertools import product

from hypothesis import strategies as st

from boole import ONE, ZERO, Polynomial
from boole.development import DevelopmentTable
from boole.polynomial import _pairwise_product
from boole.terms import Add, IntLit, Mul, Neg, One, Pow, Sub, Term, Var, Zero

VAR_NAMES = ("v", "w", "x", "y", "z")


# ----------------------------------------------------------------------
# Random corpora (seeded random.Random instances come from the caller)


def random_polynomial(
    rng: random.Random,
    names: tuple[str, ...] = VAR_NAMES,
    max_terms: int = 6,
    coeff_range: tuple[int, int] = (-10, 10),
) -> Polynomial:
    table: dict[tuple[str, ...], int] = {}
    for _ in range(rng.randint(0, max_terms)):
        size = rng.randint(0, len(names))
        mono = tuple(sorted(rng.sample(names, size)))
        coeff = rng.randint(*coeff_range)
        table[mono] = table.get(mono, 0) + coeff
    return Polynomial(table)


def random_term(
    rng: random.Random,
    names: tuple[str, ...] = ("x", "y", "z"),
    depth: int = 3,
) -> Term:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(6)
        if choice < 3:
            return Var(rng.choice(names))
        if choice == 3:
            return Zero()
        if choice == 4:
            return One()
        return IntLit(rng.randint(2, 3))
    choice = rng.randrange(6)
    if choice == 0:
        return Add(random_term(rng, names, depth - 1), random_term(rng, names, depth - 1))
    if choice == 1:
        return Sub(random_term(rng, names, depth - 1), random_term(rng, names, depth - 1))
    if choice in (2, 3):
        return Mul(random_term(rng, names, depth - 1), random_term(rng, names, depth - 1))
    if choice == 4:
        return Neg(random_term(rng, names, depth - 1))
    return Pow(random_term(rng, names, depth - 1), rng.randint(1, 3))


# ----------------------------------------------------------------------
# Independent oracles


def eval_term_int(term: Term, env: dict[str, int]) -> int:
    """Plain integer evaluation of a term tree, powers computed over Z."""
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Zero):
        return 0
    if isinstance(term, One):
        return 1
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, Add):
        return eval_term_int(term.left, env) + eval_term_int(term.right, env)
    if isinstance(term, Sub):
        return eval_term_int(term.left, env) - eval_term_int(term.right, env)
    if isinstance(term, Mul):
        return eval_term_int(term.left, env) * eval_term_int(term.right, env)
    if isinstance(term, Neg):
        return -eval_term_int(term.operand, env)
    if isinstance(term, Pow):
        return eval_term_int(term.base, env) ** term.exponent
    raise TypeError(term)


def zero_one_points(names: tuple[str, ...]):
    """All 0/1 assignments over the names, lexicographic order."""
    for bits in product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def oracle_sigmas(count: int):
    """All 0/1 strings of the given length, in counting order."""
    return ["".join(bits) for bits in product("01", repeat=count)]


# Development by substitution and by sums of constituents: the direct
# forms of the definitions, kept as the reference for the value kernel.


def oracle_constituent(sigma: str, names) -> Polynomial:
    result = ONE
    for name, bit in zip(names, sigma):
        x = Polynomial.variable(name)
        result = _pairwise_product(result, x if bit == "1" else ONE - x)
    return result


def oracle_develop_partial(p: Polynomial, eliminated) -> DevelopmentTable:
    """One substitution per variable per sigma."""
    names = tuple(sorted(set(eliminated)))
    table = {}
    for sigma in oracle_sigmas(len(names)):
        entry = p
        for name, bit in zip(names, sigma):
            entry = entry.substitute(name, int(bit))
        table[sigma] = entry
    return DevelopmentTable(names, table)


def oracle_from_table(table: DevelopmentTable) -> Polynomial:
    """The sum over sigma of coefficient times constituent."""
    total = ZERO
    for sigma, coeff in table.items():
        if coeff:
            total = total + _pairwise_product(coeff, oracle_constituent(sigma, table.variables))
    return total


def oracle_interpretable_core(p: Polynomial, names) -> Polynomial:
    """The sum of the constituents where p's development is nonzero."""
    table = oracle_develop_partial(p, names)
    total = ZERO
    for sigma, coeff in table.items():
        if coeff:
            total = total + oracle_constituent(sigma, table.variables)
    return total


# ----------------------------------------------------------------------
# Hypothesis strategies

coefficients = st.integers(min_value=-10, max_value=10)
monomials = st.frozensets(st.sampled_from(VAR_NAMES), max_size=5).map(
    lambda s: tuple(sorted(s))
)
polynomials = st.dictionaries(monomials, coefficients, max_size=6).map(Polynomial)

# Up to eight variables, for the value-kernel differential tests.
WIDE_NAMES = tuple(f"x{i}" for i in range(8))
wide_monomials = st.frozensets(st.sampled_from(WIDE_NAMES), max_size=8).map(
    lambda s: tuple(sorted(s))
)
wide_polynomials = st.dictionaries(wide_monomials, coefficients, max_size=16).map(Polynomial)
