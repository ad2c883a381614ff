"""Shared generators and independent oracles for the test suite.

The oracles here re-derive semantics from scratch (direct integer
evaluation of term trees, truth-table style enumeration) so the tests
never trust the code paths they are checking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import Mapping

from hypothesis import strategies as st

from boole import ONE, ZERO, Polynomial
from boole.development import DevelopmentTable, _check_variables, interpretable_core, sigma_strings
from boole.models import MAX_UNIVERSE, ClassAssignment, Defined, Multiset, Undefined, Universe, _subset_mask
from boole.polynomial import _digits_value, _require_name
from boole.r01 import HornSentence, Verdict
from boole.terms import (
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
    SetExpr,
    SetIntersection,
    SetUnion,
    SetUniverse,
    SetVar,
    Sub,
    Term,
    Var,
    Zero,
)
from boole.theorems import Solution, _fresh_parameter

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


def constituent_sum(names: list[str], count: int) -> str:
    """The text of a sum of `count` distinct constituents over `names`,
    picked as the benchmark picks them: disjoint, so totally
    interpretable, and which ones depends only on the size."""
    n = len(names)
    picked = random.Random(f"constituents:{n}:{count}").sample(range(1 << n), count)
    return " + ".join(
        "*".join(name if index >> (n - 1 - i) & 1 else f"(1 - {name})" for i, name in enumerate(names))
        for index in picked
    )


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


# The reader as a loop over every character and a grammar loop over
# (kind, value, offset) tokens: the reference for `terms._read`.

_ORACLE_SYMBOLS = set("+-*^()")
_ORACLE_DIGITS = set("0123456789")
_ORACLE_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_ORACLE_NAME_CHARACTERS = _ORACLE_LETTERS | _ORACLE_DIGITS | {"_"}


def _oracle_tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _ORACLE_SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch in _ORACLE_DIGITS:
            start = i
            while i < n and text[i] in _ORACLE_DIGITS:
                i += 1
            tokens.append(("INT", _digits_value(text[start:i]), start))
        elif ch in _ORACLE_LETTERS:
            start = i
            while i < n and text[i] in _ORACLE_NAME_CHARACTERS:
                i += 1
            tokens.append(("IDENT", text[start:i], start))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


def oracle_read(text: str) -> list[tuple[str, object]]:
    """The postfix code of `text`, read token by token."""
    tokens = _oracle_tokenize(text)
    code: list[tuple[str, object]] = []
    emit = code.append
    frames: list[tuple[str | None, bool, bool]] = []
    op, factored, negate = None, False, tokens[0][0] == "-"
    pos = int(negate)
    while True:
        kind, value, position = tokens[pos]
        pos += 1
        if kind == "(":
            frames.append((op, factored, negate))
            op, factored = None, False
            negate = tokens[pos][0] == "-"
            pos += negate
            continue
        if kind == "INT":
            emit(("int", value))
        elif kind == "IDENT":
            emit(("var", value))
        else:
            raise ParseError("expected a number, a variable or '('", position)
        while True:
            while tokens[pos][0] == "^":
                kind, value, position = tokens[pos + 1]
                if kind != "INT":
                    raise ParseError("expected an integer exponent after '^'", position)
                if value == 0:
                    raise ParseError("exponent must be at least 1", position)
                emit(("^", value))
                pos += 2
            if factored:
                emit(("*", None))
            kind, _, position = tokens[pos]
            if kind == "*":
                factored = True
                break
            if negate:
                emit(("neg", None))
                negate = False
            if op:
                emit((op, None))
            factored = False
            if kind == "+" or kind == "-":
                op = kind
                break
            if not frames:
                if kind != "EOF":
                    raise ParseError("unexpected trailing input", position)
                return code
            if kind != ")":
                raise ParseError("expected ')'", position)
            op, factored, negate = frames.pop()
            pos += 1
        pos += 1


def zero_one_points(names: tuple[str, ...]):
    """All 0/1 assignments over the names, lexicographic order."""
    for bits in product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def oracle_sigmas(count: int):
    """All 0/1 strings of the given length, in counting order."""
    return ["".join(bits) for bits in product("01", repeat=count)]


# Development by substitution and by sums of constituents: the direct
# forms of the definitions, kept as the reference for the value kernel.


def oracle_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """The flattening product term pair by term pair on name tuples."""
    table: dict[tuple[str, ...], int] = {}
    right = q.terms.items()  # a view of q's terms is built on each read
    for m1, c1 in p.terms.items():
        for m2, c2 in right:
            # Monomials multiply by set union; this is where repeated
            # variables flatten back to the first power.
            mono = tuple(sorted(set(m1) | set(m2)))
            table[mono] = table.get(mono, 0) + c1 * c2
    return Polynomial(table)


def oracle_constituent(sigma: str, names) -> Polynomial:
    result = ONE
    for name, bit in zip(names, sigma):
        x = Polynomial.variable(name)
        result = oracle_product(result, x if bit == "1" else ONE - x)
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
            total = total + oracle_product(coeff, oracle_constituent(sigma, table.variables))
    return total


def oracle_interpretable_core(p: Polynomial, names) -> Polynomial:
    """The sum of the constituents where p's development is nonzero."""
    table = oracle_develop_partial(p, names)
    total = ZERO
    for sigma, coeff in table.items():
        if coeff:
            total = total + oracle_constituent(sigma, table.variables)
    return total


def oracle_solve(p: Polynomial, unknown: str, *, max_vars: int | None = None) -> Solution:
    """Boole's solution of p = 0 term by term: p at unknown 0 and at 1 by
    substitution, the condition as their product, and the interpretable
    cores of both halves over the parameters."""
    parameter = _fresh_parameter(p, unknown)
    if unknown not in p.variables():
        return Solution(
            unknown=unknown,
            condition=p * p,
            particular=ZERO,
            freedom=ONE,
            parameter=parameter,
            vacuous=True,
        )
    params = tuple(name for name in p.variables() if name != unknown)
    at_zero = p.substitute(unknown, 0)
    at_one = p.substitute(unknown, 1)
    condition = at_zero * at_one
    core_zero = interpretable_core(at_zero, params, max_vars=max_vars)
    core_one = interpretable_core(at_one, params, max_vars=max_vars)
    return Solution(
        unknown=unknown,
        condition=condition,
        particular=core_zero,
        freedom=(ONE - core_zero) * (ONE - core_one),
        parameter=parameter,
    )


# The Rule of 0 and 1 and idempotent checking by exhaustive enumeration,
# kept as the reference for the branch-and-prune search.


def oracle_check_r01(sentence: HornSentence) -> Verdict:
    """Sweep every 0/1 point in sigma order.  At a point a monomial adds
    its coefficient exactly when all its variables are 1, so each
    polynomial becomes (bitmask, coefficient) pairs and evaluation is a
    subset test; bit n-1-i of a point belongs to the i-th variable."""
    names = sentence.variables
    n = len(names)
    position = {name: n - 1 - i for i, name in enumerate(names)}

    def compiled(p: Polynomial) -> list[tuple[int, int]]:
        return [(sum(1 << position[name] for name in mono), coeff) for mono, coeff in p.terms.items()]

    def value_at(pairs: list[tuple[int, int]], point: int) -> int:
        return sum(coeff for mask, coeff in pairs if point & mask == mask)

    antecedents = [compiled(p) for p in sentence.antecedents]
    consequent = compiled(sentence.consequent)
    for point in range(1 << n):
        if any(value_at(a, point) != 0 for a in antecedents):
            continue
        result = value_at(consequent, point)
        if result != 0:
            return Verdict(
                holds=False,
                witness={name: point >> (n - 1 - i) & 1 for i, name in enumerate(names)},
                antecedent_values=(0,) * len(antecedents),
                consequent_value=result,
            )
    return Verdict(holds=True)


def oracle_holds_in_idempotents(eq_lhs: Polynomial, universe: Universe):
    """Try every assignment of subsets, earlier variables varying slowest,
    and evaluate at the point of every element."""
    names = eq_lhs.variables()
    for combo in product(universe.subsets(), repeat=len(names)):
        assignment = dict(zip(names, combo))
        for i in universe.elements():
            point = {name: mask >> i & 1 for name, mask in assignment.items()}
            if eq_lhs.evaluate(point) != 0:
                return ClassAssignment(universe, assignment)
    return True


# The term traversals as direct recursions over the tree, kept as the
# reference for the iterative fold: same results, and the same error at
# the same subterm.  They recurse once per tree level, so they are for
# small terms only.


def _oracle_render(term: Term, compact: bool) -> tuple[str, int]:
    # binding strengths: atom 5, power 4, product 3, sum 2, unary minus 1
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    if isinstance(term, Var):
        return term.name, 5
    if isinstance(term, Zero):
        return "0", 5
    if isinstance(term, One):
        return "1", 5
    if isinstance(term, IntLit):
        return str(term.value), 5
    if isinstance(term, Add):
        return f"{_oracle_child(term.left, 1, compact)}{plus}{_oracle_child(term.right, 3, compact)}", 2
    if isinstance(term, Sub):
        return f"{_oracle_child(term.left, 1, compact)}{minus}{_oracle_child(term.right, 3, compact)}", 2
    if isinstance(term, Mul):
        return f"{_oracle_child(term.left, 3, compact)}*{_oracle_child(term.right, 4, compact)}", 3
    if isinstance(term, Neg):
        return "-" + _oracle_child(term.operand, 3, compact), 1
    if isinstance(term, Pow):
        return _oracle_child(term.base, 4, compact) + f"^{term.exponent}", 4
    raise TypeError(f"not a Term: {term!r}")


def _oracle_child(term: Term, minimum: int, compact: bool) -> str:
    text, strength = _oracle_render(term, compact)
    return f"({text})" if strength < minimum else text


def oracle_format_term(term: Term, compact: bool = False) -> str:
    return _oracle_render(term, compact)[0]


def oracle_term_to_poly(term: Term) -> Polynomial:
    if isinstance(term, Var):
        return Polynomial.variable(term.name)
    if isinstance(term, Zero):
        return ZERO
    if isinstance(term, One):
        return ONE
    if isinstance(term, IntLit):
        return Polynomial.constant(term.value)
    if isinstance(term, Add):
        return oracle_term_to_poly(term.left) + oracle_term_to_poly(term.right)
    if isinstance(term, Sub):
        return oracle_term_to_poly(term.left) - oracle_term_to_poly(term.right)
    if isinstance(term, Mul):
        return oracle_term_to_poly(term.left) * oracle_term_to_poly(term.right)
    if isinstance(term, Neg):
        return -oracle_term_to_poly(term.operand)
    if isinstance(term, Pow):
        return oracle_term_to_poly(term.base) ** term.exponent
    raise TypeError(f"not a Term: {term!r}")


def oracle_to_set_expression(term: Term) -> SetExpr:
    """Raises at a unary minus before looking at its operand."""
    if isinstance(term, Var):
        return SetVar(term.name)
    if isinstance(term, One):
        return SetUniverse()
    if isinstance(term, Zero):
        return SetEmpty()
    if isinstance(term, IntLit):
        if term.value == 0:
            return SetEmpty()
        if term.value == 1:
            return SetUniverse()
        raise NotTotallyInterpretableError(term, f"{term.value} is not a class")
    if isinstance(term, Mul):
        return SetIntersection(oracle_to_set_expression(term.left), oracle_to_set_expression(term.right))
    if isinstance(term, Add):
        left = oracle_to_set_expression(term.left)
        right = oracle_to_set_expression(term.right)
        if oracle_term_to_poly(term.left) * oracle_term_to_poly(term.right) != ZERO:
            raise NotTotallyInterpretableError(
                term,
                f"{oracle_format_term(term.left, compact=True)} and "
                f"{oracle_format_term(term.right, compact=True)} are not disjoint",
            )
        return SetUnion(left, right)
    if isinstance(term, Sub):
        left = oracle_to_set_expression(term.left)
        right = oracle_to_set_expression(term.right)
        if oracle_term_to_poly(term.right) * (ONE - oracle_term_to_poly(term.left)) != ZERO:
            raise NotTotallyInterpretableError(
                term,
                f"{oracle_format_term(term.right, compact=True)} is not contained in "
                f"{oracle_format_term(term.left, compact=True)}",
            )
        if isinstance(left, SetUniverse):
            return SetComplement(right)
        return SetIntersection(left, SetComplement(right))
    if isinstance(term, Pow):
        return oracle_to_set_expression(term.base)
    if isinstance(term, Neg):
        raise NotTotallyInterpretableError(term, "unary minus has no class meaning")
    raise TypeError(f"not a Term: {term!r}")


def oracle_format_set_expression(expr: SetExpr) -> str:
    if isinstance(expr, SetVar):
        return expr.name
    if isinstance(expr, SetUniverse):
        return "U"
    if isinstance(expr, SetEmpty):
        return "∅"
    if isinstance(expr, SetUnion):
        return f"{_oracle_set_operand(expr.left)} ∪ {_oracle_set_operand(expr.right)}"
    if isinstance(expr, SetIntersection):
        return f"{_oracle_set_operand(expr.left)} ∩ {_oracle_set_operand(expr.right)}"
    if isinstance(expr, SetComplement):
        return _oracle_set_operand(expr.operand) + "′"
    raise TypeError(f"not a SetExpr: {expr!r}")


def _oracle_set_operand(expr: SetExpr) -> str:
    text = oracle_format_set_expression(expr)
    return f"({text})" if isinstance(expr, (SetUnion, SetIntersection)) else text


def oracle_eval_partial(term: Term, assignment: ClassAssignment):
    """Visits a unary minus's operand first: an undefined operand wins."""
    universe = assignment.universe.mask
    if isinstance(term, Var):
        return Defined(assignment.mask(term.name))
    if isinstance(term, Zero):
        return Defined(0)
    if isinstance(term, One):
        return Defined(universe)
    if isinstance(term, IntLit):
        if term.value == 0:
            return Defined(0)
        if term.value == 1:
            return Defined(universe)
        return Undefined(term, f"{term.value} is not a class")
    if isinstance(term, (Mul, Add, Sub)):
        left = oracle_eval_partial(term.left, assignment)
        right = oracle_eval_partial(term.right, assignment)
        if isinstance(left, Undefined):
            return left
        if isinstance(right, Undefined):
            return right
        if isinstance(term, Mul):
            return Defined(left.subset & right.subset)
        s = oracle_format_term(term.left, compact=True)
        t = oracle_format_term(term.right, compact=True)
        if isinstance(term, Add):
            if left.subset & right.subset:
                return Undefined(term, f"{s}+{t} requires {s}∩{t}=∅")
            return Defined(left.subset | right.subset)
        if right.subset & ~left.subset:
            return Undefined(term, f"{s}-{t} requires {t}⊆{s}")
        return Defined(left.subset & ~right.subset & universe)
    if isinstance(term, Neg):
        inner = oracle_eval_partial(term.operand, assignment)
        if isinstance(inner, Undefined):
            return inner
        s = oracle_format_term(term.operand, compact=True)
        return Undefined(term, f"-{s} uses unary minus, which is not a class operation")
    if isinstance(term, Pow):
        return oracle_eval_partial(term.base, assignment)
    raise TypeError(f"not a Term: {term!r}")


def oracle_eval_multiset(term: Term, assignment: dict[str, Multiset], size: int) -> Multiset:
    if isinstance(term, Var):
        if term.name not in assignment:
            raise KeyError(f"no value assigned to variable {term.name!r}")
        return assignment[term.name]
    if isinstance(term, Zero):
        return Multiset.constant(0, size)
    if isinstance(term, One):
        return Multiset.constant(1, size)
    if isinstance(term, IntLit):
        return Multiset.constant(term.value, size)
    if isinstance(term, Add):
        return oracle_eval_multiset(term.left, assignment, size) + oracle_eval_multiset(term.right, assignment, size)
    if isinstance(term, Sub):
        return oracle_eval_multiset(term.left, assignment, size) - oracle_eval_multiset(term.right, assignment, size)
    if isinstance(term, Mul):
        return oracle_eval_multiset(term.left, assignment, size) * oracle_eval_multiset(term.right, assignment, size)
    if isinstance(term, Neg):
        return -oracle_eval_multiset(term.operand, assignment, size)
    if isinstance(term, Pow):
        return oracle_eval_multiset(term.base, assignment, size) ** term.exponent
    raise TypeError(f"not a Term: {term!r}")


def oracle_term_variables(term: Term) -> tuple[str, ...]:
    if isinstance(term, Var):
        return (term.name,)
    if isinstance(term, (Add, Sub, Mul)):
        return tuple(sorted(set(oracle_term_variables(term.left) + oracle_term_variables(term.right))))
    if isinstance(term, Neg):
        return oracle_term_variables(term.operand)
    if isinstance(term, Pow):
        return oracle_term_variables(term.base)
    return ()


# The 24 records as the frozen dataclasses they were, fields and
# validation only, kept as the reference for boole._record: the same
# construction, errors, ==, hash and repr (but for the "oracle_" prefix).


@dataclass(frozen=True, slots=True)
class oracle_Var:
    name: str

    def __post_init__(self) -> None:
        _require_name(self.name)


@dataclass(frozen=True, slots=True)
class oracle_Zero:
    pass


@dataclass(frozen=True, slots=True)
class oracle_One:
    pass


@dataclass(frozen=True, slots=True)
class oracle_IntLit:
    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or self.value < 0:
            raise ValueError(f"integer literal must be >= 0, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class oracle_Add:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class oracle_Sub:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class oracle_Mul:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class oracle_Neg:
    operand: object


@dataclass(frozen=True, slots=True)
class oracle_Pow:
    base: object
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {self.exponent!r}")


@dataclass(frozen=True, slots=True)
class oracle_SetVar:
    name: str


@dataclass(frozen=True, slots=True)
class oracle_SetUniverse:
    pass


@dataclass(frozen=True, slots=True)
class oracle_SetEmpty:
    pass


@dataclass(frozen=True, slots=True)
class oracle_SetUnion:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class oracle_SetIntersection:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class oracle_SetComplement:
    operand: object


@dataclass(frozen=True)
class oracle_Universe:
    size: int

    def __post_init__(self) -> None:
        if not 0 <= self.size <= MAX_UNIVERSE:
            raise ValueError(f"universe size must be in 0..{MAX_UNIVERSE}, got {self.size}")

    @property
    def mask(self) -> int:
        return (1 << self.size) - 1


@dataclass(frozen=True)
class oracle_ClassAssignment:
    universe: oracle_Universe
    masks: Mapping[str, int]

    def __post_init__(self) -> None:
        clean: dict[str, int] = {}
        for name in sorted(self.masks):
            problem = f"assignment for {name!r} is not a subset of the universe"
            clean[name] = _subset_mask(self.masks[name], self.universe, problem)
        object.__setattr__(self, "masks", MappingProxyType(clean))


@dataclass(frozen=True)
class oracle_Defined:
    subset: int


@dataclass(frozen=True)
class oracle_Undefined:
    term: object
    reason: str


@dataclass(frozen=True)
class oracle_Multiset:
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        for v in values:
            if not isinstance(v, int):
                raise TypeError(f"multiset value {v!r} is not an integer")
        object.__setattr__(self, "values", tuple(map(int, values)))  # a bool is stored as its int


@dataclass(frozen=True)
class oracle_HornSentence:
    antecedents: tuple[Polynomial, ...]
    consequent: Polynomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedents", tuple(self.antecedents))


@dataclass(frozen=True)
class oracle_Verdict:
    holds: bool
    witness: Mapping[str, int] | None = None
    antecedent_values: tuple[int, ...] | None = None
    consequent_value: int | None = None

    def __post_init__(self) -> None:
        if self.witness is not None:
            object.__setattr__(self, "witness", MappingProxyType(dict(self.witness)))


@dataclass(frozen=True)
class oracle_DevelopmentTable:
    variables: tuple[str, ...]
    coefficients: Mapping[str, Polynomial]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", _check_variables(self.variables))
        try:
            ordered = {
                sigma: self.coefficients[sigma]
                for sigma in sigma_strings(len(self.variables))
            }
        except KeyError as missing:
            raise ValueError(f"table is missing an entry for sigma {missing}") from None
        if len(ordered) != len(self.coefficients):
            raise ValueError("table must have exactly one entry per sigma")
        object.__setattr__(self, "coefficients", MappingProxyType(ordered))


@dataclass(frozen=True)
class oracle_Solution:
    unknown: str
    condition: Polynomial
    particular: Polynomial
    freedom: Polynomial
    parameter: str
    vacuous: bool = False


ORACLE_RECORDS = {
    name.removeprefix("oracle_"): value
    for name, value in list(globals().items())
    if name.startswith("oracle_") and isinstance(value, type)
}


def oracle_record(value):
    """The oracle copy of a record, and of the records in its fields."""
    oracle = ORACLE_RECORDS.get(type(value).__name__)
    if oracle is None:
        return value
    return oracle(*(oracle_record(getattr(value, name)) for name in value._fields))


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

# Terms over x, y, z with every node type, a unary minus anywhere (inside
# products, sums and powers too) and integer literals that have no class
# meaning.
term_leaves = st.one_of(
    st.sampled_from(("x", "y", "z")).map(Var),
    st.just(Zero()),
    st.just(One()),
    st.integers(min_value=0, max_value=3).map(IntLit),
)
terms = st.recursive(
    term_leaves,
    lambda sub: st.one_of(
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(min_value=1, max_value=3)),
    ),
    max_leaves=12,
)

# Horn sentences over up to 14 variables, so that a scan takes more than
# one piece of 10 names, and the search splits when its scan size is
# lowered to 8 names.  Antecedents may hold on many points
# (x - y, x*y - z, x + y - 1, a sum of every variable minus a constant),
# or force names anywhere in name order (a monomial = 1, a lone name = 0,
# c*x = c, and x = 2, which forces x both ways and never holds), so that
# forcing, chains of it through x - y, and vacuous holds all occur;
# consequents vanish wherever the antecedents do, plus an optional
# remainder, possibly one monomial of high degree, that makes them fail.
HORN_NAMES = tuple(f"x{i:02d}" for i in range(14))


@st.composite
def horn_sentences(draw) -> HornSentence:
    sizes = st.integers(min_value=11, max_value=14) if draw(st.booleans()) else st.integers(min_value=0, max_value=6)
    names = HORN_NAMES[: draw(sizes)]
    if not names:
        constants = st.integers(min_value=-2, max_value=2).map(Polynomial.constant)
        return HornSentence(tuple(draw(st.lists(constants, max_size=2))), draw(constants))
    monos = st.frozensets(st.sampled_from(names), max_size=4).map(lambda s: tuple(sorted(s)))
    small = st.dictionaries(monos, coefficients, max_size=4).map(Polynomial)
    wide = st.frozensets(st.sampled_from(names), min_size=1).map(lambda s: Polynomial({tuple(sorted(s)): 1}))
    total = Polynomial({(name,): 1 for name in names})
    sums = st.integers(min_value=0, max_value=len(names)).map(lambda k: total - k)
    name = st.sampled_from(names).map(Polynomial.variable)
    nonzero = st.integers(min_value=-3, max_value=3).filter(bool)
    forcing = st.one_of(
        wide.map(lambda m: m - 1),
        name,
        st.builds(lambda c, v: c * v - c, nonzero, name),
        name.map(lambda v: v - 2),
    )
    shapes = [small, sums, forcing]
    if len(names) >= 3:
        triples = st.permutations(names).map(lambda order: [Polynomial.variable(v) for v in order[:3]])
        shapes.append(triples.flatmap(lambda t: st.sampled_from((t[0] - t[1], t[0] * t[1] - t[2], t[0] + t[1] - 1))))
    antecedents = draw(st.lists(st.one_of(shapes), max_size=3))
    consequent = draw(st.one_of(st.just(ZERO), small, wide, sums, st.builds(lambda p, q: p * q, wide, sums)))
    for antecedent in antecedents:
        consequent = consequent + draw(small) * antecedent
    return HornSentence(tuple(antecedents), consequent)
