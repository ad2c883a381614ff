"""Correctness oracle for the benchmark, independent of ``boole``.

Everything here is re-derived from the concrete syntax and from plain
data, never by calling the program under test:

* ``compile_rpn`` turns term text into postfix form with an explicit
  operator stack, so inputs nested thousands of levels deep still compile
  (Python's own ``eval`` stops at 200 nested parentheses, and ``**`` is
  right-associative where the term grammar's ``^`` is left-associative);
* ``evaluate`` runs postfix code over an *algebra*: integer vectors (one
  entry per 0/1 point, or per universe element for multisets) or class
  bitmasks with Boole's partiality;
* polynomials arrive as plain ``(monomial, coefficient)`` pairs and are
  evaluated by subset tests.

A multilinear polynomial is fixed by its values at the 0/1 points, so
comparing values at every point is a complete check; above
``EXHAUSTIVE_VARS`` variables a seeded sample of points is compared.
Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

EXHAUSTIVE_VARS = 12
SAMPLE_POINTS = 32


class OracleSyntaxError(ValueError):
    """The oracle could not read a piece of term or set-expression text."""


# ----------------------------------------------------------------------
# Term text -> postfix code

_BINARY = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 3)}
_NEG_PRECEDENCE = 2  # a leading minus covers the whole product after it


def _tokens(text: str) -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            out.append((ch, None))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("var", text[i:j]))
            i = j
        else:
            raise OracleSyntaxError(f"unexpected character {ch!r}")
    return out


def compile_rpn(text: str) -> list[tuple]:
    """Postfix code for term text: ``("var", name)``, ``("int", k)``,
    ``("add",)``, ``("sub",)``, ``("mul",)``, ``("neg",)``, ``("pow", k)``.
    ``^`` takes an integer literal and binds tightest, to the left."""
    out: list[tuple] = []
    ops: list[tuple[str, int]] = []  # (op, precedence); "(" has precedence 0
    expect_operand = True
    toks = _tokens(text)
    i = 0
    while i < len(toks):
        kind, value = toks[i]
        if expect_operand:
            if kind in ("var", "int"):
                out.append((kind, value))
                expect_operand = False
            elif kind == "(":
                ops.append(("(", 0))
            elif kind == "-":
                ops.append(("neg", _NEG_PRECEDENCE))
            else:
                raise OracleSyntaxError(f"expected an operand, got {kind!r}")
        elif kind == "^":
            i += 1
            if i >= len(toks) or toks[i][0] != "int":
                raise OracleSyntaxError("'^' needs an integer exponent")
            out.append(("pow", toks[i][1]))
        elif kind == ")":
            while ops and ops[-1][0] != "(":
                out.append((ops.pop()[0],))
            if not ops:
                raise OracleSyntaxError("unbalanced ')'")
            ops.pop()
        elif kind in _BINARY:
            name, prec = _BINARY[kind]
            while ops and ops[-1][1] >= prec:
                out.append((ops.pop()[0],))
            ops.append((name, prec))
            expect_operand = True
        else:
            raise OracleSyntaxError(f"unexpected {kind!r}")
        i += 1
    if expect_operand:
        raise OracleSyntaxError("incomplete expression")
    while ops:
        op = ops.pop()[0]
        if op == "(":
            raise OracleSyntaxError("unbalanced '('")
        out.append((op,))
    return out


def rpn_variables(code: Iterable[tuple]) -> set[str]:
    return {ins[1] for ins in code if ins[0] == "var"}


# ----------------------------------------------------------------------
# Algebras and the evaluator


class IntVectors:
    """Integer arithmetic, elementwise over vectors of a fixed length."""

    def __init__(self, env: dict[str, list[int]], length: int):
        self.env = env
        self.length = length

    def var(self, name):
        return self.env[name]

    def const(self, k):
        return [k] * self.length

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b):
        return [x - y for x, y in zip(a, b)]

    def mul(self, a, b):
        return [x * y for x, y in zip(a, b)]

    def neg(self, a):
        return [-x for x in a]

    def pow(self, a, k):
        return [x**k for x in a]


UNDEFINED = None


class Classes:
    """Boole's partial algebra of classes over bitmask subsets: ``+`` needs
    disjoint operands, ``-`` needs containment, unary minus and integers
    above 1 denote no class, and any undefined part makes the whole
    undefined."""

    def __init__(self, env: dict[str, int], universe: int):
        self.env = env
        self.universe = universe

    def var(self, name):
        return self.env[name]

    def const(self, k):
        return (0, self.universe)[k] if k < 2 else UNDEFINED

    def add(self, a, b):
        if a is UNDEFINED or b is UNDEFINED or a & b:
            return UNDEFINED
        return a | b

    def sub(self, a, b):
        if a is UNDEFINED or b is UNDEFINED or b & ~a:
            return UNDEFINED
        return a & ~b

    def mul(self, a, b):
        if a is UNDEFINED or b is UNDEFINED:
            return UNDEFINED
        return a & b

    def neg(self, a):
        return UNDEFINED

    def pow(self, a, k):
        return a

    # set-expression operators (total)
    def union(self, a, b):
        return a | b

    def inter(self, a, b):
        return a & b

    def compl(self, a):
        return self.universe & ~a


def evaluate(code: Sequence[tuple], algebra) -> object:
    stack: list[object] = []
    for ins in code:
        op = ins[0]
        if op == "var":
            stack.append(algebra.var(ins[1]))
        elif op == "int":
            stack.append(algebra.const(ins[1]))
        elif op in ("neg", "compl"):
            stack.append(getattr(algebra, op)(stack.pop()))
        elif op == "pow":
            stack.append(algebra.pow(stack.pop(), ins[1]))
        else:
            right = stack.pop()
            stack.append(getattr(algebra, op)(stack.pop(), right))
    if len(stack) != 1:
        raise OracleSyntaxError("malformed postfix code")
    return stack[0]


# ----------------------------------------------------------------------
# Points
#
# Variables are taken in sorted order and the first one is the most
# significant bit of a point's index, so ascending indices are sigma
# (counting) order.


def all_points(n: int) -> list[int]:
    return list(range(1 << n))


def sample_points(n: int, rng: random.Random) -> list[int]:
    if n <= EXHAUSTIVE_VARS:
        return all_points(n)
    top = (1 << n) - 1
    return [0, top] + [rng.getrandbits(n) for _ in range(SAMPLE_POINTS)]


def point_env(names: Sequence[str], points: Sequence[int]) -> dict[str, list[int]]:
    n = len(names)
    return {
        name: [p >> (n - 1 - i) & 1 for p in points] for i, name in enumerate(names)
    }


def text_values(text: str, names: Sequence[str], points: Sequence[int]) -> list[int]:
    """Values of the term text at the given points over ``names``."""
    return code_values(compile_rpn(text), names, points)


def code_values(code, names: Sequence[str], points: Sequence[int]) -> list[int]:
    return evaluate(code, IntVectors(point_env(names, points), len(points)))


def poly_values(
    terms: Iterable[tuple[Sequence[str], int]], names: Sequence[str], points: Sequence[int]
) -> list[int]:
    """Values of a polynomial given as (monomial, coefficient) pairs; every
    monomial's names must be among ``names``."""
    n = len(names)
    bit = {name: 1 << (n - 1 - i) for i, name in enumerate(names)}
    compiled = []
    for mono, coeff in terms:
        mask = 0
        for name in mono:
            mask |= bit[name]
        compiled.append((mask, coeff))
    return [sum(c for m, c in compiled if p & m == m) for p in points]


def depends_on(values: Sequence[int], n: int) -> list[int]:
    """Positions of the variables a function on all 2**n points depends on;
    these are exactly the variables of its multilinear polynomial."""
    used = []
    for i in range(n):
        bit = 1 << (n - 1 - i)
        if any(values[p] != values[p | bit] for p in range(1 << n) if not p & bit):
            used.append(i)
    return used


def project(values: Sequence[int], n: int, keep: Sequence[int]) -> list[int]:
    """Values on the sub-cube of the kept positions, the others held at 0."""
    k = len(keep)
    out = []
    for sub in range(1 << k):
        full = 0
        for j, pos in enumerate(keep):
            if sub >> (k - 1 - j) & 1:
                full |= 1 << (n - 1 - pos)
        out.append(values[full])
    return out


def sigma(index: int, n: int) -> str:
    return format(index, f"0{n}b") if n else ""


def poly_vars(terms) -> list[str]:
    return sorted({name for mono, _ in terms for name in mono})


# ----------------------------------------------------------------------
# Set expressions and term trees


def compile_set_expression(text: str) -> list[tuple]:
    """Postfix code for rendered set expressions: names, ``U``, ``∅``,
    parentheses, ``∪`` and ``∩`` (nested ones always parenthesized) and
    the postfix complement ``′``."""
    out: list[tuple] = []
    ops: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "U":
            out.append(("int", 1))
        elif ch == "∅":
            out.append(("int", 0))
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("var", text[i:j]))
            i = j
            continue
        elif ch == "′":
            out.append(("compl",))
        elif ch == "(":
            ops.append("(")
        elif ch == ")":
            while ops and ops[-1] != "(":
                out.append((ops.pop(),))
            if not ops:
                raise OracleSyntaxError("unbalanced ')'")
            ops.pop()
        elif ch in "∪∩":
            while ops and ops[-1] != "(":
                out.append((ops.pop(),))
            ops.append("union" if ch == "∪" else "inter")
        else:
            raise OracleSyntaxError(f"unexpected character {ch!r} in a set expression")
        i += 1
    while ops:
        op = ops.pop()
        if op == "(":
            raise OracleSyntaxError("unbalanced '('")
        out.append((op,))
    return out


def set_values(code, names: Sequence[str], points: Sequence[int]) -> list[int]:
    """0/1 membership of each point in the set expression, each variable
    denoting the set of points where it is 1."""
    env = {name: _mask(v) for name, v in point_env(names, points).items()}
    mask = evaluate(code, Classes(env, (1 << len(points)) - 1))
    return [mask >> i & 1 for i in range(len(points))]


def _mask(bits: Sequence[int]) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


def totally_interpretable(text: str) -> bool:
    """A term denotes a class under every assignment exactly when it is
    defined in the class algebra whose universe is the set of all 0/1
    points, each variable being the points where it is 1."""
    code = compile_rpn(text)
    names = sorted(rpn_variables(code))
    points = all_points(len(names))
    env = {name: _mask(v) for name, v in point_env(names, points).items()}
    return evaluate(code, Classes(env, (1 << len(points)) - 1)) is not UNDEFINED


# ----------------------------------------------------------------------
# Checks, one per kind of result


def _compare(label: str, got: Sequence[int], want: Sequence[int], points) -> str | None:
    for p, g, w in zip(points, got, want):
        if g != w:
            return f"{label} differs at point {p}: got {g}, expected {w}"
    if len(got) != len(want):
        return f"{label}: {len(got)} values, expected {len(want)}"
    return None


def check_polynomial(terms, text: str, rng: random.Random) -> str | None:
    """The polynomial has the same value as the term text at every point
    (or every sampled point); its variables must occur in the text."""
    names = sorted(rpn_variables(compile_rpn(text)))
    stray = set(poly_vars(terms)) - set(names)
    if stray:
        return f"result has variables {sorted(stray)} absent from the input"
    points = sample_points(len(names), rng)
    return _compare("polynomial", poly_values(terms, names, points), text_values(text, names, points), points)


def check_product(terms, left: str, right: str, rng: random.Random) -> str | None:
    code = compile_rpn(f"({left})*({right})")
    names = sorted(rpn_variables(code))
    points = sample_points(len(names), rng)
    return _compare("product", poly_values(terms, names, points), code_values(code, names, points), points)


def _full_values(text: str, names: Sequence[str]) -> list[int]:
    return text_values(text, names, all_points(len(names)))


def check_development(rows, text: str, variables: Sequence[str] | None = None) -> str | None:
    """Rows are (sigma, constant) in counting order over the sorted
    development variables: the polynomial's own, or ``variables``."""
    if variables is None:
        names = sorted(rpn_variables(compile_rpn(text)))
        values = _full_values(text, names)
        keep = depends_on(values, len(names))
        values = project(values, len(names), keep)
        n = len(keep)
    else:
        names = sorted(set(variables))
        values = _full_values(text, names)
        n = len(names)
    if len(rows) != 1 << n:
        return f"{len(rows)} rows, expected {1 << n}"
    for index, (sig, coeff) in enumerate(rows):
        if sig != sigma(index, n):
            return f"row {index} has sigma {sig!r}, expected {sigma(index, n)!r}"
        if coeff != values[index]:
            return f"row {sig} has {coeff}, expected {values[index]}"
    return None


def check_core(terms, text: str) -> str | None:
    """The interpretable core is 1 where the input is nonzero, else 0."""
    names = sorted(rpn_variables(compile_rpn(text)))
    want = [1 if v else 0 for v in _full_values(text, names)]
    points = all_points(len(names))
    return _compare("core", poly_values(terms, names, points), want, points)


def first_difference(left: str, right: str) -> str | None:
    """The least sigma, over the variables either polynomial has, where
    their values differ; None when they are equal."""
    names = sorted(rpn_variables(compile_rpn(left)) | rpn_variables(compile_rpn(right)))
    n = len(names)
    lv, rv = _full_values(left, names), _full_values(right, names)
    keep = sorted(set(depends_on(lv, n)) | set(depends_on(rv, n)))
    lv, rv = project(lv, n, keep), project(rv, n, keep)
    for index, (a, b) in enumerate(zip(lv, rv)):
        if a != b:
            return sigma(index, len(keep))
    return None


def check_solution(condition, particular, freedom, text: str, unknown: str) -> str | None:
    """At every parameter point the condition is p(0)*p(1), and when it
    vanishes ``particular + v*freedom`` over v in {0, 1} is exactly the
    set of unknown values that solve p = 0."""
    names = sorted(rpn_variables(compile_rpn(text)) | {unknown})
    params = [name for name in names if name != unknown]
    for part in (condition, particular, freedom):
        if set(poly_vars(part)) - set(params):
            return "solution mentions the unknown or a stray variable"
    values = _full_values(text, names)
    n, k = len(names), len(params)
    upos = names.index(unknown)
    ubit = 1 << (n - 1 - upos)
    points = all_points(k)
    cond_v = poly_values(condition, params, points)
    part_v = poly_values(particular, params, points)
    free_v = poly_values(freedom, params, points)
    for a in points:
        full = 0
        for j in range(k):
            if a >> (k - 1 - j) & 1:
                pos = j if j < upos else j + 1
                full |= 1 << (n - 1 - pos)
        at0, at1 = values[full], values[full | ubit]
        if cond_v[a] != at0 * at1:
            return f"condition is {cond_v[a]} at parameter point {a}, expected {at0 * at1}"
        if cond_v[a] == 0:
            solutions = {y for y, v in ((0, at0), (1, at1)) if v == 0}
            offered = {part_v[a], part_v[a] + free_v[a]}
            if offered != solutions:
                return f"solutions {sorted(offered)} at parameter point {a}, expected {sorted(solutions)}"
    return None


def check_elimination(terms, text: str, eliminated: Sequence[str]) -> str | None:
    """At every point of the remaining variables the result is the product
    of p over all 0/1 values of the eliminated ones."""
    names = sorted(rpn_variables(compile_rpn(text)) | set(eliminated))
    rest = [name for name in names if name not in set(eliminated)]
    if set(poly_vars(terms)) - set(rest):
        return "result still mentions an eliminated or stray variable"
    values = _full_values(text, names)
    n, k = len(names), len(rest)
    elim_bits = [1 << (n - 1 - names.index(e)) for e in sorted(set(eliminated))]
    points = all_points(k)
    got = poly_values(terms, rest, points)
    for a in points:
        base = 0
        for j, name in enumerate(rest):
            if a >> (k - 1 - j) & 1:
                base |= 1 << (n - 1 - names.index(name))
        want = 1
        for choice in range(1 << len(elim_bits)):
            full = base
            for j, b in enumerate(elim_bits):
                if choice >> j & 1:
                    full |= b
            want *= values[full]
        if got[a] != want:
            return f"eliminant is {got[a]} at point {a}, expected {want}"
    return None


def check_reduction(terms, texts: Sequence[str]) -> str | None:
    names = sorted(set().union(*(rpn_variables(compile_rpn(t)) for t in texts)))
    points = all_points(len(names))
    want = [0] * len(points)
    for t in texts:
        want = [w + v * v for w, v in zip(want, text_values(t, names, points))]
    return _compare("reduction", poly_values(terms, names, points), want, points)


def check_set_expression(code, text: str, rng: random.Random) -> str | None:
    """The set expression contains exactly the points where the term is 1."""
    names = sorted(rpn_variables(compile_rpn(text)) | rpn_variables(code))
    points = sample_points(len(names), rng)
    want = text_values(text, names, points)
    return _compare("set expression", set_values(code, names, points), want, points)


def check_term(code, text: str, rng: random.Random) -> str | None:
    """A term (as postfix code) denotes the same polynomial as the text."""
    names = sorted(rpn_variables(compile_rpn(text)) | rpn_variables(code))
    points = sample_points(len(names), rng)
    return _compare("term", code_values(code, names, points), text_values(text, names, points), points)


def horn_verdict(antecedents: Sequence[tuple[str, str]], consequent: tuple[str, str]):
    """Brute-force Rule of 0 and 1: ``(True, None)`` or ``(False, witness)``
    with the least witness over the sentence's variables (the variables
    its equations' polynomials have) in sigma order."""
    equations = [f"({lhs}) - ({rhs})" for lhs, rhs in (*antecedents, consequent)]
    names = sorted(set().union(*(rpn_variables(compile_rpn(e)) for e in equations)))
    n = len(names)
    tables = [_full_values(e, names) for e in equations]
    keep = sorted(set().union(*(depends_on(t, n) for t in tables)))
    tables = [project(t, n, keep) for t in tables]
    kept = [names[i] for i in keep]
    *ante, cons = tables
    for index in range(1 << len(kept)):
        if all(a[index] == 0 for a in ante) and cons[index] != 0:
            return False, {name: int(b) for name, b in zip(kept, sigma(index, len(kept)))}
    return True, None


def check_witness(witness: dict[str, int], antecedents, consequent, consequent_value=None) -> str | None:
    """Direct check: every antecedent vanishes at the witness and the
    consequent does not (and has the reported value).  Variables the text
    mentions but the witness omits must not matter: every completion of
    them is tried."""
    codes = [compile_rpn(f"({lhs}) - ({rhs})") for lhs, rhs in (*antecedents, consequent)]
    names = sorted(set(witness).union(*(rpn_variables(code) for code in codes)))
    free = [i for i, name in enumerate(names) if name not in witness]
    if len(free) > EXHAUSTIVE_VARS:
        return "witness leaves too many variables unassigned"
    n = len(names)
    base = sum(witness[name] << (n - 1 - i) for i, name in enumerate(names) if name in witness)
    points = []
    for choice in range(1 << len(free)):
        bits = sum(1 << (n - 1 - i) for j, i in enumerate(free) if choice >> j & 1)
        points.append(base | bits)
    *ante, cons = [code_values(code, names, points) for code in codes]
    for (lhs, rhs), values in zip(antecedents, ante):
        if any(values):
            return f"antecedent {lhs} = {rhs} fails at the witness"
    if 0 in cons:
        return "consequent holds at the witness"
    if len(set(cons)) != 1:
        return "consequent depends on a variable the witness omits"
    if consequent_value is not None and consequent_value != cons[0]:
        return f"consequent value {consequent_value}, expected {cons[0]}"
    return None


def class_value(text: str, masks: dict[str, int], size: int):
    """Class-algebra value of a term: a bitmask, or None when undefined."""
    return evaluate(compile_rpn(text), Classes(masks, (1 << size) - 1))


def multiset_value(text: str, values: dict[str, list[int]], size: int) -> list[int]:
    return evaluate(compile_rpn(text), IntVectors(values, size))
