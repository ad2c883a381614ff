"""Boole's syntactic term language.

Terms are finite trees built from variables, the constants 0 and 1 (plus
nonnegative integer literals as a ring-flavoured extension), binary ``+``,
``-`` and ``*``, a leading unary minus, and positive integer powers.

Concrete syntax, used verbatim by the command line tool::

    expr   := ['-'] prod (('+' | '-') prod)*
    prod   := factor ('*' factor)*
    factor := INT | IDENT | '(' expr ')' | factor '^' INT

Whitespace is insignificant.  ``*`` is mandatory: juxtaposition like
``xy`` would be ambiguous with multi-character identifiers.  ``^`` binds
tighter than ``*``, which binds tighter than ``+``/``-``; the binary
operators associate to the left.  Parse errors carry byte offsets.

The reader splits text into tokens with one regular-expression scan that
keeps no positions: the offset of a bad character or a syntax error is
found by a second scan, only when the error is raised.  The parser is
one loop with an explicit stack, and its one output is flat postfix
code: ``(op, payload)`` pairs with children before parents.  ``parse``
builds a tree from the code in one stack loop, and one compiler turns
code into a polynomial: ``poly`` compiles the code of its text, so
compiled text never becomes a tree, and ``term_to_poly`` compiles a
tree's postorder as the same code.  Variables are idempotent, so the
compiler holds a run of factors such as ``7*y*x*y`` as one coefficient
and one monomial, with no table: a signed sum of such runs compiles
without the polynomial kernel.  Printing, translating to sets,
evaluating and collecting variables are folds over the tree, all on
the one iterative fold below, and nodes compare, hash, print, copy and
pickle with stacks of their own.  Every traversal is iterative, with no
depth limit: a term may be as long and as deeply nested as memory
allows.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Any, Callable, Mapping

from ._record import Record, _set
from .polynomial import ONE, ZERO, Polynomial, _add_into, _decimal, _digits_value, _power, _product, _require_name

__all__ = [
    "Add",
    "IntLit",
    "Mul",
    "Neg",
    "NotTotallyInterpretableError",
    "One",
    "ParseError",
    "Pow",
    "SetComplement",
    "SetEmpty",
    "SetExpr",
    "SetIntersection",
    "SetUnion",
    "SetUniverse",
    "SetVar",
    "Sub",
    "Term",
    "Var",
    "Zero",
    "eval_set_expression",
    "format_set_expression",
    "format_term",
    "is_totally_interpretable",
    "parse",
    "poly",
    "term_to_poly",
    "term_variables",
    "to_set_expression",
    "to_term",
]


class _Node(Record):
    """Term and set-expression nodes.  ``==``, ``hash`` and ``repr`` walk
    the tree with their own stacks, so its depth costs no Python frames."""

    __slots__ = ()

    def _flat(self) -> tuple:
        # The nodes in postorder, each as its class and the fields that
        # are not subtrees: all of a tree, as a class fixes how many
        # subtrees its nodes have.
        flat = []
        for node in _postorder(self):
            if isinstance(node, _Node):
                node = (node.__class__, *node._values()[_subtrees(node.__class__):])
            flat.append(node)
        return tuple(flat)

    def __reduce__(self) -> tuple:
        # Copies and pickles ship the flat form, so a deep tree costs the
        # copier and the pickler no Python frames either.
        return _unflatten, (self._flat(),)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._flat() == other._flat()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._flat())

    def __repr__(self) -> str:
        pieces, stack = [], [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, _Node):
                pieces.append(item)
                continue
            pieces.append(f"{item.__class__.__qualname__}(")
            todo = []
            for name in item._fields:
                value = getattr(item, name)
                todo.append(f", {name}=" if todo else f"{name}=")
                todo.append(value if isinstance(value, _Node) else repr(value))
            todo.append(")")
            stack += reversed(todo)
        return "".join(pieces)


# Constructors for the shapes built in bulk.


class _Nullary(_Node):
    __slots__ = ()

    def __init__(self) -> None:
        pass


class _Unary(_Node):
    __slots__ = ("operand",)
    operand: _Node

    def __init__(self, operand: _Node) -> None:
        _set(self, "operand", operand)


class _Binary(_Node):
    __slots__ = ("left", "right")
    left: _Node
    right: _Node

    def __init__(self, left: _Node, right: _Node) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Term(_Node):
    """Base class of term AST nodes.  Nodes are immutable and comparable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


class Var(Term):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set(self, "name", _require_name(name))


class Zero(_Nullary, Term):
    __slots__ = ()


class One(_Nullary, Term):
    __slots__ = ()


class IntLit(Term):
    """A nonnegative integer literal; negatives arise only via Neg/Sub."""

    __slots__ = ("value",)
    value: int

    def __init__(self, value: int) -> None:
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"integer literal must be >= 0, got {value!r}")
        _set(self, "value", int(value))  # a bool prints as an int


class Add(_Binary, Term):
    __slots__ = ()


class Sub(_Binary, Term):
    __slots__ = ()


class Mul(_Binary, Term):
    __slots__ = ()


class Neg(_Unary, Term):
    __slots__ = ()


class Pow(Term):
    __slots__ = ("base", "exponent")
    base: Term
    exponent: int

    def __init__(self, base: Term, exponent: int) -> None:
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent!r}")
        _set(self, "base", base)
        _set(self, "exponent", int(exponent))


class SetExpr(_Node):
    """Base class of set-expression nodes over a universe."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_set_expression(self)


class SetVar(SetExpr):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class SetUniverse(_Nullary, SetExpr):
    __slots__ = ()


class SetEmpty(_Nullary, SetExpr):
    __slots__ = ()


class SetUnion(_Binary, SetExpr):
    __slots__ = ()


class SetIntersection(_Binary, SetExpr):
    __slots__ = ()


class SetComplement(_Unary, SetExpr):
    __slots__ = ()


# ----------------------------------------------------------------------
# The fold
#
# A traversal is a table from node type to a visit function, called with
# the node and then the values of its children, if any.  The walk keeps
# its own stack, so the depth of a tree costs no Python frames.

_BINARY = frozenset({Add, Sub, Mul, SetUnion, SetIntersection})
_UNARY = {Neg: attrgetter("operand"), Pow: attrgetter("base"), SetComplement: attrgetter("operand")}


def _subtrees(kind: type) -> int:
    return 2 if kind in _BINARY else 1 if kind in _UNARY else 0


def _unflatten(flat: tuple) -> _Node:
    # The tree whose `_Node._flat` form is `flat`, built in one stack
    # loop through the node constructors; an item that is not a node's
    # entry is a value in a subtree's place, as in Add(1, 2).
    stack: list = []
    for item in flat:
        kind = item[0] if type(item) is tuple and item else None
        if isinstance(kind, type) and issubclass(kind, _Node):
            count = _subtrees(kind)
            item = kind(*stack[len(stack) - count:], *item[1:])
            del stack[len(stack) - count:]
        stack.append(item)
    return stack[0]


def _postorder(root: object, leaves: frozenset = frozenset()) -> list:
    """The nodes of a tree, each after its children and a left subtree
    before the right one; nodes of a type in `leaves` without subtrees."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind in _BINARY:
            stack.append(node.left)
            stack.append(node.right)
        elif kind in _UNARY and kind not in leaves:
            stack.append(_UNARY[kind](node))
    order.reverse()
    return order


def _fold(root: object, visit: Mapping[type, Callable], leaves: frozenset = frozenset()):
    """Fold a tree bottom-up, visiting the types in `leaves` as leaves.
    Errors come in the order a left-to-right recursion would meet them."""
    values: list = []
    for node in _postorder(root, leaves):
        kind = type(node)
        combine = visit.get(kind)
        if combine is None:
            raise TypeError(f"unexpected {kind.__name__}: {node!r}")
        if kind in _BINARY:
            right = values.pop()
            values[-1] = combine(node, values[-1], right)
        elif kind in _UNARY and kind not in leaves:
            values[-1] = combine(node, values[-1])
        else:
            values.append(combine(node))
    return values[0]


# ----------------------------------------------------------------------
# Parsing


class ParseError(Exception):
    """A lexical or syntax error, with the byte offset of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        return f"{self.message} at offset {self.position}"


# A number, a name, or any other character that is not whitespace.
# Numbers and names are ASCII only: the classes [0-9] and [A-Za-z] are,
# where str.isdigit and str.isalnum also accept "²" and "٣".
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|\S")
# The characters a token may start with: the symbols, digits and letters.
_STARTS = frozenset("+-*^()0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _offset(text: str, index: int) -> int:
    # The offset of the index-th token of `text`, or len(text) for the
    # end marker; found only when an error is raised.
    match = next(islice(_TOKEN.finditer(text), index, None), None)
    return len(text) if match is None else match.start()


def _read(text: str) -> list[tuple[str, Any]]:
    """The postfix code of `text` read by the grammar: ``(op, payload)``
    pairs, children before parents and a left operand before the right
    one.  The ops are "var" with a name, "int" with a nonnegative value,
    "^" with an exponent, and "*", "neg", "+" and "-" with no payload.
    Raises ParseError with a byte offset on bad input.

    >>> _read("x - 2*y")
    [('var', 'x'), ('int', 2), ('var', 'y'), ('*', None), ('-', None)]
    """
    # A bad character anywhere is reported before any syntax error, so
    # past this check every token is ASCII: a number is a token that
    # isdigit(), a name one that isidentifier(); "" marks the end.
    tokens = _TOKEN.findall(text)
    if not _STARTS.issuperset(map(itemgetter(0), set(tokens))):
        bad = next(match for match in _TOKEN.finditer(text) if match[0][0] not in _STARTS)
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    tokens.append("")
    code: list[tuple[str, Any]] = []
    emit = code.append
    # The expression being read is the operator that joins the next
    # product to its sum (None before the first product), whether the
    # product has a factor yet, and whether a leading minus still waits
    # for the first product.  An open parenthesis saves the enclosing
    # expression's state and starts afresh.
    frames: list[tuple[str | None, bool, bool]] = []
    op, factored, negate = None, False, tokens[0] == "-"
    pos = int(negate)
    while True:
        token = tokens[pos]
        pos += 1
        if token == "(":
            frames.append((op, factored, negate))
            op, factored = None, False
            negate = tokens[pos] == "-"
            pos += negate
            continue
        if token.isdigit():
            emit(("int", _digits_value(token)))
        elif token.isidentifier():
            emit(("var", token))
        else:
            raise ParseError("expected a number, a variable or '('", _offset(text, pos - 1))
        # A complete factor; it may complete the product, the sum and the
        # parenthesized factor around them, and so on outwards.
        while True:
            while tokens[pos] == "^":
                token = tokens[pos + 1]
                if not token.isdigit():
                    raise ParseError("expected an integer exponent after '^'", _offset(text, pos + 1))
                value = _digits_value(token)
                if value == 0:
                    raise ParseError("exponent must be at least 1", _offset(text, pos + 1))
                emit(("^", value))
                pos += 2
            if factored:
                emit(("*", None))
            token = tokens[pos]
            if token == "*":
                factored = True
                break
            if negate:
                emit(("neg", None))
                negate = False
            if op:
                emit((op, None))
            factored = False
            if token == "+" or token == "-":
                op = token
                break
            if not frames:
                if token:
                    raise ParseError("unexpected trailing input", _offset(text, pos))
                return code
            if token != ")":
                raise ParseError("expected ')'", _offset(text, pos))
            op, factored, negate = frames.pop()
            pos += 1
        pos += 1


def parse(text: str) -> Term:
    """Parse concrete syntax into a Term; raises ParseError with a byte
    offset on bad input."""
    stack: list[Term] = []
    push = stack.append
    for op, payload in _read(text):
        if op == "var":
            push(Var(payload))
        elif op == "int":
            push(Zero() if payload == 0 else One() if payload == 1 else IntLit(payload))
        elif op == "^":
            stack[-1] = Pow(stack[-1], payload)
        elif op == "neg":
            stack[-1] = Neg(stack[-1])
        else:
            right = stack.pop()
            stack[-1] = (Add if op == "+" else Sub if op == "-" else Mul)(stack[-1], right)
    return stack[0]


# ----------------------------------------------------------------------
# Printing

# Positions demand a minimum binding strength from their child; a child
# below the minimum gets parenthesized.  Neg ranks below the binary
# operators because the grammar only allows a bare minus up front.
_ATOM, _POW, _MUL, _ADD, _NEG = 5, 4, 3, 2, 1
_STRENGTH = {
    Var: _ATOM, Zero: _ATOM, One: _ATOM, IntLit: _ATOM,
    Pow: _POW, Mul: _MUL, Add: _ADD, Sub: _ADD, Neg: _NEG,
}


def _wrap(child: Term, text: str, minimum: int) -> str:
    return f"({text})" if _STRENGTH[type(child)] < minimum else text


def _format_visits(plus: str, minus: str) -> dict[type, Callable]:
    return {
        Var: lambda node: node.name,
        Zero: lambda node: "0",
        One: lambda node: "1",
        IntLit: lambda node: _decimal(node.value),
        # A left operand needs no parentheses, as nothing binds weaker than
        # a unary minus and one is legal on the left spine: -x + y
        Add: lambda node, s, t: s + plus + _wrap(node.right, t, _MUL),
        Sub: lambda node, s, t: s + minus + _wrap(node.right, t, _MUL),
        Mul: lambda node, s, t: _wrap(node.left, s, _MUL) + "*" + _wrap(node.right, t, _POW),
        Neg: lambda node, s: "-" + _wrap(node.operand, s, _MUL),
        Pow: lambda node, s: f"{_wrap(node.base, s, _POW)}^{node.exponent}",
    }


_FORMAT = {False: _format_visits(" + ", " - "), True: _format_visits("+", "-")}


def format_term(term: Term, compact: bool = False) -> str:
    """Deterministic concrete syntax for a term; reparses to an equal
    polynomial.  ``compact`` drops the spaces around binary operators."""
    return _fold(term, _FORMAT[bool(compact)])


# ----------------------------------------------------------------------
# Compilation to polynomials
#
# Both text and trees compile through the postfix code that `_read`
# gives: `poly` compiles the code of its text, so text never becomes a
# tree, and `term_to_poly` reads the code off the tree's postorder.
#
# The compiler keeps a stack of values, each a coefficient, a monomial
# mask over the code's variables as in ``polynomial``, and a coefficient
# table or None for the table 1: the value is their product.  Variables
# are idempotent, so a run of factors like 7*y*x*y is one coefficient and
# one mask.  Unary minus negates the coefficient; * multiplies the
# coefficients, ORs the masks and runs the kernel's product only when both
# values have tables.  A value with no table joins a sum as one dict
# update, and of two tables the smaller is added into the larger.  A
# value's coefficient and mask go into its table, by the kernel's product
# with one term, only when it meets a sum, a ^ or the root, and not when
# they are a bare sign; the root's table becomes the polynomial, and
# nothing is sorted.


_TREE_CODE: dict[type, Callable] = {
    Var: lambda node: ("var", node.name),
    Zero: lambda node: ("int", 0),
    One: lambda node: ("int", 1),
    IntLit: lambda node: ("int", node.value),
    Add: lambda node: ("+", None),
    Sub: lambda node: ("-", None),
    Mul: lambda node: ("*", None),
    Neg: lambda node: ("neg", None),
    Pow: lambda node: ("^", node.exponent),
}


def _table(value: tuple[int, int, dict | None]) -> tuple[int, dict]:
    # A sign and a table whose product is the value: its coefficient and
    # mask go into the table, unless they are a bare sign.
    coeff, mask, table = value
    if table is None:
        return 1, {mask: coeff}
    if mask or (coeff != 1 and coeff != -1):
        return 1, _product({mask: coeff}, table)
    return coeff, table


def _sum(left: tuple, right: tuple, sign: int) -> tuple[int, int, dict]:
    # left + sign * right, as a sign times a table: a side with no table
    # is added as one dict update, and of two tables the smaller into the
    # larger.
    if right[2] is None:
        lsign, table = _table(left)
        mask = right[1]
        table[mask] = table.get(mask, 0) + lsign * sign * right[0]
        return lsign, 0, table
    rsign, table = _table(right)
    rsign *= sign
    if left[2] is None:
        mask = left[1]
        table[mask] = table.get(mask, 0) + rsign * left[0]
        return rsign, 0, table
    lsign, ltable = _table(left)
    if len(ltable) >= len(table):
        return lsign, 0, _add_into(ltable, table, lsign * rsign)
    return rsign, 0, _add_into(table, ltable, lsign * rsign)


def _compile(code: list[tuple[str, Any]]) -> Polynomial:
    # The polynomial of postfix code, over the names it mentions.
    names = tuple(sorted({payload for op, payload in code if op == "var"}))
    bit = {name: 1 << i for i, name in enumerate(reversed(names))}
    stack: list[tuple[int, int, dict | None]] = []
    push, pop = stack.append, stack.pop
    for op, payload in code:
        if op == "var":
            push((1, bit[payload], None))
        elif op == "*":
            (rcoeff, rmask, rtable), (lcoeff, lmask, ltable) = pop(), stack[-1]
            if ltable is None:
                ltable = rtable
            elif rtable is not None:
                ltable = _product(ltable, rtable)
            stack[-1] = lcoeff * rcoeff, lmask | rmask, ltable
        elif op == "+" or op == "-":
            right = pop()
            stack[-1] = _sum(stack[-1], right, 1 if op == "+" else -1)
        elif op == "int":
            push((payload, 0, None))
        elif op == "^":
            sign, table = _table(stack[-1])
            stack[-1] = sign if payload & 1 else 1, 0, _power(table, payload)
        else:  # "neg"
            coeff, mask, table = stack[-1]
            stack[-1] = -coeff, mask, table
    sign, table = _table(stack[0])
    if sign < 0:
        table = {mask: -coeff for mask, coeff in table.items()}
    return Polynomial._make(names, table)


def term_to_poly(term: Term) -> Polynomial:
    """Compile a term to its canonical polynomial (powers computed with
    the flattening product, so idempotence of variables is built in)."""
    code: list = []
    for node in _postorder(term):
        entry = _TREE_CODE.get(type(node))
        if entry is None:
            raise TypeError(f"unexpected {type(node).__name__}: {node!r}")
        code.append(entry(node))
    return _compile(code)


def poly(text: str) -> Polynomial:
    """Parse and compile in one step: ``poly("x + y - 2*x*y")``.  The
    whole text is read to postfix code, with no tree, before anything is
    compiled."""
    return _compile(_read(text))


def to_term(p: Polynomial) -> Term:
    """A term whose compilation is exactly `p`: the parse of its printed
    form, which lists the terms in canonical order."""
    return parse(str(p))


# ----------------------------------------------------------------------
# Total interpretability and translation to set expressions
#
# A term denotes a class for *every* assignment exactly when all its
# additions are provably disjoint and all its subtractions provably
# contained, as polynomial identities.  Such terms translate directly
# into union/intersection/complement form.


class NotTotallyInterpretableError(Exception):
    """The term has an assignment under which it denotes no class.

    Carries the innermost offending subterm and the side condition it
    fails.
    """

    def __init__(self, term: Term, condition: str):
        super().__init__(f"not totally interpretable: {format_term(term)} ({condition})")
        self.term = term
        self.condition = condition


# A value is a pair: the set expression and a function that returns the
# subterm's polynomial, called only by a + or - above it for its side
# condition.  A sum or difference hands on the polynomials its own check
# computed; a product is compiled only when asked, as multiplying out a
# product of sums can take exponential room.


def _set_literal(node: IntLit) -> tuple[SetExpr, Callable]:
    if node.value > 1:
        raise NotTotallyInterpretableError(node, _decimal(node.value) + " is not a class")
    return (SetUniverse(), lambda: ONE) if node.value else (SetEmpty(), lambda: ZERO)


def _set_neg(node: Neg):
    raise NotTotallyInterpretableError(node, "unary minus has no class meaning")


def _set_add(node: Add, left: tuple, right: tuple) -> tuple[SetExpr, Callable]:
    p, q = left[1](), right[1]()
    if p * q != ZERO:
        raise NotTotallyInterpretableError(
            node,
            f"{format_term(node.left, compact=True)} and "
            f"{format_term(node.right, compact=True)} are not disjoint",
        )
    return SetUnion(left[0], right[0]), lambda: p + q


def _set_sub(node: Sub, left: tuple, right: tuple) -> tuple[SetExpr, Callable]:
    p, q = left[1](), right[1]()
    rest = ONE - p
    if rest != ZERO and q * rest != ZERO:
        raise NotTotallyInterpretableError(
            node,
            f"{format_term(node.right, compact=True)} is not contained in "
            f"{format_term(node.left, compact=True)}",
        )
    s, complement = left[0], SetComplement(right[0])
    expr = complement if isinstance(s, SetUniverse) else SetIntersection(s, complement)
    return expr, lambda: p - q


_TO_SET: dict[type, Callable] = {
    Var: lambda node: (SetVar(node.name), lambda: Polynomial.variable(node.name)),
    One: lambda node: (SetUniverse(), lambda: ONE),
    Zero: lambda node: (SetEmpty(), lambda: ZERO),
    IntLit: _set_literal,
    Mul: lambda node, left, right: (SetIntersection(left[0], right[0]), lambda: term_to_poly(node)),
    Add: _set_add,
    Sub: _set_sub,
    # A power of an idempotent denotes the same class as its base, and
    # every term that translates compiles to an idempotent.
    Pow: lambda node, base: base,
    # A leaf: unary minus fails whatever its operand.
    Neg: _set_neg,
}


def to_set_expression(term: Term) -> SetExpr:
    """Translate a totally interpretable term to sets: ``+`` becomes
    union, ``*`` intersection, ``s - t`` becomes s intersected with the
    complement of t (``1 - t`` is plain complement), 1 the universe and
    0 the empty set.  Raises NotTotallyInterpretableError otherwise."""
    return _fold(term, _TO_SET, frozenset({Neg}))[0]


def is_totally_interpretable(term: Term) -> bool:
    """True when the term denotes a class under every assignment."""
    try:
        to_set_expression(term)
    except NotTotallyInterpretableError:
        return False
    return True


def _set_wrap(child: SetExpr, text: str) -> str:
    return f"({text})" if type(child) in (SetUnion, SetIntersection) else text


_FORMAT_SET: dict[type, Callable] = {
    SetVar: lambda node: node.name,
    SetUniverse: lambda node: "U",
    SetEmpty: lambda node: "∅",
    SetUnion: lambda node, s, t: _set_wrap(node.left, s) + " ∪ " + _set_wrap(node.right, t),
    SetIntersection: lambda node, s, t: _set_wrap(node.left, s) + " ∩ " + _set_wrap(node.right, t),
    SetComplement: lambda node, s: _set_wrap(node.operand, s) + "′",
}


def format_set_expression(expr: SetExpr) -> str:
    """Render with the usual symbols; nested binary operations are always
    parenthesized, complement is a postfix prime."""
    return _fold(expr, _FORMAT_SET)


def eval_set_expression(expr: SetExpr, masks: Mapping[str, int], universe_mask: int) -> int:
    """Evaluate to a subset bitmask, given variable bitmasks and the full
    universe bitmask."""
    visits: dict[type, Callable] = {
        SetVar: lambda node: _assigned(masks, node.name),
        SetUniverse: lambda node: universe_mask,
        SetEmpty: lambda node: 0,
        SetUnion: lambda node, s, t: s | t,
        SetIntersection: lambda node, s, t: s & t,
        SetComplement: lambda node, s: universe_mask & ~s,
    }
    return _fold(expr, visits)


def _assigned(values: Mapping[str, object], name: str):
    if name not in values:
        raise KeyError(f"no value assigned to variable {name!r}")
    return values[name]


def term_variables(term: Term) -> tuple[str, ...]:
    """Variable names occurring in a term, sorted."""
    return tuple(sorted({node.name for node in _postorder(term) if type(node) is Var}))
