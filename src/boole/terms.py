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
one loop with an explicit stack, and its one output is the tree's flat
form: ``(class, payload)`` pairs in postorder, the payload being the
node's one field that is not a subtree, or None.  Nodes compare, hash,
``repr``, copy and pickle by that form, ``parse`` builds a tree from it
in one stack loop, and one compiler turns it into a polynomial: ``poly``
compiles the form of its text, so compiled text never becomes a tree,
and ``term_to_poly`` the form of a tree.  Variables are idempotent, so
the compiler holds a run of factors such as ``7*y*x*y`` as one
coefficient and one monomial, with no table: a signed sum of such runs
compiles without the polynomial kernel, and a ``+`` or ``-`` defers such
a factor over a table instead of multiplying it out, so compiling takes
time linear in the text.  Printing, translating to sets,
evaluating and collecting variables are folds over the tree, all on the
one iterative fold below.  Every traversal is iterative, with no depth
limit: a term may be as long and as deeply nested as memory allows.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Any, Callable, Mapping, NoReturn

from ._record import Record, _set
from .polynomial import (
    ONE,
    ZERO,
    Polynomial,
    _add_into,
    _assigned,
    _decimal,
    _digits_value,
    _power,
    _product,
    _require_name,
)

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


# Each node class's shape, filled in as the classes are made: how many
# subtrees it has (its first fields; a binary node's are left and right),
# a getter of a unary node's subtree, and a getter of its payload, its one
# other field, or None.  A value that is not a node has the shape _VALUE.
_SHAPE: dict[type, tuple[int, Callable | None, Callable | None]] = {}
_VALUE = (0, None, None)


class _Node(Record):
    """Term and set-expression nodes.  ``==``, ``hash``, ``repr``, copies
    and pickles use the tree's flat form, so the depth of a tree costs no
    Python frames."""

    __slots__ = ()
    _subtrees = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        count, fields = cls._subtrees, cls._fields
        subtree = attrgetter(fields[0]) if count == 1 else None
        _SHAPE[cls] = count, subtree, attrgetter(fields[count]) if len(fields) > count else None

    def __reduce__(self) -> tuple:
        return _unflatten, (_flat(self),)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _flat(self) == _flat(other)

    def __hash__(self) -> int:
        return hash(_flat(self))

    def __repr__(self) -> str:
        # The text from its end, off the flat form from its end: a node's
        # last piece comes at once, and each other one once the subtree after
        # it is done, so that the time is linear in the text at any depth.
        pieces, waiting = [], []
        for kind, payload in reversed(_flat(self)):
            if kind is None:
                gaps = [repr(payload)]
            else:
                count, _, field = _SHAPE[kind]
                last = f", {kind._fields[count]}={payload!r})" if field else ")"
                gaps = [f", {name}=" for name in kind._fields[:count]] + [last]
                gaps[0] = kind.__qualname__ + "(" + gaps[0].removeprefix(", ")
            pieces.append(gaps.pop())
            waiting.append(gaps)
            while len(waiting) > 1 and not waiting[-1]:
                waiting.pop()
                pieces.append(waiting[-1].pop())
        return "".join(reversed(pieces))


# Constructors for the shapes built in bulk.


class _Nullary(_Node):
    __slots__ = ()

    def __init__(self) -> None:
        pass


class _Unary(_Node):
    __slots__ = ("operand",)
    _subtrees = 1
    operand: _Node

    def __init__(self, operand: _Node) -> None:
        _set(self, "operand", operand)


class _Binary(_Node):
    __slots__ = ("left", "right")
    _subtrees = 2
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
    _subtrees = 1
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
# The flat form and the fold
#
# The flat form lists each node after its children, a left subtree before
# the right one, and a value in a subtree's place, as in Add(1, 2), as the
# pair (None, value).  A traversal is a table from node type to a visit
# function, called with the node and then the values of its children, if
# any.  Every walk keeps its own stack, so the depth of a tree costs no
# Python frames.


def _postorder(root: object, leaves: frozenset = frozenset()) -> list:
    """The nodes of a tree in postorder; nodes of a unary type in
    `leaves` without their subtree."""
    order, stack = [], [root]
    push = stack.append
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        count, subtree, _ = _SHAPE.get(kind, _VALUE)
        if count == 2:
            push(node.left)
            push(node.right)
        elif count and kind not in leaves:
            push(subtree(node))
    order.reverse()
    return order


def _flat(root: object) -> tuple:
    # The flat form of a tree, or of a value as its own tree: each node's
    # pair, in postorder.
    pairs = []
    for node in _postorder(root):
        shape = _SHAPE.get(type(node))
        pairs.append((None, node) if shape is None else (type(node), shape[2] and shape[2](node)))
    return tuple(pairs)


def _unflatten(flat) -> object:
    # The tree whose flat form is `flat`, built in one stack loop through
    # the node constructors.
    stack: list = []
    push, pop = stack.append, stack.pop
    for kind, payload in flat:
        if kind is None:
            push(payload)
            continue
        count, _, field = _SHAPE[kind]
        if count == 2:
            right = pop()
            stack[-1] = kind(stack[-1], right)
        elif count:
            stack[-1] = kind(stack[-1], payload) if field else kind(stack[-1])
        else:
            push(kind(payload) if field else kind())
    return stack[0]


def _fold(root: object, visit: Mapping[type, Callable], leaves: frozenset = frozenset(), order: list | None = None):
    """Fold a tree bottom-up, visiting the types in `leaves` as leaves;
    `order` is the tree's `_postorder` with them, if the caller has it.
    Errors come in the order a left-to-right recursion would meet them."""
    values: list = []
    for node in _postorder(root, leaves) if order is None else order:
        kind = type(node)
        combine = visit.get(kind)
        if combine is None:
            raise TypeError(f"unexpected {kind.__name__}: {node!r}")
        count = _SHAPE[kind][0]
        if count == 2:
            right = values.pop()
            values[-1] = combine(node, values[-1], right)
        elif count and kind not in leaves:
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
# The pairs with no payload that the reader emits, made once.
_ZERO_PAIR, _ONE_PAIR, _MUL_PAIR, _NEG_PAIR, _ADD_PAIR, _SUB_PAIR = ((k, None) for k in (Zero, One, Mul, Neg, Add, Sub))


def _offset(text: str, index: int) -> int:
    # The offset of the index-th token of `text`, or len(text) for the
    # end marker; found only when an error is raised.
    match = next(islice(_TOKEN.finditer(text), index, None), None)
    return len(text) if match is None else match.start()


def _read(text: str) -> list[tuple[type, Any]]:
    """The flat form of the tree that `text` parses to, read by the
    grammar with no tree.  Raises ParseError with a byte offset on bad
    input.

    >>> [(kind.__name__, payload) for kind, payload in _read("x - 2*y")]
    [('Var', 'x'), ('IntLit', 2), ('Var', 'y'), ('Mul', None), ('Sub', None)]
    """
    # A bad character anywhere is reported before any syntax error, so
    # past this check every token is ASCII: a number is a token that
    # isdigit(), a name one that isidentifier(); "" marks the end.
    tokens = _TOKEN.findall(text)
    if not _STARTS.issuperset(map(itemgetter(0), set(tokens))):
        bad = next(match for match in _TOKEN.finditer(text) if match[0][0] not in _STARTS)
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    tokens.append("")
    flat: list[tuple[type, Any]] = []
    emit = flat.append
    # The expression being read is the pair that joins the next product to
    # its sum (None before the first product), whether the product has a
    # factor yet, and whether a leading minus still waits for the first
    # product.  An open parenthesis saves the enclosing expression's state
    # and starts afresh.
    frames: list[tuple[tuple | None, bool, bool]] = []
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
            value = _digits_value(token)
            emit((IntLit, value) if value > 1 else _ONE_PAIR if value else _ZERO_PAIR)
        elif token.isidentifier():
            emit((Var, token))
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
                emit((Pow, value))
                pos += 2
            if factored:
                emit(_MUL_PAIR)
            token = tokens[pos]
            if token == "*":
                factored = True
                break
            if negate:
                emit(_NEG_PAIR)
                negate = False
            if op:
                emit(op)
            factored = False
            if token == "+" or token == "-":
                op = _ADD_PAIR if token == "+" else _SUB_PAIR
                break
            if not frames:
                if token:
                    raise ParseError("unexpected trailing input", _offset(text, pos))
                return flat
            if token != ")":
                raise ParseError("expected ')'", _offset(text, pos))
            op, factored, negate = frames.pop()
            pos += 1
        pos += 1


def parse(text: str) -> Term:
    """Parse concrete syntax into a Term; raises ParseError with a byte
    offset on bad input."""
    return _unflatten(_read(text))


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
# One compiler turns a tree's flat form into a polynomial, dispatching on
# each pair's class: `poly` compiles the form that `_read` gives for its
# text, so text never becomes a tree, and `term_to_poly` compiles the
# tree's own form once it has checked that every class in it compiles.
#
# The compiler keeps a stack of values, each a coefficient, a monomial
# mask over the form's variables as in ``polynomial``, a coefficient table
# or None for a lone term, and a list of deferred values or None: the
# value is coefficient * mask * (table + the sum of the deferred values).
# Variables are idempotent, so a run of factors like 7*y*x*y is one
# coefficient and one mask.  Unary minus negates the coefficient; *
# multiplies the coefficients, ORs the masks and runs the kernel's product
# only when both values have tables.  At + and -, a lone term joins the
# other side's table as one dict update; a side with a pending mask, or a
# coefficient other than 1 or -1, joins the other side's list, with its
# sign folded in, and is not multiplied out; and of two tables under bare
# signs the smaller is added into the larger.  So compiling takes time
# linear in the form: one walk, `_flatten`, pushes the deferred values'
# coefficients and masks down into one table, and runs only at the root,
# at a ^ and at a * between two tables.  A ^ leaves a lone term with a
# coefficient of -1, 0 or 1 lone and powers any other value as a table,
# with a coefficient of 1 or -1 outside, so a negated idempotent is its
# own power at once.  The root's table becomes the polynomial, unsorted.
# The classes that compile are the term nodes.
_COMPILED = frozenset({Var, Zero, One, IntLit, Add, Sub, Mul, Neg, Pow})


def _flatten(coeff: int, mask: int, table: dict | None, parts: list | None) -> dict:
    # The table of the value (coeff, mask, table, parts), in one walk with
    # its own stack that adds each deferred value's terms, times the
    # coefficients and masks above it, into one table: `table` itself
    # when coeff is 1 and mask is 0.  A deferred value is never lone.
    if table is None:
        return {mask: coeff}
    if mask or coeff != 1:
        table, parts = {}, [(coeff, mask, table, parts)]
    todo = parts or []
    while todo:
        coeff, mask, terms, parts = todo.pop()
        if mask:
            for key, value in terms.items():
                key |= mask
                table[key] = table.get(key, 0) + coeff * value
        else:
            _add_into(table, terms, coeff)
        if parts:
            todo += [(coeff * c, mask | m, t, p) for c, m, t, p in parts]
    return table


def _host(value: tuple) -> tuple[int, dict, list | None]:
    # The value as a sign, a table and a list of deferred values that
    # another value may join: a lone term becomes a table, and a value with
    # a factor pending the one deferred value.
    coeff, mask, table, parts = value
    if table is None:
        return 1, {mask: coeff}, None
    if mask or (coeff != 1 and coeff != -1):
        return 1, {}, [value]
    return coeff, table, parts


def _sum(left: tuple, right: tuple, sign: int) -> tuple:
    # left + sign * right: one side joins the other, which keeps its table.
    # A lone term joins as one dict update, a value with a factor pending
    # as one deferred value, and the smaller of two bare tables (tables
    # under a sign, with no factor pending) is added into the larger, its
    # deferred values joining as one.
    lcoeff, lmask, ltable, lparts = left
    rcoeff, rmask, rtable, rparts = right
    bare = ltable is not None and not lmask and (lcoeff == 1 or lcoeff == -1)
    if rtable is None and bare:
        # The commonest case, as in a long sum: the left side stays the value.
        ltable[rmask] = ltable.get(rmask, 0) + lcoeff * sign * rcoeff
        return left
    if rtable is None or rmask or (rcoeff != 1 and rcoeff != -1) or (bare and len(ltable) >= len(rtable)):
        hsign, table, parts = _host(left)
        coeff, mask, terms, rest = rcoeff * sign, rmask, rtable, rparts
    else:
        hsign, table, parts = _host(right)
        hsign *= sign
        coeff, mask, terms, rest = left
    coeff *= hsign
    if terms is None:
        table[mask] = table.get(mask, 0) + coeff
        return hsign, 0, table, parts
    if not mask and (coeff == 1 or coeff == -1):
        _add_into(table, terms, coeff)
        if not rest:
            return hsign, 0, table, parts
        terms = {}
    if parts is None:
        parts = []
    parts.append((coeff, mask, terms, rest))
    return hsign, 0, table, parts


def _compile(flat: list | tuple) -> Polynomial:
    # The polynomial of a term's flat form, over the names it mentions.
    names = tuple(sorted({payload for kind, payload in flat if kind is Var}))
    bit = {name: 1 << i for i, name in enumerate(reversed(names))}
    stack: list[tuple[int, int, dict | None, list | None]] = []
    push, pop = stack.append, stack.pop
    for kind, payload in flat:
        if kind is Var:
            push((1, bit[payload], None, None))
        elif kind is Mul:
            (rcoeff, rmask, rtable, rparts), (lcoeff, lmask, ltable, lparts) = pop(), stack[-1]
            if ltable is None:
                ltable, lparts = rtable, rparts
            elif rtable is not None:
                ltable, lparts = _product(_flatten(1, 0, ltable, lparts), _flatten(1, 0, rtable, rparts)), None
            stack[-1] = lcoeff * rcoeff, lmask | rmask, ltable, lparts
        elif kind is Add or kind is Sub:
            right = pop()
            stack[-1] = _sum(stack[-1], right, 1 if kind is Add else -1)
        elif kind is IntLit:
            push((payload, 0, None, None))
        elif kind is Zero or kind is One:
            push((0 if kind is Zero else 1, 0, None, None))
        elif kind is Pow:
            coeff, mask, table, parts = stack[-1]
            if table is None and -1 <= coeff <= 1:
                stack[-1] = coeff if payload & 1 else coeff * coeff, mask, None, None
            else:
                sign = coeff if coeff == 1 or coeff == -1 else 1
                table = _power(_flatten(coeff * sign, mask, table, parts), payload)
                stack[-1] = sign if payload & 1 else 1, 0, table, None
        else:  # Neg
            coeff, mask, table, parts = stack[-1]
            stack[-1] = -coeff, mask, table, parts
    return Polynomial._make(names, _flatten(*stack[0]))


def term_to_poly(term: Term) -> Polynomial:
    """Compile a term to its canonical polynomial (powers computed with
    the flattening product, so idempotence of variables is built in)."""
    flat = _flat(term)
    if not _COMPILED.issuperset(map(itemgetter(0), flat)):
        node = next(node for node in _postorder(term) if type(node) not in _COMPILED)
        raise TypeError(f"unexpected {type(node).__name__}: {node!r}")
    return _compile(flat)


def poly(text: str) -> Polynomial:
    """Parse and compile in one step: ``poly("x + y - 2*x*y")``.  The
    whole text is read to its tree's flat form, with no tree, before
    anything is compiled."""
    return _compile(_read(text))


def to_term(p: Polynomial) -> Term:
    """A term whose compilation is exactly `p`: the parse of its printed
    form, which lists the terms in canonical order."""
    return parse(str(p))


# ----------------------------------------------------------------------
# Total interpretability and translation to set expressions
#
# A term denotes a class for *every* assignment exactly when each of its
# additions joins disjoint classes and each subtraction removes a class
# contained in the other.  Such terms translate directly into
# union/intersection/complement form.  Every subterm that passes these
# checks compiles to an idempotent, and a multilinear polynomial is zero
# exactly when it vanishes at every 0/1 point.  So for idempotents p and
# q, p*q = 0 exactly when their sets of 0/1 points are disjoint, and
# q*(1 - p) = 0 exactly when q's points lie in p's: the checks are Boole's
# partial algebra of classes on the free algebra's universe, the 2^n
# points of the term's n names.  There a class is a bitmask over the
# points, and the checks and the operations are single bitwise operations.
# Above a memory budget a class is its polynomial instead, and the checks
# multiply polynomials.  `models.eval_partial` runs the same class fold
# over an assignment's masks.


class NotTotallyInterpretableError(Exception):
    """The term has an assignment under which it denotes no class.

    Carries the innermost offending subterm and the side condition it
    fails.
    """

    def __init__(self, term: Term, condition: str):
        super().__init__(f"not totally interpretable: {format_term(term)} ({condition})")
        self.term = term
        self.condition = condition


# The most bits that the masks of one translation may take at once (32
# MiB); past it the checks multiply polynomials.
_MASK_BUDGET_BITS = 1 << 28


def _mask_count(order: list) -> tuple[list[str], int]:
    # The names in a postorder of the translation, and the most bits its
    # masks take at once: 2**n bits for each of the n names, for the
    # universe, and for each mask the fold computes and holds, counting at
    # each +, - or * its operands, its result and one temporary.  The
    # masks of a name, of 1 and of 0 are shared by all their leaves.
    names: dict[str, None] = {}
    computed: list[bool] = []
    push, pop = computed.append, computed.pop
    held = most = 0
    for node in order:
        kind = type(node)
        if _SHAPE.get(kind, _VALUE)[0] == 2:
            if held + 2 > most:
                most = held + 2
            held += 1 - pop() - computed[-1]
            computed[-1] = True
        elif kind is Var:
            names[node.name] = None
            push(False)
        elif kind is not Pow:  # a leaf; a power passes its base on
            push(False)
    return list(names), (len(names) + 1 + most) << len(names)


class _Undefined(Exception):
    """Raised by the class fold at the first node, in postorder, that
    denotes no class although its operands do; each caller phrases it."""

    def __init__(self, node: Term):
        self.node = node


def _undefined(node: Term, *operands) -> NoReturn:
    raise _Undefined(node)


class _Masks:
    """Classes as bitmasks over a universe: bit k of a class's mask says
    whether element k is in it."""

    empty = 0

    def __init__(self, universe: int, variable: Callable[[str], int]):
        self.universe, self.variable = universe, variable

    @staticmethod
    def meet(node: Mul, s: int, t: int) -> int:
        return s & t

    @staticmethod
    def union(node: Add, s: int, t: int) -> int:
        return _undefined(node) if s & t else s | t

    @staticmethod
    def difference(node: Sub, s: int, t: int) -> int:
        return _undefined(node) if t & ~s else s ^ t


class _PointMasks(_Masks):
    """The free algebra's classes: bitmasks over the 2**n points of n
    names, bit k of a class's mask its value at the point k."""

    def __init__(self, names: list[str]):
        size = 1 << len(names)
        universe = (1 << size) - 1
        half = size >> 1
        # Each name's mask is runs of `half` zeros and `half` ones from the
        # lowest point up, for a `half` that halves from name to name: the
        # next mask is one shift and one exclusive or away.
        masks: dict[str, int] = {}
        mask = universe ^ ((1 << half) - 1)
        for name in names:
            masks[name] = mask
            half >>= 1
            mask ^= mask >> half
        super().__init__(universe, masks.__getitem__)


def _polynomial(value: Polynomial | Term) -> Polynomial:
    return term_to_poly(value) if isinstance(value, Term) else value


class _Polynomials:
    """Classes as their polynomials.  A product stays its subterm until a
    + or - above it asks for its polynomial, as multiplying out a product
    of sums can take exponential room; a sum or a difference keeps the
    polynomial its check computed."""

    empty, universe = ZERO, ONE
    variable = staticmethod(Polynomial.variable)

    @staticmethod
    def meet(node: Mul, p: Polynomial | Term, q: Polynomial | Term) -> Mul:
        return node

    @staticmethod
    def union(node: Add, p: Polynomial | Term, q: Polynomial | Term) -> Polynomial:
        p, q = _polynomial(p), _polynomial(q)
        return _undefined(node) if p * q != ZERO else p + q

    @staticmethod
    def difference(node: Sub, p: Polynomial | Term, q: Polynomial | Term) -> Polynomial:
        p, q = _polynomial(p), _polynomial(q)
        rest = ONE - p
        return _undefined(node) if rest != ZERO and q * rest != ZERO else p - q


def _class_fold(term: Term, classes, leaves: frozenset, order: list):
    # The class that `term` denotes in `classes`, in Boole's partial
    # algebra of classes.  A unary minus denotes none; with Neg in
    # `leaves` it fails before its operand is looked at.
    visit: dict[type, Callable] = {
        Var: lambda node: classes.variable(node.name),
        One: lambda node: classes.universe,
        Zero: lambda node: classes.empty,
        IntLit: lambda node: _undefined(node) if node.value > 1 else classes.universe if node.value else classes.empty,
        Mul: classes.meet,
        Add: classes.union,
        Sub: classes.difference,
        Pow: lambda node, base: base,
        Neg: _undefined,
    }
    return _fold(term, visit, leaves, order)


# The set expression of a term whose class fold passed.
_TO_SET: dict[type, Callable] = {
    Var: lambda node: SetVar(node.name),
    One: lambda node: SetUniverse(),
    Zero: lambda node: SetEmpty(),
    IntLit: lambda node: SetUniverse() if node.value else SetEmpty(),
    Mul: lambda node, s, t: SetIntersection(s, t),
    Add: lambda node, s, t: SetUnion(s, t),
    Sub: lambda node, s, t: SetComplement(t) if type(s) is SetUniverse else SetIntersection(s, SetComplement(t)),
    # A power of an idempotent denotes the same class as its base, and
    # every term that translates compiles to an idempotent.
    Pow: lambda node, base: base,
}
# Unary minus fails whatever its operand.
_SET_LEAVES = frozenset({Neg})


def _free_classes(term: Term) -> list:
    # The postorder of `term`, after the class fold over the free algebra
    # of its names has passed; raises _Undefined otherwise.
    order = _postorder(term, _SET_LEAVES)
    names, bits = _mask_count(order)
    _class_fold(term, _PointMasks(names) if bits <= _MASK_BUDGET_BITS else _Polynomials, _SET_LEAVES, order)
    return order


def _set_condition(node: Term) -> str:
    # The condition that translation fails at `node`.
    if type(node) is IntLit:
        return _decimal(node.value) + " is not a class"
    if type(node) is Neg:
        return "unary minus has no class meaning"
    s, t = format_term(node.left, compact=True), format_term(node.right, compact=True)
    return f"{s} and {t} are not disjoint" if type(node) is Add else f"{t} is not contained in {s}"


def to_set_expression(term: Term) -> SetExpr:
    """Translate a totally interpretable term to sets: ``+`` becomes
    union, ``*`` intersection, ``s - t`` becomes s intersected with the
    complement of t (``1 - t`` is plain complement), 1 the universe and
    0 the empty set.  Raises NotTotallyInterpretableError otherwise."""
    try:
        order = _free_classes(term)
    except _Undefined as failure:
        raise NotTotallyInterpretableError(failure.node, _set_condition(failure.node)) from None
    return _fold(term, _TO_SET, _SET_LEAVES, order)


def is_totally_interpretable(term: Term) -> bool:
    """True when the term denotes a class under every assignment."""
    try:
        _free_classes(term)
    except _Undefined:
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


def term_variables(term: Term) -> tuple[str, ...]:
    """Variable names occurring in a term, sorted."""
    return tuple(sorted({node.name for node in _postorder(term) if type(node) is Var}))
