"""Multilinear integer polynomials with an exponent-flattening product.

This is the carrier of Boole's algebra of logic: polynomials over the
integers in which every variable occurs to at most the first power.  Sums,
differences and negation are the ordinary coefficientwise operations.  The
product is the ordinary polynomial product followed by flattening every
exponent above one back to one (so ``x * x == x`` for a variable ``x``),
which keeps the multilinear polynomials closed under multiplication.

A monomial is a set of variables: over an ascending list of m names, an
m-bit mask with bit m-1-i for the i-th name, so two monomials multiply by
one ``|``.  The value kernel at the end of this module indexes by the same
masks the 2**m values at the 0/1 points, which also fix a multilinear
polynomial over m variables: the subset-sum (zeta) transform takes
coefficients to values and its Moebius inverse takes values back, each in
m*2**(m-1) integer additions (Yates's algorithm).

Coefficients are arbitrary-precision Python ints; nothing here can
overflow.  Values are immutable and safe to share between threads.

>>> x, y = variables("x, y")
>>> x * (x + y - x * y)
x
>>> (x + y) * (x + y)
x + y + 2*x*y
>>> (x + y - x * y).is_idempotent()
True
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict
from functools import reduce
from itertools import compress
from operator import add, mul, or_, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "DEFAULT_VARIABLE_LIMIT",
    "Monomial",
    "Polynomial",
    "VariableLimitError",
    "ONE",
    "ZERO",
    "check_variable_limit",
    "from_point_values",
    "is_valid_name",
    "point_polynomials",
    "point_values",
    "variables",
]

# A monomial is a sorted tuple of distinct variable names; () is the
# constant monomial.
Monomial = tuple[str, ...]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Soft cap on the number of variables for operations that enumerate all
# 2**n zero/one points.  Callers may override it explicitly.
DEFAULT_VARIABLE_LIMIT = 20

# A power whose coefficients pass this many bits (about 19700 digits) is
# refused: an exponent of a few digits, or a chain like 2^99^99^99^99,
# could otherwise take minutes and gigabytes to compute and print.
MAX_POWER_BITS = 1 << 16

# The value-vector product's fixed cost, 10-25 us over 1-8 names, in term
# pairs of about 0.2 us each (Python 3.11.7, 2-core Xeon).
_DENSE_SETUP = 64


class VariableLimitError(Exception):
    """An operation would enumerate 2**n cases beyond the configured limit."""


def is_valid_name(name: object) -> bool:
    """True if `name` is a usable variable name (letter, then letters,
    digits or underscores)."""
    return isinstance(name, str) and _NAME_RE.match(name) is not None


def _require_name(name: str) -> str:
    if not is_valid_name(name):
        raise ValueError(
            f"invalid variable name {name!r}: expected a letter followed by "
            "letters, digits or underscores"
        )
    return name


def check_variable_limit(count: int, limit: int | None = None) -> None:
    """Raise VariableLimitError if `count` variables exceed the cap.

    `limit` overrides the module default of DEFAULT_VARIABLE_LIMIT; a
    negative one is a ValueError.  Exceeding the cap is an explicit
    error, never a silent truncation.
    """
    cap = DEFAULT_VARIABLE_LIMIT if limit is None else limit
    if cap < 0:
        raise ValueError(f"the variable limit must be nonnegative, got {cap}")
    if count > cap:
        raise VariableLimitError(
            f"{count} variable{'' if count == 1 else 's'} would enumerate "
            f"2**{count} cases; the limit is {cap} (pass a higher limit "
            "explicitly if you mean it)"
        )


def _decimal(n: int) -> str:
    """str(n), exact also past the interpreter's limit on the digits of
    an int-to-str conversion (4300 by default), which stays in force."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    half = n.bit_length() * 3 // 20  # about half its digits
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _from_decimal(text: str | int) -> int:
    """The integer a numeral names: an optional sign and the ASCII digits
    0-9, with whitespace around them allowed.  Exact also past the
    interpreter's limit on the digits of a str-to-int conversion.  An
    int (a JSON number) is its own value."""
    if type(text) is int:
        return text
    if not isinstance(text, str):
        raise TypeError(f"numeral {text!r} is neither a string nor an int")
    digits = text.strip()
    negative = digits.startswith("-")
    digits = digits[negative or digits.startswith("+") :]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}: expected an optional sign and the digits 0-9")
    return -_digits_value(digits) if negative else _digits_value(digits)


def _digits_value(digits: str) -> int:
    """int(digits) for a nonempty string of the ASCII digits 0-9, exact
    also past the interpreter's limit on the digits of a str-to-int
    conversion."""
    try:
        return int(digits)
    except ValueError:  # past the digit limit
        half = len(digits) // 2
        return _digits_value(digits[:-half]) * 10**half + _digits_value(digits[-half:])


def _normalize_monomial(mono: object, valid: set[str]) -> Monomial:
    # `valid` holds the names checked so far and gains the new ones, so a
    # caller normalizing many monomials checks each distinct name once.
    names = (mono,) if isinstance(mono, str) else tuple(mono)  # type: ignore[arg-type]
    for name in names:
        if not (isinstance(name, str) and name in valid):
            valid.add(_require_name(name))
    ordered = tuple(sorted(names))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ValueError(f"monomial {names!r} repeats variable {a!r}")
    return ordered


class Polynomial:
    """A canonical multilinear polynomial over the integers.

    Internally ``_names``, the ascending tuple of exactly the variables
    that occur, and ``_table``, a dict from monomial mask over them to
    nonzero coefficient; two polynomials are equal exactly when both
    agree.  Arithmetic sorts nothing: operands over different names are
    aligned by moving runs of adjacent bits, and the degree-then-name
    order of ``terms``, printing and JSON is derived when they are read.

    Use :meth:`constant`, :meth:`variable` or :func:`variables` to build
    atoms, then combine with ``+``, ``-``, ``*`` and ``**``.  ``*`` is the
    flattening product described in the module docstring; with a constant
    operand it degenerates to ordinary scaling.
    """

    __slots__ = ("_names", "_table")

    def __init__(self, terms: Mapping[object, int] | None = None):
        table: dict[Monomial, int] = {}
        valid: set[str] = set()
        for mono, coeff in (terms or {}).items():
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            key = _normalize_monomial(mono, valid)
            table[key] = table.get(key, 0) + int(coeff)
        names = tuple(sorted({name for mono in table for name in mono}))
        made = Polynomial._make(names, {_bits(names, mono): coeff for mono, coeff in table.items()})
        self._names, self._table = made._names, made._table

    @classmethod
    def _make(cls, names: tuple[str, ...], table: dict[int, int]) -> "Polynomial":
        # Trusted path for internal arithmetic: `table` is keyed by masks
        # over `names`, ascending.  Zero coefficients are dropped from it
        # in place, and so are the names no monomial uses.  It is also the
        # constant constructor: ``_make((), {0: value})``.
        for mask in [mask for mask, coeff in table.items() if not coeff]:
            del table[mask]
        used = reduce(or_, table, 0)
        if used != (1 << len(names)) - 1:
            names, table = _select(names, used), _move(table, (used, (1 << used.bit_count()) - 1))
        self = object.__new__(cls)
        self._names, self._table = names, table
        return self

    @classmethod
    def zero(cls) -> "Polynomial":
        return ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return ONE

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        if not isinstance(value, int):
            raise TypeError(f"constant {value!r} is not an integer")
        return Polynomial._make((), {0: int(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return Polynomial._make((_require_name(name),), {1: 1})

    # ------------------------------------------------------------------
    # Inspection

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """Read-only view of the monomial/coefficient association, in
        degree-then-name order; built on each read."""
        return MappingProxyType(dict(_ordered(self)))

    def coefficient(self, mono: object = ()) -> int:
        """Coefficient of a monomial, 0 if absent.  ``coefficient()`` is
        the constant term."""
        mono = _normalize_monomial(mono, set())
        return self._table.get(_bits(self._names, mono), 0) if set(mono) <= set(self._names) else 0

    def variables(self) -> tuple[str, ...]:
        """All variable names occurring in the polynomial, sorted."""
        return self._names

    def is_constant(self) -> bool:
        return not self._names

    def constant_value(self) -> int:
        """The value of a constant polynomial; error otherwise."""
        if self._names:
            raise ValueError(f"{self} is not constant")
        return self._table.get(0, 0)

    def __bool__(self) -> bool:
        return bool(self._table)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._names == other._names and self._table == other._table

    def __hash__(self) -> int:
        # constants hash like the ints they equal
        if not self._names:
            return hash(self._table.get(0, 0))
        return hash((self._names, frozenset(self._table.items())))

    # ------------------------------------------------------------------
    # Ring operations

    def __add__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        names, left, right = _align(self, other)
        if len(right) > len(left):
            left, right = right, left
        return Polynomial._make(names, _add_into(left.copy(), right, 1))

    __radd__ = __add__

    def __sub__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + -self

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self._names, {mask: -coeff for mask, coeff in self._table.items()})

    def __pos__(self) -> "Polynomial":
        return self

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        """The flattening product: pointwise as value vectors when the term
        pairs outnumber n*2**n plus a fixed cost, for n variables in all;
        otherwise term by term.  No vector is longer than the term-pair
        count, so the product needs no variable limit."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        names, left, right = _align(self, other)
        return Polynomial._make(names, _product(left, right))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        """Repeated squaring; an idempotent base (p*p == p) is its own
        power for every positive exponent."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        return Polynomial._make(self._names, _power(self._table, exponent))

    # ------------------------------------------------------------------
    # Semantics

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Substitute integers for every variable and compute over Z.

        Because the product flattens exponents, evaluation respects
        products only at 0/1-valued assignments; at other integers it is
        still well defined, just not multiplicative.
        """
        total = 0
        for mono, coeff in _ordered(self):
            for name in mono:
                coeff *= _assigned(assignment, name)
            total += coeff
        return total

    def substitute(self, name: str, replacement: Union["Polynomial", int]) -> "Polynomial":
        """Replace a variable by a polynomial throughout, recombining with
        the flattening product."""
        _require_name(name)
        replacement = _coerce(replacement)
        if replacement is NotImplemented:
            raise TypeError("replacement must be a Polynomial or an int")
        if name not in self._names:
            return self
        # p is its terms without `name` plus `name` times the rest, struck out
        bit = _bits(self._names, (name,))
        kept = {mask: coeff for mask, coeff in self._table.items() if not mask & bit}
        factored = {mask ^ bit: coeff for mask, coeff in self._table.items() if mask & bit}
        return Polynomial._make(self._names, kept) + Polynomial._make(self._names, factored) * replacement

    def is_idempotent(self) -> bool:
        """True when p*p == p, Boole's condition of interpretability."""
        return self * self == self

    # ------------------------------------------------------------------
    # Rendering

    def __str__(self) -> str:
        if not self._table:
            return "0"
        parts: list[str] = []
        for mono, coeff in _ordered(self):
            magnitude = abs(coeff)
            if not mono:
                body = _decimal(magnitude)
            elif magnitude == 1:
                body = "*".join(mono)
            else:
                body = _decimal(magnitude) + "*" + "*".join(mono)
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return str(self)


def _assigned(values: Mapping[str, object], name: str):
    if name not in values:
        raise KeyError(f"no value assigned to variable {name!r}")
    return values[name]


def _coerce(value: object):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    return NotImplemented


def variables(names: str | Iterable[str]) -> tuple[Polynomial, ...]:
    """Build variable polynomials from a comma or space separated string,
    e.g. ``x, y = variables("x, y")``."""
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return tuple(Polynomial.variable(n) for n in names)


# ----------------------------------------------------------------------
# Masks over name lists


def _bits(names: Sequence[str], subset: Iterable[str]) -> int:
    # The mask over `names`, ascending, of the names in `subset`.
    top = len(names) - 1
    return sum(1 << (top - bisect_left(names, name)) for name in subset)


def _select(names: Sequence[str], mask: int) -> Monomial:
    # The names at a mask's set bits, ascending.  Only the set bits are
    # visited: a mask over 20000 names may have one.
    top = len(names)
    chosen = []
    while mask:
        high = mask.bit_length()
        chosen.append(names[top - high])
        mask ^= 1 << (high - 1)
    return tuple(chosen)


def _ordered(p: Polynomial) -> list[tuple[Monomial, int]]:
    """p's terms in degree-then-name order, the one order in which terms
    are observed: within one degree, the monomial whose first differing
    name comes first has the larger mask, and masks stay below
    2**len(names)."""
    names, size = p._names, len(p._names)
    ordered = sorted(p._table.items(), key=lambda item: (item[0].bit_count() << size) - item[0])
    return [(_select(names, mask), coeff) for mask, coeff in ordered]


def _move(table: dict[int, int], *pairs: tuple[int, int]) -> dict[int, int]:
    """`table` re-keyed so that the set bits of each source, which
    together cover every key, go in order to those of its target.  Runs
    of bits that stay adjacent move as one field whatever their length,
    and a move that changes no key returns the table itself."""
    fields: dict[int, int] = {}  # shift -> bits
    for source, target in pairs:
        while source:
            start = (source & -source).bit_length() - 1
            end = (target & -target).bit_length() - 1
            a, b = source >> start, target >> end
            # the shorter of the two runs of ones at the bottom
            run = (1 << min((a ^ (a + 1)).bit_length(), (b ^ (b + 1)).bit_length()) - 1) - 1
            fields[end - start] = fields.get(end - start, 0) | run << start
            source ^= run << start
            target ^= run << end
    if not any(fields):
        return table
    moves = list(fields.items())

    def moved(mask: int) -> int:
        key = 0
        for shift, bits in moves:
            key |= (mask & bits) << shift if shift > 0 else (mask & bits) >> -shift
        return key

    return {moved(mask): coeff for mask, coeff in table.items()}


def _spread(p: Polynomial, names: Sequence[str]) -> dict[int, int]:
    # p's table over `names`, ascending, which include p's.
    return _move(p._table, ((1 << len(p._names)) - 1, _bits(names, p._names)))


def _align(p: Polynomial, q: Polynomial) -> tuple[tuple[str, ...], dict[int, int], dict[int, int]]:
    # The union of p's and q's names and both tables over it.
    if p._names == q._names:
        return p._names, p._table, q._table
    names = tuple(sorted({*p._names, *q._names}))
    return names, _spread(p, names), _spread(q, names)


def _restrict(p: Polynomial, bits: Mapping[str, int]) -> Polynomial:
    # p with each name in `bits`, which may hold names p lacks, fixed to its
    # 0/1 value: a term with a name fixed to 0 goes, and a name fixed to 1
    # is struck out of its term.  Each given name is found by bisection, so
    # a restriction to one name does not read all of p's names.
    names, top = p._names, len(p._names) - 1
    fixed = ones = 0
    for name, bit in bits.items():
        at = bisect_left(names, name)
        if at <= top and names[at] == name:
            fixed |= 1 << (top - at)
            ones |= bit << (top - at)
    if not fixed:
        return p
    zeros = fixed ^ ones
    table: dict[int, int] = {}
    for mask, coeff in p._table.items():
        if not mask & zeros:
            table[mask & ~ones] = table.get(mask & ~ones, 0) + coeff
    return Polynomial._make(names, table)


# ----------------------------------------------------------------------
# The table kernel: sums, products and powers of tables keyed by masks
# over one name list, shared by Polynomial and the term compiler


def _add_into(table: dict[int, int], terms: Mapping[int, int], sign: int) -> dict[int, int]:
    # Add sign times `terms` into `table`, which is returned; zero
    # coefficients stay.
    for mask, coeff in terms.items():
        table[mask] = table.get(mask, 0) + sign * coeff
    return table


def _product(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """The flattening product of two tables: as value vectors when, over
    the n bits either table uses, the term pairs outnumber n*2**n plus
    _DENSE_SETUP; otherwise term by term.  Zero coefficients may remain."""
    if p and q:
        used = reduce(or_, p) | reduce(or_, q)
        if (used.bit_count() << used.bit_count()) + _DENSE_SETUP < len(p) * len(q):
            return _dense_product(p, q, used)
    table = {}
    for a, ca in p.items():
        for b, cb in q.items():
            # Monomials multiply by set union; this is where repeated
            # variables flatten back to the first power.
            table[a | b] = table.get(a | b, 0) + ca * cb
    return table


def _sum_of_squares(polys: Sequence[Polynomial]) -> Polynomial:
    """p1*p1 + ... + pk*pk, Boole's reduction of the equations pi = 0 to
    one: each square over its own names, added into one table over the
    union of all of them, so the work is linear in the squares' terms."""
    names = tuple(sorted({name for p in polys for name in p._names}))
    table: dict[int, int] = {}
    for p in polys:
        square = _product(p._table, p._table)
        _add_into(table, _move(square, ((1 << len(p._names)) - 1, _bits(names, p._names))), 1)
    return Polynomial._make(names, table)


def _power(table: dict[int, int], exponent: int) -> dict[int, int]:
    # Repeated squaring of the nonzero terms; an idempotent base is its
    # own power for every positive exponent, and is returned as it is.
    if exponent < 2:
        return table if exponent else {0: 1}
    table = {mask: coeff for mask, coeff in table.items() if coeff}
    square = _product(table, table)
    if {mask: coeff for mask, coeff in square.items() if coeff} == table:
        return table
    result = table if exponent & 1 else {0: 1}
    exponent >>= 1
    while True:
        _check_power_bits(square)
        if exponent & 1:
            result = _check_power_bits(_product(result, square))
        exponent >>= 1
        if not exponent:
            return result
        square = _product(square, square)


def _check_power_bits(table: dict[int, int]) -> dict[int, int]:
    if max(map(abs, table.values()), default=0).bit_length() > MAX_POWER_BITS:
        raise ValueError(f"power too large: its coefficients pass {MAX_POWER_BITS} bits")
    return table


# ----------------------------------------------------------------------
# The value kernel


def _transform(vector: list[int], op) -> None:
    # Yates's algorithm in place: for each bit, combine every entry whose
    # index has the bit set with the entry that lacks it.  Each pass is a
    # few strided slice operations, as many as the shorter of the two ways
    # of cutting the vector into slices.
    size = len(vector)
    half = 1
    while half < size:
        step = 2 * half
        if half < size // step:
            for low in range(half):
                high = low + half
                vector[high::step] = map(op, vector[high::step], vector[low::step])
        else:
            for low in range(0, size, step):
                high, end = low + half, low + step
                vector[high:end] = map(op, vector[high:end], vector[low:high])
        half = step


def _coefficients(vector: list[int]) -> dict[int, int]:
    # The nonzero coefficients of the values in `vector`, which is
    # overwritten, by monomial mask.
    _transform(vector, sub)
    return dict(zip(compress(range(len(vector)), vector), filter(None, vector)))


def _halves(everything: tuple[str, ...], names: Sequence[str]) -> tuple[tuple[int, int], ...]:
    # The moves over `everything`, ascending, that take the bits of
    # `names` to the top and the other bits below them, each in order.
    top, rest = (1 << len(everything)) - 1, (1 << (len(everything) - len(names))) - 1
    inside = _bits(everything, names)
    return (inside, top ^ rest), (top ^ inside, rest)


def point_values(p: Polynomial, names: Sequence[str]) -> dict[int, list[int]]:
    """The values of p at the 0/1 points of `names`, a strictly ascending
    variable list: for each residual (the part of a monomial outside
    `names`, a mask over p's other names), the vector of its coefficient
    in p at every point, indexed as in the module docstring.  Over
    ``(*names, *rest)`` a monomial's high bits index the point and its low
    bits are its residual.  The residual-0 vector is always there."""
    everything = tuple(sorted({*p._names, *names}))
    rest = len(everything) - len(names)
    size, low = 1 << len(names), (1 << rest) - 1
    groups: defaultdict[int, list[int]] = defaultdict(lambda: [0] * size, {0: [0] * size})
    for mask, coeff in _move(_spread(p, everything), *_halves(everything, names)).items():
        groups[mask & low][mask >> rest] = coeff
    for vector in groups.values():
        _transform(vector, add)
    return groups


def point_polynomials(p: Polynomial, names: Sequence[str]) -> list[Polynomial]:
    """p with the variables of `names` set to the bits of each 0/1 point,
    in index order: one polynomial in the remaining variables per point."""
    groups = point_values(p, names)
    rest = tuple(name for name in p._names if name not in names)
    if not rest:
        # Constants, one per distinct value: a complete development over
        # m names takes few distinct values among its 2**m (1-29% of them
        # in the benchmark's developments over 6-10 names).
        values = groups[0]
        made = {value: Polynomial._make((), {0: value}) for value in set(values)}
        return list(map(made.__getitem__, values))
    return [Polynomial._make(rest, dict(zip(groups, values))) for values in zip(*groups.values())]


def from_point_values(groups: Mapping[int, list[int]], names: Sequence[str], rest: Sequence[str] = ()) -> Polynomial:
    """Inverse of point_values: the polynomial whose values at the 0/1
    points of `names` are the given vectors, one per residual mask over
    `rest` (ascending, and disjoint from `names`).  The vectors are
    overwritten."""
    table: dict[int, int] = {}
    for residual, vector in groups.items():
        for index, coeff in _coefficients(vector).items():
            table[index << len(rest) | residual] = coeff
    everything = tuple(sorted((*names, *rest)))
    return Polynomial._make(everything, _move(table, *((t, s) for s, t in _halves(everything, names))))


def _dense_product(p: dict[int, int], q: dict[int, int], used: int) -> dict[int, int]:
    # The flattening product is the pointwise product of values at the
    # 0/1 points of the `used` bits, packed to the lowest ones.
    size = 1 << used.bit_count()
    vectors = []
    for table in (p, q):
        vector = [0] * size
        for mask, coeff in _move(table, (used, size - 1)).items():
            vector[mask] = coeff
        _transform(vector, add)
        vectors.append(vector)
    return _move(_coefficients(list(map(mul, *vectors))), (size - 1, used))


ZERO: Polynomial = Polynomial._make((), {0: 0})
ONE: Polynomial = Polynomial._make((), {0: 1})
