"""Multilinear integer polynomials with an exponent-flattening product.

This is the carrier of Boole's algebra of logic: polynomials over the
integers in which every variable occurs to at most the first power.  Sums,
differences and negation are the ordinary coefficientwise operations.  The
product is the ordinary polynomial product followed by flattening every
exponent above one back to one (so ``x * x == x`` for a variable ``x``),
which keeps the multilinear polynomials closed under multiplication.

A multilinear polynomial over m variables is also fixed by its 2**m
values at the 0/1 points.  The value kernel at the end of this module
moves between the two forms: a vector indexed by a bitmask over a sorted
variable list, bit m-1-i for the i-th name, so that index order is the
binary counting order of the points.  The subset-sum (zeta) transform
takes coefficients to values and its Moebius inverse takes values back,
each in m*2**(m-1) integer additions (Yates's algorithm).

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
from collections import defaultdict
from operator import add, mul, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

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

    `limit` overrides the module default of DEFAULT_VARIABLE_LIMIT.
    Exceeding the cap is an explicit error, never a silent truncation.
    """
    cap = DEFAULT_VARIABLE_LIMIT if limit is None else limit
    if count > cap:
        raise VariableLimitError(
            f"{count} variables would enumerate 2**{count} cases; the limit "
            f"is {cap} (pass a higher limit explicitly if you mean it)"
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


def _from_decimal(text: str) -> int:
    """int(text), exact also for a plain numeral past the interpreter's
    limit on the digits of a str-to-int conversion."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        negative = digits.startswith("-")
        digits = digits[negative or digits.startswith("+"):]
        if len(digits) < 2 or not (digits.isascii() and digits.isdigit()):
            raise
    half = len(digits) // 2
    value = _from_decimal(digits[:-half]) * 10**half + _from_decimal(digits[-half:])
    return -value if negative else value


def _monomial_key(mono: Monomial) -> tuple[int, Monomial]:
    # Degree first, then variable names; fixes storage and printing order.
    return (len(mono), mono)


def _normalize_monomial(mono: object) -> Monomial:
    if isinstance(mono, str):
        return (_require_name(mono),)
    names = tuple(mono)  # type: ignore[arg-type]
    for name in names:
        _require_name(name)
    ordered = tuple(sorted(names))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ValueError(f"monomial {names!r} repeats variable {a!r}")
    return ordered


class Polynomial:
    """A canonical multilinear polynomial over the integers.

    Internally an association from monomials to nonzero coefficients, kept
    in degree-then-name order so equality, hashing and printing are
    deterministic.  Two polynomials are equal exactly when their
    associations are identical.

    Use :meth:`constant`, :meth:`variable` or :func:`variables` to build
    atoms, then combine with ``+``, ``-``, ``*`` and ``**``.  ``*`` is the
    flattening product described in the module docstring; with a constant
    operand it degenerates to ordinary scaling.
    """

    __slots__ = ("_terms",)

    _terms: dict[Monomial, int]

    def __init__(self, terms: Mapping[object, int] | None = None):
        table: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} is not an integer")
                key = _normalize_monomial(mono)
                table[key] = table.get(key, 0) + coeff
        self._terms = _canonical(table)

    @classmethod
    def _raw(cls, table: dict[Monomial, int]) -> "Polynomial":
        # Trusted path for internal arithmetic: monomials are already
        # sorted tuples of valid names, but coefficients may be zero and
        # the dict unordered.
        self = object.__new__(cls)
        self._terms = _canonical(table)
        return self

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        if not isinstance(value, int):
            raise TypeError(f"constant {value!r} is not an integer")
        return cls._raw({(): value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls._raw({(_require_name(name),): 1})

    # ------------------------------------------------------------------
    # Inspection

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """Read-only view of the monomial/coefficient association."""
        return MappingProxyType(self._terms)

    def coefficient(self, mono: object = ()) -> int:
        """Coefficient of a monomial, 0 if absent.  ``coefficient()`` is
        the constant term."""
        return self._terms.get(_normalize_monomial(mono), 0)

    def variables(self) -> tuple[str, ...]:
        """All variable names occurring in the polynomial, sorted."""
        return tuple(sorted(_variable_set(self)))

    def is_constant(self) -> bool:
        return not self._terms or self._terms.keys() == {()}

    def constant_value(self) -> int:
        """The value of a constant polynomial; error otherwise."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get((), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # constants hash like the ints they equal
        if self.is_constant():
            return hash(self._terms.get((), 0))
        return hash(tuple(self._terms.items()))

    # ------------------------------------------------------------------
    # Ring operations

    def __add__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._raw(_add_into(dict(self._terms), other._terms, 1))

    __radd__ = __add__

    def __sub__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._raw(_add_into(dict(self._terms), other._terms, -1))

    def __rsub__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __pos__(self) -> "Polynomial":
        return self

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        """The flattening product.  Over n variables in all, operands whose
        term pairs outnumber n*2**n multiply pointwise as value vectors;
        otherwise term by term.  Either way no vector is longer than the
        term-pair count, so the product needs no variable limit."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pairs = len(self._terms) * len(other._terms)
        # A single-term operand passes the rule only at n = 0, where both
        # paths are one multiplication, so it skips the variable count.
        if len(self._terms) > 1 and len(other._terms) > 1:
            names = tuple(sorted(_variable_set(self) | _variable_set(other)))
            if _dense_pays(len(names), pairs):
                return _dense_product(self, other, names)
        return _pairwise_product(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        """Repeated squaring; an idempotent base (p*p == p) is its own
        power for every positive exponent."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        if exponent == 0:
            return _ONE
        if exponent == 1:
            return self
        square = self * self
        if square == self:
            return self
        result = self if exponent & 1 else _ONE
        exponent >>= 1
        while True:
            _check_power_bits(square)
            if exponent & 1:
                result = _check_power_bits(result * square)
            exponent >>= 1
            if not exponent:
                return result
            square = square * square

    # ------------------------------------------------------------------
    # Semantics

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Substitute integers for every variable and compute over Z.

        Because the product flattens exponents, evaluation respects
        products only at 0/1-valued assignments; at other integers it is
        still well defined, just not multiplicative.
        """
        total = 0
        for mono, coeff in self._terms.items():
            value = coeff
            for name in mono:
                if name not in assignment:
                    raise KeyError(f"no value assigned to variable {name!r}")
                value *= assignment[name]
            total += value
        return total

    def substitute(self, name: str, replacement: Union["Polynomial", int]) -> "Polynomial":
        """Replace a variable by a polynomial throughout, recombining with
        the flattening product."""
        _require_name(name)
        replacement = _coerce(replacement)
        if replacement is NotImplemented:
            raise TypeError("replacement must be a Polynomial or an int")
        kept: dict[Monomial, int] = {}
        factored: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            if name in mono:
                rest = tuple(v for v in mono if v != name)
                factored[rest] = factored.get(rest, 0) + coeff
            else:
                kept[mono] = coeff
        if not factored:
            return self
        return Polynomial._raw(kept) + Polynomial._raw(factored) * replacement

    def is_idempotent(self) -> bool:
        """True when p*p == p, Boole's condition of interpretability."""
        return self * self == self

    # ------------------------------------------------------------------
    # Rendering

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self._terms.items():
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


def _check_power_bits(p: Polynomial) -> Polynomial:
    if max(map(abs, p._terms.values()), default=0).bit_length() > MAX_POWER_BITS:
        raise ValueError(f"power too large: its coefficients pass {MAX_POWER_BITS} bits")
    return p


def _coerce(value: object):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    return NotImplemented


def _dense_pays(names: int, pairs: int) -> bool:
    # The product rule: over `names` variables in all, operands with more
    # term pairs than names * 2**names multiply pointwise as value vectors.
    return names * (1 << names) < pairs


def _variable_set(p: Polynomial) -> set[str]:
    seen: set[str] = set()
    for mono in p._terms:
        seen.update(mono)
    return seen


def _add_into(table: dict[Monomial, int], terms: Mapping[Monomial, int], sign: int) -> dict:
    # Add sign times `terms` into `table`, which is returned; zero
    # coefficients stay until the table is made canonical.
    for mono, coeff in terms.items():
        table[mono] = table.get(mono, 0) + sign * coeff
    return table


def _canonical(table: dict[Monomial, int]) -> dict[Monomial, int]:
    return {
        mono: table[mono]
        for mono in sorted(table, key=_monomial_key)
        if table[mono] != 0
    }


_ZERO = object.__new__(Polynomial)
_ZERO._terms = {}
_ONE = object.__new__(Polynomial)
_ONE._terms = {(): 1}

ZERO: Polynomial = _ZERO
ONE: Polynomial = _ONE


def variables(names: str | Iterable[str]) -> tuple[Polynomial, ...]:
    """Build variable polynomials from a comma or space separated string,
    e.g. ``x, y = variables("x, y")``."""
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return tuple(Polynomial.variable(n) for n in names)


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


def point_values(p: Polynomial, names: Sequence[str]) -> dict[Monomial, list[int]]:
    """The values of p at the 0/1 points of `names`, a strictly ascending
    variable list: for each residual monomial (the part of a monomial
    outside `names`), the vector of its coefficient in p at every point,
    indexed as in the module docstring.  A zero polynomial gives no
    vectors at all."""
    size = 1 << len(names)
    top = len(names) - 1
    bits = {name: 1 << (top - i) for i, name in enumerate(names)}
    groups: defaultdict[Monomial, list[int]] = defaultdict(lambda: [0] * size)
    for mono, coeff in p._terms.items():
        mask = 0
        rest: list[str] = []
        for name in mono:
            bit = bits.get(name)
            if bit is None:
                rest.append(name)
            else:
                mask |= bit
        groups[tuple(rest)][mask] += coeff
    for vector in groups.values():
        _transform(vector, add)
    return groups


def point_polynomials(p: Polynomial, names: Sequence[str]) -> list[Polynomial]:
    """p with the variables of `names` set to the bits of each 0/1 point,
    in index order: one polynomial in the remaining variables per point."""
    groups = sorted(point_values(p, names).items(), key=lambda item: _monomial_key(item[0]))
    if not groups:
        return [_ZERO] * (1 << len(names))
    residuals = [residual for residual, _ in groups]
    points: list[Polynomial] = []
    for values in zip(*(vector for _, vector in groups)):
        entry = object.__new__(Polynomial)
        # residuals are already in canonical order
        entry._terms = {residual: v for residual, v in zip(residuals, values) if v}
        points.append(entry)
    return points


def _restrict(q: Polynomial, name: str, bit: int) -> Polynomial:
    # q with `name` set to `bit`: the terms without `name`, in their own
    # order, and at 1 also the terms with it, `name` struck out.
    kept = {mono: coeff for mono, coeff in q._terms.items() if name not in mono}
    if not bit:
        at_zero = object.__new__(Polynomial)
        at_zero._terms = kept
        return at_zero
    for mono, coeff in q._terms.items():
        if name in mono:
            cut = mono.index(name)
            rest = mono[:cut] + mono[cut + 1 :]
            kept[rest] = kept.get(rest, 0) + coeff
    return Polynomial._raw(kept)


def from_point_values(groups: Mapping[Monomial, list[int]], names: Sequence[str]) -> Polynomial:
    """Inverse of point_values: the polynomial whose values at the 0/1
    points of `names` are the given vectors, one per residual monomial
    (residual monomials must not mention `names`).  The vectors are
    overwritten."""
    # A monomial is the concatenation of one over the first names and one
    # over the last, each looked up by its half of the bitmask.
    split = len(names) // 2
    high, low = _subsets(names[: len(names) - split]), _subsets(names[len(names) - split :])
    low_mask = (1 << split) - 1
    table: dict[Monomial, int] = {}
    for residual, vector in groups.items():
        _transform(vector, sub)
        for mask, coeff in enumerate(vector):
            if coeff:
                mono = high[mask >> split] + low[mask & low_mask]
                if residual:
                    mono = tuple(sorted(residual + mono))
                table[mono] = coeff
    return Polynomial._raw(table)


def _subsets(names: Sequence[str]) -> list[Monomial]:
    # Every monomial over `names`, indexed by bitmask.
    monos: list[Monomial] = [()]
    for name in reversed(names):
        monos += [(name, *mono) for mono in monos]
    return monos


def _dense_product(p: Polynomial, q: Polynomial, names: Sequence[str]) -> Polynomial:
    # The flattening product is the pointwise product of values at the
    # 0/1 points.  `names` must cover both operands.
    zeros = [0] * (1 << len(names))
    left = point_values(p, names).get((), zeros)
    right = point_values(q, names).get((), zeros)
    return from_point_values({(): list(map(mul, left, right))}, names)


def _pairwise_product(p: Polynomial, q: Polynomial) -> Polynomial:
    table: dict[Monomial, int] = {}
    for m1, c1 in p._terms.items():
        for m2, c2 in q._terms.items():
            # Monomials multiply by set union; this is where repeated
            # variables flatten back to the first power.
            if not m1:
                mono = m2
            elif not m2:
                mono = m1
            else:
                mono = tuple(sorted(set(m1) | set(m2)))
            table[mono] = table.get(mono, 0) + c1 * c2
    return Polynomial._raw(table)
