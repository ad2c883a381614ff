"""Constituents and complete/partial developments.

Conventions, fixed once and used everywhere:

* variable lists are sorted ascending by name, the one global order;
* a sigma is a string over {0, 1} whose i-th character belongs to the
  i-th variable of the (sorted) list; inside this module a 0/1 point is
  its index, the sigma read in binary (bit m-1-i for the i-th variable,
  the value kernel's convention), and only ``sigma_strings`` and
  ``_index`` make and read sigmas, but for ``least_point``'s answer;
* tables hold all 2**m entries and iterate in binary counting order
  (00, 01, 10, 11, ...).

Over variables x1 < ... < xm the constituent of a sigma is the product
of xi where the bit is 1 and (1 - xi) where it is 0.  Constituents are
idempotent, pairwise disjoint and sum to 1; developing a polynomial
writes it as the sum over all sigma of its value at sigma times the
constituent of sigma, and that table of values determines the polynomial
completely.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import product
from operator import add, and_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from ._record import Record
from .polynomial import (
    Polynomial,
    _require_name,
    _restrict,
    _select,
    _spread,
    _sum_of_squares,
    _transform,
    check_variable_limit,
    from_point_values,
    point_polynomials,
    point_values,
)

__all__ = [
    "DevelopmentTable",
    "constituent",
    "constituent_equations",
    "develop",
    "develop_partial",
    "development_values",
    "equal_by_development",
    "first_difference",
    "from_table",
    "interpretable_core",
    "least_point",
    "sigma_assignment",
    "sigma_strings",
]


def sigma_strings(count: int) -> Iterator[str]:
    """All 0/1 strings of the given length, in binary counting order."""
    return map("".join, product("01", repeat=count))


def sigma_assignment(sigma: str, variables: Sequence[str]) -> dict[str, int]:
    """The 0/1 assignment a sigma denotes over a sorted variable list."""
    index = _index(sigma, len(variables))
    return {name: index >> shift & 1 for name, shift in zip(variables, reversed(range(len(variables))))}


def _index(sigma: str, length: int) -> int:
    # The index of a sigma over `length` names ("0" reads "" as 0).
    if len(sigma) != length or any(bit not in "01" for bit in sigma):
        raise ValueError(f"sigma {sigma!r} is not a 0/1 string of length {length}")
    return int("0" + sigma, 2)


def _check_variables(variables: Iterable[str]) -> tuple[str, ...]:
    ordered = tuple(variables)
    for name in ordered:
        _require_name(name)
    if any(a >= b for a, b in zip(ordered, ordered[1:])):
        raise ValueError(
            f"variable list {ordered!r} must be strictly ascending; sigma "
            "positions are tied to the sorted order"
        )
    return ordered


class DevelopmentTable(Record):
    """The coefficient family of a development: one Polynomial per sigma.

    For a complete development every coefficient is a constant; for a
    partial development the coefficients are polynomials in the residual
    variables.  ``variables`` are the sigma-indexed ones.
    """

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
        for sigma, entry in ordered.items():
            if not isinstance(entry, Polynomial):
                raise TypeError(f"the entry for sigma {sigma!r} is not a Polynomial: {entry!r}")
        object.__setattr__(self, "coefficients", MappingProxyType(ordered))

    @classmethod
    def _make(cls, variables: tuple[str, ...], entries: Iterable[Polynomial]) -> "DevelopmentTable":
        # Trusted path for tables built here: `variables` are checked and
        # ascending, and `entries` come one per sigma in index order.
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "coefficients", MappingProxyType(dict(zip(sigma_strings(len(variables)), entries))))
        return self

    def __getitem__(self, sigma: str) -> Polynomial:
        _index(sigma, len(self.variables))
        return self.coefficients[sigma]

    def items(self) -> Iterator[tuple[str, Polynomial]]:
        return iter(self.coefficients.items())

    def is_complete(self) -> bool:
        """True when every coefficient is a constant."""
        return all(p.is_constant() for p in self.coefficients.values())

    def to_polynomial(self) -> Polynomial:
        return from_table(self)


def constituent(sigma: str, variables: Sequence[str]) -> Polynomial:
    """The product over the variable list of x (bit 1) or 1 - x (bit 0):
    the polynomial that is 1 at sigma and 0 at every other point."""
    names = _check_variables(variables)
    one_hot = [0] * (1 << len(names))
    one_hot[_index(sigma, len(names))] = 1
    return from_point_values({0: one_hot}, names)


def develop_partial(
    p: Polynomial,
    eliminated: Iterable[str],
    *,
    max_vars: int | None = None,
) -> DevelopmentTable:
    """Develop over a chosen variable list: the entry at sigma is p with
    those variables replaced by the bits of sigma, a polynomial in the
    remaining variables.  Variables absent from p are allowed."""
    names = _limited(eliminated, max_vars)
    return DevelopmentTable._make(names, point_polynomials(p, names))


def develop(
    p: Polynomial,
    variables: Iterable[str] | None = None,
    *,
    max_vars: int | None = None,
) -> DevelopmentTable:
    """The complete development of p: the coefficient at sigma is the
    integer value of p at that 0/1 point.  The variable list defaults to
    the variables of p and may be any superset of them."""
    return develop_partial(p, _covering(p, variables), max_vars=max_vars)


def from_table(table: DevelopmentTable) -> Polynomial:
    """Rebuild the developed polynomial: the sum over sigma of the
    coefficient times the constituent.  Inverse of develop."""
    names = table.variables
    rest = sorted({name for coeff in table.coefficients.values() for name in coeff.variables()} - set(names))
    shifts = {name: len(names) - 1 - i for i, name in enumerate(names)}
    groups: defaultdict[int, list[int]] = defaultdict(lambda: [0] * (1 << len(names)))
    for index, coeff in enumerate(table.coefficients.values()):
        # times the constituent of its point, a table variable is its bit
        coeff = _restrict(coeff, {name: index >> shifts[name] & 1 for name in coeff.variables() if name in shifts})
        for residual, value in _spread(coeff, rest).items():
            groups[residual][index] = value
    return from_point_values(groups, names, rest)


def equal_by_development(
    p: Polynomial,
    q: Polynomial,
    variables: Iterable[str] | None = None,
    *,
    max_vars: int | None = None,
) -> bool:
    """Boole's equality criterion: equal complete developments."""
    return first_difference(p, q, variables, max_vars=max_vars) is None


def first_difference(
    p: Polynomial,
    q: Polynomial,
    variables: Iterable[str] | None = None,
    *,
    max_vars: int | None = None,
) -> str | None:
    """The first sigma (in counting order) where the complete developments
    of p and q differ, or None when they are equal."""
    both = set(p.variables()) | set(q.variables())
    names = _limited(_covering(p, both if variables is None else variables), max_vars)
    _covering(q, names)
    found = least_point(p - q, (), names)
    return None if found is None else found[0]


# With antecedents left, the search prunes only subcubes whose sentence
# mentions more than _SCAN_NAMES names and scans smaller ones in pieces of
# 2**_PIECE_NAMES points, evaluating the sentence on every piece: pruning
# smaller subcubes, or sharing value vectors between pieces, would make a
# sentence's cost depend on where its variables fall in name order, not
# just on n and the witness.  The names an antecedent forces are fixed in
# every subcube before it is split or scanned, wherever they fall in name
# order, so that rule keeps the same steady cost.
_SCAN_NAMES = 17
_PIECE_NAMES = 10


def least_point(
    consequent: Polynomial,
    antecedents: Sequence[Polynomial],
    names: Sequence[str],
) -> tuple[str, int] | None:
    """The least sigma over `names` (ascending, covering every polynomial)
    where every antecedent is 0 and the consequent is not, and the
    consequent's value there; None if there is none.

    Branch and prune, 0 before 1, on an explicit stack of subcubes.  An
    entry holds the bits fixed above a subcube, the bits the subcube fixes
    (one half of a split, or the names an antecedent forces) and the
    sentence above it, which is restricted to those bits when the entry is
    popped, so a half that is never popped is never restricted.  A subcube
    is dropped when the consequent is the zero polynomial on it or an
    antecedent a nonzero constant, and an antecedent that is the zero
    polynomial holds on the whole subcube and is dropped itself.  Then the
    names an antecedent forces are fixed: when setting x to one bit makes
    some antecedent a nonzero constant, no witness in the subcube has that
    bit, so x takes the other one.  Only a subcube that forces nothing is
    split or scanned.  A sentence such as x1*...*xn = 1 -> x1+...+xn = n
    is decided by forcing alone, and a chain x1*(1 - x2) = 0 & ... ->
    x1*xn = x1 by one split with forcing below it.

    Splits and scans run over the names a subcube's sentence mentions; the
    least witness has 0 for any other.  With no antecedents it splits on
    the first: a multilinear polynomial is zero exactly when it vanishes
    at every 0/1 point, so the 0 half holds a witness unless the
    consequent is zero there, and an equation over n names costs n to 2n
    restrictions.  With antecedents, 17 names or fewer are scanned whole,
    in order: at worst 2**(n-17) scans of 131072 points."""
    stack = [({}, {}, consequent, antecedents)]  # bits fixed above, bits fixed here, sentence above
    while stack:
        fixed, at, p, conditions = stack.pop()
        if at:
            p, *conditions = [_restrict(q, at) for q in (p, *conditions)]
        conditions = [a for a in conditions if a]
        if not p or any(a.is_constant() for a in conditions):
            continue
        fixed = {**fixed, **at}
        forced = _forced(conditions)
        free = sorted(set(p._names).union(*[a._names for a in conditions]))
        if forced:
            parts = [forced]
        elif len(free) > (_SCAN_NAMES if conditions else 0):
            parts = [{free[0]: 1}, {free[0]: 0}]  # the 0 half is popped first
        else:
            found = _scan(p, conditions, free) if conditions else (0, p.constant_value())
            if found is not None:
                fixed.update(zip(free, map(int, format(found[0], f"0{len(free)}b"))))
                return "".join(str(fixed.get(name, 0)) for name in names), found[1]
            continue
        stack.extend((fixed, part, p, conditions) for part in parts)
    return None


def _forced(antecedents: Sequence[Polynomial]) -> dict[str, int]:
    # The names these nonconstant antecedents force, each with the bit it
    # must take.  x = 0 leaves a nonzero constant exactly when a's constant
    # term is nonzero and x occurs in every other term, which forces x to
    # 1.  x = 1 leaving a nonzero constant k forces x to 0; k is then a's
    # value at every point with x = 1, the sum of its coefficients and also
    # its constant term plus the coefficient of x alone, so only the names
    # that meet this are restricted to try.
    forced: dict[str, int] = {}
    for a in antecedents:
        names, table = a._names, a._table
        constant = table.get(0, 0)
        if constant:
            for name in _select(names, reduce(and_, [mask for mask in table if mask])):
                forced.setdefault(name, 1)
        total = sum(table.values())
        if total:
            top = len(names) - 1
            for i, name in enumerate(names):
                if table.get(1 << (top - i), 0) == total - constant and _restrict(a, {name: 1}).is_constant():
                    forced.setdefault(name, 0)
    return forced


def _scan(
    consequent: Polynomial, antecedents: Sequence[Polynomial], names: Sequence[str]
) -> tuple[int, int] | None:
    # The least point over `names` where every antecedent is 0 and the
    # consequent c is not, and c's value there, found as the least point
    # where P = (2B+1)*(sum of the antecedents' squares) + c has
    # 0 < |P| <= B, for B the sum of |c|'s coefficients: P is c, so |P| <= B,
    # where the antecedents all vanish, and |P| >= 2B+1 - B elsewhere.  A
    # piece fixes the names before the last _PIECE_NAMES; P's values on it
    # are the transform of the coefficients of the monomials it sets to 1.
    bound = sum(map(abs, consequent._table.values()))
    folded = (2 * bound + 1) * _sum_of_squares(antecedents) + consequent
    cut = max(0, len(names) - _PIECE_NAMES)
    size = 1 << (len(names) - cut)
    part = defaultdict(list)  # fixed bits -> [(free bits, coefficient)]
    for mask, coeff in _spread(folded, names).items():
        part[mask // size].append((mask % size, coeff))
    for piece in range(1 << cut):
        values = [0] * size
        for head, terms in part.items():
            if head & piece == head:
                for tail, coeff in terms:
                    values[tail] += coeff
        _transform(values, add)
        if min(map(abs, filter(None, values)), default=bound + 1) <= bound:
            index, value = next((i, v) for i, v in enumerate(values) if 0 < abs(v) <= bound)
            return piece * size + index, value
    return None


def development_values(
    p: Polynomial,
    variables: Iterable[str] | None = None,
    *,
    max_vars: int | None = None,
) -> tuple[tuple[str, ...], list[int]]:
    """The complete development of p as integers: the variable list, which
    defaults to p's variables, and p's value at each of its 0/1 points,
    in sigma order."""
    names = _limited(_covering(p, variables), max_vars)
    return names, point_values(p, names)[0]


def interpretable_core(
    p: Polynomial,
    variables: Iterable[str] | None = None,
    *,
    max_vars: int | None = None,
) -> Polynomial:
    """The totally interpretable polynomial with the same zero set as p:
    the sum of the constituents at which p is nonzero.  Always idempotent;
    equals p when p is already idempotent."""
    names, values = development_values(p, variables, max_vars=max_vars)
    return from_point_values({0: [1 if value else 0 for value in values]}, names)


def constituent_equations(
    p: Polynomial,
    variables: Iterable[str] | None = None,
    *,
    max_vars: int | None = None,
) -> frozenset[str]:
    """The sigmas whose constituents must vanish for p = 0 to hold: those
    where the development coefficient is nonzero."""
    names, values = development_values(p, variables, max_vars=max_vars)
    return frozenset(sigma for sigma, value in zip(sigma_strings(len(names)), values) if value)


def _limited(variables: Iterable[str], max_vars: int | None) -> tuple[str, ...]:
    names = _check_variables(sorted(set(variables)))
    check_variable_limit(len(names), max_vars)
    return names


def _covering(p: Polynomial, variables: Iterable[str] | None) -> Iterable[str]:
    if variables is None:
        return p.variables()
    names = set(variables)
    missing = set(p.variables()) - names
    if missing:
        raise ValueError(
            f"development variables must cover the polynomial; missing "
            f"{sorted(missing)!r}"
        )
    return names

