"""The Rule of 0 and 1: decide Horn sentences by integer evaluation.

A (quasi-)equational sentence holds in Boole's algebra of logic exactly
when it holds in the ring of integers with every variable restricted to
the values 0 and 1: wherever every antecedent equation is satisfied, the
consequent must be too.  Equations are the antecedent-free case.

Only universally quantified implications between equations are accepted
(equations and quasi-equations); disjunctive or existential Horn forms
are out of scope here.  The checker is the branch-and-prune search
``development.least_point``.  In every subcube it first fixes every
name an antecedent forces (x*y = 1 forces x and y to 1, x = 0 forces x
to 0), so the 20-variable demo x00*...*x19 = 1 -> x00+...+x19 = 20 is
decided before any split or scan, and a chain x00*(1 - x01) = 0 & ...
-> x00*x19 = x00 with one split.  In a subcube that forces nothing and
whose sentence mentions more than 10 names, an antecedent that says
y = x or y = 1 - x for names x < y (x = y, x + y = 1, 3*x = 3*y,
(x - y)^2 = 0) is solved for y, as Boole's method of solution does, and
y is substituted throughout; a witness found later takes y from x's bit.
Splits and scans run over the names the subcube's sentence mentions; an
equation over n of them is decided by n to 2n restrictions and no scan.
A quasi-equation is folded into one polynomial per scanned subcube:
Boole's reduction of the antecedents to the sum of their squares, scaled
past every value the consequent can take, plus the consequent, at worst
2**(n-17) scans of 131072 points.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from ._record import Record
from .development import least_point, sigma_assignment
from .polynomial import Polynomial, check_variable_limit
from .terms import ParseError, Sub, _compile, _read

__all__ = ["HornSentence", "Verdict", "check_equation", "check_r01", "parse_horn"]


class HornSentence(Record):
    """Antecedent equations and one consequent equation, each stored as a
    polynomial p meaning p = 0, implicitly universally quantified."""

    antecedents: tuple[Polynomial, ...]
    consequent: Polynomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedents", tuple(self.antecedents))

    @property
    def variables(self) -> tuple[str, ...]:
        names: set[str] = set(self.consequent.variables())
        for p in self.antecedents:
            names.update(p.variables())
        return tuple(sorted(names))


class Verdict(Record):
    """Holds, or fails with the least 0/1 witness.

    A witness satisfies every antecedent (their values are recorded, all
    zero by construction) and gives the consequent a nonzero value.
    """

    holds: bool
    witness: Mapping[str, int] | None = None
    antecedent_values: tuple[int, ...] | None = None
    consequent_value: int | None = None

    def __post_init__(self) -> None:
        if self.witness is not None:
            object.__setattr__(self, "witness", MappingProxyType(dict(self.witness)))

    def __bool__(self) -> bool:
        return self.holds


def check_r01(sentence: HornSentence, *, max_vars: int | None = None) -> Verdict:
    """Decide the sentence over all 0/1 assignments to its variables;
    report the lexicographically least violating assignment, if any."""
    names = sentence.variables
    check_variable_limit(len(names), max_vars)
    found = least_point(sentence.consequent, sentence.antecedents, names)
    if found is None:
        return Verdict(holds=True)
    sigma, value = found
    zeros = (0,) * len(sentence.antecedents)
    return Verdict(False, sigma_assignment(sigma, names), zeros, value)


def check_equation(p: Polynomial, *, max_vars: int | None = None) -> Verdict:
    """Does p = 0 hold identically over 0/1 values?"""
    return check_r01(HornSentence((), p), max_vars=max_vars)


def parse_horn(text: str) -> HornSentence:
    """Parse ``e1 = f1 & e2 = f2 -> e0 = f0`` or a bare equation
    ``s = t``; each side is a term and each equation is stored as the
    difference of its sides.  The whole sentence is read before any of it
    is compiled, so a syntax error anywhere in it costs no compile work.
    Error offsets count from the start of `text`."""
    head, arrow, tail = text.partition("->")
    if "->" in tail:
        raise ParseError("more than one '->'", text.index("->", text.index("->") + 2))
    flats, start = [], 0
    for part in head.split("&") if arrow else [head]:
        flats.append(_read_equation(part, start))
        start += len(part) + 1
    if arrow:
        flats.append(_read_equation(tail, len(head) + 2))
    equations = [_compile(flat) for flat in flats]
    return HornSentence(tuple(equations[:-1]), equations[-1])


def _read_equation(text: str, start: int) -> list:
    # The flat form of the left side minus the right side; `start` is the
    # offset of `text` in the whole sentence.
    left, eq, right = text.partition("=")
    if not eq:
        raise ParseError("expected an equation 'lhs = rhs'", start)
    if "=" in right:
        second = start + len(left) + 1 + right.index("=")
        raise ParseError("more than one '=' in an equation", second)
    flat = []
    for side, offset in ((left, start), (right, start + len(left) + 1)):
        try:
            flat += _read(side)
        except ParseError as error:
            raise ParseError(error.message, offset + error.position) from None
    flat.append((Sub, None))
    return flat
