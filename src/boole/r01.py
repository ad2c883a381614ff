"""The Rule of 0 and 1: decide Horn sentences by integer evaluation.

A (quasi-)equational sentence holds in Boole's algebra of logic exactly
when it holds in the ring of integers with every variable restricted to
the values 0 and 1.  The checker therefore enumerates all 0/1
assignments: wherever every antecedent equation is satisfied, the
consequent must be too.  Equations are the antecedent-free case.

Only universally quantified implications between equations are accepted
(equations and quasi-equations); disjunctive or existential Horn forms
are out of scope here.  Cost is one polynomial evaluation sweep over
2**n assignments; twenty variables complete in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .polynomial import Polynomial, check_variable_limit
from .terms import ParseError, poly

__all__ = ["HornSentence", "Verdict", "check_equation", "check_r01", "parse_horn"]


@dataclass(frozen=True)
class HornSentence:
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


@dataclass(frozen=True)
class Verdict:
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
    """Enumerate all 0/1 assignments to the sentence's variables; report
    the lexicographically least violating assignment, if any."""
    names = sentence.variables
    n = len(names)
    check_variable_limit(n, max_vars)
    antecedents = [_compile(p, names) for p in sentence.antecedents]
    consequent = _compile(sentence.consequent, names)
    for point in range(1 << n):
        # assignments violating some antecedent are vacuous
        if any(_value_at(a, point) != 0 for a in antecedents):
            continue
        result = _value_at(consequent, point)
        if result != 0:
            witness = {
                name: point >> (n - 1 - i) & 1 for i, name in enumerate(names)
            }
            return Verdict(
                holds=False,
                witness=witness,
                antecedent_values=(0,) * len(antecedents),
                consequent_value=result,
            )
    return Verdict(holds=True)


def check_equation(p: Polynomial, *, max_vars: int | None = None) -> Verdict:
    """Does p = 0 hold identically over 0/1 values?"""
    return check_r01(HornSentence((), p), max_vars=max_vars)


# At a 0/1 point a monomial contributes its coefficient exactly when all
# its variables are 1, so each polynomial compiles to (bitmask, coeff)
# pairs and evaluation is a subset test.  Bit n-1-i of a point belongs to
# the i-th variable, which makes ascending point order the
# lexicographic order on assignments.


def _compile(p: Polynomial, names: tuple[str, ...]) -> list[tuple[int, int]]:
    n = len(names)
    position = {name: n - 1 - i for i, name in enumerate(names)}
    compiled = []
    for mono, coeff in p.terms.items():
        mask = 0
        for name in mono:
            mask |= 1 << position[name]
        compiled.append((mask, coeff))
    return compiled


def _value_at(compiled: list[tuple[int, int]], point: int) -> int:
    return sum(coeff for mask, coeff in compiled if point & mask == mask)


def parse_horn(text: str) -> HornSentence:
    """Parse ``e1 = f1 & e2 = f2 -> e0 = f0`` or a bare equation
    ``s = t``; each side is a term and each equation is stored as the
    difference of its sides.  Error offsets count from the start of
    `text`."""
    head, arrow, tail = text.partition("->")
    if "->" in tail:
        raise ParseError("more than one '->'", text.index("->", text.index("->") + 2))
    equations, start = [], 0
    for part in head.split("&") if arrow else [head]:
        equations.append(_parse_equation(part, start))
        start += len(part) + 1
    if arrow:
        equations.append(_parse_equation(tail, len(head) + 2))
    return HornSentence(tuple(equations[:-1]), equations[-1])


def _parse_equation(text: str, start: int) -> Polynomial:
    # `start` is the offset of `text` in the whole sentence.
    left, eq, right = text.partition("=")
    if not eq:
        raise ParseError("expected an equation 'lhs = rhs'", start)
    if "=" in right:
        second = start + len(left) + 1 + right.index("=")
        raise ParseError("more than one '=' in an equation", second)
    sides = []
    for side, offset in ((left, start), (right, start + len(left) + 1)):
        try:
            sides.append(poly(side))
        except ParseError as error:
            raise ParseError(error.message, offset + error.position) from None
    return sides[0] - sides[1]
