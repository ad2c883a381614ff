"""Reduction of equation systems, variable elimination, and solving.

All equations are kept in homogeneous form: a polynomial p stands for
the equation p = 0.

* Reduction: a system p1 = 0, ..., pk = 0 collapses to the single
  equation p1^2 + ... + pk^2 = 0, which has exactly the same 0/1 zero
  set (squares of integers are nonnegative).
* Elimination: removing variables from p = 0 leaves the product, over
  all 0/1 substitutions for those variables, of the resulting
  polynomials.  Over 0/1 points this behaves as existential projection.
* Solution: solving p = 0 for one unknown y yields a consistency
  condition on the parameters, a particular idempotent solution, and an
  idempotent degree of freedom scaled by a fresh parameter.
"""

from __future__ import annotations

from functools import reduce as _fold
from typing import Iterable

from ._record import Record
from .development import develop_partial, interpretable_core
from .polynomial import ONE, ZERO, Polynomial

__all__ = ["Solution", "eliminate", "reduce_system", "solve"]


def reduce_system(system: Iterable[Polynomial]) -> Polynomial:
    """Collapse the equations p = 0 of a nonempty system into the single
    equivalent equation sum of p*p = 0.  The raw sum of squares is
    returned untouched; apply interpretable_core for the idempotent
    form."""
    polys = list(system)
    if not polys:
        raise ValueError("cannot reduce an empty equation system")
    total = ZERO
    for p in polys:
        total = total + p * p
    return total


def eliminate(
    p: Polynomial,
    variables: Iterable[str],
    *,
    max_vars: int | None = None,
) -> Polynomial:
    """The complete result of eliminating the given variables from p = 0:
    the product of all 2**m entries of the partial development.  The
    variables need not occur in p.

    For any 0/1 values of the remaining variables, the result vanishes
    exactly when some 0/1 choice for the eliminated variables makes p
    vanish."""
    table = develop_partial(p, variables, max_vars=max_vars)
    return _fold(lambda acc, item: acc * item[1], table.items(), ONE)


class Solution(Record):
    """The solution of p = 0 for one unknown.

    ``condition`` constrains the parameters (it is exactly the result of
    eliminating the unknown); when it vanishes, the solutions are
    ``particular + v*freedom`` with the fresh parameter v ranging over
    0 and 1.  ``particular`` and ``freedom`` are idempotent.  ``vacuous``
    flags the degenerate case of an equation the unknown does not occur
    in, where any value solves whatever the constraint allows.
    """

    unknown: str
    condition: Polynomial
    particular: Polynomial
    freedom: Polynomial
    parameter: str
    vacuous: bool = False

    def expression(self) -> Polynomial:
        """The solution polynomial particular + parameter*freedom."""
        return self.particular + Polynomial.variable(self.parameter) * self.freedom


def solve(p: Polynomial, unknown: str, *, max_vars: int | None = None) -> Solution:
    """Solve p = 0 for the unknown, all other variables being parameters.

    With a := p at unknown 0 and b := p at unknown 1, the condition is
    a*b = 0 and the solution is core(a) + v*(1 - core(a))*(1 - core(b)),
    where core is the interpretable core over the parameters and v is a
    fresh variable not occurring in p."""
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


def _fresh_parameter(p: Polynomial, unknown: str) -> str:
    taken = set(p.variables()) | {unknown}
    if "v" not in taken:
        return "v"
    index = 1
    while f"v{index}" in taken:
        index += 1
    return f"v{index}"
