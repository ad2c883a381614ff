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
  idempotent degree of freedom scaled by a fresh parameter.  All three
  are functions of p's values at the 0/1 points, so over r parameters
  they cost one zeta transform of two vectors of 2**r entries and one
  Moebius transform each.
"""

from __future__ import annotations

from functools import reduce as _fold
from operator import add, mul
from typing import Iterable

from ._record import Record
from .development import _limited
from .polynomial import (
    ONE, ZERO, Polynomial, _require_name, _sum_of_squares, from_point_values, point_polynomials, point_values
)

__all__ = ["Solution", "eliminate", "reduce_system", "solve"]


def reduce_system(system: Iterable[Polynomial]) -> Polynomial:
    """Collapse the equations p = 0 of a nonempty system into the single
    equivalent equation sum of p*p = 0.  The raw sum of squares is
    returned untouched; apply interpretable_core for the idempotent
    form.  An int in the system is the constant equation it names."""
    polys = [p if isinstance(p, Polynomial) else Polynomial.constant(p) for p in system]
    if not polys:
        raise ValueError("cannot reduce an empty equation system")
    return _sum_of_squares(polys)


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
    return _fold(mul, point_polynomials(p, _limited(variables, max_vars)), ONE)


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
    fresh variable not occurring in p.  Each part is read off a and b at
    the 0/1 points of the r parameters: one zeta transform of two vectors
    of 2**r entries, then one Moebius transform per part.  `max_vars`
    caps r."""
    _require_name(unknown)
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
    params = _limited((name for name in p.variables() if name != unknown), max_vars)
    # The terms without the unknown give p at unknown = 0; adding those
    # with it (there are some) gives p at unknown = 1.
    groups = point_values(p, params)
    at_zero = groups[0]
    at_one = list(map(add, at_zero, groups[1]))
    return Solution(
        unknown=unknown,
        condition=from_point_values({0: list(map(mul, at_zero, at_one))}, params),
        particular=from_point_values({0: [1 if a else 0 for a in at_zero]}, params),
        freedom=from_point_values({0: [0 if a or b else 1 for a, b in zip(at_zero, at_one)]}, params),
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
