"""Executable semantics over a finite universe.

Two interpretations of the term language live here, together with the
bridge between them:

* the partial algebra of classes, where multiplication is intersection,
  addition is union of *disjoint* classes, subtraction is difference of
  *contained* classes, and anything else is undefined;
* the ring of signed multisets, integer-valued functions on the
  universe, where every term is interpretable and the characteristic
  functions are exactly the idempotents.

Subsets are bitmasks over universes of at most 16 elements.
``eval_partial`` and ``terms.to_set_expression`` run one class fold: here
the classes are an assignment's masks, there the masks of the free
algebra's 0/1 points, or polynomials.  By the Rule of 0 and 1,
``holds_in_idempotents`` is a 0/1 search, not an enumeration.
"""

from __future__ import annotations

from math import log2
from operator import add, mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Literal, Mapping, Union

from ._record import Record
from .development import least_point, sigma_assignment
from .polynomial import MAX_POWER_BITS, Polynomial, _assigned, _decimal, check_variable_limit
from .terms import (
    Add,
    IntLit,
    Mul,
    Neg,
    One,
    Pow,
    Sub,
    Term,
    Var,
    Zero,
    _class_fold,
    _fold,
    _Masks,
    _postorder,
    _Undefined,
    format_term,
)

__all__ = [
    "ClassAssignment",
    "Defined",
    "Multiset",
    "Undefined",
    "Universe",
    "chi",
    "elements_of",
    "eval_multiset",
    "eval_partial",
    "holds_in_idempotents",
    "mask_of",
]

MAX_UNIVERSE = 16


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        if e < 0:
            raise ValueError(f"element {_decimal(e)} is outside the universe")
        mask |= 1 << e
    return mask


def _subset_mask(subset: int | Iterable[int], universe: Universe, message: str) -> int:
    # Sizes are compared before any shift; -1 (all bits set) is too large.
    if not isinstance(subset, int):
        subset = tuple(subset)
        subset = mask_of(subset) if all(e < universe.size for e in subset) else -1
    if subset & ~universe.mask:
        raise ValueError(message)
    return subset


def elements_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class Universe(Record):
    """A universe of discourse {0, ..., size-1}, size at most 16."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int):
            raise TypeError(f"universe size {self.size!r} is not an integer")
        if not 0 <= self.size <= MAX_UNIVERSE:
            raise ValueError(f"universe size must be in 0..{MAX_UNIVERSE}, got {_decimal(self.size)}")
        object.__setattr__(self, "size", int(self.size))  # a bool prints as an int

    @property
    def mask(self) -> int:
        return (1 << self.size) - 1

    def elements(self) -> range:
        return range(self.size)

    def subsets(self) -> range:
        """All subset bitmasks in increasing order."""
        return range(1 << self.size)


class ClassAssignment(Record):
    """A total assignment of variables to subsets of a universe."""

    universe: Universe
    masks: Mapping[str, int]

    def __post_init__(self) -> None:
        clean: dict[str, int] = {}
        for name in sorted(self.masks):
            problem = f"assignment for {name!r} is not a subset of the universe"
            clean[name] = _subset_mask(self.masks[name], self.universe, problem)
        object.__setattr__(self, "masks", MappingProxyType(clean))

    def mask(self, name: str) -> int:
        return _assigned(self.masks, name)

    def subset(self, name: str) -> frozenset[int]:
        return frozenset(elements_of(self.mask(name)))

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self.masks.items())

    def __str__(self) -> str:
        body = "; ".join(
            "%s={%s}" % (name, ", ".join(map(str, elements_of(mask))))
            for name, mask in self.masks.items()
        )
        return f"U={self.universe.size}; {body}" if body else f"U={self.universe.size}"


# ----------------------------------------------------------------------
# Partial class semantics


class Defined(Record):
    """A defined class value, as a subset bitmask."""

    subset: int


class Undefined(Record):
    """An uninterpretable value: the offending subterm and the side
    condition it failed, phrased for direct display."""

    term: Term
    reason: str


PartialValue = Union[Defined, Undefined]


def _reason(node: Term) -> str:
    # The side condition that the class fold found failing at `node`.
    if type(node) is IntLit:
        return _decimal(node.value) + " is not a class"
    if type(node) is Neg:
        return f"-{format_term(node.operand, compact=True)} uses unary minus, which is not a class operation"
    a, b = format_term(node.left, compact=True), format_term(node.right, compact=True)
    return f"{a}+{b} requires {a}∩{b}=∅" if type(node) is Add else f"{a}-{b} requires {b}⊆{a}"


def eval_partial(term: Term, assignment: ClassAssignment) -> PartialValue:
    """Evaluate under Boole's partial algebra of classes.

    Multiplication is intersection and always defined; addition requires
    disjoint operands, subtraction containment of the second in the
    first.  Unary minus and literals above 1 never denote classes.
    Powers evaluate their base once, classes being idempotent.
    Evaluation is strict: any undefined subterm, whether or not it could
    influence the result, makes the whole term undefined.  The first in
    postorder is reported, so a unary minus's operand before the minus.
    """
    order = _postorder(term)
    try:
        return Defined(_class_fold(term, _Masks(assignment.universe.mask, assignment.mask), frozenset(), order))
    except _Undefined as failure:
        node = failure.node
    # The fold stopped at `node`, but an unassigned name or a node that is
    # no term anywhere in the tree still raises, checked only on this path
    # so that a defined term is walked once.
    for later in order:
        if type(later) is Var:
            assignment.mask(later.name)
        elif not isinstance(later, Term):
            raise TypeError(f"unexpected {type(later).__name__}: {later!r}")
    return Undefined(node, _reason(node))


# ----------------------------------------------------------------------
# Signed multisets


class Multiset(Record):
    """An integer-valued function on the universe, one value per element."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        for v in values:
            if not isinstance(v, int):
                raise TypeError(f"multiset value {v!r} is not an integer")
        object.__setattr__(self, "values", tuple(map(int, values)))  # a bool is stored as its int

    @classmethod
    def constant(cls, value: int, size: int) -> "Multiset":
        return cls((value,) * size)

    @property
    def size(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return not any(self.values)

    def is_characteristic(self) -> bool:
        """True when every value is 0 or 1, i.e. the multiset is the
        characteristic function of a subset."""
        return all(v in (0, 1) for v in self.values)

    def as_mask(self) -> int:
        """The subset a characteristic multiset describes, as a bitmask."""
        if not self.is_characteristic():
            raise ValueError(f"{self} is not a characteristic function")
        return mask_of(i for i, v in enumerate(self.values) if v)

    def _pointwise(self, other: Union["Multiset", int], op: Callable[[int, int], int]) -> "Multiset":
        other = _coerce(other, self.size)
        if self.size != other.size:
            raise ValueError(f"universe mismatch: sizes {self.size} and {other.size}")
        return Multiset(tuple(map(op, self.values, other.values)))

    def __add__(self, other: Union["Multiset", int]) -> "Multiset":
        return self._pointwise(other, add)

    __radd__ = __add__

    def __sub__(self, other: Union["Multiset", int]) -> "Multiset":
        return self._pointwise(other, sub)

    def __rsub__(self, other: Union["Multiset", int]) -> "Multiset":
        return _coerce(other, self.size)._pointwise(self, sub)

    def __neg__(self) -> "Multiset":
        return Multiset(tuple(-a for a in self.values))

    def __mul__(self, other: Union["Multiset", int]) -> "Multiset":
        return self._pointwise(other, mul)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Multiset":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        # |a| > 1 at least doubles per unit of exponent: refuse before the float product.
        top = max(map(abs, self.values), default=0)
        if top > 1 and (exponent > MAX_POWER_BITS or exponent * log2(top) > MAX_POWER_BITS):
            raise ValueError(f"power too large: its values pass {MAX_POWER_BITS} bits")
        return Multiset(tuple(a**exponent for a in self.values))

    def __str__(self) -> str:
        return "[" + ", ".join(map(_decimal, self.values)) + "]"


def _coerce(value: Union["Multiset", int], size: int) -> Multiset:
    if isinstance(value, Multiset):
        return value
    if isinstance(value, int):
        return Multiset.constant(value, size)
    raise TypeError(f"cannot combine a Multiset with {value!r}")


def chi(subset: int | Iterable[int], universe: Universe) -> Multiset:
    """The characteristic function of a subset: 1 on it, 0 off it."""
    mask = _subset_mask(subset, universe, "subset is not contained in the universe")
    return Multiset(tuple(mask >> i & 1 for i in universe.elements()))


def eval_multiset(
    term: Term,
    assignment: Mapping[str, Multiset],
    *,
    universe: Universe | None = None,
) -> Multiset:
    """Evaluate a term pointwise in the signed-multiset ring.

    Every term is interpretable here: addition, subtraction, negation and
    multiplication act elementwise over the integers and powers are
    genuine integer powers.  On characteristic functions the power agrees
    with the idempotent collapse used by the class semantics.  The
    universe may be omitted when the assignment is nonempty.
    """
    sizes = {m.size for m in assignment.values()}
    if universe is not None:
        sizes.add(universe.size)
    if len(sizes) > 1:
        raise ValueError(f"universe mismatch: sizes {sorted(sizes)}")
    if not sizes:
        raise ValueError("cannot infer the universe from an empty assignment")
    size = sizes.pop()

    visits: dict[type, Callable] = {
        Var: lambda node: _assigned(assignment, node.name),
        Zero: lambda node: Multiset.constant(0, size),
        One: lambda node: Multiset.constant(1, size),
        IntLit: lambda node: Multiset.constant(node.value, size),
        Add: lambda node, left, right: left + right,
        Sub: lambda node, left, right: left - right,
        Mul: lambda node, left, right: left * right,
        Neg: lambda node, operand: -operand,
        Pow: lambda node, base: base**node.exponent,
    }
    return _fold(term, visits)


# ----------------------------------------------------------------------
# Idempotent checking


def holds_in_idempotents(
    eq_lhs: Polynomial,
    universe: Universe,
    *,
    max_vars: int | None = None,
) -> Literal[True] | ClassAssignment:
    """Does eq_lhs = 0 hold for every assignment of characteristic
    functions to its variables?

    Returns True when it does, otherwise the first counterexample in the
    fixed enumeration order: variables sorted by name, subsets by
    increasing bitmask, earlier variables varying slowest.  Note the
    counterexample is truthy; compare against True explicitly.

    An assignment fails where eq_lhs is nonzero at some element's 0/1
    point, so the first puts element 0 at the least failing point and no
    other element in any class: earlier ones give every element an earlier
    point.
    """
    names = eq_lhs.variables()
    check_variable_limit(universe.size * len(names), max_vars)
    found = least_point(eq_lhs, (), names) if universe.size else None
    if found is None:
        return True
    return ClassAssignment(universe, sigma_assignment(found[0], names))
