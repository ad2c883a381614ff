"""Frozen value records, built without generating code.

Every value class in boole (term and set-expression nodes, universes and
assignments, verdicts, tables, solutions) is an immutable record: fields
in declaration order, construction by position or keyword with defaults,
an optional ``__post_init__`` check, field-wise ``==`` and ``hash`` and a
``Name(field=value, ...)`` repr.  ``dataclasses`` would give the same, but
importing it pulls in ``inspect`` and ``ast``, and it compiles half a
dozen methods per class, which was more than half of a cold ``boole``
start.  Here the methods are written once, on this base.

A subclass declares its fields as annotations, and a default as a class
attribute of the field's name (in a class without ``__slots__``).  A
slotted class whose instances are built in bulk may define its own
``__init__``, setting its fields through ``object.__setattr__``.
"""

from __future__ import annotations

from types import MappingProxyType

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields: dict = {}
        defaults: dict = {}
        for klass in reversed(cls.__mro__):
            own = vars(klass)
            names = own.get("__annotations__", {})
            fields.update(dict.fromkeys(names))
            slots = own.get("__slots__", ())
            defaults.update((name, own[name]) for name in names if name in own and name not in slots)
        cls._fields = cls.__match_args__ = tuple(fields)
        cls._defaults = defaults

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        # Every field's value in order, from keywords and defaults.
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in fields[len(args):]:
                problem = "multiple values for" if name in fields else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        for name in fields:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        return tuple(values[name] for name in fields)

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        # Copies and pickles are rebuilt through the constructor, since
        # the frozen __setattr__ refuses the default way.  A read-only
        # mapping, which neither can copy, goes as a dict for the
        # constructor to wrap and check again.
        return type(self), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in self._values())
