"""Base classes for the package's slotted records.

Records are plain classes with ``__slots__`` and a hand-written
``__init__``, so importing the package generates and compiles no code
(``dataclasses`` would, and would import ``inspect`` too).  A ``Frozen``
record refuses assignment once built, so its ``__init__`` stores each
field with ``set_field``.  Records compared as values also derive from
``Value``, which defines equality, hashing and a repr over the record's
own ``__slots__``; those must list every field, in constructor order.
"""

from __future__ import annotations

set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"read-only {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a "
                             f"read-only {type(self).__name__}")


class Value:
    """Slot-wise ``==``, ``hash`` and repr.  Records of different classes
    never compare equal, even with equal fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, n) for n in type(self).__slots__])

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}"
                         for n in type(self).__slots__)
        return f"{type(self).__name__}({args})"
