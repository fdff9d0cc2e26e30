"""Slotted frozen dataclasses on every supported Python.

``dataclass(slots=True)`` needs Python 3.10.  :func:`slotted` gives an
already-decorated dataclass the same layout on 3.9: the class is
rebuilt with one slot per field and no instance ``__dict__``, which
saves a dict per value on the millions of prefixes, ranges and WHOIS
records a load holds.  Equality, hashing, ordering, ``repr`` and
frozenness are the dataclass's own and do not change.

A frozen class's ``__setattr__`` raises, and the default way pickle and
:mod:`copy` restore slot state goes through it, so the rebuilt class
carries its own ``__getstate__``/``__setstate__`` (a tuple of field
values, restored with ``object.__setattr__``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Tuple, Type, TypeVar

__all__ = ["slotted"]

T = TypeVar("T")


def _getstate(self: Any) -> Tuple[Any, ...]:
    return tuple(getattr(self, name) for name in self.__slots__)


def _setstate(self: Any, state: Tuple[Any, ...]) -> None:
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


def slotted(cls: Type[T]) -> Type[T]:
    """*cls*, a dataclass, rebuilt with ``__slots__`` for its fields.

    Apply it above ``@dataclass``.  The class must not use zero-argument
    ``super()``, whose cell would still name the class before the
    rebuild.
    """
    names = tuple(field.name for field in dataclasses.fields(cls))
    namespace = dict(cls.__dict__)
    for name in names + ("__dict__", "__weakref__"):
        namespace.pop(name, None)  # field defaults live in __init__ now
    namespace["__slots__"] = names
    namespace["__getstate__"] = _getstate
    namespace["__setstate__"] = _setstate
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = cls.__qualname__
    return rebuilt
