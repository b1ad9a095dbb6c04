"""The base of the immutable value types.

A value type names its fields in ``__slots__``, in the order of its
``__init__`` parameters, and sets each once with ``object.__setattr__``.
Two values are equal when they are of the same class with equal fields,
equal values hash alike, and the repr lists the fields by name.
Frequently compared types override ``__eq__`` and ``__hash__`` field by
field.
"""
from __future__ import annotations


class Value:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (type(self), self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"
