"""The base of the immutable value types.

A value type names its fields in ``__slots__``, in the order of its
``__init__`` parameters; ``Value.__init__`` sets one value per field, and
a subclass with defaults or checks calls it through ``super().__init__``.
Two values are equal when they are of the same class with equal fields,
equal values hash alike, assigning or deleting a field raises
``AttributeError``, and the repr lists the fields by name.

``Poly`` and ``Cyclo`` keep direct constructors, because each puts what
it is given in canonical form, which setting one value per field would
not.  ``Poly`` has no arithmetic, but is built from coefficients of any
kind (the parser's Fractions, a Cantor result's list, a curve's ints):
it normalises each through the field and drops trailing zeros, so equal
polynomials have equal tuples.  A ``Cyclo`` is built for every arithmetic
result and stored in lowest terms.  Only ``Cyclo`` keeps its own
``__eq__``, which also accepts an int or a Fraction, and is unhashable,
since an element has one form per modulus it is embedded in.
``enumerate_pic`` and ``curve_points`` build their objects through the
slot descriptors from pairs already checked, and ``weierstrass_points``
and ``two_torsion`` through ``from_checked``.
"""
from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        # Equality and hashing read the fields on every cache lookup and set
        # insert; one attrgetter does it several times faster than a generator.
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # then attrgetter returns the bare value
            cls._fields = lambda self: (get(self),)
        else:
            cls._fields = lambda self: get(self)

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def from_checked(cls, *values):
        """An instance holding values the caller has already checked: the
        fields are set as Value.__init__ sets them, and the subclass's own
        __init__ with its checks is skipped."""
        obj = object.__new__(cls)
        Value.__init__(obj, *values)
        return obj

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
