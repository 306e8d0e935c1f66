"""The base of the package's record types that are compared or printed.

A record type is a plain class that lists its fields in ``__slots__``, in
the order its ``__init__`` takes them. Deriving from Slotted adds what a
dataclass would generate from that list: a repr in dataclass format and
equality by type and field values, which, as for a mutable dataclass,
leaves instances unhashable unless the type defines ``__hash__``. Record
types that nothing compares or prints keep identity equality and the
default repr.
"""

from __future__ import annotations


class Slotted:
    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]
