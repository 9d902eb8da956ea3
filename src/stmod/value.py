"""The base of the value types, in place of ``dataclasses``, whose import and
code generation took half of ``import stmod``.  The fields are the ``__slots__``,
set in order by ``_assign``; a value compares and hashes as their tuple and its
repr lists them.  ``frozen=True`` refuses assignment, else it is unhashable."""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False):
        cls._fields = attrgetter(*cls.__slots__)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = cls._refuse
        else:
            cls.__hash__ = None

    def _refuse(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")

    def _assign(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
