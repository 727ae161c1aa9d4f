"""Records: named tuples and plain classes with value semantics.

A frozen record is a ``typing.NamedTuple`` marked ``@record``: it hashes
like the tuple of its fields, and it equals only a record of its own
class with equal fields, never a bare tuple or a record of another
class.  A record that must not be a tuple is a plain class naming its
fields in ``_fields`` and printing them with ``fields_repr``: a tuple
is the argument list of ``%`` formatting, and has its own ``len`` and
iteration.  A mutable one compares with ``fields_eq``; an immutable one
derives from ``Frozen``.
"""


def _eq(self, other):
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def record(cls):
    """Class decorator for a named tuple: own-class equality, tuple
    hash."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, tuple.__hash__
    return cls


def fields_repr(self) -> str:
    """``Class(field=value, ...)`` over ``self._fields``, as a named
    tuple prints."""
    return "%s(%s)" % (self.__class__.__name__, ", ".join(
        "%s=%r" % (f, getattr(self, f)) for f in self._fields))


def fields_eq(self, other) -> bool:
    """Own-class equality over ``self._fields``."""
    return other.__class__ is self.__class__ and all(
        getattr(self, f) == getattr(other, f) for f in self._fields)


class Frozen:
    """Base of an immutable plain record whose ``__slots__`` are its
    ``_fields``.  ``__init__`` sets them with ``object.__setattr__``,
    and the subclass defines ``__eq__`` and ``__hash__``."""

    __slots__ = ()
    __repr__ = fields_repr

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % self.__class__.__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % self.__class__.__name__)

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)
