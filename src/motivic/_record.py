"""Plain value classes.

A record class declares its fields, in order, as its `__slots__` and
writes its own `__init__`; this base supplies equality, hashing, repr and
copying from those fields, so that defining a record runs no generated
code.  Two records are equal when they are of the same class and all
their fields are equal, and a frozen record hashes all its fields.  The
repr lists every field, as `Name(field=value, ...)`.
"""


class Record:
    """A mutable record: equal by value, and so unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # every `__init__` takes the fields in order, so copy and pickle
        # rebuild through it, and a frozen record is never assigned to
        return type(self), self._fields()


class FrozenRecord(Record):
    """An immutable record, hashed by its fields.  Its `__init__`
    sets each field with `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
