"""Value records: small classes compared, hashed and printed by their fields.

A record class names its fields in `_fields`, keeps them in `__slots__`
and sets them in its own `__init__`.  Two records are equal when they are
of the same class and their fields are equal, and `repr` prints
`Name(field=value, ...)`.  A `Record` can be changed and is not hashable;
a `FrozenRecord` refuses assignment (its `__init__` sets the fields
through `_set_fields`), hashes the tuple of its fields, and is copied and
pickled by calling its class on its fields.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def _set_fields(self, *values):
        """Set the fields, given in `_fields` order, past the refusal."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # the default would restore the slots by assignment, which is
        # refused
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
