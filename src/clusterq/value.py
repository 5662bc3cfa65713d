"""The base of clusterq's value types.

Each value type is a plain class with __slots__ and an explicit __init__. It
lists its constructor's parameters, in order, as _fields. Value gives it
equality over those fields, between instances of one class only, the
Name(field=value, ...) repr, and copy and pickle support through the
constructor. Frozen adds a hash over the same fields and refuses assignment
once built: its constructors set fields through object.__setattr__. Nothing
here generates code, so a class costs no more to define than its body.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        fields = cls._fields
        # The field values as a tuple, also for one field or none, so that
        # equality and hashing are those of the tuple.
        cls._values = staticmethod(attrgetter(*fields) if len(fields) > 1 else
                                   lambda obj: tuple(getattr(obj, f) for f in fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values(self)


class Frozen(Value):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __hash__(self):
        return hash(self._values(self))
