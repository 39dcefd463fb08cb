"""The immutable value classes' common base, without `dataclasses`.

A subclass lists its fields as class annotations, in order, and sets them
in its own `__init__`, in that order: into `self.__dict__`, or with
`object.__setattr__` for a slotted field.  An `__init__` that only stores
its arguments leaves their types to the annotations.  The base gives it what
`@dataclass(frozen=True)` gave: `==` between instances of one class, the
hash of the field tuple, the repr `Name(field=value, ...)`, and attributes
that cannot be assigned or deleted.  Values pickle and deep-copy through
their `__dict__`, and `cached_property` writes there too.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a value."""


class Value:
    """`==` compares the two `__dict__`s, which hold the fields and nothing
    else; a class with slots, or whose `__dict__` keeps more (a
    cached_property, a memo), passes `by_dict=False` and compares its
    fields in order.  Either reads as the dataclass `==` did, at its speed."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, by_dict: bool = True) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = attrgetter(*cls._fields)  # one field gives the bare value
        if not by_dict:
            cls.__eq__ = Value._eq_fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def _eq_fields(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        key = self._key(self)
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def replace(value: Value, /, **changes: object) -> Value:
    """A new value of value's class with the given fields changed, built by
    its constructor from the other fields, as `dataclasses.replace`.  A
    class whose constructor takes only some of its fields names them in
    `_init_fields`."""
    for name in getattr(value, "_init_fields", value._fields):
        changes.setdefault(name, getattr(value, name))
    return value.__class__(**changes)
