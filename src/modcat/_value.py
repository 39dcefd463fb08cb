"""The immutable value classes' common base, without `dataclasses`.

A subclass lists its fields as class annotations, in order, and sets them
in its own `__init__`, in that order: into `self.__dict__`, or with
`object.__setattr__` for a slotted field.  An `__init__` that only stores
its arguments leaves their types to the annotations.  The base gives it what
`@dataclass(frozen=True)` gave: `==` of the fields between instances of one
class, the hash of the field tuple, the repr `Name(field=value, ...)`, and
attributes that cannot be assigned or deleted.  Values pickle and deep-copy
through their `__dict__`, and `cached_property` writes there too.

The module also holds the one strict reader of each input rule that several
layers share: `ascii_int`, `json_fields` and `signed_pairs`.
"""

import re
from operator import attrgetter

_ASCII_INT = re.compile("-?[0-9]+")


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a value."""


class Value:
    """`==` and the hash read the fields in order, as the dataclass's did,
    and nothing else: a slotted field counts, and what a cached_property or
    a memo keeps in `__dict__` does not."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = attrgetter(*cls._fields)  # one field gives the bare value

    def __eq__(self, other: object) -> bool:
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


def ascii_int(text: str) -> int | None:
    """The integer text writes in ASCII digits after an optional '-', or None
    for any other text and for a numeral past the int-string digit limit."""
    try:
        return int(text) if _ASCII_INT.fullmatch(text) else None
    except ValueError:  # longer than sys.get_int_max_str_digits()
        return None


def json_fields(data: object, what: str, keys: tuple[str, ...]) -> list:
    """The values at keys, in order, of data: a JSON object holding them all."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} data must be a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    return [data[key] for key in keys]


def signed_pairs(items: object, what: str, key: str, sign: str) -> tuple[tuple[int, int], ...]:
    """The (key, sign) pairs of a JSON list of objects holding an integer
    key > 1 and a sign 1 or -1; type(x) is int refuses bools and floats."""
    if not isinstance(items, list) or not all(
        isinstance(item, dict) and item.keys() >= {key, sign} for item in items
    ):
        raise ValueError(f'{what} must be a list of {{"{key}": ..., "{sign}": ...}} objects')
    for item in items:
        if type(item[key]) is not int or item[key] < 2:
            raise ValueError(f"{key} must be an integer > 1, got {item[key]!r}")
        if type(item[sign]) is not int or item[sign] not in (1, -1):
            raise ValueError(f"{sign} must be 1 or -1, got {item[sign]!r}")
    return tuple((item[key], item[sign]) for item in items)
