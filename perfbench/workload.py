"""What every workload hands the worker: operations with their own checks."""

from __future__ import annotations

import dataclasses
import hashlib
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Op:
    """One timed call and the check of its output.

    `check` returns None when the output is right and a message otherwise.
    An op with `refusal` set must raise an instance of it instead.  An op on
    a corrupted input names in `fails_in` each layer that must report one
    failed verification for it.
    """

    kind: str
    size: int
    call: Callable[[], object]
    check: Callable[[object], str | None] = lambda result: None
    refusal: type | tuple[type, ...] | None = None
    fails_in: tuple[str, ...] = ()


def judge(op: Op, result: object, exc: BaseException | None) -> str | None:
    """None when the op behaved as specified, else why it failed."""
    if op.refusal is not None:
        if exc is None:
            return "expected a refusal, got a result"
        if not isinstance(exc, op.refusal):
            return f"expected a refusal, raised {type(exc).__name__}: {exc}"
        return None
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    try:
        return op.check(result)
    except Exception:  # a malformed output must count as a failed op
        return "output check raised: " + traceback.format_exc(limit=2).strip()


def _canonical(obj: object) -> object:
    if isinstance(obj, float):
        return "~0" if abs(obj) < 1e-9 else f"{obj:.10g}"
    if isinstance(obj, complex):
        return (_canonical(obj.real), _canonical(obj.imag))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), _canonical(v)) for k, v in obj.items()))
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
            if f.compare
        )
    return repr(obj)


def fingerprint(obj: object) -> str:
    """A digest of an output that ignores float noise below 1e-9."""
    return hashlib.sha256(repr(_canonical(obj)).encode()).hexdigest()[:16]
