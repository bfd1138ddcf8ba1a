"""Exception hierarchy and the field checks shared by every model module.

All failures raised by this package derive from LexsimError so callers can
catch one type. Domain violations double as ValueError and solver failures as
RuntimeError, keeping plain-Python expectations intact.

A bounded number declares its bounds once, as a dict of `ge` or `gt`, optional
`le` or `lt`, and `integer`, in its dataclass field's metadata or beside the
function taking it. `_schema` reads each dataclass's fields once, by declared
type and bounds: `_Bounded` checks every field against it, `_check` a number
against its bounds, `DisputeBatch._read` a float64 column by its least and
greatest number, and the config loader reads its blocks by the same schema.
Every parameter dataclass derives from `_Bounded`, so it checks itself whether
code or a config built it.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from dataclasses import fields
from functools import cache
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints


class LexsimError(Exception):
    """Base class for every error this package raises."""


class DomainError(LexsimError, ValueError):
    """A model input lies outside its admissible domain."""


class ConvergenceError(LexsimError, RuntimeError):
    """A solver failed to reach the requested accuracy."""


class ConfigError(LexsimError, ValueError):
    """A run configuration failed validation.

    `errors` holds (field_path, message) pairs for every violation found, not
    just the first one.
    """

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.errors)
        super().__init__(lines)


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


@cache
def _admits(ge=None, gt=None, le=None, lt=None, integer=False):
    """The test for these bounds, built once for each set of them: v is an int
    (a bool counts), or a float unless `integer`, within them; a float-valued
    number with no upper bound must also be finite."""
    types = int if integer else (int, float)
    lo, lo_open = (ge, False) if gt is None else (gt, True)
    hi, hi_open = (le, False) if lt is None else (lt, True)
    need_finite = hi is None and not integer
    hi = math.inf if hi is None else hi
    return lambda v: (isinstance(v, types) and (v > lo if lo_open else v >= lo)
                      and (v < hi if hi_open else v <= hi) and (not need_finite or _finite(v)))


def _bound_error(name, v, ge=None, gt=None, le=None, lt=None, integer=False) -> DomainError:
    if integer:
        if isinstance(v, int) and v >= ge:  # so the upper bound failed
            return DomainError(f"{name} must be <= {le}: got {v!r}")
        return DomainError(f"{name} must be an integer >= {ge}: got {v!r}")
    op, lo = (">=", ge) if gt is None else (">", gt)
    if le is None and lt is None:
        return DomainError(f"{name} must be finite and {op} {lo:g}: got {v!r}")
    opening = "[" if gt is None else "("
    closing, hi = ("]", le) if lt is None else (")", lt)
    return DomainError(f"{name} must lie in {opening}{lo:g}, {hi:g}{closing}: got {v!r}")


def _check(name: str, v, bounds) -> None:
    """Raise DomainError unless v lies within `bounds`."""
    if not _admits(**bounds)(v):
        raise _bound_error(name, v, **bounds)


@cache
def _schema(cls) -> tuple:
    """(name, type, default, bounds, test) of each field of dataclass `cls`, in
    declaration order; a `X | None` type reads as X. `test` admits a number within
    the bounds or else an instance of the type, nonempty by len() if it is sized (a
    DisputeBatch compared with "" builds each item), of X items if a list[X] (no str)."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        t = hints[f.name]
        if isinstance(t, UnionType):
            t = next(a for a in get_args(t) if a is not NoneType)
        c, item = get_origin(t) or t, next(iter(get_args(t)), None)
        test = (_admits(**f.metadata) if f.metadata else
                lambda v, c=c, sized=issubclass(c, Sized), item=item: isinstance(v, c) and
                (not sized or len(v) > 0) and (item is None or _holds(v, item)))
        out.append((f.name, t, f.default, f.metadata, test))
    return tuple(out)


def _holds(items, item) -> bool:
    """Whether each of `items` is an `item`; a batch of them, `item._batch`, is not read."""
    return type(items) is getattr(item, "_batch", None) or all(isinstance(x, item) for x in items)


class _Bounded:
    """Base of a parameter dataclass: construction checks every field against its
    schema, and a field with a None default may also be None."""

    def __post_init__(self):
        for name, t, default, bounds, admits in _schema(type(self)):
            v = getattr(self, name)
            if not admits(v) and not (v is None and default is None):
                if bounds:
                    raise _bound_error(name, v, **bounds)
                kind = ("a nonempty string" if t is str else f"an instance of {t.__name__}"
                        if not isinstance(v, get_origin(t) or t) else "a nonempty list"
                        if len(v) == 0 else f"a list of {get_args(t)[0].__name__}")
                raise DomainError(f"{name} must be {kind}: got {v!r}")
