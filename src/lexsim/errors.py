"""Exception hierarchy and the numeric bound checks shared by every model module.

All failures raised by this package derive from LexsimError so callers can
catch one type. Domain violations double as ValueError and solver failures as
RuntimeError, keeping plain-Python expectations intact.

A bounded number declares its bounds once, as a dict of `ge` or `gt`, optional
`le` or `lt`, and `integer`, in its dataclass field's metadata or beside the
function taking it. `_check` and `_Bounded` raise DomainErrors from them,
and the config loader words its path-tagged messages from the same dicts.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import cache


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
def _bounded_fields(cls) -> tuple:
    """(name, default, bounds, test) for each field of dataclass `cls` declaring bounds."""
    return tuple((f.name, f.default, f.metadata, _admits(**f.metadata))
                 for f in fields(cls) if f.metadata)


class _Bounded:
    """Base of a dataclass whose fields may declare bounds: construction checks
    each such field against them, a field with a None default may also be None."""

    def __post_init__(self):
        for name, default, bounds, admits in _bounded_fields(type(self)):
            v = getattr(self, name)
            if not admits(v) and not (v is None and default is None):
                raise _bound_error(name, v, **bounds)
