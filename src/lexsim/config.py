"""JSON run configurations: loading, validation, and per-model parameter blocks.

A config file is one JSON object holding an optional top-level "seed" plus one
block per model the file can drive ("equilibrium", "settle", "frivolous",
"evolve", "composition", "sweep"). The subcommand picks which block is read.
Validation is aggregated: every violation is collected with its field path and
reported in one ConfigError rather than failing on the first.

A model block's schema is its parameter dataclass, a `_Bounded` in its model's
module, imported only when `_PARAMS` needs it, that checks every field when built,
in code or here: `_obj` reads each field by its declared type, its bounds metadata
and its default, so a key, a default or a bound is written once, on the dataclass. Its
module may add one `_check_<model>(vals, errs, raw)` for rules across its fields, worded
and placed as a config reports them; the dataclass's own rules (composition's docket,
the sweep's run limit) are reported at the block. A block is built unless a field or a
check is faulty: an unknown key stops nothing.
A settle block's disputes, by far the longest list, are read into float64 columns.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import operator
import os
import stat
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, is_dataclass
from enum import Enum
from functools import cache
from itertools import chain
from typing import get_args, get_origin

from .errors import ConfigError, DomainError, _Bounded, _admitted, _finite, _schema
from .rng import _U64_MAX

_MAX_RUNS = 10**6  # per sweep, grid points x replicates; a sweep keeps every summary row
_COMPARISONS = ((">=", operator.ge), (">", operator.gt), ("<=", operator.le), ("<", operator.lt))
_NUMBER_TYPES = frozenset((int, float))
_UNKNOWN = "unknown key"  # the one fault that stops no block from being built
_MAX_CONFIG_BYTES = 2**28  # 256 MiB; one byte more is read, to see a config past it


@dataclass(frozen=True)
class SweepAxis(_Bounded):
    path: str  # dotted, into the swept model's block
    values: list


@dataclass(frozen=True)
class SweepSpec(_Bounded):
    model: str
    axes: list[SweepAxis]
    replicates: int = field(default=1, metadata={"ge": 1, "integer": True})

    def __post_init__(self):
        super().__post_init__()
        if (runs := math.prod(len(a.values) for a in self.axes) * self.replicates) > _MAX_RUNS:
            raise DomainError(f"grid points x replicates = {runs}, above the limit of {_MAX_RUNS}")


@dataclass
class RunConfig:
    model: str
    params: object
    seed: int
    output_path: str | None
    svg_path: str | None
    raw: dict


def _num(v, path, errs, *, ge=None, gt=None, le=None, lt=None, integer=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errs.append((path, f"must be a number, got {v!r}"))
        return None
    if integer and not isinstance(v, int):
        errs.append((path, f"must be an integer, got {v!r}"))
        return None
    if isinstance(v, float) and not math.isfinite(v):
        errs.append((path, f"must be finite, got {v!r}"))
        return None
    for (op, holds), bound in zip(_COMPARISONS, (ge, gt, le, lt)):
        if bound is not None and not holds(v, bound):
            errs.append((path, f"must be {op} {bound}, got {v!r}"))
            return None
    if not _finite(v):  # an int beyond float range that no bound caught
        errs.append((path, f"must be finite, got {v!r}"))
        return None
    return v


@cache
def _names(cls) -> frozenset[str]:
    return frozenset(name for name, *_ in _schema(cls))


def _str(v, path, errs, *, choices=None):
    if not isinstance(v, str) or not v:
        errs.append((path, f"must be a nonempty string, got {v!r}"))
        return None
    if any("\ud800" <= c <= "\udfff" for c in v):  # JSON's "\ud800": UTF-8 cannot hold it
        errs.append((path, f"must not hold a lone surrogate, got {v!r}"))
        return None
    if choices is not None and v not in choices:
        errs.append((path, f"must be one of {sorted(choices)}, got {v!r}"))
        return None
    return v


def _list(v, path, errs):
    if not isinstance(v, list) or not v:
        errs.append((path, f"must be a list with at least 1 item(s), got {v!r}"))
        return None
    return v


def _check_keys(block, allowed, path, errs):
    for key in block:
        if key not in allowed:
            errs.append((f"{path}.{key}" if path else key, _UNKNOWN))


def _batch(item_cls, items, path, errs):
    """The list `items` of `item_cls` read into the float64 columns of `item_cls._batch`.

    If every item is a dict of exactly the item's field names, each an int or a float,
    the list is read at once as one table, kept if each column passes its bounds by
    `_admitted` and each row `item_cls._across`. No int but 0 and 1 themselves rounds to
    0 or 1, a Dispute's bounds, so the table passes exactly when `_obj` accepts every
    item. Otherwise every item is read by `_obj`, which reports its faults in item
    order, and `item_cls._batch.of` builds the columns, a faulty item's row NaN. An int
    beyond 2^53 is rounded.
    """
    import numpy as np

    schema = _schema(item_cls)
    width = len(schema)
    with contextlib.suppress(KeyError, OverflowError):  # a field missing; an int past float range
        if (set(map(type, items)) == {dict} and sum(map(len, items)) == width * len(items)
                and {type(v) for item in items for v in item.values()} <= _NUMBER_TYPES):
            get = operator.itemgetter(*(name for name, *_ in schema))
            table = np.fromiter(chain.from_iterable(map(get, items)), np.float64, width * len(items))
            cols = tuple(table.reshape(-1, width).T)
            with np.errstate(over="ignore", invalid="ignore"):
                ok = item_cls._across(*cols)
            for col, (_, _, _, bounds, _) in zip(cols, schema):
                ok &= _admitted(col, **bounds)
            if ok.all():
                return item_cls._batch(*cols)
    return item_cls._batch.of([_obj(item_cls, item, f"{path}[{i}]", errs)
                               for i, item in enumerate(items)])


def _obj(cls, value, path, errs, check=None, raw=None):
    """Dataclass `cls` read from the JSON object `value` by its declared field types,
    each fault put in errs at its path; None if a field is faulty or a check failed.
    An unknown key, at any depth, is reported and stops nothing.

    A field with bounds metadata is a number; a str field is a nonempty string, an
    Enum field one of its values; a dataclass field is an object read the same way;
    a list[X] or Sequence[X] field is a nonempty list of X (into X's `_batch` if it has
    one, as Dispute), and a bare list field a nonempty list of any JSON values. A field
    with a default may be missing, and JSON null counts as missing where that default is
    None. Then `check(vals, errs, raw)` reports the faults across fields: `vals` maps
    each field read without fault to its value, and a list of X to its items, with None
    for each faulty one (to a batch, with NaN in each faulty row); `raw` is the whole
    config. Last, `cls` makes its own checks, each reported at `path`.
    """
    if not isinstance(value, dict):
        errs.append((path, f"must be an object, got {value!r}"))
        return None
    _check_keys(value, _names(cls), path, errs)
    n_errs = len(errs)
    vals = {}
    for name, t, default, bounds, _ in _schema(cls):
        p = f"{path}.{name}"
        v = value.get(name)
        if v is None and (default is None or name not in value):
            if default is MISSING:
                errs.append((p, "required"))
            else:
                vals[name] = default
            continue
        if bounds:
            x = _num(v, p, errs, **bounds)
        elif t is list or get_origin(t) in (list, Sequence):
            x = _list(v, p, errs)
            if x is not None and t is not list:
                item_cls = get_args(t)[0]
                x = (_batch(item_cls, x, p, errs) if hasattr(item_cls, "_batch") else
                     [_obj(item_cls, item, f"{p}[{i}]", errs) for i, item in enumerate(x)])
        elif is_dataclass(t):
            x = _obj(t, v, p, errs)
        else:  # a str, or an Enum named by its value
            choices = {e.value for e in t} if issubclass(t, Enum) else None
            x = _str(v, p, errs, choices=choices)
            if x is not None and choices is not None:
                x = t(x)
        if x is not None:
            vals[name] = x
    if check is not None:
        check(vals, errs, raw)
    if any(msg != _UNKNOWN for _, msg in errs[n_errs:]):
        return None
    try:
        return cls(**vals)
    except DomainError as e:  # a check across fields that cls makes itself
        errs.append((path, str(e)))
        return None


def _check_sweep(vals, errs, raw):
    """A sweep's model and axis paths, read or built in code, against the config `raw`."""
    model = vals.get("model") and _str(vals["model"], "sweep.model", errs,
                                       choices=set(MODELS) - {"sweep"})
    if model and model not in raw:
        errs.append((model, f"missing block for swept model {model!r}"))
    for i, axis in enumerate(vals.get("axes", ())):
        if axis is None:
            continue
        segments, p = axis.path.split("."), f"sweep.axes[{i}].path"
        if any(not s for s in segments) or len(segments) < 2:
            errs.append((p, f"must be a dotted path into a model block, got {axis.path!r}"))
        elif model and segments[0] != model:
            errs.append((p, f"must start with the swept model {model!r}, got {axis.path!r}"))


_PARAMS = {  # model: the module and name of its parameter dataclass
    "equilibrium": ("contracts", "EquilibriumParams"),
    "settle": ("settlement", "SettleParams"),
    "frivolous": ("frivolous", "FrivolousParams"),
    "evolve": ("evolution", "EvolveParams"),
    "composition": ("composition", "CompositionParams"),
    "sweep": ("config", "SweepSpec"),
}
MODELS = tuple(_PARAMS)


def _params_class(model: str) -> type:
    """`model`'s parameter dataclass; its module is imported here, on a run's first need."""
    module, name = _PARAMS[model]
    return getattr(importlib.import_module(f".{module}", __package__), name)


def build_model_params(raw: dict, model: str, errs: list[tuple[str, str]]):
    """`model`'s parameter block built from a parsed config dict; None if any fault."""
    cls = _params_class(model)
    check = getattr(importlib.import_module(cls.__module__), f"_check_{model}", None)
    n_errs = len(errs)
    params = _obj(cls, raw.get(model), model, errs, check, raw)
    return params if len(errs) == n_errs else None


def load_config(path: str, model: str) -> RunConfig:
    """Read a UTF-8 JSON config, a file or pipe of up to 2^28 bytes, and check its model's block."""
    if model not in MODELS:
        raise ConfigError([("", f"unknown model {model!r}; expected one of {list(MODELS)}")])
    try:
        with open(path, "rb") as fh:  # json.loads decodes it, not the locale
            if not stat.S_ISREG(kind := os.fstat(fh.fileno()).st_mode) and not stat.S_ISFIFO(kind):
                raise ConfigError([("", f"config must be a regular file or a pipe: {path!r}")])
            data = bytearray()  # grown 64 KiB a read: one read of the cap reserves 256 MiB
            while chunk := fh.read(min(2**16, _MAX_CONFIG_BYTES + 1 - len(data))):
                data += chunk
    except OSError as e:
        raise ConfigError([("", f"cannot read config file: {e}")])
    if len(data) > _MAX_CONFIG_BYTES:
        raise ConfigError([("", f"config is over {_MAX_CONFIG_BYTES} bytes: {path!r}")])
    try:
        raw = json.loads(data)
    except (ValueError, RecursionError) as e:  # bad bytes or JSON, huge integer, too deep
        raise ConfigError([("", f"invalid JSON: {e}")])
    if not isinstance(raw, dict):
        raise ConfigError([("", f"top level must be a JSON object, got {raw!r}")])

    errs: list[tuple[str, str]] = []
    _check_keys(raw, set(MODELS) | {"seed"}, "", errs)
    seed = _num(raw["seed"], "seed", errs, ge=0, le=_U64_MAX, integer=True) if "seed" in raw else 0
    params = None
    if model not in raw:
        errs.append((model, "missing configuration block"))
    else:
        params = build_model_params(raw, model, errs)
    if errs:
        raise ConfigError(errs)
    return RunConfig(model=model, params=params, seed=seed,
                     output_path=None, svg_path=None, raw=raw)
