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
"""

from __future__ import annotations

import importlib
import json
import math
import os
import stat
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, is_dataclass
from enum import Enum
from functools import cache
from typing import get_args, get_origin

from .errors import ConfigError, DomainError, _Bounded, _admits, _finite, _schema
from .rng import _U64_MAX

_MAX_RUNS = 10**6  # per sweep, grid points x replicates; a sweep keeps every summary row
_OPS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # how a broken bound is worded
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
    raw: dict  # the parsed config file for a sweep, whose points are built from it; else {}


def _num(v, path, errs, **bounds):
    """v if it is a number, not a bool, that `_admits` takes within `bounds` and that is
    finite; else None, with the first fault of this ladder in errs: not a number, not an
    integer, a nonfinite float, each bound in turn, then an int past float range."""
    if not isinstance(v, bool) and _admits(**bounds)(v) and _finite(v):
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        fault = "must be a number"
    elif bounds.get("integer") and not isinstance(v, int):
        fault = "must be an integer"
    elif isinstance(v, float) and not math.isfinite(v):
        fault = "must be finite"
    else:  # the first bound v breaks, each tested alone; an int past float range breaks none
        broken = [k for k in _OPS if k in bounds and not _admits(
            **{"ge": -math.inf, k: bounds[k]}, integer=isinstance(v, int))(v)]
        assert broken or not _finite(v), v  # the ladder words only what `_admits` refused
        fault = f"must be {_OPS[broken[0]]} {bounds[broken[0]]}" if broken else "must be finite"
    errs.append((path, f"{fault}, got {v!r}"))
    return None


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
    """The list `items` of `item_cls` as an `item_cls._batch`: read at once by `_read`
    if every item is clean, else by `_obj`, item by item, its faults in item order, into
    `_batch.of`, a faulty item's row NaN."""
    return item_cls._batch._read(items) or item_cls._batch.of(
        [_obj(item_cls, item, f"{path}[{i}]", errs) for i, item in enumerate(items)])


def _obj(cls, value, path, errs, check=None, raw=None):
    """Dataclass `cls` read from the JSON object `value` by its declared field types,
    each fault put in errs at its path; None if a field is faulty or a check failed.
    An unknown key, at any depth, is reported and stops nothing.

    A field with bounds metadata is a number; a str field is a nonempty string, an
    Enum field one of its values; a dataclass field is an object read the same way;
    a list[X] or Sequence[X] field is a nonempty list of X (into X's `_batch` if it has
    one, by `_batch`), and a bare list field a nonempty list of any JSON values. A field
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


def _set_path(raw: dict, path: str, value, errs) -> bool:
    """Put `value` at the dotted `path` in `raw`, copying each object along the path
    first, so what `raw` shares with another config stays as it was, and return True.
    A path that runs through a value other than an object puts its fault at `path` in
    errs and returns False, with `raw` part-copied and `value` set nowhere."""
    *parents, last = path.split(".")
    cursor = raw
    for i, seg in enumerate(parents):
        nxt = cursor.get(seg, {})
        if not isinstance(nxt, dict):
            kind = {list: "a list", str: "a string", bool: "a boolean", type(None): "null"}
            errs.append((path, f"path runs through {'.'.join(parents[:i + 1])}, "
                               f"{kind.get(type(nxt), 'a number')}, not an object"))
            return False
        cursor[seg] = cursor = dict(nxt)
    cursor[last] = value
    return True


def _check_sweep(vals, errs, raw):
    """A sweep's model and axis paths, read or built in code, against the config `raw`.

    The model is one of the others, and `raw` holds its block. Each axis path is dotted
    and starts with that model; it neither equals nor lies above an earlier axis's path,
    whose values it would replace at every point; and unless it lies below one, whose
    values then decide it point by point, it runs through objects of `raw` alone, as
    `_set_path` walks it.
    """
    model = vals.get("model") and _str(vals["model"], "sweep.model", errs,
                                       choices=set(MODELS) - {"sweep"})
    if model and model not in raw:
        errs.append((model, f"missing block for swept model {model!r}"))
    earlier: list[str] = []
    for i, axis in enumerate(vals.get("axes", ())):
        if axis is None:
            continue
        path, p = axis.path, f"sweep.axes[{i}].path"
        segments = path.split(".")
        replaced = [q for q in earlier if q == path or q.startswith(f"{path}.")]
        if any(not s for s in segments) or len(segments) < 2:
            errs.append((p, f"must be a dotted path into a model block, got {path!r}"))
        elif model and segments[0] != model:
            errs.append((p, f"must start with the swept model {model!r}, got {path!r}"))
        elif replaced:
            errs.append((p, f"would replace the earlier axis path {replaced[0]!r} at every point"))
        elif not any(path.startswith(f"{q}.") for q in earlier):
            _set_path(dict(raw), path, None, errs)
        earlier.append(path)


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
                     output_path=None, svg_path=None, raw=raw if model == "sweep" else {})
