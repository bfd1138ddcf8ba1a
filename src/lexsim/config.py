"""JSON run configurations: loading, validation, and per-model parameter blocks.

A config file is one JSON object holding an optional top-level "seed" plus one
block per model the file can drive ("equilibrium", "settle", "frivolous",
"evolve", "composition", "sweep"). The subcommand picks which block is read.
Validation is aggregated: every violation is collected with its field path and
reported in one ConfigError rather than failing on the first.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .composition import _FLAT_REDUCTION, AreaShare, validate_composition
from .contracts import _TOLERANCE, AiShock, GapCurve
from .errors import ConfigError, DomainError, _bounded_fields, _finite
from .evolution import (_COST_DELTA, _PERIODS, AreaKind, FrivolousStream, LegalArea,
                        RulePopulation, _check_draw_size)
from .frivolous import _BELIEF, _DELTA, FrivolousConfig
from .rng import _U64_MAX
from .settlement import _REDUCTION, Dispute, FeeRule

MODELS = ("equilibrium", "settle", "frivolous", "evolve", "composition", "sweep")
_MAX_RUNS = 10**6  # per sweep, grid points x replicates; a sweep keeps every summary row
_REQUIRED = object()
_COMPARISONS = ((">=", operator.ge), (">", operator.gt), ("<=", operator.le), ("<", operator.lt))


@dataclass(frozen=True)
class EquilibriumParams:
    curve: GapCurve
    shock: AiShock
    tolerance: float


@dataclass(frozen=True)
class SettleParams:
    rule: FeeRule
    disputes: list[Dispute]
    cost_reduction: float


@dataclass(frozen=True)
class FrivolousParams:
    game: FrivolousConfig
    belief: float | None
    shift: tuple[float, float] | None  # (delta_f, delta_d)


@dataclass(frozen=True)
class EvolveParams:
    area: LegalArea
    population: RulePopulation
    periods: int
    shock: AiShock
    cost_delta: float
    frivolous: FrivolousStream | None
    tolerance: float


@dataclass(frozen=True)
class CompositionParams:
    areas: list[AreaShare]
    flat_reduction: float


@dataclass(frozen=True)
class SweepSpec:
    model: str
    axes: list[tuple[str, list]]
    replicates: int


@dataclass
class RunConfig:
    model: str
    params: object
    seed: int
    output_path: str | None
    svg_path: str | None
    raw: dict


def _num(block, key, path, errs, default=_REQUIRED, *, ge=None, gt=None, le=None, lt=None,
         integer=False):
    if key not in block:
        if default is _REQUIRED:
            errs.append((path, "required"))
            return None
        return default
    v = block[key]
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


def _bounded(cls, block, path, errs):
    """Each bounded field of dataclass `cls`, read from `block` and checked against
    the bounds its metadata declares; None if any of them is faulty."""
    n_errs = len(errs)
    vals = {name: _num(block, name, f"{path}.{name}", errs,
                       _REQUIRED if default is MISSING else default, **bounds)
            for name, default, bounds, _ in _bounded_fields(cls)}
    return vals if len(errs) == n_errs else None


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _str(block, key, path, errs, default=_REQUIRED, *, choices=None):
    if key not in block:
        if default is _REQUIRED:
            errs.append((path, "required"))
            return None
        return default
    v = block[key]
    if not isinstance(v, str) or not v:
        errs.append((path, f"must be a nonempty string, got {v!r}"))
        return None
    if choices is not None and v not in choices:
        errs.append((path, f"must be one of {sorted(choices)}, got {v!r}"))
        return None
    return v


def _dict(block, key, path, errs, required=True):
    if key not in block:
        if required:
            errs.append((path, "required"))
        return None
    v = block[key]
    if not isinstance(v, dict):
        errs.append((path, f"must be an object, got {v!r}"))
        return None
    return v


def _list(block, key, path, errs, *, min_len=1):
    if key not in block:
        errs.append((path, "required"))
        return None
    v = block[key]
    if not isinstance(v, list) or len(v) < min_len:
        errs.append((path, f"must be a list with at least {min_len} item(s), got {v!r}"))
        return None
    return v


def _check_keys(block, allowed, path, errs):
    for key in block:
        if key not in allowed:
            errs.append((f"{path}.{key}" if path else key, "unknown key"))


def _block(cls, block, key, path, errs, default=_REQUIRED):
    """Dataclass `cls` from the object at `block[key]`, whose keys are its field names
    and whose fields are all bounded numbers; None, the faults put in errs, if faulty."""
    if key not in block and default is not _REQUIRED:
        return default
    sub = _dict(block, key, path, errs)
    if sub is None:
        return None
    _check_keys(sub, _names(cls), path, errs)
    vals = _bounded(cls, sub, path, errs)
    if vals is None:
        return None
    try:
        return cls(**vals)
    except DomainError as e:  # a check across fields
        errs.append((path, str(e)))
        return None


def _build_equilibrium(block, errs):
    _check_keys(block, _names(EquilibriumParams), "equilibrium", errs)
    curve = _block(GapCurve, block, "curve", "equilibrium.curve", errs)
    shock = _block(AiShock, block, "shock", "equilibrium.shock", errs, AiShock())
    tolerance = _num(block, "tolerance", "equilibrium.tolerance", errs, 1e-9, **_TOLERANCE)
    if curve is None or shock is None or tolerance is None:
        return None
    return EquilibriumParams(curve=curve, shock=shock, tolerance=tolerance)


_DISPUTE_KEYS = frozenset(_names(Dispute))
_NUMBER_TYPES = frozenset((int, float))


def _plain_dispute(item, reduction):
    """The Dispute of a fault-free item, else None; no error paths are built.

    `Dispute` checks the same declared bounds `_checked_dispute` reads, so for
    int and float values this accepts an item exactly when that reports nothing.
    """
    if type(item) is not dict or item.keys() != _DISPUTE_KEYS:
        return None
    if not _NUMBER_TYPES.issuperset(map(type, item.values())):  # no bool, no str
        return None
    try:
        d = Dispute(**item)
    except DomainError:
        return None
    if reduction is not None and reduction > min(d.c_q, d.c_g):
        return None
    return d


def _checked_dispute(item, reduction, path, errs):
    """One dispute item checked field by field, reporting every fault at its path."""
    if not isinstance(item, dict):
        errs.append((path, f"must be an object, got {item!r}"))
        return None
    _check_keys(item, _DISPUTE_KEYS, path, errs)
    vals = _bounded(Dispute, item, path, errs)
    if vals is None:
        return None
    if reduction is not None and reduction > min(vals["c_q"], vals["c_g"]):
        errs.append((path, f"cost_reduction {reduction!r} exceeds a party cost"))
        return None
    return Dispute(**vals)


def _build_settle(block, errs):
    _check_keys(block, _names(SettleParams), "settle", errs)
    rule_name = _str(block, "rule", "settle.rule", errs,
                     choices={r.value for r in FeeRule})
    reduction = _num(block, "cost_reduction", "settle.cost_reduction", errs, 0.0, **_REDUCTION)
    items = _list(block, "disputes", "settle.disputes", errs)
    disputes = None
    if items is not None:
        disputes = []
        for i, item in enumerate(items):
            d = _plain_dispute(item, reduction)
            if d is None:
                d = _checked_dispute(item, reduction, f"settle.disputes[{i}]", errs)
            disputes.append(d)
        if any(d is None for d in disputes):
            disputes = None
    if rule_name is None or reduction is None or disputes is None:
        return None
    return SettleParams(rule=FeeRule(rule_name), disputes=disputes, cost_reduction=reduction)


def _build_frivolous(block, errs):
    _check_keys(block, _names(FrivolousParams), "frivolous", errs)
    game = _block(FrivolousConfig, block, "game", "frivolous.game", errs)
    belief = _num(block, "belief", "frivolous.belief", errs, None, **_BELIEF)
    shift = None
    sub = _dict(block, "shift", "frivolous.shift", errs, required=False)
    if sub is not None:
        _check_keys(sub, {"delta_f", "delta_d"}, "frivolous.shift", errs)
        df = _num(sub, "delta_f", "frivolous.shift.delta_f", errs, 0.0, **_DELTA)
        dd = _num(sub, "delta_d", "frivolous.shift.delta_d", errs, 0.0, **_DELTA)
        if game is not None and df is not None and dd is not None:
            if df > game.f_o:
                errs.append(("frivolous.shift.delta_f",
                             f"must be <= f_o ({game.f_o!r}), got {df!r}"))
            elif dd > game.d:
                errs.append(("frivolous.shift.delta_d",
                             f"must be <= d ({game.d!r}), got {dd!r}"))
            else:
                shift = (df, dd)
    if game is None:
        return None
    return FrivolousParams(game=game, belief=belief, shift=shift)


def _build_area(block, key, path, errs):
    sub = _dict(block, key, path, errs)
    if sub is None:
        return None
    _check_keys(sub, _names(LegalArea), path, errs)
    name = _str(sub, "name", f"{path}.name", errs)
    kind = _str(sub, "kind", f"{path}.kind", errs, choices={k.value for k in AreaKind})
    vals = _bounded(LegalArea, sub, path, errs)
    rule_name = _str(sub, "fee_rule", f"{path}.fee_rule", errs, default=FeeRule.AMERICAN.value,
                     choices={r.value for r in FeeRule})
    curve = None
    if "gap_curve" in sub and sub["gap_curve"] is not None:
        curve = _block(GapCurve, sub, "gap_curve", f"{path}.gap_curve", errs)
        if curve is None:
            return None
    if None in (name, kind, vals, rule_name):
        return None
    try:
        return LegalArea(name=name, kind=AreaKind(kind), fee_rule=FeeRule(rule_name),
                         gap_curve=curve, **vals)
    except DomainError as e:
        errs.append((path, str(e)))
        return None


def _build_evolve(block, errs):
    _check_keys(block, _names(EvolveParams), "evolve", errs)
    area = _build_area(block, "area", "evolve.area", errs)
    pop = _block(RulePopulation, block, "population", "evolve.population", errs)
    periods = _num(block, "periods", "evolve.periods", errs, **_PERIODS)
    if pop is not None and periods is not None:
        try:
            _check_draw_size(pop.n_rules, periods)
        except DomainError as e:
            errs.append(("evolve", str(e)))
    shock = _block(AiShock, block, "shock", "evolve.shock", errs, AiShock())
    cost_delta = _num(block, "cost_delta", "evolve.cost_delta", errs, 0.0, **_COST_DELTA)
    tolerance = _num(block, "tolerance", "evolve.tolerance", errs, 1e-9, **_TOLERANCE)
    if area is not None and cost_delta is not None:
        if cost_delta > min(area.cost_q, area.cost_g):
            errs.append(("evolve.cost_delta",
                         f"exceeds a party cost in area {area.name!r}"))
    stream = None
    fsub = _dict(block, "frivolous", "evolve.frivolous", errs, required=False)
    if fsub is not None:
        _check_keys(fsub, _names(FrivolousStream), "evolve.frivolous", errs)
        game = _block(FrivolousConfig, fsub, "game", "evolve.frivolous.game", errs)
        vals = _bounded(FrivolousStream, fsub, "evolve.frivolous", errs)
        belief = _num(fsub, "belief", "evolve.frivolous.belief", errs, None, **_BELIEF)
        if game is not None and vals is not None:
            stream = FrivolousStream(game=game, belief=belief, **vals)
    if None in (area, pop, periods, shock, cost_delta, tolerance):
        return None
    return EvolveParams(area=area, population=pop, periods=periods, shock=shock,
                        cost_delta=cost_delta, frivolous=stream, tolerance=tolerance)


def _build_composition(block, errs):
    _check_keys(block, _names(CompositionParams), "composition", errs)
    reduction = _num(block, "flat_reduction", "composition.flat_reduction", errs,
                     **_FLAT_REDUCTION)
    items = _list(block, "areas", "composition.areas", errs)
    areas = []
    ok = reduction is not None and items is not None
    if items is not None:
        for i, item in enumerate(items):
            path = f"composition.areas[{i}]"
            if not isinstance(item, dict):
                errs.append((path, f"must be an object, got {item!r}"))
                ok = False
                continue
            _check_keys(item, _names(AreaShare), path, errs)
            name = _str(item, "name", f"{path}.name", errs)
            vals = _bounded(AreaShare, item, path, errs)
            if name is None or vals is None:
                ok = False
                continue
            areas.append(AreaShare(name=name, **vals))
    if not ok:
        return None
    try:
        validate_composition(areas, reduction)
    except DomainError as e:
        errs.append(("composition", str(e)))
        return None
    return CompositionParams(areas=areas, flat_reduction=reduction)


def _build_sweep(block, errs, raw):
    _check_keys(block, _names(SweepSpec), "sweep", errs)
    model = _str(block, "model", "sweep.model", errs,
                 choices=set(MODELS) - {"sweep"})
    replicates = _num(block, "replicates", "sweep.replicates", errs,
                      default=1, ge=1, integer=True)
    items = _list(block, "axes", "sweep.axes", errs)
    axes = []
    ok = model is not None and replicates is not None and items is not None
    if model is not None and model not in raw:
        errs.append((model, f"missing block for swept model {model!r}"))
        ok = False
    if items is not None:
        for i, item in enumerate(items):
            path = f"sweep.axes[{i}]"
            if not isinstance(item, dict):
                errs.append((path, f"must be an object, got {item!r}"))
                ok = False
                continue
            _check_keys(item, {"path", "values"}, path, errs)
            axis_path = _str(item, "path", f"{path}.path", errs)
            values = _list(item, "values", f"{path}.values", errs)
            if axis_path is None or values is None:
                ok = False
                continue
            segments = axis_path.split(".")
            if any(not s for s in segments) or len(segments) < 2:
                errs.append((f"{path}.path", f"must be a dotted path into a model block, "
                                             f"got {axis_path!r}"))
                ok = False
                continue
            if model is not None and segments[0] != model:
                errs.append((f"{path}.path",
                             f"must start with the swept model {model!r}, got {axis_path!r}"))
                ok = False
                continue
            axes.append((axis_path, list(values)))
    if not ok:
        return None
    runs = math.prod(len(values) for _, values in axes) * replicates
    if runs > _MAX_RUNS:
        errs.append(("sweep", f"grid points x replicates = {runs}, above the limit of {_MAX_RUNS}"))
    return SweepSpec(model=model, axes=axes, replicates=replicates)


_BUILDERS = {
    "equilibrium": _build_equilibrium,
    "settle": _build_settle,
    "frivolous": _build_frivolous,
    "evolve": _build_evolve,
    "composition": _build_composition,
}


def build_model_params(raw: dict, model: str, errs: list[tuple[str, str]]):
    """Validate and build `model`'s parameter block out of a parsed config dict."""
    block = raw.get(model)
    if not isinstance(block, dict):
        errs.append((model, f"must be an object, got {block!r}"))
        return None
    if model == "sweep":
        return _build_sweep(block, errs, raw)
    return _BUILDERS[model](block, errs)


def load_config(path: str, model: str) -> RunConfig:
    """Read a JSON config and validate the block the given model needs."""
    if model not in MODELS:
        raise ConfigError([("", f"unknown model {model!r}; expected one of {list(MODELS)}")])
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError([("", f"cannot read config file: {e}")])
    try:
        raw = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer past int()'s digit limit
        raise ConfigError([("", f"invalid JSON: {e}")])
    if not isinstance(raw, dict):
        raise ConfigError([("", f"top level must be a JSON object, got {raw!r}")])

    errs: list[tuple[str, str]] = []
    _check_keys(raw, set(MODELS) | {"seed"}, "", errs)
    seed = _num(raw, "seed", "seed", errs, default=0, ge=0, le=_U64_MAX, integer=True)
    params = None
    if model not in raw:
        errs.append((model, "missing configuration block"))
    else:
        params = build_model_params(raw, model, errs)
    if errs:
        raise ConfigError(errs)
    return RunConfig(model=model, params=params, seed=seed,
                     output_path=None, svg_path=None, raw=raw)
