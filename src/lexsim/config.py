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
from dataclasses import dataclass
from pathlib import Path

from .composition import AreaShare, validate_composition
from .contracts import AiShock, GapCurve
from .errors import ConfigError, DomainError
from .evolution import (AreaKind, FrivolousStream, LegalArea, RulePopulation, _check_draw_size,
                        _INT64_MAX)
from .frivolous import FrivolousConfig
from .settlement import Dispute, FeeRule

MODELS = ("equilibrium", "settle", "frivolous", "evolve", "composition", "sweep")
_SEED_MAX = 2**64 - 1
_REQUIRED = object()


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


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


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
    if ge is not None and not v >= ge:
        errs.append((path, f"must be >= {ge}, got {v!r}"))
        return None
    if gt is not None and not v > gt:
        errs.append((path, f"must be > {gt}, got {v!r}"))
        return None
    if le is not None and not v <= le:
        errs.append((path, f"must be <= {le}, got {v!r}"))
        return None
    if lt is not None and not v < lt:
        errs.append((path, f"must be < {lt}, got {v!r}"))
        return None
    if not _finite(v):  # an int beyond float range that no bound caught
        errs.append((path, f"must be finite, got {v!r}"))
        return None
    return v


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


def _curve(block, key, path, errs, required=True):
    sub = _dict(block, key, path, errs, required=required)
    if sub is None:
        return None
    _check_keys(sub, {"b_scale", "beta", "k_scale", "kappa"}, path, errs)
    vals = {
        name: _num(sub, name, f"{path}.{name}", errs, gt=0.0)
        for name in ("b_scale", "beta", "k_scale", "kappa")
    }
    if any(v is None for v in vals.values()):
        return None
    try:
        return GapCurve(**vals)
    except DomainError as e:
        errs.append((path, str(e)))
        return None


def _shock(block, path, errs):
    sub = _dict(block, "shock", f"{path}.shock", errs, required=False)
    if sub is None:
        return AiShock()
    _check_keys(sub, {"delta_contracting", "delta_litigation"}, f"{path}.shock", errs)
    dc = _num(sub, "delta_contracting", f"{path}.shock.delta_contracting", errs,
              default=0.0, ge=0.0, lt=1.0)
    dl = _num(sub, "delta_litigation", f"{path}.shock.delta_litigation", errs,
              default=0.0, ge=0.0, lt=1.0)
    if dc is None or dl is None:
        return None
    return AiShock(delta_contracting=dc, delta_litigation=dl)


def _game(block, key, path, errs):
    sub = _dict(block, key, path, errs)
    if sub is None:
        return None
    allowed = {"f_o", "f_q", "d", "s", "j", "c_p", "defense_trial_cost"}
    _check_keys(sub, allowed, path, errs)
    vals = {}
    for name in ("f_o", "f_q", "d", "s", "c_p"):
        vals[name] = _num(sub, name, f"{path}.{name}", errs, ge=0.0)
    vals["j"] = _num(sub, "j", f"{path}.j", errs, gt=0.0)
    vals["defense_trial_cost"] = _num(sub, "defense_trial_cost",
                                      f"{path}.defense_trial_cost", errs, default=0.0, ge=0.0)
    if any(v is None for v in vals.values()):
        return None
    try:
        return FrivolousConfig(**vals)
    except DomainError as e:
        errs.append((path, str(e)))
        return None


def _build_equilibrium(block, errs):
    _check_keys(block, {"curve", "shock", "tolerance"}, "equilibrium", errs)
    curve = _curve(block, "curve", "equilibrium.curve", errs)
    shock = _shock(block, "equilibrium", errs)
    tolerance = _num(block, "tolerance", "equilibrium.tolerance", errs, default=1e-9, gt=0.0)
    if curve is None or shock is None or tolerance is None:
        return None
    return EquilibriumParams(curve=curve, shock=shock, tolerance=tolerance)


_DISPUTE_KEYS = frozenset(("p_q", "p_g", "j", "c_q", "c_g"))
_NUMBER_TYPES = frozenset((int, float))


def _plain_dispute(item, reduction):
    """The Dispute of a fault-free item, else None; no error paths are built.

    `Dispute`'s own checks are exactly `_checked_dispute`'s bounds for int and
    float values, so this accepts an item exactly when that reports nothing.
    """
    if type(item) is not dict or item.keys() != _DISPUTE_KEYS:
        return None
    if not _NUMBER_TYPES.issuperset(map(type, item.values())):  # no bool, no str
        return None
    try:
        d = Dispute(**item)
    except (DomainError, OverflowError):  # OverflowError: an int beyond float range
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
    p_q = _num(item, "p_q", f"{path}.p_q", errs, ge=0.0, le=1.0)
    p_g = _num(item, "p_g", f"{path}.p_g", errs, ge=0.0, le=1.0)
    j = _num(item, "j", f"{path}.j", errs, gt=0.0)
    c_q = _num(item, "c_q", f"{path}.c_q", errs, ge=0.0)
    c_g = _num(item, "c_g", f"{path}.c_g", errs, ge=0.0)
    if None in (p_q, p_g, j, c_q, c_g):
        return None
    if reduction is not None and reduction > min(c_q, c_g):
        errs.append((path, f"cost_reduction {reduction!r} exceeds a party cost"))
        return None
    return Dispute(p_q=p_q, p_g=p_g, j=j, c_q=c_q, c_g=c_g)


def _build_settle(block, errs):
    _check_keys(block, {"rule", "disputes", "cost_reduction"}, "settle", errs)
    rule_name = _str(block, "rule", "settle.rule", errs,
                     choices={r.value for r in FeeRule})
    reduction = _num(block, "cost_reduction", "settle.cost_reduction", errs,
                     default=0.0, ge=0.0)
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
    _check_keys(block, {"game", "belief", "shift"}, "frivolous", errs)
    game = _game(block, "game", "frivolous.game", errs)
    belief = _num(block, "belief", "frivolous.belief", errs, default=None, ge=0.0, le=1.0)
    shift = None
    sub = _dict(block, "shift", "frivolous.shift", errs, required=False)
    if sub is not None:
        _check_keys(sub, {"delta_f", "delta_d"}, "frivolous.shift", errs)
        df = _num(sub, "delta_f", "frivolous.shift.delta_f", errs, default=0.0, ge=0.0)
        dd = _num(sub, "delta_d", "frivolous.shift.delta_d", errs, default=0.0, ge=0.0)
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
    allowed = {"name", "kind", "dispute_rate", "stakes_j", "stakes_multiplier", "cost_q",
               "cost_g", "belief_spread", "belief_center", "overturn_prob",
               "overturn_prob_ie", "overturn_prob_ei", "fee_rule", "gap_curve"}
    _check_keys(sub, allowed, path, errs)
    name = _str(sub, "name", f"{path}.name", errs)
    kind = _str(sub, "kind", f"{path}.kind", errs, choices={k.value for k in AreaKind})
    rate = _num(sub, "dispute_rate", f"{path}.dispute_rate", errs, gt=0.0, le=1.0)
    stakes = _num(sub, "stakes_j", f"{path}.stakes_j", errs, gt=0.0)
    mult = _num(sub, "stakes_multiplier", f"{path}.stakes_multiplier", errs,
                default=1.0, ge=1.0)
    cost_q = _num(sub, "cost_q", f"{path}.cost_q", errs, default=0.0, ge=0.0)
    cost_g = _num(sub, "cost_g", f"{path}.cost_g", errs, default=0.0, ge=0.0)
    spread = _num(sub, "belief_spread", f"{path}.belief_spread", errs, default=0.0, ge=0.0)
    center = _num(sub, "belief_center", f"{path}.belief_center", errs,
                  default=0.5, ge=0.0, le=1.0)
    q = _num(sub, "overturn_prob", f"{path}.overturn_prob", errs, default=0.0, ge=0.0, le=1.0)
    q_ie = _num(sub, "overturn_prob_ie", f"{path}.overturn_prob_ie", errs,
                default=None, ge=0.0, le=1.0)
    q_ei = _num(sub, "overturn_prob_ei", f"{path}.overturn_prob_ei", errs,
                default=None, ge=0.0, le=1.0)
    rule_name = _str(sub, "fee_rule", f"{path}.fee_rule", errs, default=FeeRule.AMERICAN.value,
                     choices={r.value for r in FeeRule})
    curve = None
    if "gap_curve" in sub and sub["gap_curve"] is not None:
        curve = _curve(sub, "gap_curve", f"{path}.gap_curve", errs)
        if curve is None:
            return None
    required = (name, kind, rate, stakes, mult, cost_q, cost_g, spread, center, q, rule_name)
    if any(v is None for v in required):
        return None
    try:
        return LegalArea(
            name=name, kind=AreaKind(kind), dispute_rate=rate, stakes_j=stakes,
            stakes_multiplier=mult, cost_q=cost_q, cost_g=cost_g, belief_spread=spread,
            belief_center=center, overturn_prob=q, overturn_prob_ie=q_ie,
            overturn_prob_ei=q_ei, fee_rule=FeeRule(rule_name), gap_curve=curve,
        )
    except DomainError as e:
        errs.append((path, str(e)))
        return None


def _build_evolve(block, errs):
    allowed = {"area", "population", "periods", "shock", "cost_delta", "frivolous", "tolerance"}
    _check_keys(block, allowed, "evolve", errs)
    area = _build_area(block, "area", "evolve.area", errs)
    pop = None
    sub = _dict(block, "population", "evolve.population", errs)
    if sub is not None:
        _check_keys(sub, {"n_rules", "fraction_efficient"}, "evolve.population", errs)
        n = _num(sub, "n_rules", "evolve.population.n_rules", errs, ge=1, integer=True)
        f = _num(sub, "fraction_efficient", "evolve.population.fraction_efficient", errs,
                 ge=0.0, le=1.0)
        if n is not None and f is not None:
            try:
                pop = RulePopulation(n_rules=n, fraction_efficient=f)
            except DomainError as e:
                errs.append(("evolve.population", str(e)))
    periods = _num(block, "periods", "evolve.periods", errs, ge=1, integer=True)
    if pop is not None and periods is not None:
        try:
            _check_draw_size(pop.n_rules, periods)
        except DomainError as e:
            errs.append(("evolve", str(e)))
    shock = _shock(block, "evolve", errs)
    cost_delta = _num(block, "cost_delta", "evolve.cost_delta", errs, default=0.0, ge=0.0)
    tolerance = _num(block, "tolerance", "evolve.tolerance", errs, default=1e-9, gt=0.0)
    if area is not None and cost_delta is not None:
        if cost_delta > min(area.cost_q, area.cost_g):
            errs.append(("evolve.cost_delta",
                         f"exceeds a party cost in area {area.name!r}"))
    stream = None
    fsub = _dict(block, "frivolous", "evolve.frivolous", errs, required=False)
    if fsub is not None:
        _check_keys(fsub, {"game", "filers_per_period", "belief"}, "evolve.frivolous", errs)
        game = _game(fsub, "game", "evolve.frivolous.game", errs)
        filers = _num(fsub, "filers_per_period", "evolve.frivolous.filers_per_period", errs,
                      ge=0, le=_INT64_MAX, integer=True)
        belief = _num(fsub, "belief", "evolve.frivolous.belief", errs,
                      default=None, ge=0.0, le=1.0)
        if game is not None and filers is not None:
            stream = FrivolousStream(game=game, filers_per_period=filers, belief=belief)
    if None in (area, pop, periods, shock, cost_delta, tolerance):
        return None
    return EvolveParams(area=area, population=pop, periods=periods, shock=shock,
                        cost_delta=cost_delta, frivolous=stream, tolerance=tolerance)


def _build_composition(block, errs):
    _check_keys(block, {"areas", "flat_reduction"}, "composition", errs)
    reduction = _num(block, "flat_reduction", "composition.flat_reduction", errs, ge=0.0)
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
            _check_keys(item, {"name", "share", "unit_cost", "demand_elasticity"}, path, errs)
            name = _str(item, "name", f"{path}.name", errs)
            share = _num(item, "share", f"{path}.share", errs, ge=0.0, le=1.0)
            cost = _num(item, "unit_cost", f"{path}.unit_cost", errs, gt=0.0)
            elasticity = _num(item, "demand_elasticity", f"{path}.demand_elasticity",
                              errs, gt=0.0)
            if None in (name, share, cost, elasticity):
                ok = False
                continue
            areas.append(AreaShare(name=name, share=share, unit_cost=cost,
                                   demand_elasticity=elasticity))
    if not ok:
        return None
    try:
        validate_composition(areas, reduction)
    except DomainError as e:
        errs.append(("composition", str(e)))
        return None
    return CompositionParams(areas=areas, flat_reduction=reduction)


def _build_sweep(block, errs, raw):
    _check_keys(block, {"model", "axes", "replicates"}, "sweep", errs)
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
    seed = _num(raw, "seed", "seed", errs, default=0, ge=0, le=_SEED_MAX, integer=True)
    params = None
    if model not in raw:
        errs.append((model, "missing configuration block"))
    else:
        params = build_model_params(raw, model, errs)
    if errs:
        raise ConfigError(errs)
    return RunConfig(model=model, params=params, seed=seed,
                     output_path=None, svg_path=None, raw=raw)
