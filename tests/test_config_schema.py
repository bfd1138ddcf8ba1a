"""The field-driven config reader against the hand-written block builders it replaced.

`Oracle` below keeps those builders, one per block (the sweep block included), as
they read each block field by field, on top of adapters that give the reader's
value helpers their old (block, key, path, errs, default) signatures. Mutated
copies of the shipped configs must give the same accept/reject outcome, the same
multiset of (path, message) errors and, when accepted, equal params from both.
Three differences are deliberate and encoded here: errors now follow field
declaration order, with the checks across fields after the field errors (so
only the multisets are compared); JSON null reads as a missing key for every
field whose default is None (`NULL_MEANS_ABSENT`, dropped from the oracle's
input first); and a settle block's disputes are held as float64 columns, so
both sides' disputes are compared as floats (`as_floats`).
"""

import copy
import json
import math
from collections import Counter
from dataclasses import MISSING, astuple, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsim import ConfigError, load_config
from lexsim import config
from lexsim.composition import _FLAT_REDUCTION, AreaShare, validate_composition
from lexsim import (CompositionParams, EquilibriumParams, EvolveParams, FrivolousParams,
                    SettleParams)
from lexsim.config import _MAX_RUNS, MODELS, SweepAxis, SweepSpec, _check_keys, _names
from lexsim.contracts import _TOLERANCE, AiShock, GapCurve
from lexsim.errors import DomainError, _schema
from lexsim.evolution import (_COST_DELTA, _PERIODS, AreaKind, FrivolousStream, LegalArea,
                              RulePopulation, _check_draw_size)
from lexsim.frivolous import _BELIEF, _DELTA, FilingShift, FrivolousConfig
from lexsim.settlement import _REDUCTION, Dispute, FeeRule

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NULL_MEANS_ABSENT = ("frivolous.belief", "frivolous.shift", "evolve.frivolous",
                     "evolve.frivolous.belief", "evolve.area.overturn_prob_ie",
                     "evolve.area.overturn_prob_ei", "evolve.area.gap_curve")


_REQUIRED = object()


def _bounded_fields(cls):
    """(name, default, bounds, test) of each field of `cls` that declares bounds."""
    return [(name, default, bounds, test) for name, _, default, bounds, test in _schema(cls)
            if bounds]


def _num(block, key, path, errs, default=_REQUIRED, **bounds):
    if key not in block:
        if default is _REQUIRED:
            errs.append((path, "required"))
            return None
        return default
    return config._num(block[key], path, errs, **bounds)


def _str(block, key, path, errs, *, choices=None):
    if key not in block:
        errs.append((path, "required"))
        return None
    return config._str(block[key], path, errs, choices=choices)


def _list(block, key, path, errs):
    if key not in block:
        errs.append((path, "required"))
        return None
    return config._list(block[key], path, errs)


class Oracle:
    """The per-model block builders the field-driven reader replaced; the only
    edits are that `frivolous.shift` builds a FilingShift, not a (delta_f, delta_d)
    tuple, that a sweep axis is a SweepAxis, not a (path, values) tuple, and that a
    sweep past the run limit gives None, since SweepSpec itself refuses it."""

    @staticmethod
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

    @staticmethod
    def _bounded(cls, block, path, errs):
        n_errs = len(errs)
        vals = {name: _num(block, name, f"{path}.{name}", errs,
                           _REQUIRED if default is MISSING else default, **bounds)
                for name, default, bounds, _ in _bounded_fields(cls)}
        return vals if len(errs) == n_errs else None

    @classmethod
    def _block(cls_, cls, block, key, path, errs, default=_REQUIRED):
        if key not in block and default is not _REQUIRED:
            return default
        sub = cls_._dict(block, key, path, errs)
        if sub is None:
            return None
        _check_keys(sub, _names(cls), path, errs)
        vals = cls_._bounded(cls, sub, path, errs)
        if vals is None:
            return None
        try:
            return cls(**vals)
        except DomainError as e:
            errs.append((path, str(e)))
            return None

    @classmethod
    def equilibrium(cls, block, errs):
        _check_keys(block, _names(EquilibriumParams), "equilibrium", errs)
        curve = cls._block(GapCurve, block, "curve", "equilibrium.curve", errs)
        shock = cls._block(AiShock, block, "shock", "equilibrium.shock", errs, AiShock())
        tolerance = _num(block, "tolerance", "equilibrium.tolerance", errs, 1e-9, **_TOLERANCE)
        if curve is None or shock is None or tolerance is None:
            return None
        return EquilibriumParams(curve=curve, shock=shock, tolerance=tolerance)

    @classmethod
    def _checked_dispute(cls, item, reduction, path, errs):
        if not isinstance(item, dict):
            errs.append((path, f"must be an object, got {item!r}"))
            return None
        _check_keys(item, _names(Dispute), path, errs)
        vals = cls._bounded(Dispute, item, path, errs)
        if vals is None:
            return None
        try:
            dispute = Dispute(**vals)
        except DomainError as e:
            errs.append((path, str(e)))
            return None
        if reduction is not None and reduction > min(vals["c_q"], vals["c_g"]):
            errs.append((path, f"cost_reduction {reduction!r} exceeds a party cost"))
            return None
        return dispute

    @classmethod
    def settle(cls, block, errs):
        _check_keys(block, _names(SettleParams), "settle", errs)
        rule_name = _str(block, "rule", "settle.rule", errs, choices={r.value for r in FeeRule})
        reduction = _num(block, "cost_reduction", "settle.cost_reduction", errs, 0.0,
                         **_REDUCTION)
        items = _list(block, "disputes", "settle.disputes", errs)
        disputes = None
        if items is not None:
            disputes = [cls._checked_dispute(item, reduction, f"settle.disputes[{i}]", errs)
                        for i, item in enumerate(items)]
            if any(d is None for d in disputes):
                disputes = None
        if rule_name is None or reduction is None or disputes is None:
            return None
        return SettleParams(rule=FeeRule(rule_name), disputes=disputes, cost_reduction=reduction)

    @classmethod
    def frivolous(cls, block, errs):
        _check_keys(block, _names(FrivolousParams), "frivolous", errs)
        game = cls._block(FrivolousConfig, block, "game", "frivolous.game", errs)
        belief = _num(block, "belief", "frivolous.belief", errs, None, **_BELIEF)
        shift = None
        sub = cls._dict(block, "shift", "frivolous.shift", errs, required=False)
        if sub is not None:
            _check_keys(sub, {"delta_f", "delta_d"}, "frivolous.shift", errs)
            df = _num(sub, "delta_f", "frivolous.shift.delta_f", errs, 0.0, **_DELTA)
            dd = _num(sub, "delta_d", "frivolous.shift.delta_d", errs, 0.0, **_DELTA)
            if game is not None and df is not None and dd is not None:
                if df > game.f_o:
                    errs.append(("frivolous.shift.delta_f",
                                 f"must be <= f_o ({game.f_o!r}), got {df!r}"))
                if dd > game.d:
                    errs.append(("frivolous.shift.delta_d",
                                 f"must be <= d ({game.d!r}), got {dd!r}"))
                else:
                    shift = FilingShift(df, dd)
        if game is None:
            return None
        return FrivolousParams(game=game, belief=belief, shift=shift)

    @classmethod
    def _area(cls, block, key, path, errs):
        sub = cls._dict(block, key, path, errs)
        if sub is None:
            return None
        _check_keys(sub, _names(LegalArea), path, errs)
        name = _str(sub, "name", f"{path}.name", errs)
        kind = _str(sub, "kind", f"{path}.kind", errs, choices={k.value for k in AreaKind})
        vals = cls._bounded(LegalArea, sub, path, errs)
        rule_name = FeeRule.AMERICAN.value
        if "fee_rule" in sub:
            rule_name = _str(sub, "fee_rule", f"{path}.fee_rule", errs,
                             choices={r.value for r in FeeRule})
        curve = None
        if "gap_curve" in sub and sub["gap_curve"] is not None:
            curve = cls._block(GapCurve, sub, "gap_curve", f"{path}.gap_curve", errs)
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

    @classmethod
    def evolve(cls, block, errs):
        _check_keys(block, _names(EvolveParams), "evolve", errs)
        area = cls._area(block, "area", "evolve.area", errs)
        pop = cls._block(RulePopulation, block, "population", "evolve.population", errs)
        periods = _num(block, "periods", "evolve.periods", errs, **_PERIODS)
        if pop is not None and periods is not None:
            try:
                _check_draw_size(pop.n_rules, periods)
            except DomainError as e:
                errs.append(("evolve", str(e)))
        shock = cls._block(AiShock, block, "shock", "evolve.shock", errs, AiShock())
        cost_delta = _num(block, "cost_delta", "evolve.cost_delta", errs, 0.0, **_COST_DELTA)
        tolerance = _num(block, "tolerance", "evolve.tolerance", errs, 1e-9, **_TOLERANCE)
        if area is not None and cost_delta is not None:
            if cost_delta > min(area.cost_q, area.cost_g):
                errs.append(("evolve.cost_delta", f"exceeds a party cost in area {area.name!r}"))
        stream = None
        fsub = cls._dict(block, "frivolous", "evolve.frivolous", errs, required=False)
        if fsub is not None:
            _check_keys(fsub, _names(FrivolousStream), "evolve.frivolous", errs)
            game = cls._block(FrivolousConfig, fsub, "game", "evolve.frivolous.game", errs)
            vals = cls._bounded(FrivolousStream, fsub, "evolve.frivolous", errs)
            if game is not None and vals is not None:
                stream = FrivolousStream(game=game, **vals)
        if None in (area, pop, periods, shock, cost_delta, tolerance):
            return None
        return EvolveParams(area=area, population=pop, periods=periods, shock=shock,
                            cost_delta=cost_delta, frivolous=stream, tolerance=tolerance)

    @classmethod
    def composition(cls, block, errs):
        _check_keys(block, _names(CompositionParams), "composition", errs)
        reduction = _num(block, "flat_reduction", "composition.flat_reduction", errs,
                         **_FLAT_REDUCTION)
        items = _list(block, "areas", "composition.areas", errs)
        areas = []
        ok = reduction is not None and items is not None
        for i, item in enumerate(items or ()):
            path = f"composition.areas[{i}]"
            if not isinstance(item, dict):
                errs.append((path, f"must be an object, got {item!r}"))
                ok = False
                continue
            _check_keys(item, _names(AreaShare), path, errs)
            name = _str(item, "name", f"{path}.name", errs)
            vals = cls._bounded(AreaShare, item, path, errs)
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

    @staticmethod
    def sweep(block, errs, raw):
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
                axes.append(SweepAxis(axis_path, list(values)))
        if not ok:
            return None
        runs = math.prod(len(axis.values) for axis in axes) * replicates
        if runs > _MAX_RUNS:
            errs.append(("sweep",
                         f"grid points x replicates = {runs}, above the limit of {_MAX_RUNS}"))
            return None
        return SweepSpec(model=model, axes=axes, replicates=replicates)

    @classmethod
    def build(cls, raw, model, errs):
        block = raw.get(model)
        if not isinstance(block, dict):
            errs.append((model, f"must be an object, got {block!r}"))
            return None
        if model == "sweep":
            return cls.sweep(block, errs, raw)
        return getattr(cls, model)(block, errs)


def drop_nulls(raw):
    """`raw` with each null at a NULL_MEANS_ABSENT path removed."""
    raw = copy.deepcopy(raw)
    for path in NULL_MEANS_ABSENT:
        *parents, key = path.split(".")
        block = raw
        for k in parents:
            block = block.get(k) if isinstance(block, dict) else None
        if isinstance(block, dict) and key in block and block[key] is None:
            del block[key]
    return raw


SHIPPED = [(path.name, model, json.loads(path.read_text()))
           for path in sorted(CONFIGS.glob("*.json"))
           for model in json.loads(path.read_text()) if model in config._PARAMS]
GAME = {"f_o": 1.0, "f_q": 2.0, "d": 10.0, "s": 5.0, "j": 100.0, "c_p": 10.0}
CURVE = {"b_scale": 1.0, "beta": 2.0, "k_scale": 0.5, "kappa": 1.0}
VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "tort", "contract", "property", "english",
                     "american", [], {}, [1], float("nan"), float("inf"), -1, -1e-300, 0, 0.0,
                     0.25, 0.5, 1, 1.0, 1.5, 2.0, 17.0, 18.0, 100.0, 10**5, 2**63, 10**400,
                     "equilibrium", "settle", "sweep", "equilibrium.curve.beta", "curve.beta",
                     "equilibrium.", "settle.rule"]),
    st.sampled_from([GAME, CURVE, {"delta_contracting": 0.2}, {"delta_f": 0.5, "delta_d": 20.0},
                     {"game": GAME, "filers_per_period": 3, "belief": 0.5},
                     {"p_q": 0.6, "p_g": 0.4, "j": 50.0, "c_q": 4.0, "c_g": 2},
                     {"name": "tort", "share": 0.4, "unit_cost": 1.0, "demand_elasticity": 2.0},
                     {"path": "equilibrium.curve.beta", "values": [1.0, 2.0]}]),
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 3000),
).map(copy.deepcopy)  # a fresh object each draw, so a later change cannot reach the pool
KEYS = sorted({name for cls in (EquilibriumParams, SettleParams, FrivolousParams, EvolveParams,
                                CompositionParams, GapCurve, AiShock, Dispute, FrivolousConfig,
                                FilingShift, LegalArea, RulePopulation, FrivolousStream, AreaShare,
                                SweepSpec, SweepAxis)
               for name in _names(cls)} | {"stray"})


def containers(node):
    """Every dict and list inside `node`, `node` first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from containers(child)


@st.composite
def mutated(draw, pool=SHIPPED):
    """A config of `pool` and one of its models, with one to three changes to that
    model's block: a value set (to a wild or plausible one), a key or item dropped,
    or a key added (a field name of some block, or an unknown one)."""
    name, model, raw = draw(st.sampled_from(pool))
    raw = copy.deepcopy(raw)
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(raw[model], (dict, list)) or draw(st.integers(0, 30)) == 0:
            raw[model] = draw(VALUES)
            continue
        node = draw(st.sampled_from(list(containers(raw[model]))))
        op = draw(st.sampled_from(["set", "set", "drop", "add"]))
        if isinstance(node, list):
            if not node:
                node.append(draw(VALUES))
            elif op == "drop":
                del node[draw(st.integers(0, len(node) - 1))]
            else:
                node[draw(st.integers(0, len(node) - 1))] = draw(VALUES)
        elif op == "drop" and node:
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            keys = sorted(node) if op == "set" and node else KEYS
            node[draw(st.sampled_from(keys))] = draw(VALUES)
    return name, model, raw


def as_floats(params):
    """`params` with a settle block's disputes as a list of Disputes of floats, as
    the reader holds them in float64 columns; the oracle keeps the JSON numbers."""
    if not isinstance(params, SettleParams):
        return params
    return replace(params, disputes=[Dispute(*map(float, astuple(d))) for d in params.disputes])


def assert_same_as_the_oracle(raw, model):
    errs, expected_errs = [], []
    params = config.build_model_params(raw, model, errs)
    expected = Oracle.build(drop_nulls(raw), model, expected_errs)
    assert Counter(errs) == Counter(expected_errs)
    if not errs:
        params, expected = as_floats(params), as_floats(expected)
        assert params == expected
        assert repr(params) == repr(expected)  # the same int and float types too


SWEEP = [case for case in SHIPPED if case[1] == "sweep"]


class TestAgainstTheOracle:
    @settings(max_examples=600, deadline=None)
    @given(case=mutated())
    def test_mutated_shipped_configs(self, case):
        _, model, raw = case
        assert_same_as_the_oracle(raw, model)

    @settings(max_examples=300, deadline=None)
    @given(case=mutated(SWEEP))
    def test_mutated_sweep_block(self, case):
        _, model, raw = case
        assert_same_as_the_oracle(raw, model)

    @pytest.mark.parametrize("name, model, raw", SHIPPED, ids=[f"{n}:{m}" for n, m, _ in SHIPPED])
    def test_shipped_configs(self, name, model, raw):
        errs = []
        params = config.build_model_params(raw, model, errs)
        assert errs == []
        assert repr(as_floats(params)) == repr(as_floats(Oracle.build(raw, model, [])))


def write(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def shipped(name):
    return json.loads((CONFIGS / name).read_text())


class TestNull:
    """JSON null reads as a missing key where the field's default is None, and is
    a fault wherever else."""

    @pytest.mark.parametrize("path", NULL_MEANS_ABSENT)
    def test_null_is_absent_where_the_default_is_none(self, tmp_path, path):
        model, *parents, key = path.split(".")
        raw = shipped("frivolous_nuisance.json" if model == "frivolous" else "evolve_tort.json")
        if model == "evolve":
            raw["evolve"]["frivolous"] = {"game": GAME, "filers_per_period": 2}
        node = raw[model]
        for k in parents:
            node = node[k]
        node.pop(key, None)
        absent = load_config(write(tmp_path, raw), model).params
        node[key] = None
        assert load_config(write(tmp_path, raw), model).params == absent

    @pytest.mark.parametrize("model, key, message", [
        ("equilibrium", "shock", "must be an object, got None"),
        ("equilibrium", "tolerance", "must be a number, got None"),
        ("equilibrium", "curve", "must be an object, got None"),
        ("settle", "cost_reduction", "must be a number, got None"),
        ("settle", "rule", "must be a nonempty string, got None"),
        ("evolve", "cost_delta", "must be a number, got None"),
    ])
    def test_null_is_a_fault_where_the_default_is_not_none(self, tmp_path, model, key, message):
        raw = shipped({"equilibrium": "equilibrium_golden.json", "settle": "settle_fixture.json",
                       "evolve": "evolve_tort.json"}[model])
        raw[model][key] = None
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, raw), model)
        assert exc.value.errors == [(f"{model}.{key}", message)]

    def test_fee_rule_null_is_a_fault(self, tmp_path):
        raw = shipped("evolve_tort.json")
        raw["evolve"]["area"]["fee_rule"] = None
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, raw), "evolve")
        assert exc.value.errors == [("evolve.area.fee_rule", "must be a nonempty string, got None")]


class TestErrorOrder:
    """Several faults in one block come in field declaration order, the checks
    across fields last."""

    def test_settle_disputes_before_cost_reduction(self, tmp_path):
        raw = shipped("settle_fixture.json")
        raw["settle"]["cost_reduction"] = -1
        raw["settle"]["disputes"][0]["p_q"] = 2
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, raw), "settle")
        assert exc.value.errors == [("settle.disputes[0].p_q", "must be <= 1.0, got 2"),
                                    ("settle.cost_reduction", "must be >= 0.0, got -1")]

    def test_composition_areas_before_flat_reduction(self, tmp_path):
        raw = shipped("composition_docket.json")
        raw["composition"]["flat_reduction"] = "x"
        raw["composition"]["areas"][1]["share"] = -0.5
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, raw), "composition")
        assert exc.value.errors == [("composition.areas[1].share", "must be >= 0.0, got -0.5"),
                                    ("composition.flat_reduction", "must be a number, got 'x'")]

    def test_cross_field_checks_after_field_errors(self, tmp_path):
        raw = shipped("evolve_tort.json")
        raw["evolve"]["population"]["n_rules"] = 10**6
        raw["evolve"]["periods"] = 10**5
        raw["evolve"]["tolerance"] = 0
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, raw), "evolve")
        assert [path for path, _ in exc.value.errors] == ["evolve.tolerance", "evolve"]

    def test_sweep_field_faults_before_the_checks_across_fields(self, tmp_path):
        raw = shipped("sweep_litigation_delta.json")
        raw["sweep"]["model"] = "nope"
        raw["sweep"]["replicates"] = 0
        raw["sweep"]["axes"].append({"path": "equilibrium.curve.beta", "values": []})
        raw["sweep"]["axes"].append({"path": "equilibrium"})
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, raw), "sweep")
        assert [path for path, _ in exc.value.errors] == [
            "sweep.axes[1].values", "sweep.axes[2].values", "sweep.replicates", "sweep.model"]


DROP = object()
TWO_LONG_AXES = [{"path": "equilibrium.curve.kappa", "values": list(range(1001))},
                 {"path": "equilibrium.curve.beta", "values": list(range(1000))}]


def case_id(value):
    if value is DROP:
        return "drop"
    text = repr(value)
    return text if len(text) <= 24 else f"{type(value).__name__}_{len(text)}_chars"


class TestSweepFaults:
    """Each sweep block with one fault gives the oracle's error list, in its order."""

    @pytest.mark.parametrize("path, value", [
        ("sweep", 5), ("sweep", []), ("sweep.stray", 1), ("sweep.model", DROP),
        ("sweep.model", None), ("sweep.model", 5), ("sweep.model", ""),
        ("sweep.model", "sweep"), ("sweep.model", "nope"), ("sweep.model", "settle"),
        ("sweep.replicates", 0), ("sweep.replicates", 1.5), ("sweep.replicates", True),
        ("sweep.replicates", None), ("sweep.replicates", "2"), ("sweep.replicates", 10**400),
        ("sweep.replicates", 2**63), ("sweep.axes", DROP), ("sweep.axes", []),
        ("sweep.axes", {}), ("sweep.axes", [5]), ("sweep.axes", TWO_LONG_AXES),
        ("sweep.axes.0", None), ("sweep.axes.0", {"path": 1, "values": 2}),
        ("sweep.axes.0.stray", 1), ("sweep.axes.0.path", DROP), ("sweep.axes.0.path", 5),
        ("sweep.axes.0.path", "equilibrium"), ("sweep.axes.0.path", "equilibrium..kappa"),
        ("sweep.axes.0.path", "settle.rule"), ("sweep.axes.0.values", DROP),
        ("sweep.axes.0.values", []), ("sweep.axes.0.values", "x"),
    ], ids=case_id)
    def test_one_fault(self, path, value):
        raw = shipped("sweep_litigation_delta.json")
        *parents, last = [int(s) if s.isdigit() else s for s in path.split(".")]
        node = raw
        for seg in parents:
            node = node[seg]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
        errs, expected_errs = [], []
        config.build_model_params(raw, "sweep", errs)
        Oracle.build(raw, "sweep", expected_errs)
        assert errs == expected_errs != []

    @pytest.mark.parametrize("key, value, cap_reported", [
        ("model", "settle", False), ("path", "equilibrium", False),
        ("path", "settle.rule", False), ("stray", 1, True),
    ])
    def test_the_run_limit_waits_for_every_other_check(self, key, value, cap_reported):
        raw = shipped("sweep_litigation_delta.json")
        raw["sweep"]["replicates"] = 10**6
        (raw["sweep"] if key == "model" else raw["sweep"]["axes"][0])[key] = value
        errs, expected_errs = [], []
        config.build_model_params(raw, "sweep", errs)
        Oracle.build(raw, "sweep", expected_errs)
        assert errs == expected_errs
        assert (errs[-1][0] == "sweep") is cap_reported


class TestUnknownKeysHideNothing:
    """A block with an unknown key, at any depth, is still built, so the checks its
    dataclass makes when built report beside the key, as the oracle reports them."""

    @pytest.mark.parametrize("name, model, change, expected", [
        ("composition_docket.json", "composition",
         lambda block: (block["areas"][0].update(stray=1),
                        block.update(flat_reduction=1e9)),
         [("composition.areas[0].stray", "unknown key"),
          ("composition", "flat_reduction=1000000000.0 wipes out the cheapest area's cost "
                          "(10.0)")]),
        ("evolve_tort.json", "evolve",
         lambda block: block["area"].update(gap_curve={**CURVE, "stray": 1}),
         [("evolve.area.gap_curve.stray", "unknown key"),
          ("evolve.area", "tort areas cannot carry a gap_curve")]),
    ], ids=["composition-docket", "tort-gap-curve"])
    def test_a_nested_unknown_key_beside_a_construction_error(self, name, model, change,
                                                              expected):
        raw = shipped(name)
        change(raw[model])
        errs, expected_errs = [], []
        assert config.build_model_params(raw, model, errs) is None
        Oracle.build(raw, model, expected_errs)
        assert errs == expected_errs == expected
