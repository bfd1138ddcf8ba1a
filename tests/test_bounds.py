"""Every numeric bound, pinned in both of its wordings.

Each row below names a bounded number by its config path, the bounds the config
checks it against, and the DomainError text the model code raises for it. The
config message, the error list and the DomainError text are checked for values
below, at and above each bound, for nan, inf and 10**400, and for a bool and a
string. A property then checks that the two layers accept the same numbers.
Every parameter dataclass checks its fields when built, a run's parameters
included: each bounded number and each list a config reads is also built
directly.
"""

import copy
import importlib
import json
import math
import pkgutil
import re
from collections import namedtuple
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexsim
from lexsim import (
    AiShock,
    AreaKind,
    AreaShare,
    ConfigError,
    Dispute,
    DomainError,
    FeeRule,
    FlipRates,
    FrivolousConfig,
    FrivolousStream,
    GapCurve,
    LegalArea,
    RulePopulation,
    apply_cost_reduction,
    defendant_best_response,
    filing_region_shift,
    load_config,
    simulate,
    solve_completeness,
    trial_fractions,
    validate_composition,
)
from lexsim import (CompositionParams, EquilibriumParams, EvolveParams, FrivolousParams,
                    SettleParams)
from lexsim.config import SweepAxis, SweepSpec, build_model_params
from lexsim.errors import _Bounded, _admits

HUGE = 10**400
INT64_MAX = 2**63 - 1

# bounds as the config states them, the DomainError wording, and whether a direct
# call used to raise OverflowError (not DomainError) for an int beyond float range
Kind = namedtuple("Kind", "bounds template overflowed")
POSITIVE = Kind({"gt": 0.0}, "{} must be finite and > 0: got {!r}", True)
NONNEGATIVE = Kind({"ge": 0.0}, "{} must be finite and >= 0: got {!r}", True)
MULTIPLIER = Kind({"ge": 1.0}, "{} must be finite and >= 1: got {!r}", True)
PROBABILITY = Kind({"ge": 0.0, "le": 1.0}, "{} must lie in [0, 1]: got {!r}", False)
SHOCK = Kind({"ge": 0.0, "lt": 1.0}, "{} must lie in [0, 1): got {!r}", True)
RATE = Kind({"gt": 0.0, "le": 1.0}, "{} must lie in (0, 1]: got {!r}", False)
COUNT = Kind({"ge": 1, "integer": True}, "{} must be an integer >= 1: got {!r}", False)
FILERS = Kind({"ge": 0, "le": INT64_MAX, "integer": True},
              "{} must be an integer >= 0: got {!r}", False)
SEED = Kind({"ge": 0, "le": 2**64 - 1, "integer": True}, None, False)

CURVE = dict(b_scale=1.0, beta=1.0, k_scale=1.0, kappa=1.0)
DISPUTE = dict(p_q=0.6, p_g=0.5, j=100.0, c_q=10.0, c_g=10.0)
GAME = dict(f_o=1.0, f_q=1.0, d=10.0, s=5.0, j=100.0, c_p=10.0)
AREA = dict(name="sales", dispute_rate=0.8, stakes_j=100.0, cost_q=18.0, cost_g=18.0)
POPULATION = dict(n_rules=10, fraction_efficient=0.5)
SHARE = dict(name="small", share=0.5, unit_cost=10.0, demand_elasticity=1.0)
FLIPS = dict(p_ie=0.1, p_ei=0.1)

BASE = {
    "seed": 0,
    "equilibrium": {"curve": CURVE, "shock": {}, "tolerance": 1e-9},
    "settle": {"rule": "american", "disputes": [DISPUTE], "cost_reduction": 0.0},
    "frivolous": {"game": GAME, "belief": 0.5, "shift": {"delta_f": 0.0, "delta_d": 0.0}},
    "evolve": {
        "area": {**AREA, "kind": "contract", "gap_curve": CURVE},
        "population": POPULATION, "periods": 1, "shock": {}, "cost_delta": 0.0,
        "frivolous": {"game": GAME, "filers_per_period": 1, "belief": 0.5},
        "tolerance": 1e-9,
    },
    "composition": {"areas": [SHARE], "flat_reduction": 0.0},
    "sweep": {"model": "equilibrium", "replicates": 1,
              "axes": [{"path": "equilibrium.curve.kappa", "values": [1.0]}]},
}


def area(**kw):
    return LegalArea(**{**AREA, "kind": AreaKind.CONTRACT, "gap_curve": GapCurve(**CURVE), **kw})


def maker(cls, base):
    return lambda name, v: cls(**{**base, name: v})


def call(name, fn):
    """A function-level check: the DomainError names `name`, not the config key."""
    return lambda _, v: fn(v), name


MAKERS = {
    "equilibrium.curve": maker(GapCurve, CURVE),
    "evolve.area.gap_curve": maker(GapCurve, CURVE),
    "equilibrium.shock": maker(AiShock, {}),
    "evolve.shock": maker(AiShock, {}),
    "settle.disputes[0]": maker(Dispute, DISPUTE),
    "frivolous.game": maker(FrivolousConfig, GAME),
    "evolve.frivolous.game": maker(FrivolousConfig, GAME),
    "evolve.area": lambda name, v: area(**{name: v}),
    "evolve.population": maker(RulePopulation, POPULATION),
    "evolve.frivolous": lambda name, v: FrivolousStream(
        **{"game": FrivolousConfig(**GAME), "filers_per_period": 1, name: v}),
    "composition.areas[0]": maker(AreaShare, SHARE),
    "FlipRates": maker(FlipRates, FLIPS),
}


def block(path, kinds):
    return [(f"{path}.{name}", kind, MAKERS[path], name) for name, kind in kinds.items()]


FIELDS = [
    *block("equilibrium.curve", dict.fromkeys(CURVE, POSITIVE)),
    *block("equilibrium.shock", dict(delta_contracting=SHOCK, delta_litigation=SHOCK)),
    ("equilibrium.tolerance", POSITIVE,
     *call("tolerance", lambda v: solve_completeness(GapCurve(**CURVE), v))),
    *block("settle.disputes[0]", dict(p_q=PROBABILITY, p_g=PROBABILITY, j=POSITIVE,
                                      c_q=NONNEGATIVE, c_g=NONNEGATIVE)),
    ("settle.cost_reduction", NONNEGATIVE,
     *call("delta_c", lambda v: apply_cost_reduction(Dispute(**DISPUTE), v))),
    *block("frivolous.game", dict(f_o=NONNEGATIVE, f_q=NONNEGATIVE, d=NONNEGATIVE,
                                  s=NONNEGATIVE, j=POSITIVE, c_p=NONNEGATIVE,
                                  defense_trial_cost=NONNEGATIVE)),
    ("frivolous.belief", PROBABILITY,
     *call("belief_merit", lambda v: defendant_best_response(v, FrivolousConfig(**GAME)))),
    ("frivolous.shift.delta_f", NONNEGATIVE,
     *call("delta_f", lambda v: filing_region_shift(FrivolousConfig(**GAME), v, 0.0))),
    ("frivolous.shift.delta_d", NONNEGATIVE,
     *call("delta_d", lambda v: filing_region_shift(FrivolousConfig(**GAME), 0.0, v))),
    *block("evolve.area", dict(dispute_rate=RATE, stakes_j=POSITIVE, stakes_multiplier=MULTIPLIER,
                               cost_q=NONNEGATIVE, cost_g=NONNEGATIVE, belief_spread=NONNEGATIVE,
                               belief_center=PROBABILITY, overturn_prob=PROBABILITY,
                               overturn_prob_ie=PROBABILITY, overturn_prob_ei=PROBABILITY)),
    *block("evolve.area.gap_curve", dict.fromkeys(CURVE, POSITIVE)),
    *block("evolve.population", dict(n_rules=COUNT, fraction_efficient=PROBABILITY)),
    ("evolve.periods", COUNT,
     *call("periods", lambda v: simulate(area(), RulePopulation(**POPULATION), v))),
    *block("evolve.shock", dict(delta_contracting=SHOCK, delta_litigation=SHOCK)),
    ("evolve.cost_delta", NONNEGATIVE,
     *call("cost_delta", lambda v: trial_fractions(area(), v, n_samples=8))),
    *block("evolve.frivolous.game", dict(f_o=NONNEGATIVE, f_q=NONNEGATIVE, d=NONNEGATIVE,
                                         s=NONNEGATIVE, j=POSITIVE, c_p=NONNEGATIVE,
                                         defense_trial_cost=NONNEGATIVE)),
    *block("evolve.frivolous", dict(filers_per_period=FILERS, belief=PROBABILITY)),
    ("evolve.tolerance", POSITIVE,
     *call("tolerance", lambda v: solve_completeness(GapCurve(**CURVE), v))),
    *block("composition.areas[0]", dict(share=PROBABILITY, unit_cost=POSITIVE,
                                        demand_elasticity=POSITIVE)),
    ("composition.flat_reduction", NONNEGATIVE,
     *call("flat_reduction", lambda v: validate_composition([AreaShare(**SHARE)], v))),
    ("seed", SEED, None, None),
    ("sweep.replicates", COUNT, None, None),
    *block("FlipRates", dict(p_ie=PROBABILITY, p_ei=PROBABILITY)),  # no config path
]
IN_CONFIG = [f for f in FIELDS if not f[0].startswith("FlipRates")]
DATACLASS_FIELDS = [f for f in IN_CONFIG if f[0].rpartition(".")[0] in MAKERS
                    and f[2] is MAKERS[f[0].rpartition(".")[0]]]


def values(bounds):
    """Below, at and above the bounds, then nan, inf, a huge int, a bool and a string."""
    lo = bounds.get("ge", bounds.get("gt"))
    hi = bounds.get("le", bounds.get("lt"))
    near = [lo - 1, lo] if hi is None else [lo - 1, lo, hi, hi + 1]
    return near + [math.nan, math.inf, HUGE, True, "x"]


def config_message(v, ge=None, gt=None, le=None, lt=None, integer=False):
    """The config's wording for a bad number, None for a good one."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return f"must be a number, got {v!r}"
    if integer and not isinstance(v, int):
        return f"must be an integer, got {v!r}"
    if isinstance(v, float) and not math.isfinite(v):
        return f"must be finite, got {v!r}"
    for op, bound, ok in ((">=", ge, lambda: v >= ge), (">", gt, lambda: v > gt),
                          ("<=", le, lambda: v <= le), ("<", lt, lambda: v < lt)):
        if bound is not None and not ok():
            return f"must be {op} {bound}, got {v!r}"
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an int beyond float range
        finite = False
    return None if finite else f"must be finite, got {v!r}"


def model_of(path):
    return "equilibrium" if path == "seed" else path.split(".")[0]


def node_at(raw, path):
    """The object at a dotted config path such as `settle.disputes[0]`."""
    for k in re.findall(r"[^.\[\]]+", path):
        raw = raw[int(k) if k.isdigit() else k]
    return raw


def with_value(path, v):
    """BASE with the number at `path` replaced by v."""
    raw = copy.deepcopy(BASE)
    holder, _, key = path.rpartition(".")
    node_at(raw, holder)[key] = v
    return raw


def config_errors(tmp_path, raw, model):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    try:
        load_config(str(path), model)
    except ConfigError as e:
        return e.errors
    return []


# the config checks more than the number for these: a lone docket area of share 0
CROSS_CHECKED = {("composition.areas[0].share", 0.0):
                 [("composition", "area shares sum to zero; nothing to shift")]}


def expected_domain_message(path, kind, name, v):
    """The DomainError text for v, or None where v is accepted."""
    if config_message(int(v) if isinstance(v, bool) else v, **kind.bounds) is None:
        return None
    if path == "evolve.population.n_rules" and v == HUGE:
        return f"n_rules must stay below 2^63: got {v!r}"
    if path == "evolve.periods" and v == HUGE:
        return (f"a block of 10 rules x {v} periods needs {24 * 10 * v} bytes of draws "
                f"(24 per rule-period), above the limit of 2^32 = {2**32}")
    if kind is FILERS and isinstance(v, int) and v > INT64_MAX:
        return f"{name} must be <= {INT64_MAX}: got {v!r}"
    return kind.template.format(name, v)


@pytest.mark.parametrize("path, kind", [f[:2] for f in IN_CONFIG], ids=[f[0] for f in IN_CONFIG])
def test_config_errors(tmp_path, path, kind):
    for v in values(kind.bounds):
        message = config_message(v, **kind.bounds)
        expected = [] if message is None else [(path, message)]
        expected = CROSS_CHECKED.get((path, v), expected)
        assert config_errors(tmp_path, with_value(path, v), model_of(path)) == expected, v


@pytest.mark.parametrize("path, kind, make, name", [f for f in FIELDS if f[2]],
                         ids=[f[0] for f in FIELDS if f[2]])
def test_domain_errors(path, kind, make, name):
    for v in values(kind.bounds):
        expected = expected_domain_message(path, kind, name, v)
        if expected is None:
            make(name, v)
        elif v == HUGE and kind.overflowed:
            # formerly an OverflowError; test_huge_ints_raise_domain_errors pins the text
            with pytest.raises((DomainError, OverflowError)) as exc:
                make(name, v)
            assert exc.type is OverflowError or str(exc.value) == expected
        else:
            with pytest.raises(DomainError) as exc:
                make(name, v)
            assert str(exc.value) == expected, v


@pytest.mark.parametrize("path, kind, make, name", [f for f in FIELDS if f[2]],
                         ids=[f[0] for f in FIELDS if f[2]])
def test_huge_ints_raise_domain_errors(path, kind, make, name):
    with pytest.raises(DomainError) as exc:
        make(name, HUGE)
    assert str(exc.value) == expected_domain_message(path, kind, name, HUGE)


@pytest.mark.parametrize("path", ["equilibrium.curve", "equilibrium.shock", "settle.disputes[0]",
                                  "evolve.area", "evolve.population", "composition.areas[0]"])
def test_every_field_of_a_block_reported_in_order(tmp_path, path):
    names = [f[3] for f in DATACLASS_FIELDS if f[0].rpartition(".")[0] == path]
    raw = copy.deepcopy(BASE)
    node_at(raw, path).update(dict.fromkeys(names, "x"))
    assert config_errors(tmp_path, raw, model_of(path)) == [
        (f"{path}.{name}", "must be a number, got 'x'") for name in names]


NUMBERS = st.one_of(
    st.floats(), st.integers(), st.integers(-(2**64), 2**64),
    st.sampled_from([0, 1, -1, INT64_MAX, INT64_MAX + 1, 2**64, HUGE, -HUGE,
                     2**1024 - 2**970, 2**1024 - 2**970 - 1]),
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(DATACLASS_FIELDS), v=NUMBERS)
def test_config_accepts_a_number_exactly_when_its_dataclass_does(field, v):
    path, _, make, name = field
    holder = path.rpartition(".")[0]
    raw = with_value(path, v)
    errs = []
    build_model_params(raw, model_of(path), errs)
    config_ok = not any(p in (path, holder) for p, _ in errs)
    try:
        make(name, v)
    except DomainError:
        direct_ok = False
    else:
        direct_ok = True
    assert config_ok == direct_ok


RUN_PARAMETERS = {  # a run parameter's config path: its dataclass, built with the number
    "equilibrium.tolerance": lambda v: EquilibriumParams(GapCurve(**CURVE), tolerance=v),
    "settle.cost_reduction": lambda v: SettleParams(FeeRule.AMERICAN, [Dispute(**DISPUTE)], v),
    "frivolous.belief": lambda v: FrivolousParams(FrivolousConfig(**GAME), v),
    "evolve.periods": lambda v: EvolveParams(area(), RulePopulation(**POPULATION), v),
    "evolve.cost_delta": lambda v: EvolveParams(area(), RulePopulation(**POPULATION), 1,
                                                cost_delta=v),
    "evolve.tolerance": lambda v: EvolveParams(area(), RulePopulation(**POPULATION), 1,
                                               tolerance=v),
    "composition.flat_reduction": lambda v: CompositionParams([AreaShare(**SHARE)], v),
    "sweep.replicates": lambda v: SweepSpec(
        "equilibrium", [SweepAxis("equilibrium.curve.kappa", [1.0])], v),
}
KINDS = {f[0]: f[1] for f in FIELDS}


@pytest.mark.parametrize("path", RUN_PARAMETERS)
def test_run_parameters_check_their_bounds_when_built(path):
    kind, name, make = KINDS[path], path.rpartition(".")[2], RUN_PARAMETERS[path]
    for v in values(kind.bounds):
        if path == "sweep.replicates" and v == HUGE:  # the run limit refuses it when built
            with pytest.raises(DomainError, match=r"^grid points x replicates = 10{400}, "
                                                  r"above the limit of 1000000$"):
                make(v)
            continue
        # an integer past float range fails none of these bounds: only the config
        # refuses it, as not finite
        if (config_message(int(v) if isinstance(v, bool) else v, **kind.bounds) is None
                or v == HUGE and kind.bounds.get("integer")):
            make(v)
        else:
            with pytest.raises(DomainError) as exc:
                make(v)
            assert str(exc.value) == kind.template.format(name, v), v


@pytest.mark.parametrize("make, name", [
    (lambda: SettleParams(FeeRule.AMERICAN, []), "disputes"),
    (lambda: CompositionParams([], 0.0), "areas"),
    (lambda: SweepSpec("settle", []), "axes"),
    (lambda: SweepAxis("settle.rule", []), "values"),
], ids=["SettleParams.disputes", "CompositionParams.areas", "SweepSpec.axes",
        "SweepAxis.values"])
def test_an_empty_list_is_refused_when_built(make, name):
    with pytest.raises(DomainError) as exc:
        make()
    assert str(exc.value) == f"{name} must be a nonempty list: got []"


@pytest.mark.parametrize("make, message", [
    (lambda: CompositionParams([1], 0.0), "areas must be a list of AreaShare: got [1]"),
    (lambda: SettleParams(FeeRule.AMERICAN, [1]), "disputes must be a list of Dispute: got [1]"),
    (lambda: SettleParams(FeeRule.AMERICAN, "abc"),
     "disputes must be a list of Dispute: got 'abc'"),
    (lambda: SettleParams(FeeRule.AMERICAN, (Dispute(**DISPUTE), None)),
     f"disputes must be a list of Dispute: got ({Dispute(**DISPUTE)!r}, None)"),
    (lambda: SweepSpec("settle", [1]), "axes must be a list of SweepAxis: got [1]"),
], ids=["CompositionParams.areas", "SettleParams.disputes", "SettleParams.disputes-str",
        "SettleParams.disputes-tuple", "SweepSpec.axes"])
def test_list_items_are_checked_when_built(make, message):
    with pytest.raises(DomainError) as exc:
        make()
    assert str(exc.value) == message


def test_a_dispute_batch_is_admitted_without_building_a_dispute(monkeypatch):
    import numpy as np

    from lexsim.settlement import DisputeBatch

    def no_items(self, i):
        raise AssertionError("a Dispute was built")

    batch = DisputeBatch(*(np.full(20_000, x) for x in (0.6, 0.5, 100.0, 10.0, 10.0)))
    monkeypatch.setattr(DisputeBatch, "__getitem__", no_items)
    assert SettleParams(FeeRule.AMERICAN, batch).disputes is batch


def test_every_dataclass_with_bounds_checks_itself():
    bounded = set()
    for module in pkgutil.iter_modules(lexsim.__path__):
        for obj in vars(importlib.import_module(f"lexsim.{module.name}")).values():
            if is_dataclass(obj) and isinstance(obj, type) and any(f.metadata for f in fields(obj)):
                bounded.add(obj)
    assert {EquilibriumParams, SettleParams, FrivolousParams, EvolveParams, CompositionParams,
            SweepSpec, Dispute, FlipRates} <= bounded
    assert [cls.__name__ for cls in bounded if not issubclass(cls, _Bounded)] == []
