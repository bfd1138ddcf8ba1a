"""The paper's qualitative claims, one hypothesis property each.

Cheaper contracting makes contracts more complete; cheaper litigation makes
them less complete and sends more disputes to trial; tort flow, where parties
contract little, does not depend on contracting at all; cheaper trials make
relitigation, and so the drift toward efficient rules (Rubin 1977; Priest
1977), faster; nuisance suits are filed to be settled, never tried; and a flat
cost cut moves docket shares between areas without changing their total.

Example counts are capped so the file stays a small share of the suite. A
dispute's and a legal area's amounts range over every finite float: their
construction refuses a stake plus costs past float range, and an example it
refuses is rejected. The filing game's and the docket's amounts stay at or below
1e6 and elasticities at or below 10, where every docket volume is a finite
float; past that a volume can overflow, which `shift_composition` refuses, for
want of range, not of economics. A curve whose g* the solver cannot reach within
its residual tolerance (a steep one with g* near 1) makes no claim either, and
is rejected.
"""

import math
import sys

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from lexsim import (
    AiShock,
    AreaKind,
    AreaShare,
    ConvergenceError,
    Dispute,
    DomainError,
    FeeRule,
    FrivolousConfig,
    FollowUp,
    GapCurve,
    LegalArea,
    OutcomeKind,
    PlaintiffType,
    apply_cost_reduction,
    completeness_response,
    decide,
    effective_dispute_rate,
    flip_rates,
    gap_closure_time,
    play,
    shift_composition,
    trial_fractions,
)

CLAIMS = settings(max_examples=150, deadline=None)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


curves = st.builds(GapCurve, b_scale=log_uniform(-3, 3), beta=log_uniform(-1.3, 1.3),
                   k_scale=log_uniform(-3, 3), kappa=log_uniform(-1.3, 1.3))
deltas = st.floats(0.0, 1.0, exclude_max=True)
probabilities = st.floats(0.0, 1.0)
amounts = st.floats(0.0, 1e6)
any_amount = st.floats(0.0, sys.float_info.max)
rules = st.sampled_from(FeeRule)


def built(cls, **fields):
    """cls(**fields), or a rejected example where construction refuses a sum of them."""
    try:
        return cls(**fields)
    except DomainError:
        reject()


def response(curve, shock):
    """The change in g*, or a rejected example where a solve stalls."""
    try:
        return completeness_response(curve, shock)
    except ConvergenceError:
        reject()


@CLAIMS
@given(curve=curves, delta=deltas, rate=st.floats(0.0, 1.0, exclude_min=True))
def test_a_contracting_shock_weakly_raises_completeness(curve, delta, rate):
    shock = AiShock(delta_contracting=delta)
    assert response(curve, shock) >= 0.0
    area = LegalArea(name="sales", kind=AreaKind.CONTRACT, dispute_rate=rate, stakes_j=1.0,
                     gap_curve=curve)
    assert effective_dispute_rate(area, shock) <= effective_dispute_rate(area)


@CLAIMS
@given(curve=curves, delta=deltas)
def test_a_litigation_shock_weakly_lowers_completeness(curve, delta):
    assert response(curve, AiShock(delta_litigation=delta)) <= 0.0


@st.composite
def disputes_and_cuts(draw):
    d = built(Dispute, p_q=draw(probabilities), p_g=draw(probabilities),
              j=draw(any_amount.filter(bool)), c_q=draw(any_amount), c_g=draw(any_amount))
    return d, draw(st.floats(0.0, min(d.c_q, d.c_g)))


@settings(max_examples=500, deadline=None)
@given(case=disputes_and_cuts(), rule=rules)
def test_a_cost_cut_never_turns_a_trial_into_a_settlement(case, rule):
    d, cut = case
    if decide(d, rule).kind is OutcomeKind.TRIAL:
        assert decide(apply_cost_reduction(d, cut), rule).kind is OutcomeKind.TRIAL


@CLAIMS
@given(rate=st.floats(0.0, 1.0, exclude_min=True), contracting=deltas, litigation=deltas)
def test_tort_dispute_flow_ignores_the_shock(rate, contracting, litigation):
    tort = LegalArea(name="negligence", kind=AreaKind.TORT, dispute_rate=rate, stakes_j=1.0)
    assert effective_dispute_rate(tort, AiShock(contracting, litigation)) == rate


@st.composite
def areas_and_cuts(draw):
    """A tort area and two cost cuts, the second the larger. Overturn odds of at most
    1/2 keep p_ie + p_ei <= 1, where more flipping means faster closure."""
    area = built(LegalArea, name="negligence", kind=AreaKind.TORT,
                 dispute_rate=draw(st.floats(0.0, 1.0, exclude_min=True)),
                 stakes_j=draw(any_amount.filter(bool)),
                 stakes_multiplier=draw(st.floats(1.0, 100.0)),
                 cost_q=draw(any_amount), cost_g=draw(any_amount),
                 belief_spread=draw(st.floats(0.0, 1.0)),
                 belief_center=draw(probabilities), overturn_prob=draw(st.floats(0.0, 0.5)),
                 fee_rule=draw(rules))
    cuts = sorted(draw(st.floats(0.0, min(area.cost_q, area.cost_g))) for _ in range(2))
    return area, cuts


@CLAIMS
@given(case=areas_and_cuts(), seed=st.integers(0, 2**64 - 1))
def test_cheaper_trials_weakly_raise_both_trial_fractions(case, seed):
    area, (small, large) = case
    before = trial_fractions(area, cost_delta=small, n_samples=200, seed=seed)
    after = trial_fractions(area, cost_delta=large, n_samples=200, seed=seed)
    assert after[0] >= before[0] and after[1] >= before[1]


def closure_time(area, cut, seed):
    """Periods the expected path from all-inefficient rules takes to close 90% of its
    gap; inf where no rule ever flips, or it never closes."""
    try:
        return gap_closure_time(0.0, flip_rates(area, cost_delta=cut, n_samples=200, seed=seed))
    except (DomainError, ConvergenceError):
        return math.inf


@CLAIMS
@given(case=areas_and_cuts(), seed=st.integers(0, 2**64 - 1))
def test_cheaper_trials_weakly_speed_up_gap_closure(case, seed):
    area, (small, large) = case
    assert closure_time(area, large, seed) <= closure_time(area, small, seed)


games = st.builds(FrivolousConfig, f_o=amounts, f_q=amounts, d=amounts, s=amounts,
                  j=amounts.filter(bool), c_p=amounts, defense_trial_cost=amounts)


@settings(max_examples=500, deadline=None)
@given(game=games, belief=st.none() | probabilities)
def test_frivolous_claims_are_never_tried(game, belief):
    assert play(PlaintiffType.FRIVOLOUS, game, belief).plaintiff_followup is not FollowUp.TRIAL


@st.composite
def dockets(draw):
    """Up to eight areas whose shares sum to at most 1, and a cut below every cost."""
    n = draw(st.integers(1, 8))
    shares = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    total = sum(shares)
    if total == 0.0:
        shares[0], total = 1.0, 1.0
    areas = [AreaShare(name=f"area{i}", share=s / max(total, 1.0),
                       unit_cost=draw(amounts.filter(bool)),
                       demand_elasticity=draw(st.floats(0.0, 10.0, exclude_min=True)))
             for i, s in enumerate(shares)]
    cheapest = min(a.unit_cost for a in areas)
    return areas, draw(st.floats(0.0, cheapest, exclude_max=True))


@CLAIMS
@given(case=dockets())
def test_composition_conserves_the_total_share(case):
    areas, cut = case
    shifts = shift_composition(areas, cut)
    assert math.isclose(sum(s.new_share for s in shifts), sum(a.share for a in areas),
                        rel_tol=1e-12)
