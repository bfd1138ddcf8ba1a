"""Nuisance-filing game: best responses, filing regions, and payoff paths."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsim import (
    DefendantAction,
    DomainError,
    FollowUp,
    FrivolousConfig,
    PlaintiffType,
    RegionShift,
    defendant_best_response,
    filing_region_shift,
    plaintiff_files,
    plaintiff_followup,
    play,
)


# small whole numbers make ties between the responses and break-even filings common
COSTS = st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 1e6))


def game(**overrides) -> FrivolousConfig:
    base = dict(f_o=1.0, f_q=1.0, d=10.0, s=5.0, j=100.0, c_p=10.0)
    base.update(overrides)
    return FrivolousConfig(**base)


class TestValidation:
    def test_costs_nonnegative(self):
        for field in ("f_o", "f_q", "d", "s", "c_p", "defense_trial_cost"):
            with pytest.raises(DomainError):
                game(**{field: -0.5})

    def test_judgment_positive(self):
        with pytest.raises(DomainError):
            game(j=0.0)

    def test_belief_bounds(self):
        with pytest.raises(DomainError):
            defendant_best_response(1.5, game())
        with pytest.raises(DomainError):
            defendant_best_response(-0.1, game())

    # j + defense_trial_cost overflows to inf, which a belief of 0 turned into nan; int d
    # and j whose sum converts to no float
    @pytest.mark.parametrize("costs", [dict(d=10.0, s=50.0, j=1.7e308, defense_trial_cost=1e308),
                                       dict(d=9 * 10**307, s=17 * 10**307, j=10**308)],
                             ids=["inf_trial_cost", "int_sum"])
    def test_a_defended_trial_cost_past_float_range_is_refused(self, costs):
        with pytest.raises(DomainError) as exc:
            game(f_o=0.0, f_q=0.0, c_p=0.0, **costs)
        assert str(exc.value) == "d + j + defense_trial_cost must lie within float range"

    def test_a_defended_trial_cost_at_the_edge_of_float_range_is_kept(self):
        for costs in (dict(d=0.0, j=1.7e308), dict(d=7 * 10**307, j=10**308),
                      dict(d=5e307, j=10**308, defense_trial_cost=2 * 10**307)):
            cfg = game(f_o=0.0, f_q=0.0, s=17 * 10**307, c_p=0.0, **costs)
            for ptype in PlaintiffType:
                assert play(ptype, cfg, 1.0).filed


class TestFollowup:
    def test_frivolous_always_drops(self):
        for c_p in (0.0, 1.0, 50.0):
            assert plaintiff_followup(PlaintiffType.FRIVOLOUS, game(c_p=c_p)) is FollowUp.DROP

    def test_meritorious_tries_when_judgment_covers_trial_cost(self):
        assert plaintiff_followup(PlaintiffType.MERITORIOUS, game()) is FollowUp.TRIAL

    def test_meritorious_drops_when_trial_overpriced(self):
        cfg = game(j=5.0, c_p=10.0)
        assert plaintiff_followup(PlaintiffType.MERITORIOUS, cfg) is FollowUp.DROP

    def test_meritorious_drops_at_exact_breakeven(self):
        cfg = game(j=10.0, c_p=10.0)
        assert plaintiff_followup(PlaintiffType.MERITORIOUS, cfg) is FollowUp.DROP


class TestBestResponse:
    def test_settles_when_demand_is_cheapest(self):
        assert defendant_best_response(0.0, game(s=5.0, d=10.0)) is DefendantAction.SETTLE

    def test_defends_when_counsel_is_cheapest(self):
        assert defendant_best_response(0.0, game(s=20.0, d=10.0)) is DefendantAction.DEFEND

    def test_defaults_when_judgment_is_cheapest(self):
        assert defendant_best_response(0.0, game(s=200.0, d=150.0)) is DefendantAction.DEFAULT

    def test_belief_prices_in_the_judgment(self):
        cfg = game(s=20.0, d=10.0)
        assert defendant_best_response(0.0, cfg) is DefendantAction.DEFEND
        # at belief 1 a defense ends in a lost trial worth d + j, so settling wins
        assert defendant_best_response(1.0, cfg) is DefendantAction.SETTLE

    def test_belief_ignored_when_meritorious_would_drop(self):
        # trial is overpriced for the plaintiff (j < c_p), so defending costs d alone
        cfg = game(s=20.0, d=10.0, j=12.0, c_p=15.0)
        assert defendant_best_response(1.0, cfg) is DefendantAction.DEFEND

    def test_tie_prefers_settle_then_defend(self):
        assert defendant_best_response(0.0, game(s=10.0, d=10.0)) is DefendantAction.SETTLE
        assert defendant_best_response(0.0, game(s=15.0, d=10.0, j=10.0)) is DefendantAction.DEFEND

    def test_defense_trial_cost_raises_the_defend_bill(self):
        # at belief 0.5: defend = 10 + 0.5*(100 + 80) = 100 vs 10 + 0.5*100 = 60 without it
        with_extra = game(s=70.0, d=10.0, j=100.0, defense_trial_cost=80.0)
        without = game(s=70.0, d=10.0, j=100.0)
        assert defendant_best_response(0.5, without) is DefendantAction.DEFEND
        assert defendant_best_response(0.5, with_extra) is DefendantAction.SETTLE


class TestPlay:
    def test_nuisance_settlement_extraction(self):
        out = play(PlaintiffType.FRIVOLOUS, game(f_o=1.0, s=5.0, d=10.0))
        assert out.filed
        assert out.defendant_action is DefendantAction.SETTLE
        assert out.plaintiff_payoff == 4.0
        assert out.defendant_payoff == -5.0

    def test_frivolous_deterred_by_cheap_defense(self):
        out = play(PlaintiffType.FRIVOLOUS, game(f_o=1.0, s=20.0, d=10.0))
        assert not out.filed
        assert out.defendant_action is DefendantAction.NONE
        assert out.plaintiff_payoff == 0.0 and out.defendant_payoff == 0.0

    def test_meritorious_presses_through_defense(self):
        out = play(PlaintiffType.MERITORIOUS, game(f_q=1.0, s=20.0, d=10.0, j=100.0, c_p=10.0))
        assert out.filed
        assert out.defendant_action is DefendantAction.DEFEND
        assert out.plaintiff_followup is FollowUp.TRIAL
        assert out.plaintiff_payoff == 100.0 - 1.0 - 10.0
        assert out.defendant_payoff == -(10.0 + 100.0)

    def test_default_judgment_path(self):
        out = play(PlaintiffType.FRIVOLOUS, game(s=200.0, d=150.0, j=100.0, f_o=2.0))
        assert out.filed
        assert out.defendant_action is DefendantAction.DEFAULT
        assert out.plaintiff_payoff == 98.0
        assert out.defendant_payoff == -100.0

    def test_files_when_exactly_breaking_even(self):
        out = play(PlaintiffType.FRIVOLOUS, game(f_o=5.0, s=5.0, d=10.0))
        assert out.filed
        assert out.plaintiff_payoff == 0.0

    def test_meritorious_drop_path_payoffs(self):
        # defense anticipated (d beats both s and j), trial overpriced, zero filing fee
        out = play(PlaintiffType.MERITORIOUS, game(f_q=0.0, s=20.0, d=10.0, j=12.0, c_p=15.0))
        assert out.filed
        assert out.plaintiff_followup is FollowUp.DROP
        assert out.plaintiff_payoff == 0.0
        assert out.defendant_payoff == -10.0

    def test_belief_screens_out_the_defense(self):
        cfg = game(s=20.0, d=10.0)
        pooled = play(PlaintiffType.MERITORIOUS, cfg)
        screened = play(PlaintiffType.MERITORIOUS, cfg, belief_merit=1.0)
        assert pooled.defendant_action is DefendantAction.DEFEND
        assert screened.defendant_action is DefendantAction.SETTLE
        assert screened.plaintiff_payoff == 19.0


class TestExhaustiveGrid:
    def test_frivolous_never_reaches_trial_and_payoffs_are_exact(self):
        f_os = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        ss = [0.0, 1.0, 5.0, 10.0, 50.0, 200.0, 1000.0]
        ds = [0.0, 2.0, 10.0, 40.0, 150.0, 500.0]
        js = [1.0, 10.0, 100.0, 1000.0]
        c_ps = [0.0, 10.0, 100.0]
        beliefs = [0.0, 0.5, 1.0]
        plays = 0
        for f_o, s, d, j, c_p, belief in itertools.product(f_os, ss, ds, js, c_ps, beliefs):
            cfg = FrivolousConfig(f_o=f_o, f_q=1.0, d=d, s=s, j=j, c_p=c_p)
            out = play(PlaintiffType.FRIVOLOUS, cfg, belief_merit=belief)
            plays += 1
            assert out.plaintiff_followup is not FollowUp.TRIAL
            if not out.filed:
                assert out.plaintiff_payoff == 0.0 and out.defendant_payoff == 0.0
                continue
            assert out.plaintiff_payoff >= 0.0  # filing was worthwhile by construction
            if out.defendant_action is DefendantAction.SETTLE:
                assert out.plaintiff_payoff == s - f_o
                assert out.defendant_payoff == -s
            elif out.defendant_action is DefendantAction.DEFAULT:
                assert out.plaintiff_payoff == j - f_o
                assert out.defendant_payoff == -j
            else:
                assert out.plaintiff_payoff == -f_o
                assert out.defendant_payoff == -d
        assert plays >= 10_000


class TestFilingDecision:
    def test_anticipating_defense_deters_costly_filing(self):
        assert not plaintiff_files(PlaintiffType.FRIVOLOUS, DefendantAction.DEFEND, game())
        assert plaintiff_files(PlaintiffType.FRIVOLOUS, DefendantAction.DEFEND, game(f_o=0.0))

    def test_meritorious_files_into_defense_when_trial_pays(self):
        assert plaintiff_files(PlaintiffType.MERITORIOUS, DefendantAction.DEFEND, game())

    @settings(max_examples=300, deadline=None)
    @given(ptype=st.sampled_from(PlaintiffType), belief=st.floats(0.0, 1.0),
           costs=st.lists(COSTS, min_size=7, max_size=7))
    def test_files_as_play_does_at_the_best_response(self, ptype, belief, costs):
        f_o, f_q, d, s, j, c_p, trial = costs
        cfg = FrivolousConfig(f_o=f_o, f_q=f_q, d=d, s=s, j=max(j, 1.0), c_p=c_p,
                              defense_trial_cost=trial)
        response = defendant_best_response(belief, cfg)
        assert plaintiff_files(ptype, response, cfg) == play(ptype, cfg, belief).filed

    def test_no_response_is_not_an_action_to_anticipate(self):
        with pytest.raises(DomainError) as exc:
            plaintiff_files(PlaintiffType.FRIVOLOUS, DefendantAction.NONE, game())
        assert str(exc.value) == \
            "anticipated response must be a real action: got <DefendantAction.NONE: 'none'>"


class TestRegionShift:
    def test_cheaper_filing_expands_the_region(self):
        assert filing_region_shift(game(), 0.5, 0.0) is RegionShift.MORE_FILINGS

    def test_cheaper_defense_contracts_the_region(self):
        assert filing_region_shift(game(), 0.0, 3.0) is RegionShift.FEWER_FILINGS

    def test_equal_cuts_cancel(self):
        assert filing_region_shift(game(), 0.7, 0.7) is RegionShift.UNCHANGED

    def test_deltas_validated(self):
        with pytest.raises(DomainError):
            filing_region_shift(game(), 2.0, 0.0)  # exceeds f_o = 1
        with pytest.raises(DomainError):
            filing_region_shift(game(), 0.0, 11.0)  # exceeds d = 10
        with pytest.raises(DomainError):
            filing_region_shift(game(), -0.1, 0.0)
