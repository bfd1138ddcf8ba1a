"""Settlement ranges under both fee rules: equations, widths, and cost statics."""

import random

import pytest

from lexsim import (
    Dispute,
    DomainError,
    FeeRule,
    OutcomeKind,
    apply_cost_reduction,
    decide,
    defendant_trial_cost,
    plaintiff_trial_value,
    settlement_range,
    shrink_ratio,
)

FIXTURE = Dispute(p_q=0.6, p_g=0.5, j=100.0, c_q=10.0, c_g=10.0)
# each settles at 1.7e308, where the two ends of its range sum past float range
PAST_FLOAT_RANGE = [Dispute(p_q=1.0, p_g=1.0, j=1.7e308, c_q=0.0, c_g=0.0),
                    Dispute(p_q=1.0, p_g=1.0, j=17 * 10**307, c_q=0.0, c_g=0.0),
                    Dispute(p_q=1, p_g=1, j=17 * 10**307, c_q=0, c_g=0)]


def random_dispute(rng: random.Random) -> Dispute:
    return Dispute(
        p_q=rng.random(), p_g=rng.random(), j=rng.uniform(1.0, 1000.0),
        c_q=rng.uniform(0.0, 100.0), c_g=rng.uniform(0.0, 100.0),
    )


def width_formula(d: Dispute, rule: FeeRule) -> float:
    if rule is FeeRule.AMERICAN:
        return (d.p_g - d.p_q) * d.j + (d.c_q + d.c_g)
    return (d.p_g - d.p_q) * d.j + (d.p_g + 1.0 - d.p_q) * (d.c_q + d.c_g)


class TestValidation:
    def test_probability_bounds(self):
        with pytest.raises(DomainError):
            Dispute(p_q=1.5, p_g=0.5, j=1.0, c_q=0.0, c_g=0.0)
        with pytest.raises(DomainError):
            Dispute(p_q=0.5, p_g=-0.1, j=1.0, c_q=0.0, c_g=0.0)

    def test_stakes_and_costs(self):
        with pytest.raises(DomainError):
            Dispute(p_q=0.5, p_g=0.5, j=0.0, c_q=0.0, c_g=0.0)
        with pytest.raises(DomainError):
            Dispute(p_q=0.5, p_g=0.5, j=1.0, c_q=-1.0, c_g=0.0)
        with pytest.raises(DomainError):
            Dispute(p_q=0.5, p_g=0.5, j=float("inf"), c_q=0.0, c_g=0.0)


    def test_stakes_plus_costs_past_float_range(self):
        # an English upper end p_g * (j + c_q + c_g) of 0 * inf = NaN read as a trial,
        # which a cost cut then turned into a settlement
        big = 5.992310449541053e+307
        for args in ((0.0, 0.0, big, big, big), (0.5, 0.5, 10**308, 10**308, 10**308)):
            with pytest.raises(DomainError) as exc:
                Dispute(*args)
            assert str(exc.value) == "j + c_q + c_g must lie within float range"
        Dispute(0.0, 0.0, big, big, big / 2)


class TestTrialValues:
    def test_american_formulas(self):
        assert plaintiff_trial_value(FIXTURE, FeeRule.AMERICAN) == 0.6 * 100.0 - 10.0
        assert defendant_trial_cost(FIXTURE, FeeRule.AMERICAN) == 0.5 * 100.0 + 10.0

    def test_english_formulas(self):
        assert plaintiff_trial_value(FIXTURE, FeeRule.ENGLISH) == 0.6 * 100.0 - 0.4 * 20.0
        assert defendant_trial_cost(FIXTURE, FeeRule.ENGLISH) == 0.5 * 120.0

    def test_certain_winner_pays_nothing_english(self):
        d = Dispute(p_q=1.0, p_g=0.5, j=100.0, c_q=10.0, c_g=10.0)
        assert plaintiff_trial_value(d, FeeRule.ENGLISH) == 100.0

    def test_certain_defendant_win_costs_nothing_english(self):
        d = Dispute(p_q=0.5, p_g=0.0, j=100.0, c_q=25.0, c_g=40.0)
        assert defendant_trial_cost(d, FeeRule.ENGLISH) == 0.0


class TestRanges:
    def test_fixture_ranges(self):
        ra = settlement_range(FIXTURE, FeeRule.AMERICAN)
        assert (ra.lower, ra.upper, ra.width) == (50.0, 60.0, 10.0)
        re = settlement_range(FIXTURE, FeeRule.ENGLISH)
        assert (re.lower, re.upper, re.width) == (52.0, 60.0, 8.0)

    def test_width_matches_closed_form(self):
        rng = random.Random(140)
        for _ in range(2000):
            d = random_dispute(rng)
            for rule in FeeRule:
                r = settlement_range(d, rule)
                assert r.width == pytest.approx(width_formula(d, rule), abs=1e-12)

    def test_rule_gap_is_probability_gap_times_costs(self):
        rng = random.Random(141)
        for _ in range(2000):
            d = random_dispute(rng)
            wa = settlement_range(d, FeeRule.AMERICAN).width
            we = settlement_range(d, FeeRule.ENGLISH).width
            assert wa - we == pytest.approx((d.p_q - d.p_g) * (d.c_q + d.c_g), abs=1e-10)

    def test_english_trial_condition_rearrangement(self):
        rng = random.Random(142)
        for _ in range(2000):
            d = random_dispute(rng)
            trial = settlement_range(d, FeeRule.ENGLISH).width < 0.0
            rearranged = (d.p_q - d.p_g) * (d.j + d.c_q + d.c_g) > d.c_q + d.c_g
            assert trial == rearranged

    def test_english_settles_less_iff_plaintiff_more_optimistic(self):
        rng = random.Random(143)
        for _ in range(1000):
            d = random_dispute(rng)
            if d.c_q + d.c_g == 0.0:
                continue
            wa = settlement_range(d, FeeRule.AMERICAN).width
            we = settlement_range(d, FeeRule.ENGLISH).width
            if d.p_q > d.p_g:
                assert we < wa
            elif d.p_q < d.p_g:
                assert we > wa


class TestDecide:
    def test_maximal_range_splits_in_half(self):
        d = Dispute(p_q=0.0, p_g=1.0, j=100.0, c_q=0.0, c_g=0.0)
        out = decide(d, FeeRule.AMERICAN)
        assert out.kind is OutcomeKind.SETTLE
        assert out.amount == 50.0

    def test_fixture_settles_at_midpoint(self):
        out = decide(FIXTURE, FeeRule.AMERICAN)
        assert out.kind is OutcomeKind.SETTLE
        assert out.amount == 55.0

    def test_empty_range_goes_to_trial(self):
        d = Dispute(p_q=0.9, p_g=0.1, j=100.0, c_q=5.0, c_g=5.0)
        out = decide(d, FeeRule.AMERICAN)
        assert out.kind is OutcomeKind.TRIAL
        assert out.amount is None

    def test_zero_width_still_settles(self):
        d = Dispute(p_q=0.6, p_g=0.5, j=100.0, c_q=5.0, c_g=5.0)
        r = settlement_range(d, FeeRule.AMERICAN)
        assert r.width == 0.0
        assert decide(d, FeeRule.AMERICAN).kind is OutcomeKind.SETTLE


    @pytest.mark.parametrize("rule", list(FeeRule))
    def test_finite_ends_summing_past_float_range_settle_finite(self, rule):
        # lower = upper = 1.7e308, whose sum overflows; with every input an int, the
        # American rule's ends are ints whose sum is too large to convert to a float
        for d in PAST_FLOAT_RANGE:
            out = decide(d, rule)
            assert out.kind is OutcomeKind.SETTLE
            assert out.amount == 1.7e308

    @pytest.mark.parametrize("rule", list(FeeRule))
    def test_subnormal_midpoints_keep_their_bits(self, rule):
        # halving each end first would give 0.0 here
        out = decide(Dispute(p_q=1.0, p_g=1.0, j=5e-324, c_q=0.0, c_g=0.0), rule)
        assert out.amount == 5e-324

    @pytest.mark.parametrize("rule", list(FeeRule))
    def test_columns_settle_like_decide_past_float_range(self, rule):
        from lexsim.settlement import settle_columns

        disputes = [Dispute(p_q=1.0, p_g=1.0, j=j, c_q=0.0, c_g=0.0)
                    for j in (1.7e308, 5e-324, 100.0)] + PAST_FLOAT_RANGE[1:]
        amounts = settle_columns(disputes, rule, 0.0)["amount"].tolist()
        assert amounts == [decide(d, rule).amount for d in disputes] == \
            [1.7e308, 5e-324, 100.0, 1.7e308, 1.7e308]

    def test_rule_must_be_a_fee_rule(self):
        for fn in (decide, settlement_range, plaintiff_trial_value):
            with pytest.raises(DomainError) as exc:
                fn(FIXTURE, "american")
            assert str(exc.value) == "rule must be an instance of FeeRule: got 'american'"


class TestCostReduction:
    def test_fixture_shrinkage(self):
        reduced = apply_cost_reduction(FIXTURE, 5.0)
        assert settlement_range(reduced, FeeRule.AMERICAN).width == 0.0
        assert settlement_range(reduced, FeeRule.ENGLISH).width == -1.0

    def test_shrinkage_law(self):
        rng = random.Random(77)
        for _ in range(1000):
            d = random_dispute(rng)
            delta = rng.uniform(0.0, min(d.c_q, d.c_g))
            reduced = apply_cost_reduction(d, delta)
            shrink_a = (settlement_range(d, FeeRule.AMERICAN).width
                        - settlement_range(reduced, FeeRule.AMERICAN).width)
            shrink_e = (settlement_range(d, FeeRule.ENGLISH).width
                        - settlement_range(reduced, FeeRule.ENGLISH).width)
            assert shrink_a == pytest.approx(2.0 * delta, abs=1e-10)
            assert shrink_e == pytest.approx((d.p_g + 1.0 - d.p_q) * 2.0 * delta, abs=1e-10)

    def test_fixture_shrink_ratio(self):
        assert shrink_ratio(FIXTURE) == pytest.approx(10.0 / 9.0, rel=1e-12)

    def test_ratio_undefined_at_degenerate_beliefs(self):
        d = Dispute(p_q=1.0, p_g=0.0, j=10.0, c_q=1.0, c_g=1.0)
        with pytest.raises(DomainError):
            shrink_ratio(d)

    def test_reduction_bounds(self):
        with pytest.raises(DomainError):
            apply_cost_reduction(FIXTURE, -1.0)
        with pytest.raises(DomainError):
            apply_cost_reduction(FIXTURE, 10.5)

    def test_reduction_never_flips_trial_to_settlement(self):
        rng = random.Random(78)
        for _ in range(1000):
            d = random_dispute(rng)
            delta = rng.uniform(0.0, min(d.c_q, d.c_g))
            reduced = apply_cost_reduction(d, delta)
            for rule in FeeRule:
                if decide(d, rule).kind is OutcomeKind.TRIAL:
                    assert decide(reduced, rule).kind is OutcomeKind.TRIAL


class TestDisputeBatch:
    def test_equality_builds_no_dispute_where_the_columns_decide(self, monkeypatch):
        import numpy as np

        from lexsim.settlement import DisputeBatch

        def batch(j=100.0):
            return DisputeBatch(*(np.full(20_000, x) for x in (0.6, 0.5, j, 10.0, 10.0)))

        loaded, same, other = batch(), batch(), batch(j=101.0)

        def no_items(self, i):
            raise AssertionError("a Dispute was built")

        monkeypatch.setattr(DisputeBatch, "__getitem__", no_items)
        assert loaded != ""
        assert loaded != []
        assert loaded != [FIXTURE]
        assert loaded == same
        assert not loaded != same
        assert loaded != other
        monkeypatch.undo()
        assert loaded == [FIXTURE] * 20_000
        assert loaded != [FIXTURE] * 19_999 + [Dispute(0.6, 0.5, 101.0, 10.0, 10.0)]

    def test_a_non_sequence_is_unequal_and_one_row_reprs_as_its_list(self):
        from lexsim.settlement import DisputeBatch

        batch = DisputeBatch.of([FIXTURE])
        assert (batch == 5) is False
        assert (batch != None) is True  # noqa: E711
        assert repr(batch) == \
            "DisputeBatch([Dispute(p_q=0.6, p_g=0.5, j=100.0, c_q=10.0, c_g=10.0)])"

    def test_a_slice_is_a_batch_of_the_sliced_items(self):
        from pathlib import Path

        from lexsim.config import load_config
        from lexsim.settlement import DisputeBatch

        fixture = Path(__file__).resolve().parent.parent / "configs" / "settle_fixture.json"
        loaded = load_config(str(fixture), "settle").params.disputes
        assert loaded[0:1] == [FIXTURE] and isinstance(loaded[0:1], DisputeBatch)
        rng = random.Random(5)
        batch = DisputeBatch.of([random_dispute(rng) for _ in range(7)])
        for s in (slice(None), slice(0, 1), slice(None, None, 2), slice(1, None, 3),
                  slice(-3, -1), slice(-100, 100), slice(None, None, -1), slice(-1, -6, -2),
                  slice(5, 2), slice(7, None)):
            part = batch[s]
            assert isinstance(part, DisputeBatch)
            assert part == list(batch)[s] and list(part) == list(batch)[s]
            assert not any(column.flags.writeable for column in part.columns())
        assert batch[-1] == list(batch)[-1] and isinstance(batch[-1], Dispute)

    def test_an_index_is_taken_as_a_list_takes_it(self):
        import numpy as np

        from lexsim.settlement import DisputeBatch

        rng = random.Random(6)
        items = [random_dispute(rng) for _ in range(3)]
        batch = DisputeBatch.of(items)
        for key in (True, False, 2, -3, np.int64(2), np.intp(-1)):
            assert batch[key] == items[key] and isinstance(batch[key], Dispute)
        for key, error in [(1.0, TypeError), (np.float64(1.0), TypeError), ("1", TypeError),
                           (None, TypeError), ((0,), TypeError), ([0], TypeError),
                           (3, IndexError), (-4, IndexError)]:
            with pytest.raises(error):
                items[key]
            with pytest.raises(error):
                batch[key]
