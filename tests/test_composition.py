"""Docket-composition shifts under a flat cost reduction."""

import random
from fractions import Fraction

import pytest

from lexsim import (
    AreaShare,
    DomainError,
    relative_price_change,
    shift_composition,
    validate_composition,
)

DOCKET = [
    AreaShare("civil", 0.51, 10.0, 1.0),
    AreaShare("contract", 0.17, 10.0, 1.0),
    AreaShare("tort", 0.02, 30.0, 1.0),
]


def exact_unit_elasticity_shift(areas, r):
    """Rational-arithmetic oracle, valid only when every elasticity is 1."""
    shares = [Fraction(a.share) for a in areas]
    costs = [Fraction(a.unit_cost) for a in areas]
    rr = Fraction(r)
    volumes = [s * c / (c - rr) for s, c in zip(shares, costs)]
    scale = sum(shares) / sum(volumes)
    return [v * scale for v in volumes]


class TestValidation:
    def test_rejects_empty_docket(self):
        with pytest.raises(DomainError):
            validate_composition([], 1.0)

    def test_rejects_duplicate_names(self):
        areas = [AreaShare("a", 0.3, 10.0, 1.0), AreaShare("a", 0.2, 20.0, 1.0)]
        with pytest.raises(DomainError):
            validate_composition(areas, 1.0)

    def test_rejects_shares_beyond_one(self):
        areas = [AreaShare("a", 0.7, 10.0, 1.0), AreaShare("b", 0.4, 10.0, 1.0)]
        with pytest.raises(DomainError):
            validate_composition(areas, 1.0)

    def test_rejects_all_zero_shares(self):
        with pytest.raises(DomainError):
            validate_composition([AreaShare("a", 0.0, 10.0, 1.0)], 1.0)

    def test_share_and_cost_bounds(self):
        with pytest.raises(DomainError):
            AreaShare("a", -0.1, 10.0, 1.0)
        with pytest.raises(DomainError):
            AreaShare("a", 0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            AreaShare("a", 0.5, 10.0, 0.0)

    def test_reduction_must_leave_costs_positive(self):
        with pytest.raises(DomainError):
            validate_composition(DOCKET, 10.0)
        with pytest.raises(DomainError):
            validate_composition(DOCKET, -1.0)
        validate_composition(DOCKET, 9.999)


    @pytest.mark.parametrize("name, message", [
        ("", "name must be a nonempty string: got ''"),
        (None, "name must be a nonempty string: got None"),
    ])
    def test_name_is_a_nonempty_string(self, name, message):
        with pytest.raises(DomainError) as exc:
            AreaShare(name, 0.5, 10.0, 1.0)
        assert str(exc.value) == message


class TestShift:
    def test_matches_exact_rational_oracle(self):
        shifts = shift_composition(DOCKET, 5.0)
        expected = exact_unit_elasticity_shift(DOCKET, 5.0)
        for shift, exact in zip(shifts, expected):
            assert shift.new_share == pytest.approx(float(exact), rel=1e-12)
        assert shifts[0].new_share == pytest.approx(0.51589595375722543, rel=1e-12)
        assert shifts[1].new_share == pytest.approx(0.17196531791907514, rel=1e-12)
        assert shifts[2].new_share == pytest.approx(0.01213872832369942, rel=1e-12)

    def test_preserves_input_order_and_old_shares(self):
        shifts = shift_composition(DOCKET, 5.0)
        assert [s.name for s in shifts] == ["civil", "contract", "tort"]
        assert [s.old_share for s in shifts] == [0.51, 0.17, 0.02]

    def test_total_share_conserved(self):
        rng = random.Random(404)
        for _ in range(200):
            n = rng.randint(1, 8)
            areas = [
                AreaShare(f"a{i}", rng.uniform(0.01, 1.0 / n), rng.uniform(1.0, 50.0),
                          rng.uniform(0.2, 3.0))
                for i in range(n)
            ]
            r = rng.uniform(0.0, 0.9) * min(a.unit_cost for a in areas)
            shifts = shift_composition(areas, r)
            assert sum(s.new_share for s in shifts) == pytest.approx(
                sum(a.share for a in areas), abs=1e-12)

    def test_zero_reduction_is_identity(self):
        for shift in shift_composition(DOCKET, 0.0):
            assert shift.new_share == shift.old_share

    def test_cheap_areas_gain_at_expense_of_dear_ones(self):
        # equal elasticities: the growth factor (c/(c-r))^e falls with c, so the
        # most expensive area must lose share after renormalization
        shifts = shift_composition(DOCKET, 5.0)
        by_name = {s.name: s for s in shifts}
        assert by_name["tort"].new_share < by_name["tort"].old_share
        assert by_name["civil"].new_share > by_name["civil"].old_share
        ratios = [(s.new_share / s.old_share, a.unit_cost) for s, a in zip(shifts, DOCKET)]
        assert ratios[0][0] == pytest.approx(ratios[1][0], rel=1e-12)  # same cost, same ratio
        assert ratios[2][0] < ratios[0][0]

    def test_growth_ratio_ordering_random(self):
        rng = random.Random(77)
        for _ in range(100):
            costs = sorted(rng.uniform(2.0, 40.0) for _ in range(4))
            areas = [AreaShare(f"a{i}", 0.2, c, 1.5) for i, c in enumerate(costs)]
            shifts = shift_composition(areas, 0.5 * costs[0])
            ratios = [s.new_share / s.old_share for s in shifts]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_higher_elasticity_amplifies_the_swing(self):
        flat = [AreaShare("cheap", 0.5, 10.0, 1.0), AreaShare("dear", 0.5, 30.0, 1.0)]
        steep = [AreaShare("cheap", 0.5, 10.0, 3.0), AreaShare("dear", 0.5, 30.0, 3.0)]
        gain_flat = shift_composition(flat, 5.0)[0].new_share - 0.5
        gain_steep = shift_composition(steep, 5.0)[0].new_share - 0.5
        assert gain_steep > gain_flat > 0.0


    def test_a_volume_past_float_range_names_its_area(self):
        areas = [AreaShare("tort", 0.5, 10, 2000), AreaShare("civil", 0.5, 20, 1)]
        with pytest.raises(DomainError) as exc:
            shift_composition(areas, 5)
        assert str(exc.value) == "area 'tort': its volume after the cut overflows"

    def test_volumes_summing_past_float_range(self):
        # each volume is just below the float limit, and the shares sum to 1 within
        # the permitted slack
        areas = [AreaShare("a", 0.5, 2.0, 1023.9999999999),
                 AreaShare("b", 0.5000000005, 2.0, 1023.9999999999)]
        with pytest.raises(DomainError) as exc:
            shift_composition(areas, 1.0)
        assert str(exc.value) == "the areas' volumes after the cut sum beyond float range"


class TestRelativePrice:
    def test_declines_are_reduction_over_cost(self):
        declines = relative_price_change(DOCKET, 5.0)
        assert declines[0] == ("civil", pytest.approx(0.5))
        assert declines[1] == ("contract", pytest.approx(0.5))
        assert declines[2] == ("tort", pytest.approx(5.0 / 30.0))

    def test_dearer_areas_see_smaller_relative_cuts(self):
        declines = dict(relative_price_change(DOCKET, 5.0))
        assert declines["tort"] < declines["civil"]

    def test_validates_like_shift(self):
        with pytest.raises(DomainError):
            relative_price_change(DOCKET, 30.0)
