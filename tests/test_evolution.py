"""Rule-evolution machinery: rates, paths, and the population simulator."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexsim import (
    AiShock,
    AreaKind,
    ConvergenceError,
    Dispute,
    DomainError,
    FeeRule,
    FlipRates,
    FrivolousConfig,
    FrivolousStream,
    GapCurve,
    LegalArea,
    OutcomeKind,
    RulePopulation,
    decide,
    effective_dispute_rate,
    expected_path,
    flip_rates,
    gap_closure_time,
    settlement_range,
    simulate,
    stationary_fraction,
    substream,
    trial_fractions,
)
from lexsim import evolution, settlement
from lexsim.evolution import _MAX_CLOSURE_ITER, _STREAM_RATES, EvolutionTrace

GOLDEN_G = (3.0 - math.sqrt(5.0)) / 2.0


def tried_by_decide(area, u_belief, stakes, c_q, c_g):
    """Reference: whether `decide` tries the case of one belief draw, on Python floats."""
    eps = (2.0 * u_belief - 1.0) * area.belief_spread
    p_q = min(max(area.belief_center + eps, 0.0), 1.0)
    p_g = min(max(area.belief_center - eps, 0.0), 1.0)
    d = Dispute(p_q=p_q, p_g=p_g, j=stakes, c_q=c_q, c_g=c_g)
    return decide(d, area.fee_rule).kind is OutcomeKind.TRIAL


def threshold_by_hand(area, stakes, c_q, c_g):
    """Reference: the least draw k * 2^-53 that `decide` tries, by a 53-step hand
    bisection over k; 1.0, the sentinel k = 2^53, if it tries none."""
    lo, hi = 0, 2**53
    while lo < hi:
        mid = (lo + hi) // 2
        if tried_by_decide(area, math.ldexp(mid, -53), stakes, c_q, c_g):
            hi = mid
        else:
            lo = mid + 1
    return math.ldexp(hi, -53)


def counted_threshold(area, stakes, c_q, c_g):
    """`_trial_threshold` and how many times it probed its search key."""
    probes = []
    bounds = evolution._bounds  # the module's, so a monkeypatched key is counted too
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "_bounds", lambda *args: probes.append(args) or bounds(*args))
        return evolution._trial_threshold(area, stakes, c_q, c_g), len(probes)


def clipped_at_start(area, stakes, c_q, c_g):
    """Whether the beliefs clip at the draw `_trial_threshold` probes first, its closed-form
    start k0 = (0.5 + C / (4 spread J')) 2^53 clamped below 2^53, in the same float steps."""
    c = c_q + c_g
    span = 4.0 * area.belief_spread * (stakes + c if area.fee_rule is FeeRule.ENGLISH else stakes)
    u = 0.5 + c / span if span else math.inf
    k0 = 2**53 - 1 if not u * 2**53 < 2**53 - 1 else max(int(u * 2**53), 0)
    eps = (2.0 * math.ldexp(k0, -53) - 1.0) * area.belief_spread
    return not 0.0 <= area.belief_center - eps <= 1.0 or not 0.0 <= area.belief_center + eps <= 1.0


def trial_fractions_by_decide(area, cost_delta, n_samples, seed):
    """Reference: one decide() call per belief sample, on the estimator's draws."""
    u = substream(seed, _STREAM_RATES).random(n_samples).tolist()
    c_q, c_g = area.cost_q - cost_delta, area.cost_g - cost_delta
    return tuple(sum(tried_by_decide(area, x, stakes, c_q, c_g) for x in u) / n_samples
                 for stakes in (area.stakes_j * area.stakes_multiplier, area.stakes_j))


def path_by_recurrence(x0, rates, periods):
    """Reference: step x_{t+1} = x_t (1 - p_ei) + (1 - x_t) p_ie."""
    path = [float(x0)]
    for _ in range(periods):
        x = path[-1]
        path.append(x * (1.0 - rates.p_ei) + (1.0 - x) * rates.p_ie)
    return np.array(path)


def closure_by_recurrence(x0, rates, fraction, max_iter=_MAX_CLOSURE_ITER):
    """Reference: step the recurrence until `fraction` of the gap is closed."""
    target_x = stationary_fraction(rates)
    gap0 = abs(x0 - target_x)
    if gap0 == 0.0:
        return 0
    threshold = (1.0 - fraction) * gap0
    x = float(x0)
    for t in range(1, max_iter + 1):
        x = x * (1.0 - rates.p_ei) + (1.0 - x) * rates.p_ie
        if abs(x - target_x) <= threshold:
            return t
    raise ConvergenceError(f"gap not {fraction:.0%} closed within {max_iter} periods")


def tort_area(**overrides) -> LegalArea:
    base = dict(
        name="negligence", kind=AreaKind.TORT, dispute_rate=0.8, stakes_j=100.0,
        stakes_multiplier=2.0, cost_q=18.0, cost_g=18.0, belief_spread=0.4,
        overturn_prob=0.5,
    )
    base.update(overrides)
    return LegalArea(**base)


def contract_area(**overrides) -> LegalArea:
    base = dict(
        name="sales", kind=AreaKind.CONTRACT, dispute_rate=0.2, stakes_j=100.0,
        gap_curve=GapCurve(1.0, 1.0, 1.0, 1.0),
    )
    base.update(overrides)
    return LegalArea(**base)


def replay_by_decide(area, population, periods, seed, cost_delta=0.0):
    """Reference: step each rule alone from its substream, `decide` on Python floats.

    Returns the (disputes, trials, efficient count) columns of rows 1..periods.
    """
    rate, c_q, c_g = effective_dispute_rate(area), area.cost_q - cost_delta, area.cost_g - cost_delta
    disputes, trials, efficient_count = [0] * periods, [0] * periods, [0] * periods
    for i in range(population.n_rules):
        efficient = i < population.initial_efficient_count
        for t, (u_dispute, u_belief, u_flip) in enumerate(
                substream(seed, i).random((periods, 3)).tolist()):
            disputed = u_dispute < rate
            stakes = float(area.stakes_j) if efficient else \
                float(area.stakes_j * area.stakes_multiplier)
            trial = disputed and tried_by_decide(area, u_belief, stakes, c_q, c_g)
            if trial and u_flip < (area.q_ei if efficient else area.q_ie):
                efficient = not efficient
            disputes[t] += disputed
            trials[t] += trial
            efficient_count[t] += efficient
    return disputes, trials, efficient_count


@st.composite
def tort_areas(draw):
    """Tort areas over both fee rules, beliefs from a point to far past [0, 1], and
    stakes and costs up to ~1e300 (an English width may overflow to inf)."""
    return tort_area(
        fee_rule=draw(st.sampled_from(FeeRule)),
        dispute_rate=draw(st.floats(0.0, 1.0, exclude_min=True)),
        stakes_j=draw(st.floats(1e-3, 1e300)),
        stakes_multiplier=draw(st.floats(1.0, 1e4)),
        cost_q=draw(st.floats(0.0, 8e307)),
        cost_g=draw(st.floats(0.0, 8e307)),
        belief_spread=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5), st.floats(0.0, 1e3),
                                     st.floats(0.0, 1e300))),
        belief_center=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        overturn_prob=draw(st.floats(0.0, 1.0)),
        overturn_prob_ie=draw(st.none() | st.floats(0.0, 1.0)),
        overturn_prob_ei=draw(st.none() | st.floats(0.0, 1.0)),
    )


class TestAreaValidation:
    @pytest.mark.parametrize("field, value, message", [
        ("name", "", "name must be a nonempty string: got ''"),
        ("name", 7, "name must be a nonempty string: got 7"),
        ("kind", "tort", "kind must be an instance of AreaKind: got 'tort'"),
        ("fee_rule", "english", "fee_rule must be an instance of FeeRule: got 'english'"),
        ("gap_curve", (1.0, 1.0, 1.0, 1.0),
         "gap_curve must be an instance of GapCurve: got (1.0, 1.0, 1.0, 1.0)"),
    ])
    def test_every_declared_field_is_type_checked(self, field, value, message):
        with pytest.raises(DomainError) as exc:
            tort_area(**{field: value})
        assert str(exc.value) == message

    def test_stream_game_is_type_checked(self):
        with pytest.raises(DomainError) as exc:
            FrivolousStream(game={"f_o": 1.0}, filers_per_period=1)
        assert str(exc.value) == "game must be an instance of FrivolousConfig: got {'f_o': 1.0}"

    def test_stakes_and_costs_past_float_range(self):
        # int products are exact and then compared with float range, never raising
        # OverflowError
        tort_area(stakes_j=10**19, stakes_multiplier=3)
        for stakes_j, multiplier, cost in ((10**200, 10**200, 0), (1e200, 1e200, 0.0),
                                           (1e308, 1.0, 1e308)):
            with pytest.raises(DomainError) as exc:
                tort_area(stakes_j=stakes_j, stakes_multiplier=multiplier, cost_q=cost)
            assert str(exc.value) == \
                "stakes_j x stakes_multiplier + cost_q + cost_g must lie within float range"

    def test_int_stakes_simulate_as_their_floats(self):
        ints = tort_area(stakes_j=10**19, stakes_multiplier=3, cost_q=10**18, cost_g=10**18)
        floats = tort_area(stakes_j=1e19, stakes_multiplier=3.0, cost_q=1e18, cost_g=1e18)
        pop = RulePopulation(n_rules=40, fraction_efficient=0.5)
        a, b = simulate(ints, pop, periods=5, seed=3), simulate(floats, pop, periods=5, seed=3)
        assert [a.trials.tolist(), a.fraction_efficient.tolist()] == \
            [b.trials.tolist(), b.fraction_efficient.tolist()]
        assert trial_fractions(ints, n_samples=50) == trial_fractions(floats, n_samples=50)

    def test_tort_rejects_gap_curve(self):
        with pytest.raises(DomainError):
            tort_area(gap_curve=GapCurve(1.0, 1.0, 1.0, 1.0))

    def test_contract_requires_gap_curve(self):
        with pytest.raises(DomainError):
            contract_area(gap_curve=None)

    def test_property_requires_gap_curve(self):
        with pytest.raises(DomainError):
            LegalArea(name="land", kind=AreaKind.PROPERTY, dispute_rate=0.1, stakes_j=10.0)

    def test_dispute_rate_interval(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                tort_area(dispute_rate=bad)
        tort_area(dispute_rate=1.0)

    def test_multiplier_at_least_one(self):
        with pytest.raises(DomainError):
            tort_area(stakes_multiplier=0.9)

    def test_probability_fields(self):
        with pytest.raises(DomainError):
            tort_area(overturn_prob=1.2)
        with pytest.raises(DomainError):
            tort_area(belief_center=-0.1)

    def test_directional_overrides_default_to_symmetric(self):
        a = tort_area(overturn_prob=0.3)
        assert a.q_ie == 0.3 and a.q_ei == 0.3
        b = tort_area(overturn_prob=0.3, overturn_prob_ie=0.6)
        assert b.q_ie == 0.6 and b.q_ei == 0.3


class TestPopulation:
    def test_bounds(self):
        with pytest.raises(DomainError):
            RulePopulation(0, 0.5)
        with pytest.raises(DomainError):
            RulePopulation(10, 1.5)

    def test_initial_count_rounds_half_up(self):
        assert RulePopulation(4, 0.5).initial_efficient_count == 2
        assert RulePopulation(5, 0.5).initial_efficient_count == 3
        assert RulePopulation(3, 1.0).initial_efficient_count == 3
        assert RulePopulation(3, 0.0).initial_efficient_count == 0

    @pytest.mark.parametrize("n", [2**52 + 1, 2**54 + 3, 2**63 - 1])
    def test_a_whole_population_counts_every_rule(self, n):
        # f * n + 0.5 rounds up to n + 1, or to 2^63, past the last rule
        assert math.floor(1.0 * n + 0.5) > n
        assert RulePopulation(n, 1.0).initial_efficient_count == n

    @given(n=st.integers(1, 2**63 - 1), f=st.floats(0.0, 1.0))
    @example(n=2**52 + 1, f=1.0)
    @example(n=2**52, f=1.0)
    def test_the_count_lies_within_the_population(self, n, f):
        count = RulePopulation(n, f).initial_efficient_count
        assert 0 <= count <= n

    @given(n=st.integers(1, 2**52 - 1), f=st.floats(0.0, 1.0))
    @example(n=2**52 - 1, f=1.0)
    @example(n=2**52 - 1, f=0.5)
    def test_below_2_to_the_52_the_count_is_the_rounded_product(self, n, f):
        # n + 0.5 is exact there and rounding is monotone, so f * n + 0.5 stays at or
        # below it: the bound never binds
        assert RulePopulation(n, f).initial_efficient_count == int(math.floor(f * n + 0.5))


class TestEffectiveRate:
    def test_tort_passes_through(self):
        assert effective_dispute_rate(tort_area()) == 0.8

    def test_contract_gated_by_completeness(self):
        rate = effective_dispute_rate(contract_area())
        assert rate == pytest.approx(0.2 * (1.0 - GOLDEN_G), abs=1e-9)
        assert rate == pytest.approx(0.1236068, abs=1e-6)

    def test_contracting_shock_reduces_contract_flow(self):
        base = effective_dispute_rate(contract_area())
        shocked = effective_dispute_rate(contract_area(), AiShock(delta_contracting=0.3))
        assert shocked < base

    def test_shock_leaves_tort_flow_alone(self):
        assert effective_dispute_rate(tort_area(), AiShock(0.5, 0.0)) == 0.8


class TestTrialFractions:
    def test_matches_analytic_threshold_american(self):
        # trial iff eps > C/(2J); eps ~ U[-s, s] puts that at (s - theta)/(2s)
        area = tort_area()
        frac_ie, frac_ei = trial_fractions(area, n_samples=200_000, seed=5)
        c = area.cost_q + area.cost_g
        theta_ie = c / (2.0 * area.stakes_j * area.stakes_multiplier)
        theta_ei = c / (2.0 * area.stakes_j)
        s = area.belief_spread
        expect_ie = (s - theta_ie) / (2.0 * s)
        expect_ei = (s - theta_ei) / (2.0 * s)
        assert frac_ie == pytest.approx(expect_ie, abs=0.005)
        assert frac_ei == pytest.approx(expect_ei, abs=0.005)

    def test_matches_analytic_threshold_english(self):
        # English threshold: eps > C / (2 (J + C))
        area = tort_area(fee_rule=FeeRule.ENGLISH, stakes_multiplier=1.0)
        frac_ie, frac_ei = trial_fractions(area, n_samples=200_000, seed=6)
        assert frac_ie == frac_ei  # same stakes, same draws
        c = area.cost_q + area.cost_g
        theta = c / (2.0 * (area.stakes_j + c))
        expect = (area.belief_spread - theta) / (2.0 * area.belief_spread)
        assert frac_ei == pytest.approx(expect, abs=0.005)

    def test_cost_cut_weakly_raises_both_fractions(self):
        area = tort_area()
        base = trial_fractions(area, n_samples=20_000, seed=9)
        cut = trial_fractions(area, cost_delta=12.0, n_samples=20_000, seed=9)
        assert cut[0] >= base[0] and cut[1] >= base[1]

    def test_cost_delta_bounds(self):
        with pytest.raises(DomainError):
            trial_fractions(tort_area(), cost_delta=18.5)
        with pytest.raises(DomainError):
            trial_fractions(tort_area(), cost_delta=-1.0)

    def test_n_samples_true_draws_one_sample(self):
        # a bool passes the bounds check as an int, as `simulate` takes periods=True
        for seed in range(8):
            assert trial_fractions(tort_area(), n_samples=True, seed=seed) == \
                trial_fractions(tort_area(), n_samples=1, seed=seed)
        assert flip_rates(tort_area(), n_samples=True) == flip_rates(tort_area(), n_samples=1)

    @pytest.mark.parametrize("size", [2**62, 10**400], ids=["2^62", "10^400"])
    @pytest.mark.parametrize("name, call", [
        ("n_samples", lambda n: trial_fractions(tort_area(), n_samples=n)),
        ("n_samples", lambda n: flip_rates(tort_area(), n_samples=n)),
        ("periods", lambda n: expected_path(0.5, FlipRates(0.02, 0.01), n)),
        ("periods", lambda n: expected_path(0.5, FlipRates(0.0, 0.0), n)),
    ], ids=["trial_fractions", "flip_rates", "expected_path", "expected_path-flat"])
    def test_a_size_numpy_cannot_hold_is_a_domain_error(self, name, call, size):
        bound = 2**53 - 1
        with pytest.raises(DomainError) as info:
            call(size)
        assert str(info.value) == f"{name} must be <= {bound}: got {size}"
        with pytest.raises(MemoryError):  # at the bound numpy sizes the array, and fails it
            call(bound)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), area=tort_areas(), n_samples=st.integers(1, 40),
           seed=st.integers(0, 2**64 - 1))
    def test_array_kernel_equals_decide_loop(self, data, area, n_samples, seed):
        cost_delta = data.draw(st.floats(0.0, min(area.cost_q, area.cost_g)), label="cost_delta")
        assert trial_fractions(area, cost_delta, n_samples, seed) == trial_fractions_by_decide(
            area, cost_delta, n_samples, seed
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), a=st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 300)),
           b=st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 300)))
    def test_shared_draws_equal_fresh_draws(self, data, a, b):
        # keys a, b, a, a: b evicts a, a enters again, then a is found
        for seed, n in (a, b, a, a):
            area = data.draw(tort_areas(), label="area")
            cost_delta = data.draw(st.floats(0.0, min(area.cost_q, area.cost_g)),
                                   label="cost_delta")
            u = substream(seed, _STREAM_RATES).random(n)
            want = tuple(np.count_nonzero(u >= x) / n
                         for x in evolution._thresholds(area, cost_delta))
            assert trial_fractions(area, cost_delta, n, seed) == want
            assert evolution._rate_draws.cache_info().currsize <= 1
        shared = evolution._rate_draws(*a)
        assert shared is evolution._rate_draws(*a) and not shared.flags.writeable

    def test_a_seed_is_checked_before_the_shared_draws(self):
        # True and 1.0 hash as 1, so a cache keyed by them would hand out seed 1's draws
        trial_fractions(tort_area(), seed=1)
        for seed in (True, 1.0, -1):
            with pytest.raises(DomainError) as want:
                substream(seed, _STREAM_RATES)
            with pytest.raises(DomainError) as info:
                trial_fractions(tort_area(), seed=seed)
            assert str(info.value) == str(want.value)
        # cost_delta first, then n_samples, then the seed
        with pytest.raises(DomainError, match="^cost_delta"):
            trial_fractions(tort_area(), cost_delta=-1.0, n_samples=0, seed=True)
        with pytest.raises(DomainError, match="^n_samples"):
            trial_fractions(tort_area(), n_samples=0, seed=True)

    def test_overflowing_costs_are_tried_like_decide(self):
        # c_q + c_g lies just inside float range, so many English ranges are wider
        # than any float: an inf width, which decide() settles; `trial_fractions` and
        # `simulate` must decide every case as decide() does, and warn of nothing
        area = tort_area(
            dispute_rate=1.0, stakes_multiplier=1.0, cost_q=8.5e307, cost_g=8.5e307,
            belief_spread=1.0, overturn_prob=0.0, fee_rule=FeeRule.ENGLISH,
        )
        fractions = trial_fractions(area, n_samples=400, seed=4)
        assert fractions == trial_fractions_by_decide(area, 0.0, 400, 4)
        assert fractions[0] > 0.0
        trace = simulate(area, RulePopulation(50, 0.5), periods=1, seed=4)
        tried, overflowed = 0, 0
        for i in range(50):
            eps = 2.0 * float(substream(4, i).random((1, 3))[0, 1]) - 1.0
            p_q, p_g = min(max(0.5 + eps, 0.0), 1.0), min(max(0.5 - eps, 0.0), 1.0)
            d = Dispute(p_q=p_q, p_g=p_g, j=100.0, c_q=8.5e307, c_g=8.5e307)
            tried += decide(d, FeeRule.ENGLISH).kind is OutcomeKind.TRIAL
            overflowed += settlement_range(d, FeeRule.ENGLISH).width == math.inf
        assert trace.trials[1] == tried > 0
        assert overflowed > 0

    def test_overflowing_stakes_raise_decides_error(self):
        # the area refuses the stakes and costs whose sum decide() would refuse
        with pytest.raises(DomainError, match=r"^stakes_j x stakes_multiplier \+ cost_q \+ "
                                              r"cost_g must lie within float range$"):
            tort_area(stakes_j=1e200, stakes_multiplier=1e200)
        with pytest.raises(DomainError, match=r"^j \+ c_q \+ c_g must lie within float range$"):
            Dispute(p_q=0.5, p_g=0.5, j=1.7e308, c_q=18.0, c_g=1e307)


class TestTrialThreshold:
    """`simulate` tries a disputed case when its belief draw is at least `_trial_threshold`."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), area=tort_areas(), inefficient=st.booleans(),
           seed=st.integers(0, 2**64 - 1))
    def test_threshold_decides_as_the_kernel(self, data, area, inefficient, seed):
        # `decide`, the public reference, not the probe the threshold is built from
        cost_delta = data.draw(st.floats(0.0, min(area.cost_q, area.cost_g)), label="cost_delta")
        c_q, c_g = area.cost_q - cost_delta, area.cost_g - cost_delta
        stakes = float(area.stakes_j * area.stakes_multiplier) if inefficient else \
            float(area.stakes_j)
        threshold = evolution._trial_threshold(area, stakes, c_q, c_g)
        k = int(threshold * 2**53)
        assert 0 <= k <= 2**53 and math.ldexp(k, -53) == threshold
        edge = [math.ldexp(j, -53) for j in (k - 1, k) if 0 <= j < 2**53]
        for u in substream(seed, 0).random(64).tolist() + edge:
            assert (u >= threshold) == tried_by_decide(area, u, stakes, c_q, c_g), u

    @settings(max_examples=100, deadline=None)
    @given(area=tort_areas(), cut=st.floats(0.0, 1.0))
    @example(area=tort_area(fee_rule=FeeRule.AMERICAN), cut=0.0)
    @example(area=tort_area(fee_rule=FeeRule.ENGLISH), cut=0.5)
    # the search starts at the closed-form estimate k0 = (0.5 + C / (4 spread J')) 2^53
    @example(area=tort_area(cost_q=5.0, cost_g=5.0), cut=0.0)  # at k0 (efficient stakes)
    @example(area=tort_area(cost_q=1.0, cost_g=1.0, belief_spread=0.25), cut=0.0)  # at k0 + 1
    @example(area=tort_area(cost_q=5.0, cost_g=5.0, belief_spread=0.1, fee_rule=FeeRule.ENGLISH),
             cut=0.0)  # at k0 - 1 (inefficient stakes)
    # clipped beliefs: far above k0, past the gallop's reach
    @example(area=tort_area(belief_center=0.9, belief_spread=0.5), cut=0.0)
    @example(area=tort_area(belief_center=0.0, belief_spread=0.5), cut=0.0)
    @example(area=tort_area(belief_center=1.0, belief_spread=0.5), cut=0.0)
    @example(area=tort_area(belief_center=0.0, belief_spread=1e3,
                            fee_rule=FeeRule.ENGLISH), cut=0.0)
    # k = 2^53, no draw is tried: spread 0 (no estimate), an estimate past float range,
    # costs above the stakes
    @example(area=tort_area(belief_spread=0.0), cut=0.0)
    @example(area=tort_area(belief_spread=1e-300), cut=0.0)
    @example(area=tort_area(cost_q=1e6, cost_g=1e6), cut=0.0)
    @example(area=tort_area(belief_spread=1e-300, belief_center=0.0, cost_q=0.0, cost_g=0.0),
             cut=0.0)  # a subnormal eps is tried, one step above k0
    @example(area=tort_area(stakes_multiplier=1.0, cost_q=8.5e307, cost_g=8.5e307,
                            belief_spread=1.0, fee_rule=FeeRule.ENGLISH), cut=1.0)
    def test_threshold_equals_a_hand_bisection(self, area, cut):
        # at both stakes levels, within 1 + 6 + 53 probes: the estimate, the gallop and
        # a bisection of the rest of the range; 1 + 53 where the beliefs clip at the
        # estimate, which skips the gallop
        cost_delta = cut * min(area.cost_q, area.cost_g)
        c_q, c_g = area.cost_q - cost_delta, area.cost_g - cost_delta
        levels = (area.stakes_j * area.stakes_multiplier, area.stakes_j)
        searched = [counted_threshold(area, float(stakes), c_q, c_g) for stakes in levels]
        assert evolution._thresholds(area, cost_delta) == tuple(t for t, _ in searched) == \
            tuple(threshold_by_hand(area, float(stakes), c_q, c_g) for stakes in levels)
        for stakes, (_, probes) in zip(levels, searched):
            assert probes <= (54 if clipped_at_start(area, float(stakes), c_q, c_g) else 60)

    @pytest.mark.parametrize("fee_rule", list(FeeRule))
    def test_the_search_ends(self, monkeypatch, fee_rule):
        area = tort_area(fee_rule=fee_rule, belief_spread=0.0)
        stakes, c_q, c_g = float(area.stakes_j), area.cost_q, area.cost_g
        assert evolution._trial_threshold(area, stakes, c_q, c_g) == 1.0  # every range is c wide
        # no area tries the draw 0, where the plaintiff is the more pessimistic party and
        # the range is at least c_q + c_g wide: an empty range everywhere stands in for one
        for module in (evolution, settlement):
            monkeypatch.setattr(module, "_bounds", lambda *args: (1.0, 0.0))
        # k = 0, far below the closed-form start: past the gallop's reach
        assert counted_threshold(area, stakes, c_q, c_g) == (0.0, 60)
        assert threshold_by_hand(area, stakes, c_q, c_g) == 0.0

    @pytest.mark.parametrize("fee_rule", list(FeeRule))
    def test_simulate_decides_draws_on_the_threshold(self, monkeypatch, fee_rule):
        # belief draws exactly at each stakes level's threshold and one step below it
        area = tort_area(fee_rule=fee_rule, dispute_rate=1.0, overturn_prob=0.0)
        c_q, c_g = area.cost_q, area.cost_g
        levels = (float(area.stakes_j), float(area.stakes_j * area.stakes_multiplier))
        edges = []
        for stakes in levels:
            k = int(evolution._trial_threshold(area, stakes, c_q, c_g) * 2**53)
            assert 0 < k < 2**53
            edges += [math.ldexp(k - 1, -53), math.ldexp(k, -53)]
        beliefs = np.array(edges)

        def fill(seed, first, out):
            out[:] = 0.0  # every period disputed, no flip drawn
            out[:, :, 1] = np.resize(beliefs, out.shape[:2])
            return out

        monkeypatch.setattr(evolution, "fill_substreams", fill)
        periods = 7
        trace = simulate(area, RulePopulation(3, 2 / 3), periods=periods)
        u = np.resize(beliefs, (3, periods)).tolist()
        want = [sum(tried_by_decide(area, u[i][t], levels[i >= 2], c_q, c_g) for i in range(3))
                for t in range(periods)]
        assert trace.trials[1:].tolist() == want
        assert trace.fraction_efficient.tolist() == [2 / 3] * (periods + 1)

    @pytest.mark.parametrize("fee_rule", list(FeeRule))
    def test_trial_fractions_count_draws_on_the_threshold(self, monkeypatch, fee_rule):
        # the estimator's draws exactly at each stakes level's threshold and one step below it
        area = tort_area(fee_rule=fee_rule)
        levels = (float(area.stakes_j * area.stakes_multiplier), float(area.stakes_j))
        edges = []
        for stakes in levels:
            k = int(evolution._trial_threshold(area, stakes, area.cost_q, area.cost_g) * 2**53)
            edges += [math.ldexp(k - 1, -53), math.ldexp(k, -53)]

        monkeypatch.setattr(evolution, "_rate_draws", lambda seed, n: np.resize(edges, n))
        want = tuple(sum(tried_by_decide(area, u, stakes, area.cost_q, area.cost_g)
                         for u in edges) / len(edges) for stakes in levels)
        assert trial_fractions(area, n_samples=len(edges)) == want


class TestFlipRates:
    def test_composition_of_factors(self):
        area = tort_area(overturn_prob_ie=0.6, overturn_prob_ei=0.2)
        frac_ie, frac_ei = trial_fractions(area, n_samples=10_000, seed=0)
        rates = flip_rates(area, n_samples=10_000, seed=0)
        assert rates.p_ie == pytest.approx(0.8 * frac_ie * 0.6, abs=1e-15)
        assert rates.p_ei == pytest.approx(0.8 * frac_ei * 0.2, abs=1e-15)

    def test_higher_stakes_flip_faster(self):
        rates = flip_rates(tort_area(), n_samples=50_000, seed=2)
        assert rates.p_ie > rates.p_ei

    def test_symmetric_when_stakes_equal(self):
        rates = flip_rates(tort_area(stakes_multiplier=1.0), n_samples=5_000, seed=2)
        assert rates.p_ie == rates.p_ei

    def test_rates_validated(self):
        with pytest.raises(DomainError):
            FlipRates(p_ie=1.2, p_ei=0.0)
        with pytest.raises(DomainError):
            FlipRates(p_ie=0.1, p_ei=-0.1)


class TestPaths:
    def test_stationary_point(self):
        assert stationary_fraction(FlipRates(0.02, 0.01)) == pytest.approx(2.0 / 3.0, abs=1e-15)
        with pytest.raises(DomainError):
            stationary_fraction(FlipRates(0.0, 0.0))

    def test_expected_path_matches_closed_form(self):
        rates = FlipRates(0.02, 0.01)
        x_inf = 2.0 / 3.0
        contraction = 1.0 - 0.02 - 0.01
        path = expected_path(0.5, rates, 200)
        assert len(path) == 201
        for t in (0, 1, 10, 100, 200):
            expect = x_inf + (0.5 - x_inf) * contraction**t
            assert path[t] == pytest.approx(expect, abs=1e-12)

    def test_path_is_monotone_toward_stationary(self):
        path = expected_path(0.1, FlipRates(0.05, 0.02), 300)
        assert np.all(np.diff(path) >= 0.0)
        assert path[-1] == pytest.approx(0.05 / 0.07, abs=1e-6)

    def test_closure_time_matches_log_formula(self):
        rates = FlipRates(0.02, 0.01)
        t = gap_closure_time(0.5, rates, fraction=0.9)
        analytic = math.log(0.1) / math.log(1.0 - 0.03)
        assert t == math.ceil(analytic)

    def test_closure_time_weakly_falls_in_rates(self):
        times = [gap_closure_time(0.2, FlipRates(p, p / 2.0)) for p in (0.01, 0.02, 0.05, 0.1)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_closure_time_zero_at_stationary(self):
        rates = FlipRates(0.02, 0.01)
        assert gap_closure_time(stationary_fraction(rates), rates) == 0

    def test_closure_never_happens_when_oscillating_forever(self):
        with pytest.raises(ConvergenceError):
            gap_closure_time(0.0, FlipRates(1.0, 1.0))

    def test_oscillation_is_refused_without_stepping(self):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match=r"^gap not 90% closed within 10000000 periods$"):
            gap_closure_time(0.0, FlipRates(1.0, 1.0))
        assert time.perf_counter() - start < 0.1

    def test_expected_path_equals_recurrence(self):
        grid = (0.0, 1e-3, 0.02, 0.3, 0.5, 0.95, 1.0)
        for p_ie in grid:
            for p_ei in grid:
                for x0 in (0.0, 0.1, 0.5, 1.0):
                    rates = FlipRates(p_ie, p_ei)
                    path = expected_path(x0, rates, 120)
                    assert path[0] == x0
                    assert np.allclose(path, path_by_recurrence(x0, rates, 120),
                                       rtol=0.0, atol=1e-12)

    def test_expected_path_flat_without_flips(self):
        path = expected_path(0.3, FlipRates(0.0, 0.0), 5)
        assert path.tolist() == [0.3] * 6
        assert path.tolist() == path_by_recurrence(0.3, FlipRates(0.0, 0.0), 5).tolist()

    def test_closure_time_equals_recurrence_except_at_float_ties(self):
        # only exact ties may differ: |lam|^t lands on 1 - fraction, and the
        # stepped recurrence rounds to one side of it
        grid = sorted(set(np.geomspace(1e-3, 1.0, 25).tolist() + (np.arange(1, 21) / 20).tolist()))
        ties = 0
        for p_ie in grid:
            for p_ei in grid:
                if p_ie == p_ei == 1.0:
                    continue  # lam = -1 never closes; pinned above
                rates = FlipRates(p_ie, p_ei)
                lam = abs(1.0 - p_ie - p_ei)
                for x0 in (0.0, 0.1, 0.5, 0.9, 1.0):
                    for fraction in (0.5, 0.9, 0.99):
                        got = gap_closure_time(x0, rates, fraction)
                        want = closure_by_recurrence(x0, rates, fraction)
                        if got != want:
                            ties += 1
                            assert abs(got - want) == 1
                            assert any(math.isclose(lam**t, 1.0 - fraction, rel_tol=1e-9)
                                       for t in (got, got - 1))
        assert ties > 0

    def test_closure_zero_at_rounding_noise_start(self):
        # stationary_fraction is 0.7000000000000001, one ulp from the start; the
        # stepped recurrence cannot close 90% of a one-ulp gap
        rates = FlipRates(0.07, 0.03)
        assert gap_closure_time(0.7, rates) == 0
        with pytest.raises(ConvergenceError):
            closure_by_recurrence(0.7, rates, 0.9, max_iter=10_000)


class TestSimulate:
    def test_deterministic_given_seed(self):
        area = tort_area()
        pop = RulePopulation(300, 0.5)
        a = simulate(area, pop, periods=40, seed=123)
        b = simulate(area, pop, periods=40, seed=123)
        for name in ("t", "fraction_efficient", "disputes", "settlements", "trials"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_matters(self):
        area = tort_area()
        pop = RulePopulation(300, 0.5)
        a = simulate(area, pop, periods=40, seed=123)
        b = simulate(area, pop, periods=40, seed=124)
        assert not np.array_equal(a.trials, b.trials)

    def test_trace_shape_and_identities(self):
        area = tort_area()
        trace = simulate(area, RulePopulation(200, 0.4), periods=30, seed=9)
        assert list(trace.t) == list(range(31))
        assert trace.fraction_efficient[0] == 80 / 200
        assert trace.disputes[0] == 0 and trace.trials[0] == 0
        assert np.all(trace.settlements + trace.trials == trace.disputes)
        assert np.all((trace.fraction_efficient >= 0.0) & (trace.fraction_efficient <= 1.0))
        assert np.all(trace.disputes <= 200)

    def test_single_rule_lockstep_with_scalar_replay(self):
        # replay one rule by hand from its substream and demand identical columns
        area = tort_area(
            dispute_rate=0.7, cost_q=10.0, cost_g=10.0, belief_spread=0.4,
            overturn_prob_ie=0.6, overturn_prob_ei=0.3, fee_rule=FeeRule.ENGLISH,
        )
        population = RulePopulation(1, 1.0)
        trace = simulate(area, population, periods=60, seed=11)
        disputes, trials, efficient = replay_by_decide(area, population, 60, 11)
        assert trace.disputes[1:].tolist() == disputes
        assert trace.trials[1:].tolist() == trials
        assert trace.fraction_efficient[1:].tolist() == [float(e) for e in efficient]
        assert 0 < sum(trials) < 60 and 0 < sum(efficient) < 60

    @settings(max_examples=120, deadline=None)
    @given(
        area=tort_areas(),
        n_rules=st.integers(1, 4),
        fraction_efficient=st.floats(0.0, 1.0),
        periods=st.one_of(st.sampled_from([15, 16, 17, 47, 48, 49]), st.integers(1, 160)),
        seed=st.integers(0, 2**64 - 1),
        cost_cut=st.floats(0.0, 1.0),
    )
    # many rules flip in a period whose belief draw lies between the two thresholds,
    # where a trial depends on the state the period started in
    @example(area=tort_area(dispute_rate=0.9, stakes_multiplier=3.0, cost_q=20.0, cost_g=20.0,
                            belief_spread=0.5, overturn_prob_ie=0.9, overturn_prob_ei=0.5),
             n_rules=40, fraction_efficient=0.5, periods=49,
             seed=5, cost_cut=0.5)
    def test_population_lockstep_with_scalar_replay(
        self, area, n_rules, fraction_efficient, periods, seed, cost_cut,
    ):
        # every rule replayed alone with `decide`
        cost_delta = cost_cut * min(area.cost_q, area.cost_g)
        population = RulePopulation(n_rules, fraction_efficient)
        trace = simulate(area, population, periods=periods, seed=seed, cost_delta=cost_delta)
        disputes, trials, efficient = replay_by_decide(area, population, periods, seed,
                                                       cost_delta)
        assert trace.disputes[1:].tolist() == disputes
        assert trace.trials[1:].tolist() == trials
        assert trace.fraction_efficient[1:].tolist() == [e / n_rules for e in efficient]

    def test_growing_population_preserves_early_streams(self):
        # stream i is keyed by rule index, so adding rules must not move rule 0's draws
        a = substream(42, 0).random(12)
        b = substream(42, 0).random(12)
        assert np.array_equal(a, b)
        assert not np.array_equal(substream(42, 0).random(12), substream(42, 1).random(12))

    def test_periods_validated(self):
        with pytest.raises(DomainError):
            simulate(tort_area(), RulePopulation(10, 0.5), periods=0)

    def test_periods_true_runs_one_period(self):
        # bool is an int everywhere in the bounds layer, so True means 1
        pop = RulePopulation(10, 0.5)
        assert_same_trace(simulate(tort_area(), pop, periods=True, seed=2),
                          simulate(tort_area(), pop, periods=1, seed=2))


def assert_same_trace(a: EvolutionTrace, b: EvolutionTrace) -> None:
    for f in dataclasses.fields(EvolutionTrace):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


class TestRuleBlocks:
    """simulate steps _RULE_BLOCK rules at a time; the trace must not show where blocks end."""

    def run(self, n, periods):
        area = tort_area(dispute_rate=0.9, overturn_prob_ie=0.6, overturn_prob_ei=0.3)
        game = FrivolousConfig(f_o=1.0, f_q=1.0, d=10.0, s=5.0, j=100.0, c_p=10.0)
        return simulate(area, RulePopulation(n, 0.37), periods=periods, seed=17,
                        frivolous=FrivolousStream(game=game, filers_per_period=3))

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_small_blocks_match_the_default(self, monkeypatch, block):
        default = self.run(130, 40)
        monkeypatch.setattr(evolution, "_RULE_BLOCK", block)
        assert_same_trace(self.run(130, 40), default)

    def test_default_blocks_match_one_block_for_all_rules(self, monkeypatch):
        n = 2 * evolution._RULE_BLOCK + 3
        blocked = self.run(n, 12)
        monkeypatch.setattr(evolution, "_RULE_BLOCK", n)
        assert_same_trace(blocked, self.run(n, 12))

    @pytest.mark.parametrize("n, periods", [(4099, 130), (2000, 200)])
    def test_peak_memory_is_one_block_of_draws(self, n, periods):
        # besides one block's draws, simulate holds only arrays of one value per rule;
        # an array with a periods axis beside them would take at least 2000 x 130 bytes
        self.run(n, periods)  # warm-up: first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            self.run(n, periods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 24 * min(n, evolution._RULE_BLOCK) * periods < 2**16


class TestFrivolousRider:
    def stream(self, **game_overrides) -> FrivolousStream:
        base = dict(f_o=1.0, f_q=1.0, d=10.0, s=5.0, j=100.0, c_p=10.0)
        base.update(game_overrides)
        return FrivolousStream(game=FrivolousConfig(**base), filers_per_period=7)

    def test_rule_columns_byte_identical_with_and_without_stream(self):
        area = tort_area()
        pop = RulePopulation(150, 0.5)
        bare = simulate(area, pop, periods=50, seed=31)
        ride = simulate(area, pop, periods=50, seed=31, frivolous=self.stream())
        assert bare.trials.tobytes() == ride.trials.tobytes()
        assert bare.disputes.tobytes() == ride.disputes.tobytes()
        assert bare.settlements.tobytes() == ride.settlements.tobytes()
        assert bare.fraction_efficient.tobytes() == ride.fraction_efficient.tobytes()

    def test_settling_stream_counts(self):
        trace = simulate(tort_area(), RulePopulation(20, 0.5), periods=10, seed=1,
                         frivolous=self.stream())
        assert trace.frivolous_filings[0] == 0
        assert np.all(trace.frivolous_filings[1:] == 7)
        assert np.all(trace.frivolous_settlements[1:] == 7)
        assert np.all(trace.frivolous_drops[1:] == 0)

    def test_deterred_stream_counts(self):
        trace = simulate(tort_area(), RulePopulation(20, 0.5), periods=10, seed=1,
                         frivolous=self.stream(s=20.0))
        assert np.all(trace.frivolous_filings == 0)
        assert np.all(trace.frivolous_settlements == 0)
        assert np.all(trace.frivolous_drops == 0)

    def test_dropping_stream_counts(self):
        # zero filing fee, defense is cheapest response: filers file and then drop
        trace = simulate(tort_area(), RulePopulation(20, 0.5), periods=10, seed=1,
                         frivolous=self.stream(f_o=0.0, s=20.0))
        assert np.all(trace.frivolous_filings[1:] == 7)
        assert np.all(trace.frivolous_settlements[1:] == 0)
        assert np.all(trace.frivolous_drops[1:] == 7)


class TestMeanPathAgreement:
    def test_simulated_mean_tracks_expected_path(self):
        # zero costs make Pr[trial] exactly 1/2, so rates are exactly (0.02, 0.01)
        area = tort_area(dispute_rate=1.0, cost_q=0.0, cost_g=0.0, belief_spread=0.25,
                         overturn_prob_ie=0.04, overturn_prob_ei=0.02)
        n = 2000
        trace = simulate(area, RulePopulation(n, 0.5), periods=150, seed=8)
        path = expected_path(0.5, FlipRates(0.02, 0.01), 150)
        for t in range(0, 151, 15):
            sigma = math.sqrt(path[t] * (1.0 - path[t]) / n)
            assert abs(trace.fraction_efficient[t] - path[t]) <= 4.0 * sigma


class TestDrawSizeGuard:
    def test_oversized_run_is_refused_before_allocating(self, monkeypatch):
        def no_empty(*args, **kwargs):
            raise AssertionError("np.empty called")

        monkeypatch.setattr(np, "empty", no_empty)
        with pytest.raises(DomainError, match="above the limit of 2\\^32"):
            simulate(tort_area(), RulePopulation(10**6, 0.5), periods=10**5)

    def test_limit_is_24_bytes_per_rule_period_up_to_2_pow_32(self):
        from lexsim.evolution import _RULE_BLOCK, _check_draw_size

        # the cap is on one block of rules, so only min(n_rules, _RULE_BLOCK) counts
        most = 2**32 // 24
        _check_draw_size(1, most)
        with pytest.raises(DomainError):
            _check_draw_size(1, most + 1)
        per_block = 2**32 // (24 * _RULE_BLOCK)
        for n in (_RULE_BLOCK, _RULE_BLOCK + 1, 2**63 - 1):
            _check_draw_size(n, per_block)
            with pytest.raises(DomainError) as exc:
                _check_draw_size(n, per_block + 1)
        assert str(exc.value) == (
            f"a block of {_RULE_BLOCK} rules x {per_block + 1} periods needs "
            f"{24 * _RULE_BLOCK * (per_block + 1)} bytes of draws (24 per rule-period), "
            f"above the limit of 2^32 = {2**32}")
