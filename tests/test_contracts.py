"""Contract-completeness equilibrium: closed forms, shocks, and solver behavior."""

import math
import random

import numpy as np
import pytest

from lexsim import (
    AiShock,
    ConvergenceError,
    DomainError,
    GapCurve,
    apply_shock,
    completeness_response,
    marginal_benefit,
    marginal_cost,
    solve_completeness,
)

# unit curve (1,1,1,1): 1 - g = g/(1 - g)  =>  g^2 - 3g + 1 = 0  =>  g = (3 - sqrt 5)/2
GOLDEN_G = (3.0 - math.sqrt(5.0)) / 2.0


class TestValidation:
    def test_rejects_nonpositive_parameters(self):
        for field in ("b_scale", "beta", "k_scale", "kappa"):
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                kwargs = dict(b_scale=1.0, beta=1.0, k_scale=1.0, kappa=1.0)
                kwargs[field] = bad
                with pytest.raises(DomainError):
                    GapCurve(**kwargs)

    def test_shock_bounds(self):
        AiShock(0.0, 0.0)
        AiShock(0.99, 0.99)
        for bad in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(DomainError):
                AiShock(delta_contracting=bad)
            with pytest.raises(DomainError):
                AiShock(delta_litigation=bad)

    def test_marginal_domains(self):
        curve = GapCurve(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            marginal_benefit(-0.01, curve)
        with pytest.raises(DomainError):
            marginal_benefit(1.01, curve)
        with pytest.raises(DomainError):
            marginal_cost(1.0, curve)

    def test_tolerance_must_be_positive(self):
        curve = GapCurve(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            solve_completeness(curve, tolerance=0.0)
        with pytest.raises(DomainError):
            solve_completeness(curve, tolerance=-1e-9)


class TestMarginals:
    def test_endpoint_values(self):
        curve = GapCurve(2.5, 1.3, 0.7, 2.0)
        assert marginal_benefit(0.0, curve) == 2.5
        assert marginal_benefit(1.0, curve) == 0.0
        assert marginal_cost(0.0, curve) == 0.0

    def test_monotone_directions(self):
        curve = GapCurve(1.7, 0.8, 1.1, 1.9)
        gs = [i / 50 for i in range(50)]
        mb = [marginal_benefit(g, curve) for g in gs]
        mc = [marginal_cost(g, curve) for g in gs]
        assert all(a >= b for a, b in zip(mb, mb[1:]))
        assert all(a <= b for a, b in zip(mc, mc[1:]))


class TestSolve:
    def test_unit_curve_hits_golden_ratio_complement(self):
        sol = solve_completeness(GapCurve(1.0, 1.0, 1.0, 1.0))
        assert sol.g_star == pytest.approx(GOLDEN_G, abs=1e-12)

    def test_doubled_benefit_crosses_at_one_half(self):
        # 2(1-g) = g/(1-g)  =>  2g^2 - 5g + 2 = 0  =>  g = 1/2
        sol = solve_completeness(GapCurve(2.0, 1.0, 1.0, 1.0))
        assert sol.g_star == pytest.approx(0.5, abs=1e-12)

    def test_squared_benefit_matches_cubic_root(self):
        # (1-g)^2 = g/(1-g)  =>  (1-g)^3 = g  =>  g^3 - 3g^2 + 4g - 1 = 0
        roots = np.roots([1.0, -3.0, 4.0, -1.0])
        real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1]
        assert len(real) == 1
        sol = solve_completeness(GapCurve(1.0, 2.0, 1.0, 1.0))
        assert sol.g_star == pytest.approx(real[0], abs=1e-10)

    def test_solution_fields_consistent(self):
        curve = GapCurve(1.4, 0.6, 0.9, 2.2)
        sol = solve_completeness(curve)
        assert 0.0 < sol.g_star < 1.0
        assert sol.residual <= 1e-9
        assert sol.iterations >= 50  # ran to float convergence, not tolerance
        mb = marginal_benefit(sol.g_star, curve)
        mc = marginal_cost(sol.g_star, curve)
        assert sol.level == pytest.approx(mb, rel=1e-12)
        assert sol.level == pytest.approx(mc, rel=1e-9)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            solve_completeness(GapCurve(1.0, 1.0, 1.0, 1.0), tolerance=1e-30)

    def test_steep_curve_near_one_solves(self):
        # bisection reaches adjacent floats at g* = 1 - 8.4e-6, where one float step
        # moves MC by more than 1e-9; the gate scales with the level, 344.5
        curve = GapCurve(733.0285545714837, 0.0645970488151061, 0.002893833492050116,
                         0.7509342157386577)
        sol = solve_completeness(curve)
        assert sol.g_star == pytest.approx(1.0 - 8.4e-6, abs=1e-7)
        assert sol.level == pytest.approx(344.5, rel=1e-3)
        assert 1e-9 < sol.residual <= 1e-9 * sol.level

    def test_curve_too_extreme_to_bracket(self):
        with pytest.raises(ConvergenceError) as exc:
            solve_completeness(GapCurve(1e300, 0.05, 1e-300, 1.0))
        assert str(exc.value).startswith("marginal cost never overtakes marginal benefit")

    def test_single_crossing_on_grid(self):
        rng = random.Random(20817)
        gs = np.arange(1, 20_000) / 20_000.0
        for _ in range(25):
            curve = GapCurve(
                b_scale=rng.uniform(0.1, 10.0), beta=rng.uniform(0.25, 4.0),
                k_scale=rng.uniform(0.1, 10.0), kappa=rng.uniform(0.25, 4.0),
            )
            h = curve.b_scale * (1.0 - gs) ** curve.beta - curve.k_scale * gs**curve.kappa / (1.0 - gs)
            signs = np.sign(h)
            changes = int(np.count_nonzero(np.diff(signs)))
            assert changes == 1

    def test_scale_invariance(self):
        rng = random.Random(911)
        for _ in range(20):
            curve = GapCurve(
                b_scale=rng.uniform(0.1, 10.0), beta=rng.uniform(0.25, 4.0),
                k_scale=rng.uniform(0.1, 10.0), kappa=rng.uniform(0.25, 4.0),
            )
            c = rng.choice([1e-3, 0.1, 7.3, 1e3])
            scaled = GapCurve(curve.b_scale * c, curve.beta, curve.k_scale * c, curve.kappa)
            g0 = solve_completeness(curve).g_star
            g1 = solve_completeness(scaled).g_star
            assert abs(g0 - g1) <= 1e-12

    def test_monotone_in_scales(self):
        base = dict(beta=1.5, kappa=1.5)
        gs_b = [solve_completeness(GapCurve(b_scale=b, k_scale=1.0, **base)).g_star
                for b in (0.3, 1.0, 3.0, 9.0)]
        assert all(a < b for a, b in zip(gs_b, gs_b[1:]))
        gs_k = [solve_completeness(GapCurve(b_scale=1.0, k_scale=k, **base)).g_star
                for k in (0.3, 1.0, 3.0, 9.0)]
        assert all(a > b for a, b in zip(gs_k, gs_k[1:]))


class TestShock:
    def test_apply_shock_arithmetic(self):
        curve = GapCurve(2.0, 1.0, 4.0, 3.0)
        shocked = apply_shock(curve, AiShock(delta_contracting=0.25, delta_litigation=0.5))
        assert shocked.b_scale == 1.0
        assert shocked.k_scale == 3.0
        assert shocked.beta == curve.beta and shocked.kappa == curve.kappa

    def test_response_signs(self):
        curve = GapCurve(1.0, 1.0, 1.0, 1.0)
        up = completeness_response(curve, AiShock(delta_contracting=0.4))
        down = completeness_response(curve, AiShock(delta_litigation=0.4))
        both = completeness_response(curve, AiShock(0.4, 0.4))
        assert up > 0.0
        assert down < 0.0
        assert abs(both) <= 1e-9  # equal proportional cuts cancel

    def test_cancellation_across_curves(self):
        rng = random.Random(5150)
        for _ in range(10):
            curve = GapCurve(
                b_scale=rng.uniform(0.1, 10.0), beta=rng.uniform(0.25, 4.0),
                k_scale=rng.uniform(0.1, 10.0), kappa=rng.uniform(0.25, 4.0),
            )
            delta = rng.uniform(0.05, 0.9)
            assert abs(completeness_response(curve, AiShock(delta, delta))) <= 1e-9

    def test_response_shrinks_as_cost_curve_steepens(self):
        # a steeper MC makes g* less elastic in k_scale, so the same shock moves it less
        shock = AiShock(delta_contracting=0.5)
        magnitudes = [
            abs(completeness_response(GapCurve(1.0, 1.0, 1.0, kappa), shock))
            for kappa in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a >= b for a, b in zip(magnitudes, magnitudes[1:]))
