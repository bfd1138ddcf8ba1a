"""
Litigation as selection: how a body of rules drifts toward efficiency
=====================================================================

Inefficient rules impose higher stakes, get challenged more often, and are
overturned more often. We simulate a population of rules under that
pressure, compare it with the closed-form expected path, and then cut trial
costs to speed the whole process up.
"""

import numpy as np

from lexsim import (
    AreaKind,
    FlipRates,
    LegalArea,
    RulePopulation,
    expected_path,
    flip_rates,
    gap_closure_time,
    line_chart,
    simulate,
    stationary_fraction,
)

# a tort area: no contracts to keep disputes out of court, high stakes when
# the governing rule is inefficient
area = LegalArea(
    name="negligence", kind=AreaKind.TORT, dispute_rate=0.8, stakes_j=100.0,
    stakes_multiplier=2.0, cost_q=18.0, cost_g=18.0, belief_spread=0.4,
    overturn_prob=0.5,
)

rates = flip_rates(area, n_samples=40_000, seed=3)
print("per-period flip rates")
print(f"  inefficient -> efficient: {rates.p_ie:.4f}")
print(f"  efficient -> inefficient: {rates.p_ei:.4f}")
print(f"  stationary efficient share: {stationary_fraction(rates):.4f}")
print()

# simulate 2000 rules for 200 periods and set the sample mean against the
# deterministic recursion
population = RulePopulation(n_rules=2000, fraction_efficient=0.5)
trace = simulate(area, population, periods=200, seed=7)
path = expected_path(0.5, rates, 200)
gaps = np.abs(trace.fraction_efficient - path)
print(f"simulated final share: {trace.fraction_efficient[-1]:.4f}")
print(f"largest gap to the expected path: {gaps.max():.4f}")
print(f"total disputes {int(trace.disputes.sum())}, "
      f"trials {int(trace.trials.sum())}")
print()

# cheaper trials raise the chance a dispute reaches judgment, which is the
# only step that can flip a rule
cheap = flip_rates(area, cost_delta=12.0, n_samples=40_000, seed=3)
t_base = gap_closure_time(0.5, rates)
t_cheap = gap_closure_time(0.5, cheap)
print("periods to close 90% of the gap to the stationary mix")
print(f"  at current costs:   {t_base}")
print(f"  with costs cut 12:  {t_cheap}")
print()
print("the selection channel runs through trials, so anything that makes")
print("trials cheaper makes the law converge faster.")

svg = line_chart(
    [
        ("simulated", trace.t, trace.fraction_efficient),
        ("expected", trace.t, path),
    ],
    title="efficient share of rules",
    x_label="period",
    y_label="fraction efficient",
)
with open("law_evolution.svg", "w") as fh:
    fh.write(svg)
print()
print("wrote law_evolution.svg")
