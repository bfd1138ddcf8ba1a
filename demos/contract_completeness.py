"""
How cheaper drafting and cheaper trials move contract completeness
==================================================================

Walks the gap-filling equilibrium: parties add contingencies until the
marginal benefit of the next clause equals its marginal cost, then we
perturb both sides of that trade-off and watch the optimum move.
"""

from lexsim import (
    AiShock,
    GapCurve,
    completeness_response,
    line_chart,
    marginal_benefit,
    marginal_cost,
    solve_completeness,
)

# a symmetric benchmark curve: benefit falls off linearly in the remaining
# gaps, cost blows up as the contract approaches full completeness
curve = GapCurve(b_scale=1.0, beta=1.0, k_scale=1.0, kappa=1.0)

baseline = solve_completeness(curve)
print("baseline completeness g*")
print(f"  g* = {baseline.g_star:.9f}")
print(f"  marginal value at the optimum = {baseline.level:.9f}")
print(f"  solver residual = {baseline.residual:.3g} after {baseline.iterations} bisections")
print()

# three shocks: drafting help only, litigation help only, and both at once
shocks = [
    ("cheaper drafting (30% cost cut)", AiShock(delta_contracting=0.3)),
    ("cheaper trials (30% benefit cut)", AiShock(delta_litigation=0.3)),
    ("both at 30%", AiShock(0.3, 0.3)),
]

print("shock responses (change in g*)")
for label, shock in shocks:
    change = completeness_response(curve, shock)
    print(f"  {label:36s} {change:+.9f}")
print()
print("cheaper drafting raises completeness, cheaper trials lower it, and")
print("equal shocks cancel: the two AI effects pull in opposite directions.")

# draw both marginal curves so the crossing is visible
g = [i / 200.0 for i in range(181)]
mb = [marginal_benefit(x, curve) for x in g]
mc = [marginal_cost(x, curve) for x in g]
svg = line_chart(
    [("marginal benefit", g, mb), ("marginal cost", g, mc)],
    title="gap-filling trade-off",
    x_label="completeness g",
    y_label="marginal value",
)
with open("contract_completeness.svg", "w") as fh:
    fh.write(svg)
print()
print("wrote contract_completeness.svg")
