"""Equilibrium completeness of contracts when courts fill the gaps.

A contract covers a fraction g of future contingencies and leaves the rest to
ex-post gap filling by courts. Drafting another contingency costs effort that
rises as the easy ones get used up; leaving it out costs expected litigation
later. The chosen completeness g* balances the two margins:

    marginal benefit   MB(g) = b_scale * (1 - g)**beta
    marginal cost      MC(g) = k_scale * g**kappa / (1 - g)

MB falls in g (the remaining gaps are ever less likely to bite) and MC rises
without bound as g -> 1 (the last contingencies are unforeseeable), so with
positive scales a unique interior crossing exists.

Drafting tools cut k_scale, which pushes g* up; cheaper dispute resolution
cuts b_scale (a gap is less costly to leave to the courts), which pushes g*
down. AiShock carries both levers so the offsetting case is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, DomainError, _Bounded, _check

_TOLERANCE = {"gt": 0.0}


@dataclass(frozen=True)
class GapCurve(_Bounded):
    """Shape of the drafting problem: MB and MC scales and curvatures."""

    b_scale: float = field(metadata={"gt": 0.0})
    beta: float = field(metadata={"gt": 0.0})
    k_scale: float = field(metadata={"gt": 0.0})
    kappa: float = field(metadata={"gt": 0.0})


@dataclass(frozen=True)
class AiShock(_Bounded):
    """Proportional cost reductions: drafting (contracting) and dispute (litigation).

    Each delta lies in [0, 1); a delta of d multiplies the corresponding scale
    by (1 - d). The default shock is no shock.
    """

    delta_contracting: float = field(default=0.0, metadata={"ge": 0.0, "lt": 1.0})
    delta_litigation: float = field(default=0.0, metadata={"ge": 0.0, "lt": 1.0})


@dataclass(frozen=True)
class EquilibriumParams(_Bounded):  # an equilibrium run: a config's "equilibrium" block
    curve: GapCurve
    shock: AiShock = AiShock()
    tolerance: float = field(default=1e-9, metadata=_TOLERANCE)


@dataclass(frozen=True)
class CompletenessSolution:
    """Solved crossing: g*, the common MB=MC level there, and solver diagnostics."""

    g_star: float
    level: float
    residual: float
    iterations: int


def marginal_benefit(g: float, curve: GapCurve) -> float:
    """Expected litigation cost avoided by covering the marginal contingency."""
    if not 0.0 <= g <= 1.0:
        raise DomainError(f"g must lie in [0, 1]: got {g!r}")
    return curve.b_scale * (1.0 - g) ** curve.beta


def marginal_cost(g: float, curve: GapCurve) -> float:
    """Drafting cost of the marginal contingency; diverges as g -> 1."""
    if not 0.0 <= g < 1.0:
        raise DomainError(f"g must lie in [0, 1): got {g!r}")
    return curve.k_scale * g**curve.kappa / (1.0 - g)


def apply_shock(curve: GapCurve, shock: AiShock) -> GapCurve:
    """Rescale the curve: contracting delta cuts k_scale, litigation delta cuts b_scale."""
    return GapCurve(
        b_scale=curve.b_scale * (1.0 - shock.delta_litigation),
        beta=curve.beta,
        k_scale=curve.k_scale * (1.0 - shock.delta_contracting),
        kappa=curve.kappa,
    )


def solve_completeness(curve: GapCurve, tolerance: float = 1e-9) -> CompletenessSolution:
    """Find the unique g in (0, 1) with MB(g) = MC(g) by bisection.

    The bracket [0, 1) is a guaranteed sign change: MB(0) = b_scale > 0 = MC(0)
    and MC dominates near 1. Bisection runs to full float convergence (until
    the midpoint collides with an endpoint), so two curves that are exact
    rescalings of each other agree to machine precision; `tolerance` only
    gates the final residual, |MB - MC| <= tolerance * max(1, level) at g*.
    """
    _check("tolerance", tolerance, _TOLERANCE)

    def h(g: float) -> float:
        return marginal_benefit(g, curve) - marginal_cost(g, curve)

    lo = 0.0
    hi = math.nextafter(1.0, 0.0)
    if not h(hi) < 0.0:
        raise ConvergenceError(
            "marginal cost never overtakes marginal benefit inside (0, 1); "
            "curve too extreme to bracket"
        )
    # invariant: h(lo) > 0 >= h(hi)
    iterations = 0
    while True:  # the ends meet as adjacent floats within 1074 halvings, even at 5e-324
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid

    r_lo, r_hi = abs(h(lo)), abs(h(hi))
    g_star, residual = (lo, r_lo) if r_lo <= r_hi else (hi, r_hi)
    level = 0.5 * (marginal_benefit(g_star, curve) + marginal_cost(g_star, curve))
    if residual > tolerance * max(1.0, level):
        raise ConvergenceError(
            f"bisection stalled with residual {residual:.3e} > tolerance {tolerance:.3e}"
        )
    return CompletenessSolution(g_star=g_star, level=level, residual=residual, iterations=iterations)


def completeness_response(curve: GapCurve, shock: AiShock, tolerance: float = 1e-9) -> float:
    """Change in g* caused by the shock: solve shocked minus solve baseline."""
    base = solve_completeness(curve, tolerance)
    shocked = solve_completeness(apply_shock(curve, shock), tolerance)
    return shocked.g_star - base.g_star
