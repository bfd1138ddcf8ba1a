"""Caseload composition when a flat cost cut hits every kind of case.

Shipping the good apples: subtract the same dollar amount from cheap and
expensive case types and the cheap ones get relatively cheaper, so the docket
tilts toward them. Each area's filing volume responds to its own fractional
price decline with a constant-elasticity rule,

    new_volume = share * (unit_cost / (unit_cost - reduction)) ** elasticity,

and shares are renormalized so the docket total is conserved. With equal
elasticities the ranking of share gains is exactly the inverse ranking of
unit costs; high-cost areas can lose share outright even as their absolute
volume grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, _Bounded, _check

_SHARE_SUM_SLACK = 1e-9
_FLAT_REDUCTION = {"ge": 0.0}


@dataclass(frozen=True)
class AreaShare(_Bounded):
    """One slice of the docket: its share, per-case cost, and filing elasticity."""

    name: str
    share: float = field(metadata={"ge": 0.0, "le": 1.0})
    unit_cost: float = field(metadata={"gt": 0.0})
    demand_elasticity: float = field(metadata={"gt": 0.0})


@dataclass(frozen=True)
class ShareShift:
    name: str
    old_share: float
    new_share: float


@dataclass(frozen=True)
class CompositionParams(_Bounded):  # a composition run: a config's "composition" block
    areas: list[AreaShare]
    flat_reduction: float = field(metadata=_FLAT_REDUCTION)

    def __post_init__(self):
        super().__post_init__()
        validate_composition(self.areas, self.flat_reduction)


def validate_composition(areas: list[AreaShare], flat_reduction: float) -> None:
    """Raise DomainError unless the docket and the cut are mutually admissible."""
    if not areas:
        raise DomainError("at least one area is required")
    names = [a.name for a in areas]
    if len(set(names)) != len(names):
        raise DomainError(f"area names must be unique: got {names!r}")
    total = sum(a.share for a in areas)
    if total > 1.0 + _SHARE_SUM_SLACK:
        raise DomainError(f"area shares sum to {total!r} > 1")
    if total == 0.0:
        raise DomainError("area shares sum to zero; nothing to shift")
    _check("flat_reduction", flat_reduction, _FLAT_REDUCTION)
    cheapest = min(a.unit_cost for a in areas)
    if flat_reduction >= cheapest:
        raise DomainError(
            f"flat_reduction={flat_reduction!r} wipes out the cheapest area's cost ({cheapest!r})"
        )


def shift_composition(areas: list[AreaShare], flat_reduction: float) -> list[ShareShift]:
    """New docket shares after the flat cut, input order preserved, total conserved."""
    validate_composition(areas, flat_reduction)
    old_total = sum(a.share for a in areas)
    volumes = []
    for a in areas:
        try:
            volumes.append(
                a.share * (a.unit_cost / (a.unit_cost - flat_reduction)) ** a.demand_elasticity)
        except OverflowError:
            raise DomainError(f"area {a.name!r}: its volume after the cut overflows") from None
    total = sum(volumes)
    if not math.isfinite(total):
        raise DomainError("the areas' volumes after the cut sum beyond float range")
    scale = old_total / total
    return [
        ShareShift(name=a.name, old_share=a.share, new_share=v * scale)
        for a, v in zip(areas, volumes)
    ]


def relative_price_change(areas: list[AreaShare], flat_reduction: float) -> list[tuple[str, float]]:
    """Fractional cost decline per area; larger for cheaper areas by construction."""
    validate_composition(areas, flat_reduction)
    return [(a.name, flat_reduction / a.unit_cost) for a in areas]
