"""Nuisance filings: when a suit with no merit still extracts a settlement.

Sequence of play. A plaintiff of known-to-self type (frivolous or meritorious)
pays a filing cost (f_o or f_q) to file. The defendant, who cannot observe the
type, either settles for s, hires counsel at cost d, or ignores the filing and
eats a default judgment j. If the defendant defends, the plaintiff chooses to
drop or to proceed to trial at personal cost c_p, where a frivolous claim
recovers nothing and a meritorious one recovers j.

Solved backward:

  * a frivolous plaintiff facing a defense always drops (trial adds c_p for
    nothing), so a frivolous case never reaches trial;
  * a meritorious plaintiff proceeds exactly when j - c_p > 0;
  * the defendant compares s, d plus the expected judgment if a meritorious
    plaintiff would press on (weighted by belief_merit), and j, preferring
    Settle, then Defend, then Default on ties;
  * the plaintiff files when the anticipated response leaves them at least
    whole (payoff >= 0).

The extraction region is the wedge where defending costs more than settling
(roughly f_o <= s < d): a frivolous filing is profitable there even though
everyone knows it would lose at trial. play() analyzes the response at belief
0 by default, the pooled defendant who prices a filing as if frivolous; pass
belief_merit to study any screening belief.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, _Bounded, _check, _finite

_BELIEF = {"ge": 0.0, "le": 1.0}  # the defendant's prior that a filing has merit
_DELTA = {"ge": 0.0}  # a cut in the filing or the defense cost


class PlaintiffType(Enum):
    FRIVOLOUS = "frivolous"
    MERITORIOUS = "meritorious"


class DefendantAction(Enum):
    SETTLE = "settle"
    DEFEND = "defend"
    DEFAULT = "default"
    NONE = "none"  # plaintiff never filed


class FollowUp(Enum):
    DROP = "drop"
    TRIAL = "trial"
    NONE = "none"  # no defense to respond to


class RegionShift(Enum):
    MORE_FILINGS = "more_filings"
    FEWER_FILINGS = "fewer_filings"
    UNCHANGED = "unchanged"


@dataclass(frozen=True)
class FrivolousConfig(_Bounded):
    """Costs of the filing game; defense_trial_cost is what a lost defended trial
    adds on top of the judgment (0 keeps counsel cost d as the whole defense bill)."""

    f_o: float = field(metadata={"ge": 0.0})  # filing cost, frivolous plaintiff
    f_q: float = field(metadata={"ge": 0.0})  # filing cost, meritorious plaintiff
    d: float = field(metadata={"ge": 0.0})  # defendant's cost of mounting a defense
    s: float = field(metadata={"ge": 0.0})  # settlement demand on the table
    j: float = field(metadata={"gt": 0.0})  # judgment if the plaintiff wins (or wins by default)
    c_p: float = field(metadata={"ge": 0.0})  # plaintiff's cost of actually going to trial
    defense_trial_cost: float = field(default=0.0, metadata={"ge": 0.0})

    def __post_init__(self):
        super().__post_init__()
        try:  # summed as `_payoffs` sums a defended trial's cost
            ok = _finite(self.d + self.j + self.defense_trial_cost)
        except OverflowError:  # an int sum that converts to no float
            ok = False
        if not ok:
            raise DomainError("d + j + defense_trial_cost must lie within float range")


@dataclass(frozen=True)
class FilingShift(_Bounded):
    """Cuts in the frivolous plaintiff's filing cost (delta_f) and the defense cost (delta_d)."""

    delta_f: float = field(default=0.0, metadata=_DELTA)
    delta_d: float = field(default=0.0, metadata=_DELTA)


@dataclass(frozen=True)
class FrivolousParams(_Bounded):  # a frivolous run: a config's "frivolous" block
    game: FrivolousConfig
    belief: float | None = field(default=None, metadata=_BELIEF)
    shift: FilingShift | None = None


@dataclass(frozen=True)
class GameOutcome:
    plaintiff_type: PlaintiffType
    filed: bool
    defendant_action: DefendantAction
    plaintiff_followup: FollowUp
    plaintiff_payoff: float
    defendant_payoff: float


def plaintiff_followup(plaintiff_type: PlaintiffType, config: FrivolousConfig) -> FollowUp:
    """Drop or proceed once the defendant has lawyered up."""
    if plaintiff_type is PlaintiffType.FRIVOLOUS:
        return FollowUp.DROP  # trial pays -c_p on top of a sure loss
    if config.j - config.c_p > 0.0:
        return FollowUp.TRIAL
    return FollowUp.DROP


def defendant_best_response(belief_merit: float, config: FrivolousConfig) -> DefendantAction:
    """Cheapest of settling, defending, defaulting at the given merit belief.

    Ties break toward Settle, then Defend: at equal cost the defendant takes
    the certain, litigation-free exit.
    """
    _check("belief_merit", belief_merit, _BELIEF)
    defend_cost = config.d
    if plaintiff_followup(PlaintiffType.MERITORIOUS, config) is FollowUp.TRIAL:
        defend_cost = config.d + belief_merit * (config.j + config.defense_trial_cost)
    options = [
        (config.s, 0, DefendantAction.SETTLE),
        (defend_cost, 1, DefendantAction.DEFEND),
        (config.j, 2, DefendantAction.DEFAULT),
    ]
    return min(options)[2]


def plaintiff_files(
    plaintiff_type: PlaintiffType, anticipated: DefendantAction, config: FrivolousConfig
) -> bool:
    """File when the anticipated response covers the filing cost (weakly)."""
    return _payoffs(plaintiff_type, anticipated, config)[1] >= 0.0


def _payoffs(
    plaintiff_type: PlaintiffType, response: DefendantAction, config: FrivolousConfig
) -> tuple[FollowUp, float, float]:
    """The follow-up, plaintiff's payoff net of the fee and defendant's cost under response."""
    fee = config.f_o if plaintiff_type is PlaintiffType.FRIVOLOUS else config.f_q
    if response is DefendantAction.SETTLE:
        return FollowUp.NONE, config.s - fee, config.s
    if response is DefendantAction.DEFAULT:
        return FollowUp.NONE, config.j - fee, config.j
    if response is not DefendantAction.DEFEND:
        raise DomainError(f"anticipated response must be a real action: got {response!r}")
    if plaintiff_followup(plaintiff_type, config) is FollowUp.DROP:
        return FollowUp.DROP, -fee, config.d
    trial_cost = config.d + config.j + config.defense_trial_cost
    return FollowUp.TRIAL, config.j - fee - config.c_p, trial_cost


def play(
    plaintiff_type: PlaintiffType,
    config: FrivolousConfig,
    belief_merit: float | None = None,
) -> GameOutcome:
    """Resolve the whole game for one plaintiff type.

    belief_merit defaults to 0: the pooled defendant prices every filing as
    frivolous, the posture under which nuisance extraction is starkest.
    """
    belief = 0.0 if belief_merit is None else belief_merit
    response = defendant_best_response(belief, config)
    followup, payoff, cost = _payoffs(plaintiff_type, response, config)
    if payoff < 0.0:  # the plaintiff does not file
        return GameOutcome(plaintiff_type, False, DefendantAction.NONE, FollowUp.NONE, 0.0, 0.0)
    return GameOutcome(plaintiff_type, True, response, followup, payoff, -cost)


def filing_region_shift(
    config: FrivolousConfig, delta_f: float, delta_d: float
) -> RegionShift:
    """Direction the frivolous extraction region moves when costs fall.

    The region is the wedge of demands with f_o <= s < d; its width d - f_o
    grows by delta_f - delta_d when filing gets cheaper by delta_f and
    defending by delta_d. Classified by that sign, so equal reductions leave
    the region unchanged.
    """
    for name, delta, ceiling in (("delta_f", delta_f, config.f_o), ("delta_d", delta_d, config.d)):
        _check(name, delta, _DELTA)
        if delta > ceiling:
            raise DomainError(f"{name}={delta!r} would push a cost below zero (cap {ceiling!r})")
    change = delta_f - delta_d
    if change > 0.0:
        return RegionShift.MORE_FILINGS
    if change < 0.0:
        return RegionShift.FEWER_FILINGS
    return RegionShift.UNCHANGED


def _check_frivolous(vals, errs, raw):  # a frivolous block's rules across fields, for config
    game, shift = vals.get("game"), vals.get("shift")
    if game is None or shift is None:
        return
    if shift.delta_f > game.f_o:
        errs.append(("frivolous.shift.delta_f",
                     f"must be <= f_o ({game.f_o!r}), got {shift.delta_f!r}"))
    if shift.delta_d > game.d:
        errs.append(("frivolous.shift.delta_d",
                     f"must be <= d ({game.d!r}), got {shift.delta_d!r}"))
