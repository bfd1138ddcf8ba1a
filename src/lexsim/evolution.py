"""Selective relitigation and the drift of legal rules toward efficiency.

Each legal rule in an area is either efficient or inefficient. Inefficient
rules impose larger losses on the parties they govern, so disputes under them
are fought at higher stakes (stakes_multiplier >= 1), reach trial more often,
and hand courts more chances to overturn them. Efficient rules are litigated
at base stakes and flip back only rarely. Every rule is an independent
two-state Markov chain; the population fraction of efficient rules drifts
toward p_ie / (p_ie + p_ei).

Per period, each rule independently:

  1. draws a dispute with the area's effective dispute rate (the raw rate
     gated by 1 - g* in areas whose gaps can be contracted away);
  2. draws a mutual-optimism shock eps ~ U[-spread, +spread], giving beliefs
     p_q = center + eps, p_g = center - eps (clipped to [0, 1]);
  3. settles or tries the case under the area's fee rule at the rule's stakes;
  4. on a trial, flips state with the overturn probability for its direction.

Step 3 is monotone in the belief draw, so it is decided by one exact
threshold per stakes level: `simulate` compares each period's draws with it,
and `trial_fractions` counts the estimator's draws at or above it.

Randomness. Rule i draws from Philox substream i of the run seed, three
uniforms per period in a fixed order (dispute, belief, flip), so a trace is
bit-reproducible and growing the population never reshuffles existing rules'
draws. The flip-rate estimator owns substream 2^63. An optional stream of
frivolous filers rides along in its own trace columns; those cases never
reach trial, so rule columns are untouched by construction.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .contracts import _TOLERANCE, AiShock, GapCurve, apply_shock, solve_completeness
from .errors import ConvergenceError, DomainError, _Bounded, _check, _finite
from .frivolous import _BELIEF, DefendantAction, FollowUp, FrivolousConfig, PlaintiffType, play
from .rng import _check_ids, _generator, fill_substreams
from .settlement import FeeRule, _bounds

if TYPE_CHECKING:
    import numpy as np

_STREAM_RATES = 2**63  # reserved substream of the flip-rate estimator
_MAX_CLOSURE_ITER = 10**7
_RULE_BLOCK = 2048  # rules simulate steps together, each block on its own draw array
_MAX_DRAW_BYTES = 2**32  # cap on one block's draw array, 24 B per rule-period
_INT64_MAX = 2**63 - 1  # the trace's count columns are int64
_COST_DELTA = {"ge": 0.0}  # a cut in both parties' trial costs
_PERIODS = {"ge": 1, "integer": True}
# array sizes numpy can take, np.arange's float length exactly too; memory decides the rest
_N_SAMPLES = {"ge": 1, "le": 2**53 - 1, "integer": True}
_PATH_PERIODS = {"ge": 0, "le": 2**53 - 1, "integer": True}
_FRACTION = {"ge": 0.0, "le": 1.0}  # an efficient fraction of the rules


class AreaKind(Enum):
    TORT = "tort"
    CONTRACT = "contract"
    PROPERTY = "property"


@dataclass(frozen=True)
class LegalArea(_Bounded):
    """A body of law: dispute flow, stakes, costs, beliefs, and review odds.

    Contract-like kinds (contract, property) must carry a gap_curve; their
    dispute flow is gated by how complete contracts get. Tort parties are
    strangers ex ante, so tort carries no curve and no gating.
    """

    name: str
    kind: AreaKind
    dispute_rate: float = field(metadata={"gt": 0.0, "le": 1.0})
    stakes_j: float = field(metadata={"gt": 0.0})
    stakes_multiplier: float = field(default=1.0, metadata={"ge": 1.0})
    cost_q: float = field(default=0.0, metadata={"ge": 0.0})
    cost_g: float = field(default=0.0, metadata={"ge": 0.0})
    belief_spread: float = field(default=0.0, metadata={"ge": 0.0})
    belief_center: float = field(default=0.5, metadata={"ge": 0.0, "le": 1.0})
    overturn_prob: float = field(default=0.0, metadata={"ge": 0.0, "le": 1.0})
    overturn_prob_ie: float | None = field(default=None, metadata={"ge": 0.0, "le": 1.0})
    overturn_prob_ei: float | None = field(default=None, metadata={"ge": 0.0, "le": 1.0})
    fee_rule: FeeRule = FeeRule.AMERICAN
    gap_curve: GapCurve | None = None

    def __post_init__(self):
        super().__post_init__()
        stakes = self.stakes_j * self.stakes_multiplier  # as `_thresholds` takes it; exact for ints
        if not (_finite(stakes) and math.isfinite(float(stakes) + self.cost_q + self.cost_g)):
            raise DomainError("stakes_j x stakes_multiplier + cost_q + cost_g "
                              "must lie within float range")
        if self.kind is AreaKind.TORT and self.gap_curve is not None:
            raise DomainError("tort areas cannot carry a gap_curve")
        if self.kind is not AreaKind.TORT and self.gap_curve is None:
            raise DomainError(f"{self.kind.value} areas must carry a gap_curve")

    @property
    def q_ie(self) -> float:
        """Overturn probability of a tried inefficient rule."""
        return self.overturn_prob if self.overturn_prob_ie is None else self.overturn_prob_ie

    @property
    def q_ei(self) -> float:
        """Overturn probability of a tried efficient rule."""
        return self.overturn_prob if self.overturn_prob_ei is None else self.overturn_prob_ei


@dataclass(frozen=True)
class RulePopulation(_Bounded):
    n_rules: int = field(metadata={"ge": 1, "integer": True})
    fraction_efficient: float = field(metadata={"ge": 0.0, "le": 1.0})

    def __post_init__(self):
        if isinstance(self.n_rules, int) and self.n_rules >= _STREAM_RATES:
            raise DomainError(f"n_rules must stay below 2^63: got {self.n_rules!r}")
        super().__post_init__()

    @property
    def initial_efficient_count(self) -> int:
        """Integer head count, nearest with .5 up and at most n_rules (a bound that binds
        only from 2^52 rules on); the first this-many rules start efficient."""
        return min(self.n_rules, int(math.floor(self.fraction_efficient * self.n_rules + 0.5)))


@dataclass(frozen=True)
class FlipRates(_Bounded):
    """Per-period transition probabilities of one rule's efficiency state."""

    p_ie: float = field(metadata={"ge": 0.0, "le": 1.0})  # inefficient -> efficient
    p_ei: float = field(metadata={"ge": 0.0, "le": 1.0})  # efficient -> inefficient


@dataclass(frozen=True)
class FrivolousStream(_Bounded):
    """Fixed count of nuisance filers appended to each period of a trace."""

    game: FrivolousConfig
    filers_per_period: int = field(metadata={"ge": 0, "le": _INT64_MAX, "integer": True})
    belief: float | None = field(default=None, metadata=_BELIEF)


@dataclass(frozen=True)
class EvolveParams(_Bounded):  # an evolve run: a config's "evolve" block
    area: LegalArea
    population: RulePopulation
    periods: int = field(metadata=_PERIODS)
    shock: AiShock = AiShock()
    cost_delta: float = field(default=0.0, metadata=_COST_DELTA)
    frivolous: FrivolousStream | None = None
    tolerance: float = field(default=1e-9, metadata=_TOLERANCE)


@dataclass
class EvolutionTrace:
    """Period-by-period record; row 0 is the initial state, rows 1..periods follow."""

    area_name: str
    seed: int
    n_rules: int
    t: np.ndarray
    fraction_efficient: np.ndarray
    disputes: np.ndarray
    settlements: np.ndarray
    trials: np.ndarray
    frivolous_filings: np.ndarray
    frivolous_settlements: np.ndarray
    frivolous_drops: np.ndarray


def effective_dispute_rate(
    area: LegalArea, shock: AiShock = AiShock(), tolerance: float = 1e-9
) -> float:
    """Dispute flow after contracting away what can be contracted away.

    Contract-like areas litigate only the 1 - g* of contingencies left
    ungoverned at the (possibly shocked) equilibrium completeness; tort flow
    is the raw rate.
    """
    if area.gap_curve is None:
        return area.dispute_rate
    solution = solve_completeness(apply_shock(area.gap_curve, shock), tolerance)
    return area.dispute_rate * (1.0 - solution.g_star)


def _party_costs(area: LegalArea, cost_delta: float) -> tuple[float, float]:
    _check("cost_delta", cost_delta, _COST_DELTA)
    if cost_delta > min(area.cost_q, area.cost_g):
        raise DomainError(
            f"cost_delta={cost_delta!r} exceeds a party cost "
            f"(cost_q={area.cost_q!r}, cost_g={area.cost_g!r})"
        )
    return area.cost_q - cost_delta, area.cost_g - cost_delta


def _trial_threshold(area: LegalArea, stakes: float, c_q: float, c_g: float) -> float:
    """Least belief draw that `decide` tries at these stakes; 1.0 if it tries none.

    A draw u is k * 2^-53 for an integer k in [0, 2^53), so a search over k, keyed
    by whether the draw is tried, finds the threshold. It is exact because the key
    is monotone in u: every step from u to `upper - lower` is an IEEE operation
    monotone in its operand, and rounding keeps that order. eps = (2u - 1) * spread
    never falls as u rises, so the clipped p_q never falls and p_g never rises;
    under both fee rules `lower` never falls as p_q rises and `upper` never rises
    as p_g falls, so the width never rises. `LegalArea` keeps stakes plus costs in
    float range, so both ends are finite and the width is never NaN (it may
    overflow to -inf or inf, which keep the order). A case is tried when the width
    is below 0, so u is tried exactly when u >= the threshold.

    The search starts at the closed form. Unclipped, the width is C - 2 eps J', with
    C = c_q + c_g and J' the stakes (plus C under the English rule), so the key flips
    near u* = 0.5 + C / (4 spread J'). It probes k0 = u* 2^53 clamped into [0, 2^53),
    or 2^53 - 1 if u* is undefined or past float range, gallops away in steps of 1,
    2, ... 32 until the key flips, then bisects that bracket, or the rest of the range
    if it never flipped: at most 1 + 6 + 53 = 60 probes. Where the beliefs clip at k0
    (center -+ eps outside [0, 1]) the width is not C - 2 eps J' there and u* is no
    guide, so it skips the gallop and bisects the rest of the range: at most 1 + 53
    = 54 probes. Each probe narrows [lo, hi] by the key's answer alone, so exactness
    rests on monotonicity only: the estimate just picks where to probe.
    """
    center, spread, fee_rule = area.belief_center, area.belief_spread, area.fee_rule
    c = c_q + c_g
    span = 4.0 * spread * (stakes + c if fee_rule is FeeRule.ENGLISH else stakes)
    u = 0.5 + c / span if span else math.inf
    k = 2**53 - 1 if not u * 2**53 < 2**53 - 1 else max(int(u * 2**53), 0)

    def tried(k: int) -> bool:  # beliefs clipped to [0, 1] as min(max(p, 0.0), 1.0) would
        eps = (2.0 * math.ldexp(k, -53) - 1.0) * spread
        p_q, p_g = center + eps, center - eps
        p_q = 0.0 if p_q < 0.0 else 1.0 if p_q > 1.0 else p_q
        p_g = 0.0 if p_g < 0.0 else 1.0 if p_g > 1.0 else p_g
        lower, upper = _bounds(p_q, p_g, stakes, c_q, c_g, fee_rule)
        return not upper - lower >= 0.0  # a float past float range is inf, as in `decide`

    lo, hi, step = 0, 2**53, 1  # the threshold's k lies in [lo, hi]; 2^53 if none is tried
    eps = (2.0 * math.ldexp(k, -53) - 1.0) * spread  # as `tried` computes it at k0
    gallop = 0.0 <= center + eps <= 1.0 and 0.0 <= center - eps <= 1.0
    for _ in range(7 if gallop else 1):  # the estimate, then up to 6 gallop steps
        if not lo <= k < hi:
            break
        if tried(k):
            hi, k = k, k - step
        else:
            lo, k = k + 1, k + step
        step *= 2
    return math.ldexp(lo + bisect.bisect_left(range(lo, hi), True, key=tried), -53)


def _thresholds(area: LegalArea, cost_delta: float) -> tuple[float, float]:
    """(u_ineff, u_eff): the trial thresholds at inefficient and efficient stakes."""
    c_q, c_g = _party_costs(area, cost_delta)
    return tuple(_trial_threshold(area, float(stakes), c_q, c_g)
                 for stakes in (area.stakes_j * area.stakes_multiplier, area.stakes_j))


@functools.lru_cache(maxsize=1)
def _rate_draws(seed: int, n_samples: int) -> np.ndarray:
    """`substream(seed, _STREAM_RATES).random(n_samples)`, read-only: the estimator's draws.

    The cache keys on equality, where True and 1.0 equal 1, so a caller checks
    `seed` with `_check_ids` before it asks.
    """
    u = _generator(seed, _STREAM_RATES).random(n_samples)
    u.flags.writeable = False
    return u


def trial_fractions(
    area: LegalArea,
    cost_delta: float = 0.0,
    n_samples: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo Pr[trial | dispute] at (inefficient, efficient) stakes.

    Both stakes levels reuse the same belief draws, so a cost cut moves the
    two estimates together and their comparison is noise-free. Each level
    counts the draws at or above its threshold, as `simulate` decides them.

    The draws depend on `(seed, n_samples)` alone, so calls at one such pair
    share one read-only draw array: the last one asked for, 8 bytes per sample,
    kept until a call with another pair.
    """
    import numpy as np

    thresholds = _thresholds(area, cost_delta)
    _check("n_samples", n_samples, _N_SAMPLES)
    n_samples = int(n_samples)  # a bool passes the check as an int
    _check_ids(seed, _STREAM_RATES)
    u = _rate_draws(seed, n_samples)
    return tuple(np.count_nonzero(u >= x) / n_samples for x in thresholds)


def flip_rates(
    area: LegalArea,
    shock: AiShock = AiShock(),
    cost_delta: float = 0.0,
    n_samples: int = 10_000,
    seed: int = 0,
) -> FlipRates:
    """Per-period flip probabilities: dispute rate x Pr[trial] x overturn odds."""
    rate = effective_dispute_rate(area, shock)
    frac_ie, frac_ei = trial_fractions(area, cost_delta, n_samples, seed)
    return FlipRates(p_ie=rate * frac_ie * area.q_ie, p_ei=rate * frac_ei * area.q_ei)


def stationary_fraction(rates: FlipRates) -> float:
    """Long-run efficient fraction p_ie / (p_ie + p_ei)."""
    total = rates.p_ie + rates.p_ei
    if total == 0.0:
        raise DomainError("both flip rates are zero; the stationary fraction is undefined")
    return rates.p_ie / total


def expected_path(x0: float, rates: FlipRates, periods: int) -> np.ndarray:
    """Mean path x_{t+1} = x_t (1 - p_ei) + (1 - x_t) p_ie, length periods+1.

    Closed form x* + (x0 - x*) (1 - p_ie - p_ei)^t with path[0] = x0; flat if no rule flips.
    """
    import numpy as np

    _check("x0", x0, _FRACTION)
    _check("periods", periods, _PATH_PERIODS)
    if rates.p_ie + rates.p_ei == 0.0:
        return np.full(periods + 1, float(x0))
    x_inf = stationary_fraction(rates)
    path = x_inf + (x0 - x_inf) * (1.0 - rates.p_ie - rates.p_ei) ** np.arange(periods + 1)
    path[0] = x0
    return path


def gap_closure_time(x0: float, rates: FlipRates, fraction: float = 0.9) -> int:
    """Periods until the expected path closes `fraction` of its gap to stationary.

    Closed form: the least t >= 1 with |1 - p_ie - p_ei|^t <= 1 - fraction, exact
    at float ties, where stepping the recurrence may land a period off. A start
    within 4 ulps of the stationary fraction is rounding noise: 0 periods.
    """
    _check("fraction", fraction, {"gt": 0.0, "lt": 1.0})
    _check("x0", x0, _FRACTION)
    target_x = stationary_fraction(rates)
    if abs(x0 - target_x) <= 4 * math.ulp(target_x):
        return 0
    lam = abs(1.0 - rates.p_ie - rates.p_ei)
    if lam < 1.0:
        t = max(1, math.ceil(math.log(1.0 - fraction) / math.log(lam))) if lam else 1
        if t <= _MAX_CLOSURE_ITER:
            return t
    raise ConvergenceError(f"gap not {fraction:.0%} closed within {_MAX_CLOSURE_ITER} periods")


def _check_draw_size(n_rules: int, periods: int) -> None:
    """Refuse a simulate run whose block draw array would exceed _MAX_DRAW_BYTES."""
    block = min(n_rules, _RULE_BLOCK)
    nbytes = 24 * block * periods
    if nbytes > _MAX_DRAW_BYTES:
        raise DomainError(
            f"a block of {block} rules x {periods} periods needs {nbytes} bytes of draws "
            f"(24 per rule-period), above the limit of 2^32 = {_MAX_DRAW_BYTES}"
        )


def _check_evolve(vals, errs, raw):  # an evolve block's rules across fields, for config
    population, periods = vals.get("population"), vals.get("periods")
    if population is not None and periods is not None:
        try:
            _check_draw_size(population.n_rules, periods)
        except DomainError as e:
            errs.append(("evolve", str(e)))
    area, cost_delta = vals.get("area"), vals.get("cost_delta")
    if area is not None and cost_delta is not None and cost_delta > min(area.cost_q, area.cost_g):
        errs.append(("evolve.cost_delta", f"exceeds a party cost in area {area.name!r}"))


def _frivolous_period_counts(stream: FrivolousStream | None) -> tuple[int, int, int]:
    """Per-period (filings, settlements, drops) of the nuisance stream.

    The filing game is deterministic, so the stream contributes constant
    counts; defaulted filings show up in filings only.
    """
    if stream is None:
        return 0, 0, 0
    outcome = play(PlaintiffType.FRIVOLOUS, stream.game, stream.belief)
    if not outcome.filed:
        return 0, 0, 0
    n = stream.filers_per_period
    settled = n if outcome.defendant_action is DefendantAction.SETTLE else 0
    dropped = n if outcome.plaintiff_followup is FollowUp.DROP else 0
    return n, settled, dropped


def simulate(
    area: LegalArea,
    population: RulePopulation,
    periods: int,
    shock: AiShock = AiShock(),
    cost_delta: float = 0.0,
    seed: int = 0,
    frivolous: FrivolousStream | None = None,
    tolerance: float = 1e-9,
) -> EvolutionTrace:
    """Run the population of rule chains for `periods` periods.

    Rules are stepped in blocks of _RULE_BLOCK, each block through all periods
    before the next; rule i draws `substream(seed, i).random((periods, 3))`,
    three uniforms per period in the order dispute / belief / flip, which
    `fill_substreams` writes for a whole block from one Philox. A block's
    draws take 24 bytes per rule-period, at most 2^32 bytes.

    A disputed case is tried when its belief draw is at least the threshold
    from `_thresholds` at the rule's stakes. Each block steps one period at a
    time: the period's draws are compared with the rate, the threshold and the
    overturn odds at each rule's current state, a tried rule flips, and the
    period's disputes, trials and efficient rules are counted. Besides the
    draws, a period holds only a few arrays of one value per rule.
    """
    import numpy as np

    _check("periods", periods, _PERIODS)
    periods = int(periods)  # a bool passes the check as an int
    n = population.n_rules
    _check_draw_size(n, periods)
    u_ineff, u_eff = _thresholds(area, cost_delta)
    rate = effective_dispute_rate(area, shock, tolerance)
    n_efficient = population.initial_efficient_count
    q_ie, q_ei = area.q_ie, area.q_ei

    t_col = np.arange(periods + 1, dtype=np.int64)
    disputes = np.zeros(periods + 1, dtype=np.int64)
    trials = np.zeros(periods + 1, dtype=np.int64)
    efficient_count = np.zeros(periods + 1, dtype=np.int64)
    efficient_count[0] = n_efficient

    draws = np.empty((min(n, _RULE_BLOCK), periods, 3))
    for first in range(0, n, _RULE_BLOCK):
        block = fill_substreams(seed, first, draws[: n - first])
        efficient = np.arange(first, first + len(block)) < n_efficient
        for t in range(periods):
            u_dispute, u_belief, u_flip = block[:, t].T
            disputed = u_dispute < rate
            tried = disputed & (u_belief >= np.where(efficient, u_eff, u_ineff))
            efficient ^= tried & (u_flip < np.where(efficient, q_ei, q_ie))
            disputes[t + 1] += np.count_nonzero(disputed)
            trials[t + 1] += np.count_nonzero(tried)
            efficient_count[t + 1] += np.count_nonzero(efficient)

    filed, settled, dropped = (np.where(t_col > 0, np.int64(c), np.int64(0))
                               for c in _frivolous_period_counts(frivolous))
    return EvolutionTrace(
        area_name=area.name,
        seed=seed,
        n_rules=n,
        t=t_col,
        fraction_efficient=np.array([c / n for c in efficient_count.tolist()]),  # int / int
        disputes=disputes,
        settlements=disputes - trials,
        trials=trials,
        frivolous_filings=filed,
        frivolous_settlements=settled,
        frivolous_drops=dropped,
    )
