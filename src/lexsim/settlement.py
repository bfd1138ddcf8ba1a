"""Settle-or-try bargaining under the American and English fee rules.

A dispute is five numbers: the plaintiff thinks they win with probability p_q,
the defendant puts that same event at p_g, the judgment is j, and each side
would burn c_q / c_g at trial. Under the American rule each side eats its own
costs; under the English rule the loser pays both.

The plaintiff accepts any settlement at or above their expected trial value;
the defendant pays anything at or below their expected trial cost:

    American   lower = p_q*j - c_q              upper = p_g*j + c_g
    English    lower = p_q*j - (1-p_q)*(c_q+c_g)
               upper = p_g*(j + c_q + c_g)

A nonempty range [lower, upper] settles at its midpoint; an empty one goes to
trial. Range widths collapse to

    W_A = (p_g - p_q)*j + (c_q + c_g)
    W_E = (p_g - p_q)*j + (p_g + 1 - p_q)*(c_q + c_g)

so cutting both parties' costs by delta_c narrows the American range by
2*delta_c but the English range by (p_g + 1 - p_q)*2*delta_c: fee shifting
amplifies a cost change whenever the parties are mutually optimistic.
"""

from __future__ import annotations

import contextlib
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import TYPE_CHECKING

from .errors import DomainError, _Bounded, _check, _schema

if TYPE_CHECKING:
    import numpy as np

_REDUCTION = {"ge": 0.0}  # a cut in both parties' trial costs


class FeeRule(Enum):
    AMERICAN = "american"
    ENGLISH = "english"


class OutcomeKind(Enum):
    SETTLE = "settle"
    TRIAL = "trial"


class DisputeBatch(Sequence):
    """A read-only sequence of disputes held as five float64 columns, one per Dispute
    field, in field order; an item is a Dispute of floats. `DisputeBatch.of` makes one
    from Disputes and `_read` from a config's JSON list; the constructor takes columns
    whose rows are already valid disputes, as `_read` checks them, and makes them
    read-only. `settle_columns` reads the columns as they are."""

    __slots__ = ("p_q", "p_g", "j", "c_q", "c_g")

    def __init__(self, p_q, p_g, j, c_q, c_g):
        self.p_q, self.p_g, self.j, self.c_q, self.c_g = p_q, p_g, j, c_q, c_g
        for column in self.columns():
            column.flags.writeable = False

    @classmethod
    def of(cls, disputes) -> DisputeBatch:
        """`disputes` itself if it is a batch, else their fields as float64 columns, NaN
        for a None item (one the config loader found faulty); an int beyond 2^53 is rounded."""
        if isinstance(disputes, cls):
            return disputes
        import numpy as np

        return cls(*(np.array([getattr(d, name, math.nan) for d in disputes], dtype=np.float64)
                     for name in cls.__slots__))

    @classmethod
    def _read(cls, items) -> DisputeBatch | None:
        """A config's JSON list `items` read at once as one table, if every item is a dict of
        exactly Dispute's field names, each an int or a float, each column's least and greatest
        number (NaN if one is; every bound has a lower end) pass its field's `_schema` test and
        each row `Dispute._across`; else None. No int but 0 and 1 rounds to a bound, 0 or 1, so
        the table passes exactly when the loader's item-by-item read does. An int past 2^53 rounds."""
        import numpy as np

        schema = _schema(Dispute)
        width = len(schema)
        with contextlib.suppress(KeyError, OverflowError):  # a field missing; an int past float range
            if (set(map(type, items)) == {dict} and sum(map(len, items)) == width * len(items)
                    and {type(v) for item in items for v in item.values()} <= {int, float}):
                get = operator.itemgetter(*(name for name, *_ in schema))
                table = np.fromiter(chain.from_iterable(map(get, items)), np.float64, width * len(items))
                cols = tuple(table.reshape(-1, width).T)
                with np.errstate(over="ignore", invalid="ignore"):
                    if (all(test(c.min()) and test(c.max()) for c, (*_, test) in zip(cols, schema))
                            and Dispute._across(*cols).all()):
                        return cls(*cols)
        return None

    def columns(self) -> tuple:
        return self.p_q, self.p_g, self.j, self.c_q, self.c_g

    def __len__(self) -> int:
        return len(self.p_q)

    def __getitem__(self, i):  # a slice is a batch of the sliced column views
        if isinstance(i, slice):
            return DisputeBatch(*(c[i] for c in self.columns()))
        i = operator.index(i)  # as a list takes its index: True is 1, 1.0 a TypeError
        return Dispute(*(float(c[i]) for c in self.columns()))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        if len(self) != len(other):
            return False
        if isinstance(other, DisputeBatch):  # as the items compare: loaded columns hold no NaN
            return all((a == b).all() for a, b in zip(self.columns(), other.columns()))
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"DisputeBatch({list(self)!r})"


@dataclass(frozen=True)
class Dispute(_Bounded):
    """One filed case: subjective win odds, stakes, and per-side trial costs."""

    _batch = DisputeBatch  # Disputes as columns; a field of Disputes admits one unread
    p_q: float = field(metadata={"ge": 0.0, "le": 1.0})
    p_g: float = field(metadata={"ge": 0.0, "le": 1.0})
    j: float = field(metadata={"gt": 0.0})
    c_q: float = field(metadata={"ge": 0.0})
    c_g: float = field(metadata={"ge": 0.0})

    def __post_init__(self):
        super().__post_init__()
        if not self._across(self.p_q, self.p_g, self.j, self.c_q, self.c_g):
            raise DomainError("j + c_q + c_g must lie within float range")

    @staticmethod
    def _across(p_q, p_g, j, c_q, c_g):
        """The rule across fields, for field values that each passed their bounds, or
        elementwise for float64 columns of them: j + c_q + c_g lies within float range.
        Each term is within float range, so the float sum cannot raise."""
        total = 1.0 * j + c_q + c_g
        return total - total == 0.0  # inf - inf is nan


@dataclass(frozen=True)
class SettleParams(_Bounded):  # a settle run: a config's "settle" block
    rule: FeeRule
    disputes: Sequence[Dispute]  # read from a config as a DisputeBatch
    cost_reduction: float = field(default=0.0, metadata=_REDUCTION)


@dataclass(frozen=True)
class SettlementRange:
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def feasible(self) -> bool:
        return self.width >= 0.0


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    amount: float | None = None


def _bounds(p_q, p_g, j, c_q, c_g, rule: FeeRule):
    # `settle_columns` calls it on arrays and evolution's trial probe on floats;
    # keep the operation order identical for scalars and vectors
    if rule is FeeRule.AMERICAN:
        lower = p_q * j - c_q
        upper = p_g * j + c_g
    elif rule is FeeRule.ENGLISH:
        lower = p_q * j - (1.0 - p_q) * (c_q + c_g)
        upper = p_g * (j + c_q + c_g)
    else:
        raise DomainError(f"rule must be an instance of FeeRule: got {rule!r}")
    return lower, upper


def plaintiff_trial_value(d: Dispute, rule: FeeRule) -> float:
    """Least settlement the plaintiff accepts: their expected value of trial."""
    return _bounds(d.p_q, d.p_g, d.j, d.c_q, d.c_g, rule)[0]


def defendant_trial_cost(d: Dispute, rule: FeeRule) -> float:
    """Most the defendant pays to settle: their expected cost of trial."""
    return _bounds(d.p_q, d.p_g, d.j, d.c_q, d.c_g, rule)[1]


def settlement_range(d: Dispute, rule: FeeRule) -> SettlementRange:
    lower, upper = _bounds(d.p_q, d.p_g, d.j, d.c_q, d.c_g, rule)
    return SettlementRange(lower=lower, upper=upper)


def _midpoint(lower: float, upper: float) -> float:
    # 0.5 * (lower + upper), unless two finite ends sum past float range; halving
    # each end first everywhere would move subnormal midpoints (5e-324 twice
    # gives 0). Int ends can sum to an int too large to convert.
    try:
        mid = 0.5 * (lower + upper)
    except OverflowError:
        mid = math.inf
    return mid if math.isfinite(mid) else 0.5 * lower + 0.5 * upper


def decide(d: Dispute, rule: FeeRule) -> Outcome:
    """Settle at the range midpoint when the range is nonempty, else try the case."""
    r = settlement_range(d, rule)
    if r.feasible:
        return Outcome(OutcomeKind.SETTLE, _midpoint(r.lower, r.upper))
    return Outcome(OutcomeKind.TRIAL)


def _over_reduction(delta_c: float, d: Dispute) -> DomainError:
    return DomainError(
        f"delta_c={delta_c!r} exceeds a party's cost (c_q={d.c_q!r}, c_g={d.c_g!r})"
    )


def apply_cost_reduction(d: Dispute, delta_c: float) -> Dispute:
    """Cut both sides' trial costs by delta_c; the reduction may not exceed either cost."""
    _check("delta_c", delta_c, _REDUCTION)
    if delta_c > min(d.c_q, d.c_g):
        raise _over_reduction(delta_c, d)
    return Dispute(p_q=d.p_q, p_g=d.p_g, j=d.j, c_q=d.c_q - delta_c, c_g=d.c_g - delta_c)


def settle_columns(disputes: Sequence[Dispute], rule: FeeRule,
                   delta_c: float) -> dict[str, np.ndarray]:
    """`apply_cost_reduction` -> `decide` -> `shrink_ratio` for a batch, as float64 columns.

    Keys: the inputs p_q, p_g, j, c_q, c_g; lower, upper and width of the
    reduced-cost range; settle (bool) and amount (meaningful where settle);
    ratio, NaN where `shrink_ratio` is undefined. The inputs are converted to
    float64 first (a DisputeBatch already holds them so), so an int beyond 2^53
    is rounded before any arithmetic. Overflow gives inf cells as the scalar
    functions do. An over-large reduction names the first dispute it exceeds.
    """
    import numpy as np

    _check("delta_c", delta_c, _REDUCTION)
    p_q, p_g, j, c_q, c_g = DisputeBatch.of(disputes).columns()
    over = delta_c > np.minimum(c_q, c_g)
    if over.any():
        raise _over_reduction(delta_c, disputes[int(over.argmax())])
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = _bounds(p_q, p_g, j, c_q - delta_c, c_g - delta_c, rule)
        width = upper - lower
        amount = 0.5 * (lower + upper)
        amount = np.where(np.isfinite(amount), amount, 0.5 * lower + 0.5 * upper)  # `_midpoint`
    denom = 1.0 - (p_q - p_g)  # grouped as in `shrink_ratio`
    ratio = np.full_like(denom, np.nan)
    np.divide(1.0, denom, out=ratio, where=denom != 0.0)
    return dict(p_q=p_q, p_g=p_g, j=j, c_q=c_q, c_g=c_g, lower=lower, upper=upper,
                width=width, settle=width >= 0.0, amount=amount, ratio=ratio)


def _check_settle(vals, errs, raw):  # a settle block's rules across fields, for config
    reduction, disputes = vals.get("cost_reduction"), vals.get("disputes")
    if reduction is None or disputes is None:
        return
    import numpy as np

    # NaN, the row of a faulty item, is never exceeded. Float64 orders the two as
    # their JSON values do except where both round to one float: there the item's
    # own numbers decide.
    items = raw["settle"]["disputes"]
    for i in np.flatnonzero(float(reduction) >= np.minimum(disputes.c_q, disputes.c_g)).tolist():
        if reduction > min(items[i]["c_q"], items[i]["c_g"]):
            errs.append((f"settle.disputes[{i}]",
                         f"cost_reduction {reduction!r} exceeds a party cost"))


def shrink_ratio(d: Dispute) -> float:
    """American-to-English ratio of range shrinkage per unit of cost reduction.

    Equals 1 / (p_g + 1 - p_q): below one under mutual optimism (p_q > p_g),
    meaning the English range shrinks faster than the American one.
    """
    # grouped so equal probabilities cancel to zero first and the ratio is
    # exactly one whenever p_q == p_g
    denom = 1.0 - (d.p_q - d.p_g)
    if denom == 0.0:
        raise DomainError("shrink ratio undefined when p_g + 1 - p_q = 0")
    return 1.0 / denom
