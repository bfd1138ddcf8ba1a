"""Models of how cheaper contracting and litigation reshape the legal system.

Four analytic engines plus a run harness:

* contracts: equilibrium completeness of contracts (gaps left to courts);
* settlement: settle-or-try bargaining under American and English fee rules;
* frivolous: nuisance filings that extract settlements without merit;
* evolution: selective relitigation drifting rule populations toward efficiency;
* composition: docket shares under a flat per-case cost cut.

The `lexsim` CLI drives any of them from a JSON config; see README.
"""

from .charts import line_chart
from .composition import (
    AreaShare,
    ShareShift,
    relative_price_change,
    shift_composition,
    validate_composition,
)
from .config import (
    MODELS,
    CompositionParams,
    EquilibriumParams,
    EvolveParams,
    FrivolousParams,
    RunConfig,
    SettleParams,
    SweepAxis,
    SweepSpec,
    load_config,
)
from .contracts import (
    AiShock,
    CompletenessSolution,
    GapCurve,
    apply_shock,
    completeness_response,
    marginal_benefit,
    marginal_cost,
    solve_completeness,
)
from .errors import ConfigError, ConvergenceError, DomainError, LexsimError
from .evolution import (
    AreaKind,
    EvolutionTrace,
    FlipRates,
    FrivolousStream,
    LegalArea,
    RulePopulation,
    effective_dispute_rate,
    expected_path,
    flip_rates,
    gap_closure_time,
    simulate,
    stationary_fraction,
    trial_fractions,
)
from .frivolous import (
    DefendantAction,
    FilingShift,
    FollowUp,
    FrivolousConfig,
    GameOutcome,
    PlaintiffType,
    RegionShift,
    defendant_best_response,
    filing_region_shift,
    plaintiff_files,
    plaintiff_followup,
    play,
)
from .rng import substream
from .runner import RunResult, run
from .settlement import (
    Dispute,
    FeeRule,
    Outcome,
    OutcomeKind,
    SettlementRange,
    apply_cost_reduction,
    decide,
    defendant_trial_cost,
    plaintiff_trial_value,
    settlement_range,
    shrink_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "AiShock",
    "AreaKind",
    "AreaShare",
    "CompletenessSolution",
    "CompositionParams",
    "ConfigError",
    "ConvergenceError",
    "Dispute",
    "DomainError",
    "EquilibriumParams",
    "EvolutionTrace",
    "EvolveParams",
    "FeeRule",
    "FilingShift",
    "FlipRates",
    "FollowUp",
    "FrivolousConfig",
    "FrivolousParams",
    "FrivolousStream",
    "GameOutcome",
    "GapCurve",
    "LegalArea",
    "LexsimError",
    "MODELS",
    "Outcome",
    "OutcomeKind",
    "PlaintiffType",
    "DefendantAction",
    "RegionShift",
    "RulePopulation",
    "RunConfig",
    "RunResult",
    "SettleParams",
    "SettlementRange",
    "ShareShift",
    "SweepAxis",
    "SweepSpec",
    "apply_cost_reduction",
    "apply_shock",
    "completeness_response",
    "decide",
    "defendant_best_response",
    "defendant_trial_cost",
    "effective_dispute_rate",
    "expected_path",
    "filing_region_shift",
    "flip_rates",
    "gap_closure_time",
    "line_chart",
    "load_config",
    "marginal_benefit",
    "marginal_cost",
    "plaintiff_files",
    "plaintiff_followup",
    "plaintiff_trial_value",
    "play",
    "relative_price_change",
    "run",
    "settlement_range",
    "shift_composition",
    "shrink_ratio",
    "simulate",
    "solve_completeness",
    "stationary_fraction",
    "substream",
    "trial_fractions",
    "validate_composition",
]
