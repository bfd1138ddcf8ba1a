"""Models of how cheaper contracting and litigation reshape the legal system.

Four analytic engines plus a run harness:

* contracts: equilibrium completeness of contracts (gaps left to courts);
* settlement: settle-or-try bargaining under American and English fee rules;
* frivolous: nuisance filings that extract settlements without merit;
* evolution: selective relitigation drifting rule populations toward efficiency;
* composition: docket shares under a flat per-case cost cut.

The `lexsim` CLI drives any of them from a JSON config; see README.

Nothing is imported here: a public name, or a submodule such as
`lexsim.config`, is imported when it is first looked up (PEP 562), so a run
loads only the models it uses; `dir(lexsim)` lists them without importing
any. numpy, too, is imported by each function that builds an array when it
first runs, so the closed-form models never load it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports, the one list of this package's API
_EXPORTS = {
    "charts": "line_chart",
    "composition": "AreaShare CompositionParams ShareShift relative_price_change "
                   "shift_composition validate_composition",
    "config": "MODELS RunConfig SweepAxis SweepSpec load_config",
    "contracts": "AiShock CompletenessSolution EquilibriumParams GapCurve apply_shock "
                 "completeness_response marginal_benefit marginal_cost solve_completeness",
    "errors": "ConfigError ConvergenceError DomainError LexsimError",
    "evolution": "AreaKind EvolutionTrace EvolveParams FlipRates FrivolousStream LegalArea "
                 "RulePopulation effective_dispute_rate expected_path flip_rates "
                 "gap_closure_time simulate stationary_fraction trial_fractions",
    "frivolous": "DefendantAction FilingShift FollowUp FrivolousConfig FrivolousParams "
                 "GameOutcome PlaintiffType RegionShift defendant_best_response "
                 "filing_region_shift plaintiff_files plaintiff_followup play",
    "rng": "substream",
    "runner": "RunResult run",
    "settlement": "Dispute FeeRule Outcome OutcomeKind SettleParams SettlementRange "
                  "apply_cost_reduction decide defendant_trial_cost plaintiff_trial_value "
                  "settlement_range shrink_ratio",
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNERS)


def __getattr__(name: str):
    """A public name, or a submodule in `_EXPORTS`, imported on its first lookup."""
    module = _OWNERS.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    return value if module == name else getattr(value, name)


def __dir__() -> list[str]:
    """The public names and exported submodules, listed before any is imported."""
    return sorted(__all__ + list(_EXPORTS))
