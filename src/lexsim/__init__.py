"""Models of how cheaper contracting and litigation reshape the legal system.

Four analytic engines plus a run harness:

* contracts: equilibrium completeness of contracts (gaps left to courts);
* settlement: settle-or-try bargaining under American and English fee rules;
* frivolous: nuisance filings that extract settlements without merit;
* evolution: selective relitigation drifting rule populations toward efficiency;
* composition: docket shares under a flat per-case cost cut.

The `lexsim` CLI drives any of them from a JSON config; see README.

Every submodule is imported here, but numpy is not: each function that
builds an array imports it when it first runs, so the closed-form models
never load it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports, the one list of this package's API
_EXPORTS = {
    "charts": "line_chart",
    "composition": "AreaShare ShareShift relative_price_change shift_composition "
                   "validate_composition",
    "config": "MODELS CompositionParams EquilibriumParams EvolveParams FrivolousParams "
              "RunConfig SettleParams SweepAxis SweepSpec load_config",
    "contracts": "AiShock CompletenessSolution GapCurve apply_shock completeness_response "
                 "marginal_benefit marginal_cost solve_completeness",
    "errors": "ConfigError ConvergenceError DomainError LexsimError",
    "evolution": "AreaKind EvolutionTrace FlipRates FrivolousStream LegalArea RulePopulation "
                 "effective_dispute_rate expected_path flip_rates gap_closure_time simulate "
                 "stationary_fraction trial_fractions",
    "frivolous": "DefendantAction FilingShift FollowUp FrivolousConfig GameOutcome "
                 "PlaintiffType RegionShift defendant_best_response filing_region_shift "
                 "plaintiff_files plaintiff_followup play",
    "rng": "substream",
    "runner": "RunResult run",
    "settlement": "Dispute FeeRule Outcome OutcomeKind SettlementRange apply_cost_reduction "
                  "decide defendant_trial_cost plaintiff_trial_value settlement_range "
                  "shrink_ratio",
}

__all__ = []
for _module, _names in _EXPORTS.items():
    _mod = importlib.import_module(f"{__name__}.{_module}")
    globals().update({name: getattr(_mod, name) for name in _names.split()})
    __all__ += _names.split()
del _module, _names, _mod
