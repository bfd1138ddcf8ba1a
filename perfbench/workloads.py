"""The four workloads: seeded inputs, one op each, and output digests.

Inputs come from `variant = seed % VARIANTS` through Python's `random`
(string-seeded, so identical on every platform and Python 3 version). The
outputs of every variant were recorded at the seed commit in
`records.json` (see record.py); each op is compared against its record.

A workload runs its inputs as a cycle of ops: one op for evolve_large and
settle_batch, one op per cost_delta grid point for selection_sweep (both
fee rules, both areas), one op per shipped config for cli_fixtures. Timed phases
always end on a cycle boundary, so every phase sees the same input mix.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from time import perf_counter

VARIANTS = 16
PATH_PERIODS = 50
PATH_TOLERANCE = 1e-12  # acceptance suite's closed-form tolerance
X0 = 0.5
CLOSURE_RATE = math.log(10.0) / 1e6  # p_ie + p_ei: 90% gap closure in ~10^6 steps

# name -> (work items per op, item unit), for items_per_s
WORKLOADS = {
    "evolve_large": (20_000 * 200, "rule-periods"),
    "selection_sweep": (2 * 2 * 2 * 10_000, "belief samples"),  # rules x areas x stakes
    "settle_batch": (20_000, "disputes"),
    "cli_fixtures": (1, "invocations"),
}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _rng(workload: str, seed: int) -> tuple[int, random.Random]:
    variant = seed % VARIANTS
    return variant, random.Random(f"perfbench:{workload}:{variant}")


def _u(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


class InProcessRun:
    """Config-file workloads: `load_config` then `runner.run` with CSV + SVG."""

    ops_per_cycle = 1

    def __init__(self, workload: str, model: str, raw: dict, out_dir: str, variant: int):
        self.workload, self.model, self.variant = workload, model, variant
        self.config_path = os.path.join(out_dir, f"{workload}.json")
        self.csv_path = os.path.join(out_dir, f"{workload}.csv")
        self.svg_path = os.path.join(out_dir, f"{workload}.svg")
        _write_json(self.config_path, raw)

    def op(self, k: int, lexsim, tracer=None) -> None:
        cfg = lexsim.config.load_config(self.config_path, self.model)
        cfg.output_path = self.csv_path
        cfg.svg_path = self.svg_path
        lexsim.runner.run(cfg)

    def result(self, k: int) -> dict:
        return {"csv": sha256_file(self.csv_path), "svg": sha256_file(self.svg_path)}

    def record_key(self, k: int) -> str:
        return str(self.variant)


def evolve_large(seed: int, out_dir: str) -> InProcessRun:
    variant, rng = _rng("evolve_large", seed)
    raw = {
        "seed": rng.randrange(2**32),
        "evolve": {
            "area": {
                "name": f"tort-{variant}", "kind": "tort",
                "dispute_rate": _u(rng, 0.3, 0.9), "stakes_j": _u(rng, 50.0, 200.0),
                "stakes_multiplier": _u(rng, 1.5, 3.0), "cost_q": _u(rng, 10.0, 30.0),
                "cost_g": _u(rng, 10.0, 30.0), "belief_spread": _u(rng, 0.2, 0.5),
                "overturn_prob": _u(rng, 0.2, 0.6),
                "fee_rule": rng.choice(["american", "english"]),
            },
            "population": {"n_rules": 20_000, "fraction_efficient": _u(rng, 0.3, 0.7)},
            "periods": 200,
        },
    }
    return InProcessRun("evolve_large", "evolve", raw, out_dir, variant)


def settle_batch(seed: int, out_dir: str) -> InProcessRun:
    variant, rng = _rng("settle_batch", seed)
    disputes = [
        {"p_q": _u(rng, 0.05, 0.95, 6), "p_g": _u(rng, 0.05, 0.95, 6),
         "j": _u(rng, 10.0, 500.0, 3), "c_q": _u(rng, 5.0, 60.0, 3),
         "c_g": _u(rng, 5.0, 60.0, 3)}
        for _ in range(20_000)
    ]
    raw = {"settle": {"rule": "english", "cost_reduction": _u(rng, 0.5, 4.5, 3),
                      "disputes": disputes}}
    return InProcessRun("settle_batch", "settle", raw, out_dir, variant)


class SelectionSweep:
    """Comparative statics over fee rules x cost_delta for a tort and a property area."""

    workload = "selection_sweep"
    ops_per_cycle = 3

    def __init__(self, seed: int, out_dir: str, lexsim):
        self.variant, rng = _rng("selection_sweep", seed)
        ev = lexsim.evolution
        tort = dict(
            name="negligence", kind=ev.AreaKind.TORT, dispute_rate=_u(rng, 0.6, 0.9),
            stakes_j=_u(rng, 90.0, 110.0), stakes_multiplier=_u(rng, 1.8, 2.2),
            cost_q=_u(rng, 15.0, 20.0), cost_g=_u(rng, 15.0, 20.0),
            belief_spread=_u(rng, 0.35, 0.4), overturn_prob=_u(rng, 0.3, 0.6))
        # slow-moving: few disputes, rarely overturned, gated by contract
        # completeness. Its overturn odds are set so that p_ie + p_ei is
        # CLOSURE_RATE at the American rule without a cost cut, so gap closure
        # takes ~10^6 steps for every seed and the work per op does not vary
        # with the seed.
        prop = dict(
            name="land", kind=ev.AreaKind.PROPERTY, dispute_rate=_u(rng, 0.015, 0.025),
            stakes_j=_u(rng, 180.0, 220.0), stakes_multiplier=_u(rng, 1.4, 1.8),
            cost_q=_u(rng, 12.0, 16.0), cost_g=_u(rng, 12.0, 16.0),
            belief_spread=_u(rng, 0.33, 0.37),
            gap_curve=lexsim.contracts.GapCurve(_u(rng, 0.8, 1.2), 1.0, _u(rng, 0.8, 1.2), 1.0))
        prop["overturn_prob"] = CLOSURE_RATE / _base_trial_flow(prop)
        self.lexsim_seed = rng.randrange(2**32)
        top = min(tort["cost_q"], tort["cost_g"], prop["cost_q"], prop["cost_g"])
        self.deltas = [0.0, round(0.3 * top, 3), round(0.6 * top, 3)]
        self.areas = [ev.LegalArea(**fields, fee_rule=rule)
                      for rule in lexsim.settlement.FeeRule for fields in (tort, prop)]
        self.last = None

    def op(self, k: int, lexsim, tracer=None) -> None:
        """One cost_delta of the grid, both fee rules, both areas."""
        ev = lexsim.evolution
        delta = self.deltas[k % len(self.deltas)]
        out = []
        for area in self.areas:
            rates = ev.flip_rates(area, cost_delta=delta, seed=self.lexsim_seed)
            out.append({
                "p_ie": rates.p_ie, "p_ei": rates.p_ei,
                "stationary": ev.stationary_fraction(rates),
                "path": ev.expected_path(X0, rates, PATH_PERIODS).tolist(),
                "closure": ev.gap_closure_time(X0, rates),
            })
        self.last = out

    def result(self, k: int) -> list:
        return self.last

    def record_key(self, k: int) -> str:
        return f"{self.variant}/{k % len(self.deltas)}"


def _base_trial_flow(area: dict) -> float:
    """Effective dispute rate x (Pr[trial] inefficient + efficient), American rule, no cut.

    With beta = kappa = 1, MB = MC solves g^2 - (2 + k/b) g + 1 = 0. With
    beliefs center +- U[-s, s] and no clipping, an American dispute at stakes
    j goes to trial when eps > (c_q + c_g) / (2 j), which has probability
    (s - t) / (2 s).
    """
    rho = area["gap_curve"].k_scale / area["gap_curve"].b_scale
    g_star = ((2.0 + rho) - math.sqrt((2.0 + rho) ** 2 - 4.0)) / 2.0
    s, cost = area["belief_spread"], area["cost_q"] + area["cost_g"]
    fractions = [(s - cost / (2.0 * j)) / (2.0 * s)
                 for j in (area["stakes_j"] * area["stakes_multiplier"], area["stakes_j"])]
    return area["dispute_rate"] * (1.0 - g_star) * sum(fractions)


CLI_CONFIGS = ("composition_docket", "equilibrium_golden", "equilibrium_shock", "evolve_tort",
               "frivolous_nuisance", "settle_fixture", "sweep_litigation_delta")


class CliFixtures:
    """One fresh `python -m lexsim.cli` per shipped config, in a seeded order."""

    workload = "cli_fixtures"
    ops_per_cycle = len(CLI_CONFIGS)

    def __init__(self, seed: int, out_dir: str, root: str, env: dict):
        self.order = list(CLI_CONFIGS)
        random.Random(f"perfbench:cli_fixtures:{seed}").shuffle(self.order)
        self.root, self.out_dir, self.env = root, out_dir, env
        self.models = {name: self.model_of(root, name) for name in CLI_CONFIGS}
        self.child_driver = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                         "cli_child.py")

    @staticmethod
    def model_of(root: str, name: str) -> str:
        with open(os.path.join(root, "configs", f"{name}.json")) as fh:
            raw = json.load(fh)
        return "sweep" if "sweep" in raw else next(k for k in raw if k != "seed")

    def paths(self, k: int) -> tuple[str, str, str]:
        name = self.order[k % len(self.order)]
        return (name, os.path.join(self.out_dir, f"{name}.csv"),
                os.path.join(self.out_dir, f"{name}.svg"))

    def argv(self, k: int) -> list[str]:
        name, csv_path, svg_path = self.paths(k)
        return [self.models[name], "--config",
                os.path.join(self.root, "configs", f"{name}.json"),
                "--out", csv_path, "--svg", svg_path]

    def op(self, k: int, lexsim, tracer=None) -> None:
        """Run one CLI process; traced, it runs under cli_child.py and merges its spans."""
        if tracer is None:
            cmd = [sys.executable, "-m", "lexsim.cli"] + self.argv(k)
        else:
            spans_path = os.path.join(self.out_dir, "child_spans.json")
            if os.path.exists(spans_path):
                os.unlink(spans_path)
            cmd = [sys.executable, self.child_driver, spans_path] + self.argv(k)
        t_spawn = perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cli exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        if tracer is not None:
            with open(spans_path) as fh:
                child = json.load(fh)
            tracer.add_span("cli.interpreter", t_spawn, child["t_start"])
            tracer.merge(child["spans"])

    def result(self, k: int) -> dict:
        _, csv_path, svg_path = self.paths(k)
        return {"csv": sha256_file(csv_path), "svg": sha256_file(svg_path)}

    def record_key(self, k: int) -> str:
        return self.paths(k)[0]


def worker_env(root: str) -> dict:
    """Environment of every benchmark process: checkout's src first, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def import_lexsim(root: str):
    """Import lexsim from the checkout's src/, refusing any other copy."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import lexsim

    if os.path.commonpath([os.path.abspath(lexsim.__file__), src]) != src:
        raise RuntimeError(f"imported lexsim from {lexsim.__file__}, not from {src}")
    return lexsim


def make(workload: str, seed: int, out_dir: str, root: str, env: dict, lexsim):
    if workload == "evolve_large":
        return evolve_large(seed, out_dir)
    if workload == "settle_batch":
        return settle_batch(seed, out_dir)
    if workload == "selection_sweep":
        return SelectionSweep(seed, out_dir, lexsim)
    if workload == "cli_fixtures":
        return CliFixtures(seed, out_dir, root, env)
    raise ValueError(f"unknown workload {workload!r}")


def mismatch(workload: str, got, want) -> str | None:
    """Why an op's output differs from its record, or None when it matches."""
    if want is None:
        return "no record"
    if workload != "selection_sweep":
        return None if got == want else f"digest {got} != recorded {want}"
    if len(got) != len(want):
        return "area count differs"
    for g, w in zip(got, want):
        for key in ("p_ie", "p_ei", "stationary", "closure"):
            if g[key] != w[key]:
                return f"{key} {g[key]!r} != recorded {w[key]!r}"
        if len(g["path"]) != len(w["path"]):
            return "expected_path length differs"
        worst = max(abs(a - b) for a, b in zip(g["path"], w["path"]))
        if not worst <= PATH_TOLERANCE:
            return f"expected_path off by {worst:.3e}"
    return None

