"""Execute a validated run configuration and write its CSV (and optional SVG).

Output contract: CSV columns are fixed per model and documented in the README;
floats are printed with 17 significant digits so rereading them round-trips
bit-exactly; rows use "\n" line endings regardless of platform. Everything is
computed before anything is written, and a failed write removes whatever this
call had already written, so a run never leaves partial outputs behind.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass

from . import charts
from .composition import relative_price_change, shift_composition
from .config import (
    CompositionParams,
    EquilibriumParams,
    EvolveParams,
    FrivolousParams,
    RunConfig,
    SettleParams,
    SweepSpec,
    build_model_params,
)
from .contracts import apply_shock, marginal_benefit, marginal_cost, solve_completeness
from .errors import ConfigError, DomainError, LexsimError
from .evolution import simulate
from .frivolous import PlaintiffType, filing_region_shift, play
from .settlement import (
    OutcomeKind,
    apply_cost_reduction,
    decide,
    settlement_range,
    shrink_ratio,
)

_SEED_MOD = 2**64


@dataclass
class RunResult:
    csv_path: str
    svg_path: str | None
    rows: int


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _run_equilibrium(p: EquilibriumParams, cfg: RunConfig):
    base = solve_completeness(p.curve, p.tolerance)
    shocked_curve = apply_shock(p.curve, p.shock)
    shocked = solve_completeness(shocked_curve, p.tolerance)
    header = ["b_scale", "beta", "k_scale", "kappa", "delta_contracting", "delta_litigation",
              "g_star_baseline", "g_star_shocked", "g_star_change", "level", "residual",
              "iterations"]
    rows = [[
        _f(p.curve.b_scale), _f(p.curve.beta), _f(p.curve.k_scale), _f(p.curve.kappa),
        _f(p.shock.delta_contracting), _f(p.shock.delta_litigation),
        _f(base.g_star), _f(shocked.g_star), _f(shocked.g_star - base.g_star),
        _f(shocked.level), _f(shocked.residual), str(shocked.iterations),
    ]]
    svg = None
    if cfg.svg_path is not None:
        gs = [i / 200.0 for i in range(181)]
        series = [
            ("MB", gs, [marginal_benefit(g, p.curve) for g in gs]),
            ("MC", gs, [marginal_cost(g, p.curve) for g in gs]),
        ]
        if p.shock.delta_contracting != 0.0 or p.shock.delta_litigation != 0.0:
            series.append(("MB shocked", gs, [marginal_benefit(g, shocked_curve) for g in gs]))
            series.append(("MC shocked", gs, [marginal_cost(g, shocked_curve) for g in gs]))
        svg = charts.line_chart(series, title="Marginal benefit and cost of completeness",
                                x_label="completeness g", y_label="marginal value")
    return header, rows, svg


def _run_settle(p: SettleParams, cfg: RunConfig):
    header = ["index", "rule", "p_q", "p_g", "j", "c_q", "c_g", "cost_reduction",
              "lower", "upper", "width", "outcome", "amount", "shrink_ratio"]
    rows = []
    widths = []
    for idx, d in enumerate(p.disputes):
        reduced = apply_cost_reduction(d, p.cost_reduction)
        r = settlement_range(reduced, p.rule)
        outcome = decide(reduced, p.rule)
        try:
            ratio = _f(shrink_ratio(d))
        except DomainError:
            ratio = ""
        widths.append(r.width)
        rows.append([
            str(idx), p.rule.value, _f(d.p_q), _f(d.p_g), _f(d.j), _f(d.c_q), _f(d.c_g),
            _f(p.cost_reduction), _f(r.lower), _f(r.upper), _f(r.width),
            outcome.kind.value, "" if outcome.amount is None else _f(outcome.amount), ratio,
        ])
    svg = None
    if cfg.svg_path is not None:
        xs = [float(i) for i in range(len(widths))]
        svg = charts.line_chart([("range width", xs, widths)],
                                title="Settlement range width by dispute",
                                x_label="dispute index", y_label="width")
    return header, rows, svg


def _run_frivolous(p: FrivolousParams, cfg: RunConfig):
    header = ["plaintiff_type", "belief", "filed", "defendant_action", "plaintiff_followup",
              "plaintiff_payoff", "defendant_payoff", "region_shift"]
    belief = 0.0 if p.belief is None else p.belief
    region = ""
    if p.shift is not None:
        region = filing_region_shift(p.game, p.shift[0], p.shift[1]).value
    rows = []
    payoffs = []
    for ptype in (PlaintiffType.FRIVOLOUS, PlaintiffType.MERITORIOUS):
        outcome = play(ptype, p.game, p.belief)
        payoffs.append(outcome.plaintiff_payoff)
        rows.append([
            ptype.value, _f(belief), "true" if outcome.filed else "false",
            outcome.defendant_action.value, outcome.plaintiff_followup.value,
            _f(outcome.plaintiff_payoff), _f(outcome.defendant_payoff), region,
        ])
    svg = None
    if cfg.svg_path is not None:
        svg = charts.line_chart([("plaintiff payoff", [0.0, 1.0], payoffs)],
                                title="Filing payoffs by plaintiff type",
                                x_label="0 = frivolous, 1 = meritorious", y_label="payoff")
    return header, rows, svg


def _run_evolve(p: EvolveParams, cfg: RunConfig):
    trace = simulate(p.area, p.population, p.periods, shock=p.shock,
                     cost_delta=p.cost_delta, seed=cfg.seed, frivolous=p.frivolous,
                     tolerance=p.tolerance)
    header = ["t", "fraction_efficient", "disputes", "settlements", "trials",
              "frivolous_filings", "frivolous_settlements", "frivolous_drops"]
    rows = []
    for i in range(len(trace.t)):
        rows.append([
            str(int(trace.t[i])), _f(trace.fraction_efficient[i]),
            str(int(trace.disputes[i])), str(int(trace.settlements[i])),
            str(int(trace.trials[i])), str(int(trace.frivolous_filings[i])),
            str(int(trace.frivolous_settlements[i])), str(int(trace.frivolous_drops[i])),
        ])
    svg = None
    if cfg.svg_path is not None:
        xs = [float(t) for t in trace.t]
        ys = [float(v) for v in trace.fraction_efficient]
        svg = charts.line_chart([("fraction efficient", xs, ys)],
                                title=f"Efficient rules over time ({trace.area_name})",
                                x_label="period", y_label="fraction efficient")
    return header, rows, svg


def _run_composition(p: CompositionParams, cfg: RunConfig):
    shifts = shift_composition(p.areas, p.flat_reduction)
    declines = dict(relative_price_change(p.areas, p.flat_reduction))
    header = ["name", "old_share", "new_share", "unit_cost", "cost_after",
              "relative_decline", "demand_elasticity"]
    rows = []
    for area, shift in zip(p.areas, shifts):
        rows.append([
            area.name, _f(shift.old_share), _f(shift.new_share), _f(area.unit_cost),
            _f(area.unit_cost - p.flat_reduction), _f(declines[area.name]),
            _f(area.demand_elasticity),
        ])
    svg = None
    if cfg.svg_path is not None:
        xs = [float(i) for i in range(len(shifts))]
        svg = charts.line_chart(
            [("old share", xs, [s.old_share for s in shifts]),
             ("new share", xs, [s.new_share for s in shifts])],
            title="Docket shares before and after the cost cut",
            x_label="area index", y_label="share")
    return header, rows, svg


def _summary_equilibrium(p: EquilibriumParams, seed: int) -> list[str]:
    base = solve_completeness(p.curve, p.tolerance)
    shocked = solve_completeness(apply_shock(p.curve, p.shock), p.tolerance)
    return [_f(shocked.g_star), _f(shocked.g_star - base.g_star)]


def _summary_settle(p: SettleParams, seed: int) -> list[str]:
    widths = []
    settled = 0
    for d in p.disputes:
        reduced = apply_cost_reduction(d, p.cost_reduction)
        widths.append(settlement_range(reduced, p.rule).width)
        if decide(reduced, p.rule).kind is OutcomeKind.SETTLE:
            settled += 1
    n = len(p.disputes)
    return [str(n), str(settled), str(n - settled), _f(sum(widths) / n)]


def _summary_frivolous(p: FrivolousParams, seed: int) -> list[str]:
    cells = []
    for ptype in (PlaintiffType.FRIVOLOUS, PlaintiffType.MERITORIOUS):
        outcome = play(ptype, p.game, p.belief)
        cells.extend(["true" if outcome.filed else "false", _f(outcome.plaintiff_payoff)])
    return cells


def _summary_evolve(p: EvolveParams, seed: int) -> list[str]:
    trace = simulate(p.area, p.population, p.periods, shock=p.shock,
                     cost_delta=p.cost_delta, seed=seed, frivolous=p.frivolous,
                     tolerance=p.tolerance)
    return [_f(trace.fraction_efficient[-1]), str(int(trace.disputes.sum())),
            str(int(trace.settlements.sum())), str(int(trace.trials.sum()))]


def _summary_composition(p: CompositionParams, seed: int) -> list[str]:
    shifts = shift_composition(p.areas, p.flat_reduction)
    l1 = sum(abs(s.new_share - s.old_share) for s in shifts)
    return [str(len(shifts)), _f(l1)]


_SUMMARIES = {
    "equilibrium": (["g_star", "g_star_change"], _summary_equilibrium),
    "settle": (["n_disputes", "n_settled", "n_trials", "mean_width"], _summary_settle),
    "frivolous": (["frivolous_filed", "frivolous_payoff", "meritorious_filed",
                   "meritorious_payoff"], _summary_frivolous),
    "evolve": (["final_fraction_efficient", "total_disputes", "total_settlements",
                "total_trials"], _summary_evolve),
    "composition": (["n_areas", "share_l1_shift"], _summary_composition),
}


def _set_path(raw: dict, path: str, value) -> None:
    segments = path.split(".")
    cursor = raw
    for seg in segments[:-1]:
        nxt = cursor.setdefault(seg, {})
        if not isinstance(nxt, dict):
            raise ConfigError([(path, f"path runs through non-object value {nxt!r}")])
        cursor = nxt
    cursor[segments[-1]] = value


def _axis_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return _f(value)
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _run_sweep(spec: SweepSpec, cfg: RunConfig):
    paths = [axis[0] for axis in spec.axes]
    value_lists = [axis[1] for axis in spec.axes]
    grid = list(itertools.product(*value_lists))
    print(f"sweep: {len(grid)} grid point(s) x {spec.replicates} replicate(s) = "
          f"{len(grid) * spec.replicates} run(s)", file=sys.stderr)
    summary_header, summarize = _SUMMARIES[spec.model]
    header = paths + ["replicate", "seed"] + summary_header
    points = []  # (point, coords, params): every point is validated before any runs
    point_errs: list[tuple[str, str]] = []
    for point in grid:
        coords = ", ".join(f"{p}={v}" for p, v in zip(paths, point))
        raw_point = copy.deepcopy(cfg.raw)
        for path, value in zip(paths, point):
            _set_path(raw_point, path, value)
        errs: list[tuple[str, str]] = []
        params = build_model_params(raw_point, spec.model, errs)
        point_errs.extend((f"sweep point ({coords}) -> {p}", m) for p, m in errs)
        points.append((point, coords, params))
    if point_errs:
        raise ConfigError(point_errs)
    rows = []
    for point, coords, params in points:
        for rep in range(spec.replicates):
            seed_rep = (cfg.seed + rep) % _SEED_MOD
            try:
                cells = summarize(params, seed_rep)
            except LexsimError as e:
                raise LexsimError(f"sweep point ({coords}), replicate {rep}: {e}") from e
            rows.append([_axis_cell(v) for v in point] + [str(rep), str(seed_rep)] + cells)
    svg = None
    if cfg.svg_path is not None:
        ys = [float(r[len(paths) + 2]) for r in rows]
        xs = [float(i) for i in range(len(rows))]
        svg = charts.line_chart([(summary_header[0], xs, ys)],
                                title=f"Sweep of {spec.model}: {summary_header[0]}",
                                x_label="run index", y_label=summary_header[0])
    return header, rows, svg


def run(cfg: RunConfig) -> RunResult:
    """Execute the configured model and write outputs; returns what was written."""
    if cfg.output_path is None:
        raise DomainError("run configuration has no output path")
    if cfg.svg_path is not None and (
        os.path.realpath(cfg.svg_path) == os.path.realpath(cfg.output_path)
    ):
        raise ConfigError([("svg", f"{cfg.svg_path!r} is the same file as the CSV output "
                                   f"{cfg.output_path!r}")])
    if cfg.model == "sweep":
        header, rows, svg = _run_sweep(cfg.params, cfg)
    else:
        builders = {
            "equilibrium": _run_equilibrium,
            "settle": _run_settle,
            "frivolous": _run_frivolous,
            "evolve": _run_evolve,
            "composition": _run_composition,
        }
        header, rows, svg = builders[cfg.model](cfg.params, cfg)

    csv_text = _csv_text(header, rows)
    written: list[str] = []
    try:
        with open(cfg.output_path, "w", newline="") as fh:
            fh.write(csv_text)
        written.append(cfg.output_path)
        if svg is not None:
            with open(cfg.svg_path, "w", newline="") as fh:
                fh.write(svg)
            written.append(cfg.svg_path)
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return RunResult(csv_path=cfg.output_path,
                     svg_path=cfg.svg_path if svg is not None else None,
                     rows=len(rows))
