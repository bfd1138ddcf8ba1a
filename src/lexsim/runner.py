"""Execute a validated run configuration and write its CSV (and optional SVG).

Output contract: CSV columns are fixed per model and documented in the README;
floats are printed with 17 significant digits so rereading them round-trips
bit-exactly; rows use "\n" line endings regardless of platform. Everything is
computed before anything is written, and outputs replace their targets only
once every one is written, so a failed run leaves existing files as they were
and no partial outputs behind.

Each model's `_<model>(params, seed)` solves it once and returns (summary
cells, table, chart): its sweep row and builders of its CSV and SVG over that
same result. A sweep calls neither builder, so its rows agree with the CSV.
"""

from __future__ import annotations

import copy
import csv
import errno
import io
import itertools
import json
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

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
from .settlement import settle_columns

_SEED_MOD = 2**64


@dataclass
class RunResult:
    csv_path: str
    svg_path: str | None
    rows: int


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header: list[str], rows: list[list[str]]) -> tuple[str, int]:
    """A list-row table's CSV text and row count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue(), len(rows)


def _equilibrium(p: EquilibriumParams, seed: int):
    base = solve_completeness(p.curve, p.tolerance)
    shocked_curve = apply_shock(p.curve, p.shock)
    shocked = solve_completeness(shocked_curve, p.tolerance)

    def table():
        header = ["b_scale", "beta", "k_scale", "kappa", "delta_contracting", "delta_litigation",
                  "g_star_baseline", "g_star_shocked", "g_star_change", "level", "residual",
                  "iterations"]
        return _csv(header, [[
            _f(p.curve.b_scale), _f(p.curve.beta), _f(p.curve.k_scale), _f(p.curve.kappa),
            _f(p.shock.delta_contracting), _f(p.shock.delta_litigation),
            _f(base.g_star), _f(shocked.g_star), _f(shocked.g_star - base.g_star),
            _f(shocked.level), _f(shocked.residual), str(shocked.iterations),
        ]])

    def chart():
        gs = [i / 200.0 for i in range(181)]
        curves = [("", p.curve)]
        if p.shock.delta_contracting != 0.0 or p.shock.delta_litigation != 0.0:
            curves.append((" shocked", shocked_curve))
        series = [(name + tag, gs, [fn(g, curve) for g in gs]) for tag, curve in curves
                  for name, fn in (("MB", marginal_benefit), ("MC", marginal_cost))]
        return charts.line_chart(series, title="Marginal benefit and cost of completeness",
                                 x_label="completeness g", y_label="marginal value")

    return [_f(shocked.g_star), _f(shocked.g_star - base.g_star)], table, chart


def _settle(p: SettleParams, seed: int):
    a = settle_columns(p.disputes, p.rule, p.cost_reduction)
    n = len(p.disputes)
    settled = int(a["settle"].sum())
    widths = a["width"].tolist()

    def table():
        header = ["index", "rule", "p_q", "p_g", "j", "c_q", "c_g", "cost_reduction",
                  "lower", "upper", "width", "outcome", "amount", "shrink_ratio"]
        # every cell is a number, a fixed enum word or empty, so no cell needs CSV
        # quoting and rows are formatted directly. "%.17g" % x == _f(x) for every
        # double; "%.0s" consumes an amount or ratio cell that is left empty.
        head = f"%d,{p.rule.value},%.17g,%.17g,%.17g,%.17g,%.17g,{_f(p.cost_reduction)}," \
               "%.17g,%.17g,%.17g,"
        templates = [head + tail for tail in ("trial,%.0s,%.0s\n", "trial,%.0s,%.17g\n",
                                              "settle,%.17g,%.0s\n", "settle,%.17g,%.17g\n")]
        kind = (2 * a["settle"] + ~np.isnan(a["ratio"])).tolist()
        cells = zip(range(n), *(a[k].tolist() for k in (
            "p_q", "p_g", "j", "c_q", "c_g", "lower", "upper", "width", "amount", "ratio")))
        return ",".join(header) + "\n" + "".join(
            [templates[k] % row for k, row in zip(kind, cells)]), n

    def chart():
        return charts.line_chart([("range width", [float(i) for i in range(n)], widths)],
                                 title="Settlement range width by dispute",
                                 x_label="dispute index", y_label="width")

    # Python's sum adds one width at a time; np.sum's pairwise sum could move
    # the last digit of a sweep cell
    return [str(n), str(settled), str(n - settled), _f(sum(widths) / n)], table, chart


def _frivolous(p: FrivolousParams, seed: int):
    outcomes = [play(ptype, p.game, p.belief) for ptype in PlaintiffType]
    filed = ["true" if o.filed else "false" for o in outcomes]

    def table():
        header = ["plaintiff_type", "belief", "filed", "defendant_action",
                  "plaintiff_followup", "plaintiff_payoff", "defendant_payoff", "region_shift"]
        belief = 0.0 if p.belief is None else p.belief
        region = "" if p.shift is None else filing_region_shift(p.game, *p.shift).value
        return _csv(header, [[
            o.plaintiff_type.value, _f(belief), f, o.defendant_action.value,
            o.plaintiff_followup.value, _f(o.plaintiff_payoff), _f(o.defendant_payoff), region,
        ] for o, f in zip(outcomes, filed)])

    def chart():
        return charts.line_chart([("plaintiff payoff", [0.0, 1.0],
                                   [o.plaintiff_payoff for o in outcomes])],
                                 title="Filing payoffs by plaintiff type",
                                 x_label="0 = frivolous, 1 = meritorious", y_label="payoff")

    return [c for o, f in zip(outcomes, filed) for c in (f, _f(o.plaintiff_payoff))], table, chart


def _evolve(p: EvolveParams, seed: int):
    trace = simulate(p.area, p.population, p.periods, shock=p.shock, cost_delta=p.cost_delta,
                     seed=seed, frivolous=p.frivolous, tolerance=p.tolerance)
    counts = [trace.disputes, trace.settlements, trace.trials, trace.frivolous_filings,
              trace.frivolous_settlements, trace.frivolous_drops]

    def table():
        header = ["t", "fraction_efficient", "disputes", "settlements", "trials",
                  "frivolous_filings", "frivolous_settlements", "frivolous_drops"]
        columns = [c.tolist() for c in [trace.t, trace.fraction_efficient] + counts]
        return _csv(header, [[str(t), _f(x), *map(str, rest)]
                             for t, x, *rest in zip(*columns)])

    def chart():
        return charts.line_chart([("fraction efficient", [float(t) for t in trace.t],
                                   [float(v) for v in trace.fraction_efficient])],
                                 title=f"Efficient rules over time ({trace.area_name})",
                                 x_label="period", y_label="fraction efficient")

    cells = [_f(trace.fraction_efficient[-1])] + [str(int(c.sum())) for c in counts[:3]]
    return cells, table, chart


def _composition(p: CompositionParams, seed: int):
    shifts = shift_composition(p.areas, p.flat_reduction)

    def table():
        header = ["name", "old_share", "new_share", "unit_cost", "cost_after",
                  "relative_decline", "demand_elasticity"]
        declines = dict(relative_price_change(p.areas, p.flat_reduction))
        return _csv(header, [[
            area.name, _f(shift.old_share), _f(shift.new_share), _f(area.unit_cost),
            _f(area.unit_cost - p.flat_reduction), _f(declines[area.name]),
            _f(area.demand_elasticity),
        ] for area, shift in zip(p.areas, shifts)])

    def chart():
        xs = [float(i) for i in range(len(shifts))]
        return charts.line_chart(
            [("old share", xs, [s.old_share for s in shifts]),
             ("new share", xs, [s.new_share for s in shifts])],
            title="Docket shares before and after the cost cut",
            x_label="area index", y_label="share")

    l1 = sum(abs(s.new_share - s.old_share) for s in shifts)
    return [str(len(shifts)), _f(l1)], table, chart


# model -> (sweep summary header, model function)
_MODELS = {
    "equilibrium": (["g_star", "g_star_change"], _equilibrium),
    "settle": (["n_disputes", "n_settled", "n_trials", "mean_width"], _settle),
    "frivolous": (["frivolous_filed", "frivolous_payoff", "meritorious_filed",
                   "meritorious_payoff"], _frivolous),
    "evolve": (["final_fraction_efficient", "total_disputes", "total_settlements",
                "total_trials"], _evolve),
    "composition": (["n_areas", "share_l1_shift"], _composition),
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


def _sweep(spec: SweepSpec, cfg: RunConfig):
    paths = [path for path, _ in spec.axes]
    grid = list(itertools.product(*(values for _, values in spec.axes)))
    print(f"sweep: {len(grid)} grid point(s) x {spec.replicates} replicate(s) = "
          f"{len(grid) * spec.replicates} run(s)", file=sys.stderr)
    summary_header, model = _MODELS[spec.model]
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
                cells = model(params, seed_rep)[0]
            except LexsimError as e:
                raise LexsimError(f"sweep point ({coords}), replicate {rep}: {e}") from e
            rows.append([_axis_cell(v) for v in point] + [str(rep), str(seed_rep)] + cells)

    def chart():
        # a boolean cell (frivolous_filed) plots as 1.0 or 0.0
        ys = [float({"true": 1, "false": 0}.get(c, c)) for c in (r[len(paths) + 2] for r in rows)]
        return charts.line_chart([(summary_header[0], list(range(len(rows))), ys)],
                                 title=f"Sweep of {spec.model}: {summary_header[0]}",
                                 x_label="run index", y_label=summary_header[0])

    return lambda: _csv(paths + ["replicate", "seed"] + summary_header, rows), chart


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
        table, chart = _sweep(cfg.params, cfg)
    else:
        _, table, chart = _MODELS[cfg.model][1](cfg.params, cfg.seed)
    csv_text, n_rows = table()
    outputs = [(cfg.output_path, csv_text)]
    if cfg.svg_path is not None:
        outputs.append((cfg.svg_path, chart()))
    _write_all(outputs)
    return RunResult(csv_path=cfg.output_path, svg_path=cfg.svg_path, rows=n_rows)


def _is_stdout(path: str) -> bool:
    """Whether `path` names the file behind fd 1, this process's standard output."""
    try:
        st, out = os.stat(path), os.fstat(1)
    except OSError:
        return False
    return (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino)


def _write_all(outputs: list[tuple[str, str]]) -> None:
    """Write every (path, text) or, on failure, leave every existing file as it was.

    A new or regular-file path gets its text in a new temporary file beside the
    path's real target (so a symlinked output keeps its link), with the mode of
    the file it replaces, or 0666 & ~umask for a new one as `open(path, "w")`
    gives; the targets are replaced only once all are written. Any other
    target (a device such as /dev/null, a FIFO) holds no earlier output to
    keep and is written in place. A path naming this process's standard
    output, such as /dev/stdout, is written through `sys.stdout`, after any
    text already printed there and never renamed over.
    """
    staged: list[tuple[str, str]] = []  # (temporary, target), not yet renamed
    in_place: list[tuple[str, str]] = []
    to_stdout: list[str] = []
    try:
        for path, text in outputs:
            if _is_stdout(path):
                to_stdout.append(text)
                continue
            try:
                mode = os.stat(path).st_mode  # follows links
            except OSError:  # missing, or the open below reports why not
                mode = None
            if mode is not None and stat.S_ISDIR(mode):  # found now, not by a rename
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if mode is not None and not stat.S_ISREG(mode):
                in_place.append((path, text))
                continue
            target = os.path.realpath(path)
            head, tail = os.path.split(target)
            tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from None
            staged.append((tmp, target))
            with open(fd, "w", newline="") as fh:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                fh.write(text)
        for path, text in in_place:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        for text in to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        while staged:
            os.replace(*staged[0])
            staged.pop(0)
    finally:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
