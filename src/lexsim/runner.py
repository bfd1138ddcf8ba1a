"""Execute a validated run configuration and write its CSV (and optional SVG).

Output contract: CSV columns are fixed per model and documented in the README;
floats are printed with 17 significant digits so rereading them round-trips
bit-exactly; rows use "\n" line endings regardless of platform. Everything is
computed before anything is written, and outputs replace their targets only
once every one is written, so a failed run leaves existing files as they were
and no partial outputs behind.

Each model's `_<model>(params, seed)` imports its model's module when it runs,
solves it once and returns (summary cells, table, chart): its sweep row and
builders of its CSV and SVG over that same result. A sweep calls neither
builder, so its rows agree with the CSV.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import io
import itertools
import json
import os
import stat
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import charts
from .config import MODELS, RunConfig, SweepSpec, _check_sweep, _params_class, build_model_params
from .errors import ConfigError, DomainError, LexsimError
from .rng import _check_ids

if TYPE_CHECKING:  # each model's module is imported by its function, when it runs
    from . import composition, contracts, evolution, frivolous, settlement

_SEED_MOD = 2**64


@dataclass
class RunResult:
    csv_path: str
    svg_path: str | None
    rows: int
    to_stdout: bool = False  # an output went to fd 1, this process's standard output


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header: list[str], rows: list[list[str]]) -> tuple[str, int]:
    """A list-row table's CSV text and row count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue(), len(rows)


_BLOCK = 4096  # settle rows laid out at a time


@functools.cache
def _digit_tables():
    """The four-digit groups "0000".."9999" as uint32 words of ASCII, then the same
    groups with trailing zeros as NUL ("1200" -> "12"); and 10^0..10^22, each exact."""
    import numpy as np

    q = np.arange(10_000)
    quads = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + 48
    bare = quads.copy()
    for c in (3, 2, 1, 0):
        bare[:, c] *= bare[:, c:].max(axis=1) > 48
    quads = np.concatenate([quads, bare]).astype(np.uint8).view(np.uint32).ravel()
    return quads, np.array([float(10**k) for k in range(23)])


def _two_product(a, b):
    """(hi, lo) with hi = fl(a * b) and hi + lo == a * b exactly (Dekker, Veltkamp splits)."""
    hi = a * b
    c = a * 134217729.0  # 2^27 + 1
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = b * 134217729.0
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _f_cells(x):
    """`_f` of each number in the float64 column `x`, as the ASCII rows of an (n, w)
    uint8 array: each cell left-aligned and NUL-padded to the array's width, w <= 24.

    A value with 1e-4 <= |v| < 1e15 is laid out from its 17 significant digits,
    which %.17g writes positionally: N = |v| * 10^k rounded to an integer, ties to
    even as Python's correctly rounded formatting does, k chosen so that N lies in
    [10^16, 10^17), and the decimal exponent is e = 16 - k. k = 16 - floor(log10|v|)
    may be one decade off near a power of ten; it is stepped until the exact product
    lies in [10^16, 10^17), so k stays in 1..21 and 10^k is exact (it is for k <= 22).
    `_two_product` gives that product exactly as hi + lo with |lo| <= ulp(hi) / 2. As
    hi >= 10^16 > 2^53, hi is an even integer, so hi + rint(lo) is the nearest integer
    to hi + lo with ties to even: N exactly. N never rounds up to 10^17: no double in
    the range lies within half a unit of the 17th digit below a power of ten.
    Rows are grouped by sign and e, and each group is laid out by slice copies: sign,
    "0." and leading zeros or the integer digits and point, then the fraction digits
    with trailing zeros dropped. Every other value (0, -0.0, subnormals and other
    magnitudes below 1e-4, 1e15 and above, inf and nan) is formatted by `_f`.
    """
    import numpy as np

    quads, pow10 = _digit_tables()
    n = len(x)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    while True:
        hi, lo = _two_product(a, pow10[k])
        step = ((hi < 1e16) | (hi == 1e16) & (lo < 0)).view(np.int8) - \
            ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).view(np.int8)
        if not step.any():
            break
        k += step
    m = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    key = (20 - k + 20 * (np.signbit(x) & fast)).astype(np.int8)  # 20 * sign + e + 4
    order = np.argsort(key, kind="stable")
    key, (lead, m) = key[order], divmod(m[order], 10**16)
    q = np.empty((n, 4), np.intp)  # the 16 digits after the lead as four groups
    q[:, 0], q[:, 1] = divmod(m // 10**8, 10**4)
    q[:, 2], q[:, 3] = divmod(m % 10**8, 10**4)
    strip = np.empty((n, 4), np.intp)  # 10^4 (quads' bare half) where no digit after is nonzero
    strip[:, 3] = 10**4
    for c in (2, 1, 0):
        strip[:, c] = strip[:, c + 1] * (q[:, c + 1] == 0)
    d = np.empty((n, 2, 17), np.uint8)  # the digits; then with trailing zeros as NUL
    d[:, :, 0] = (lead + 48)[:, None]
    d[:, 0, 1:] = quads[q].view(np.uint8).reshape(n, 16)
    d[:, 1, 1:] = quads[q + strip].view(np.uint8).reshape(n, 16)
    cells = np.zeros((n, 24), np.uint8)
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    width = 0
    for s, t in zip(starts, starts[1:] + [n]):
        neg, e = divmod(int(key[s]), 20)
        e -= 4
        g, i = cells[s:t], neg
        if neg:
            g[:, 0] = 45  # "-"
        if e >= 0:
            g[:, i:i + e + 1] = d[s:t, 0, :e + 1]
            g[:, i + e + 1] = np.where(d[s:t, 1, e + 1] > 0, 46, 0)  # "." before a fraction
            g[:, i + e + 2:i + 18] = d[s:t, 1, e + 1:]
        else:
            g[:, i:i + 1 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            g[:, i + 1 - e:i + 18 - e] = d[s:t, 1]
        width = max(width, i + 18 - min(e, 0))
    out = np.empty_like(cells)
    out.view("S24")[order, 0] = cells.view("S24")[:, 0]
    slow = np.flatnonzero(~fast).tolist()
    if slow:
        text = [_f(v).encode() for v in x[slow].tolist()]
        out.view("S24")[slow, 0] = text
        width = max(width, *map(len, text))
    return out[:, :width]


def _rows(*parts) -> str:
    """Rows of text from parts laid side by side: (m, w) uint8 arrays of ASCII and
    NUL, and strs common to every row. The NULs are dropped."""
    import numpy as np

    m = next(len(p) for p in parts if not isinstance(p, str))
    grid = np.concatenate([np.broadcast_to(np.frombuffer(p.encode(), np.uint8), (m, len(p)))
                           if isinstance(p, str) else p for p in parts], axis=1)
    return grid.tobytes().translate(None, b"\0").decode("ascii")


def _equilibrium(p: contracts.EquilibriumParams, seed: int):
    from .contracts import apply_shock, marginal_benefit, marginal_cost, solve_completeness

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


def _settle(p: settlement.SettleParams, seed: int):
    import numpy as np

    from .settlement import settle_columns

    a = settle_columns(p.disputes, p.rule, p.cost_reduction)
    n = len(p.disputes)
    settled = int(a["settle"].sum())
    widths = a["width"].tolist()

    def table():
        header = ["index", "rule", "p_q", "p_g", "j", "c_q", "c_g", "cost_reduction",
                  "lower", "upper", "width", "outcome", "amount", "shrink_ratio"]
        # every cell is a number, a fixed enum word or empty, so no cell needs CSV
        # quoting; rows are laid out in blocks, which bounds the memory they hold
        outcomes = np.frombuffer(b",trial,\0,settle,", np.uint8).reshape(2, 8)
        names = ["p_q", "p_g", "j", "c_q", "c_g", "lower", "upper", "width", "amount", "ratio"]
        cols = [np.arange(n, dtype=np.float64)] + [a[k] for k in names]
        text = [",".join(header) + "\n"]
        for r0 in range(0, n, _BLOCK):
            rows = slice(r0, r0 + _BLOCK)
            index, p_q, p_g, j, c_q, c_g, lower, upper, width, amount, ratio = (
                _f_cells(c[rows]) for c in cols)
            settle = a["settle"][rows]
            amount[~settle] = 0  # NUL cells: a trial's amount, an undefined ratio
            ratio[np.isnan(a["ratio"][rows])] = 0
            text.append(_rows(index, f",{p.rule.value},", p_q, ",", p_g, ",", j, ",", c_q, ",",
                              c_g, f",{_f(p.cost_reduction)},", lower, ",", upper, ",", width,
                              outcomes[settle.view(np.uint8)], amount, ",", ratio, "\n"))
        return "".join(text), n

    def chart():
        return charts.line_chart([("range width", range(n), widths)],
                                 title="Settlement range width by dispute",
                                 x_label="dispute index", y_label="width")

    # Python's sum adds one width at a time; np.sum's pairwise sum could move
    # the last digit of a sweep cell
    return [str(n), str(settled), str(n - settled), _f(sum(widths) / n)], table, chart


def _frivolous(p: frivolous.FrivolousParams, seed: int):
    from .frivolous import PlaintiffType, filing_region_shift, play

    outcomes = [play(ptype, p.game, p.belief) for ptype in PlaintiffType]
    filed = ["true" if o.filed else "false" for o in outcomes]

    def table():
        header = ["plaintiff_type", "belief", "filed", "defendant_action",
                  "plaintiff_followup", "plaintiff_payoff", "defendant_payoff", "region_shift"]
        belief = 0.0 if p.belief is None else p.belief
        region = "" if p.shift is None else \
            filing_region_shift(p.game, p.shift.delta_f, p.shift.delta_d).value
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


def _evolve(p: evolution.EvolveParams, seed: int):
    from .evolution import simulate

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
        return charts.line_chart([("fraction efficient", trace.t, trace.fraction_efficient)],
                                 title=f"Efficient rules over time ({trace.area_name})",
                                 x_label="period", y_label="fraction efficient")

    cells = [_f(trace.fraction_efficient[-1])] + [str(int(c.sum())) for c in counts[:3]]
    return cells, table, chart


def _composition(p: composition.CompositionParams, seed: int):
    from .composition import relative_price_change, shift_composition

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
        xs = range(len(shifts))
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
    """Put `value` at the dotted `path` in `raw`, copying each object along the path
    first, so what `raw` shares with another config stays as it was."""
    *parents, last = path.split(".")
    cursor = raw
    for i, seg in enumerate(parents):
        nxt = cursor.get(seg, {})
        if not isinstance(nxt, dict):
            kind = {list: "a list", str: "a string", bool: "a boolean", type(None): "null"}
            raise ConfigError([(path, f"path runs through {'.'.join(parents[:i + 1])}, "
                                      f"{kind.get(type(nxt), 'a number')}, not an object")])
        cursor[seg] = cursor = dict(nxt)
    cursor[last] = value


def _axis_cell(value) -> str:
    if type(value) is float:  # an int (and a bool: true, false) as json.dumps writes it
        return _f(value)
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sweep(spec: SweepSpec, cfg: RunConfig):
    errs: list[tuple[str, str]] = []
    _check_sweep(vars(spec), errs, cfg.raw)  # one built in code meets a config's rules too
    if errs:
        raise ConfigError(errs)
    paths = [axis.path for axis in spec.axes]
    grid = list(itertools.product(*(axis.values for axis in spec.axes)))
    print(f"sweep: {len(grid)} grid point(s) x {spec.replicates} replicate(s) = "
          f"{len(grid) * spec.replicates} run(s)", file=sys.stderr)
    summary_header, model = _MODELS[spec.model]
    points = []  # (point, coords, params): every point is validated before any runs
    point_errs: list[tuple[str, str]] = []
    for point in grid:
        coords = ", ".join(f"{p}={v}" for p, v in zip(paths, point))
        raw_point = dict(cfg.raw)
        for path, value in zip(paths, point):
            _set_path(raw_point, path, value)
        errs = []
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
        return charts.line_chart([(summary_header[0], range(len(rows)), ys)],
                                 title=f"Sweep of {spec.model}: {summary_header[0]}",
                                 x_label="run index", y_label=summary_header[0])

    return lambda: _csv(paths + ["replicate", "seed"] + summary_header, rows), chart


def run(cfg: RunConfig) -> RunResult:
    """Execute the configured model and write outputs; returns what was written."""
    if cfg.model not in MODELS:
        raise DomainError(f"unknown model {cfg.model!r}; expected one of {list(MODELS)}")
    cls = _params_class(cfg.model)
    if not isinstance(cfg.params, cls):  # the loader always pairs them; code may not
        raise DomainError(f"model {cfg.model!r} runs on {cls.__name__}, "
                          f"got {type(cfg.params).__name__}")
    _check_ids(cfg.seed, 0)  # the seed of a config built in code, as rng checks it
    if cfg.output_path is None:
        raise DomainError("run configuration has no output path")
    target = _target(cfg.output_path)[0]  # a path open refuses stops the run here
    if cfg.svg_path is not None and _target(cfg.svg_path)[0] == target:
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
    return RunResult(cfg.output_path, cfg.svg_path, n_rows, _write_all(outputs))


def _target(path: str) -> tuple[str | int, int | None]:
    """What `open(path, "w")` would write, walked by the OS as open walks it ("x/.."
    needs x): 1 for the file behind fd 1, this process's standard output, else the
    path's real path; and that file's mode, None for a new file open would create.
    A path open refuses raises stat's OSError, or EISDIR for a directory, naming `path`."""
    try:
        st = os.stat(path)  # follows links
    except FileNotFoundError:  # a new file, if open can create it: not '' or "name/", in
        real = os.path.realpath(path)  # a directory there as written and past a dangling link
        if not (os.path.basename(path) and os.path.isdir(os.path.dirname(path) or ".")
                and os.path.isdir(os.path.dirname(real))):
            raise
        return real, None
    if stat.S_ISDIR(st.st_mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    with contextlib.suppress(OSError):  # fd 1 may be closed
        if os.path.samestat(st, os.fstat(1)):
            return 1, st.st_mode
    return os.path.realpath(path), st.st_mode


def _write_all(outputs: list[tuple[str, str]]) -> bool:
    """Write every (path, text) or, failing, leave every file as it was; True if one went to fd 1.

    Each path is resolved by `_target`, so one that `open(path, "w")` refuses raises its
    OSError before anything is renamed. A new or regular file gets its text in a new
    temporary file beside its real path (so a symlinked output keeps its link), named by
    a random token alone so that any name open accepts can be staged, with the
    mode of the file it replaces, or 0666 & ~umask for a new one as open gives; the
    targets are replaced only once all are written. Any other file (a device such as
    /dev/null, a FIFO) holds no earlier output to keep and is written in place, and
    standard output to fd 1 after any text already printed to `sys.stdout`. Every
    output is UTF-8 whatever the locale; text it cannot hold raises UnicodeEncodeError.
    """
    staged: list[tuple[str, str]] = []  # (temporary, target), not yet renamed
    in_place: list[tuple[str | int, str]] = []  # (path, or 1 for stdout, text)
    try:
        for path, text in outputs:
            target, mode = _target(path)  # again: what `run` saw may be stale by now
            if target == 1 or mode is not None and not stat.S_ISREG(mode):
                in_place.append((1 if target == 1 else path, text))
                continue
            tmp = os.path.join(os.path.dirname(target), f".{os.urandom(8).hex()}.tmp")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from None
            staged.append((tmp, target))
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                fh.write(text)
        for path, text in in_place:
            if path == 1:
                sys.stdout.flush()
            with open(path, "w", encoding="utf-8", newline="", closefd=path != 1) as fh:
                fh.write(text)
        while staged:
            os.replace(*staged[0])
            staged.pop(0)
        return any(path == 1 for path, _ in in_place)
    finally:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
