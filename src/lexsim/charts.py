"""Dependency-free SVG line charts.

One fixed layout, byte-deterministic output: the same series always render to
the same text, which is what the reproducibility contract of the run harness
needs. Nothing here is configurable beyond labels on purpose.

Every coordinate is written as `%.2f` writes it. A chart whose series are all
float64 numpy arrays keeps them as arrays: it places the points with the same
operations in the same order as the per-point code for lists, so it gets the
same doubles, and lays out their text with `_points`, an exact vectorized
`%.2f`. The path is chosen by the series' type alone, and a chart of lists never
imports numpy.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

_PALETTE = ("#1f6feb", "#d2491f", "#2da44e", "#8250df", "#bf8700", "#57606a")
_TICKS = 5
_WIDTH, _HEIGHT = 720.0, 440.0  # the canvas, margins included
# element text: & < > escaped, and each code point XML 1.0 forbids shown as U+FFFD
_TEXT = dict.fromkeys([*range(9), 11, 12, *range(14, 32), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF],
                      "\ufffd") | {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"}


def _span(values: list[float], axis: str) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.05 or 0.5  # 0.5 also where 5% of a subnormal rounds to 0
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    if not math.isfinite(hi - lo):
        raise DomainError(f"the {axis} values span more than the float range")
    return lo, hi


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


def _points(px, py) -> str:
    """The polyline text `" ".join("%.2f,%.2f" % p for p in zip(px, py))` of float64 arrays.

    Each value v, a coordinate on the canvas, lies in [0, 999.995), so its cents fit
    "III.FF". `_two_product` gives v * 100 exactly as hi + lo; rint(hi) is the nearest
    integer to that but where hi is a half: then lo, if not 0, says on which side the
    exact product lies, and an exact tie stays with rint's half-even, as `%.2f` rounds
    the exact decimal value of v. (A hi off a half is at least half a unit of it away,
    and |lo| is at most that, so hi + lo rounds as hi does.) Each coordinate's text is
    one little-endian word of "III.FF", its separator and a NUL; the NULs are dropped.
    """
    import numpy as np

    v = np.stack([px, py], axis=1)
    assert not np.signbit(v).any() and (v < 999.995).all()  # -0.0 would be "-0.00"
    hi, lo = _two_product(v, 100.0)
    cents = np.rint(hi)
    tie = np.nonzero((np.abs(hi - cents) == 0.5) & (lo != 0))
    cents[tie] = hi[tie] + np.copysign(0.5, lo[tie])
    k = np.arange(1000)[:, None]
    digits = (k // [100, 10, 1] % 10 + 48).astype(np.uint8)
    whole, frac = np.zeros((1000, 8), np.uint8), np.zeros((100, 8), np.uint8)
    whole[:, :3] = np.where(k >= [100, 10, 0], digits, 0)  # leading zeros as NUL
    whole[:, 3] = 46  # "."
    frac[:, 4:6] = digits[:100, 1:]
    w = (cents / 100).astype(np.intp)  # exact: c / 100 rounds to no integer above c // 100
    words = whole.view("<u8")[w, 0] | frac.view("<u8")[cents.astype(np.intp) - 100 * w, 0]
    words |= np.array([44 << 48, 32 << 48], "<u8")  # "," after x, " " after y, in byte 6
    return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: float) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x: str, y: str, body: str, size: int, fill: str, anchor="", transform="") -> str:
    """A <text> element at attribute texts x and y; the one place chart text is escaped."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}" '
            f'fill="{fill}"{transform}>{body.translate(_TEXT)}</text>')


def line_chart(series: list[tuple[str, list[float], list[float]]], title: str = "",
               x_label: str = "", y_label: str = "") -> str:
    """Render labeled (xs, ys) series, each of xs and ys any iterable of reals, to SVG text.

    Series that are all 1-D float64 numpy arrays are laid out as arrays, to the same bytes.

    Raises DomainError on empty input, mismatched lengths, or a non-finite value or span.
    """
    if not series:
        raise DomainError("at least one series is required")
    np = sys.modules.get("numpy")  # an array can only come from a run that loaded it
    if np is None or not all(isinstance(c, np.ndarray) and c.dtype == np.float64 and c.ndim == 1
                             for _, xs, ys in series for c in (xs, ys)):
        np = None
        series = [(label, list(map(float, xs)), list(map(float, ys))) for label, xs, ys in series]
    for label, xs, ys in series:
        if len(xs) != len(ys) or len(xs) == 0:
            raise DomainError(f"series {label!r} needs equal, nonzero x/y lengths")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all() if np else
                all(map(math.isfinite, xs + ys))):
            raise DomainError(f"series {label!r} contains a non-finite value")

    ends = (min, max) if np is None else (np.min, np.max)  # each series' ends give the span
    x_lo, x_hi = _span([float(end(xs)) for _, xs, _ in series for end in ends], "x")
    y_lo, y_hi = _span([float(end(ys)) for _, _, ys in series for end in ends], "y")
    left, right, top, bottom = 72.0, 24.0, 40.0 if title else 24.0, 52.0
    plot_w, plot_h = _WIDTH - left - right, _HEIGHT - top - bottom
    x_span, y_span, base = x_hi - x_lo, y_hi - y_lo, top + plot_h
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
           f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
           f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>']
    if title:
        out.append(_text(_fmt(_WIDTH / 2), "24", title, 15, "#24292f", "middle"))

    for k in range(_TICKS):
        frac = k / (_TICKS - 1)
        gx, gy = x_lo + frac * x_span, y_lo + frac * y_span
        xp = left + (gx - x_lo) / x_span * plot_w  # as the polyline places a point
        yp = base - (gy - y_lo) / y_span * plot_h
        out += [_line(xp, top, xp, base, "#d0d7de", 0.5),
                _line(left, yp, left + plot_w, yp, "#d0d7de", 0.5),
                _text(_fmt(xp), _fmt(base + 18), format(gx, ".6g"), 11, "#57606a", "middle"),
                _text(_fmt(left - 8), _fmt(yp + 4), format(gy, ".6g"), 11, "#57606a", "end")]

    out.append(f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(plot_w)}" '
               f'height="{_fmt(plot_h)}" fill="none" stroke="#57606a" stroke-width="1"/>')

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # the polyline holds every point of the series; arrays place them as lists do
        if np is None:  # the only per-point code
            points = " ".join(["%.2f,%.2f" % (left + (x - x_lo) / x_span * plot_w,
                                              base - (y - y_lo) / y_span * plot_h)
                               for x, y in zip(xs, ys)])
        else:
            points = _points(left + (xs - x_lo) / x_span * plot_w,
                             base - (ys - y_lo) / y_span * plot_h)
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if len(series) > 1:
            ly = top + 16 + 16 * idx
            out += [_line(left + plot_w - 120, ly - 4, left + plot_w - 98, ly - 4, color, 1.5),
                    _text(_fmt(left + plot_w - 92), _fmt(ly), label, 11, "#24292f")]

    if x_label:
        out.append(_text(_fmt(left + plot_w / 2), _fmt(_HEIGHT - 12), x_label, 12, "#24292f",
                         "middle"))
    if y_label:
        mid = _fmt(top + plot_h / 2)
        out.append(_text("16", mid, y_label, 12, "#24292f", "middle", f"rotate(-90 16 {mid})"))

    out.append("</svg>")
    return "\n".join(out) + "\n"
