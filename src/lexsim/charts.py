"""Dependency-free SVG line charts.

One fixed layout, byte-deterministic output: the same series always render to
the same text, which is what the reproducibility contract of the run harness
needs. Nothing here is configurable beyond labels on purpose.
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

    Raises DomainError on empty input, mismatched lengths, or a non-finite value or span.
    """
    if not series:
        raise DomainError("at least one series is required")
    series = [(label, list(map(float, xs)), list(map(float, ys))) for label, xs, ys in series]
    for label, xs, ys in series:
        if len(xs) != len(ys) or len(xs) == 0:
            raise DomainError(f"series {label!r} needs equal, nonzero x/y lengths")
        if not all(map(math.isfinite, xs + ys)):
            raise DomainError(f"series {label!r} contains a non-finite value")

    x_lo, x_hi = _span([x for _, xs, _ in series for x in xs], "x")
    y_lo, y_hi = _span([y for _, _, ys in series for y in ys], "y")
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
        # the only per-point code: the polyline holds every point of the series
        points = " ".join(["%.2f,%.2f" % (left + (x - x_lo) / x_span * plot_w,
                                          base - (y - y_lo) / y_span * plot_h)
                           for x, y in zip(xs, ys)])
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
