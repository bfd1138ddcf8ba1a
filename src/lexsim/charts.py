"""Dependency-free SVG line charts.

One fixed layout, byte-deterministic output: the same series always render to
the same text, which is what the reproducibility contract of the run harness
needs. Nothing here is configurable beyond labels on purpose.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from html import escape

from .errors import DomainError

_PALETTE = ("#1f6feb", "#d2491f", "#2da44e", "#8250df", "#bf8700", "#57606a")
_TICKS = 5
_WIDTH, _HEIGHT = 720.0, 440.0  # the canvas, margins included
_escape = partial(escape, quote=False)  # element text: only & < > need escaping


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
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom
    x_span, y_span, base = x_hi - x_lo, y_hi - y_lo, top + plot_h

    def px(x: float) -> float:
        return left + (x - x_lo) / x_span * plot_w

    def py(y: float) -> float:
        return base - (y - y_lo) / y_span * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>',
    ]
    if title:
        out.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#24292f">{_escape(title)}</text>'
        )

    for k in range(_TICKS):
        frac = k / (_TICKS - 1)
        gx = x_lo + frac * x_span
        gy = y_lo + frac * y_span
        xp, yp = px(gx), py(gy)
        out.append(
            f'<line x1="{_fmt(xp)}" y1="{_fmt(top)}" x2="{_fmt(xp)}" '
            f'y2="{_fmt(base)}" stroke="#d0d7de" stroke-width="0.5"/>'
        )
        out.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(yp)}" x2="{_fmt(left + plot_w)}" '
            f'y2="{_fmt(yp)}" stroke="#d0d7de" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{_fmt(xp)}" y="{_fmt(base + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#57606a">{format(gx, ".6g")}</text>'
        )
        out.append(
            f'<text x="{_fmt(left - 8)}" y="{_fmt(yp + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#57606a">{format(gy, ".6g")}</text>'
        )

    out.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#57606a" stroke-width="1"/>'
    )

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # px and py inlined: the polyline holds every point of the series
        points = " ".join(["%.2f,%.2f" % (left + (x - x_lo) / x_span * plot_w,
                                          base - (y - y_lo) / y_span * plot_h)
                           for x, y in zip(xs, ys)])
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if len(series) > 1:
            ly = top + 16 + 16 * idx
            out.append(
                f'<line x1="{_fmt(left + plot_w - 120)}" y1="{_fmt(ly - 4)}" '
                f'x2="{_fmt(left + plot_w - 98)}" y2="{_fmt(ly - 4)}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(
                f'<text x="{_fmt(left + plot_w - 92)}" y="{_fmt(ly)}" '
                f'font-family="sans-serif" font-size="11" fill="#24292f">{_escape(label)}</text>'
            )

    if x_label:
        out.append(
            f'<text x="{_fmt(left + plot_w / 2)}" y="{_fmt(_HEIGHT - 12)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#24292f">{_escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{_fmt(top + plot_h / 2)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#24292f" '
            f'transform="rotate(-90 16 {_fmt(top + plot_h / 2)})">{_escape(y_label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
