"""Standalone SVG training-curve rendering: mean lines with ±1 std bands."""

from __future__ import annotations

import math
import re
from pathlib import Path

from .runner import AggregateSeries

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 900.0, 540.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 24.0, 52.0

# Characters XML 1.0 forbids even escaped: the C0 controls other than tab,
# LF and CR, the surrogates (a file name's undecodable bytes) and U+FFFE and
# U+FFFF. A legend label shows U+FFFD instead.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def render_svg(series: list[tuple[str, AggregateSeries]], path) -> None:
    """Write one polyline per labelled series plus translucent std bands.

    Coordinates come from linear min-max scaling over all inputs; legend
    entries appear in input order.
    """
    if not series:
        raise ValueError("empty input: nothing to plot")
    for label, agg in series:
        if not agg.mean:
            raise ValueError(f"series {label!r} is empty")

    x_hi = max(max(len(agg.mean) - 1, 1) for _, agg in series)
    y_lo = min(m - s for _, agg in series for m, s in zip(agg.mean, agg.std))
    y_hi = max(m + s for _, agg in series for m, s in zip(agg.mean, agg.std))
    if y_lo == y_hi:
        y_lo -= 1.0
        y_hi += 1.0
    # An overflowing band, or a constant too large to widen, cannot be scaled.
    if not 0.0 < y_hi - y_lo < math.inf:
        raise ValueError(f"values from {y_lo:g} to {y_hi:g} are too large to plot")

    def sx(e: float) -> float:
        return _ML + (_WIDTH - _ML - _MR) * (e / x_hi)

    def sy(v: float) -> float:
        return _MT + (_HEIGHT - _MT - _MB) * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
    ]

    ax_y = _HEIGHT - _MB
    parts.append(f'<g id="axes" stroke="#333333" stroke-width="1">')
    parts.append(f'<line x1="{_ML:.2f}" y1="{ax_y:.2f}" x2="{_WIDTH - _MR:.2f}" y2="{ax_y:.2f}"/>')
    parts.append(f'<line x1="{_ML:.2f}" y1="{_MT:.2f}" x2="{_ML:.2f}" y2="{ax_y:.2f}"/>')
    parts.append('</g>')

    parts.append('<g id="ticks" font-family="sans-serif" font-size="12" fill="#333333">')
    for tv in _ticks(0.0, float(x_hi)):
        x = sx(tv)
        parts.append(f'<line x1="{x:.2f}" y1="{ax_y:.2f}" x2="{x:.2f}" y2="{ax_y + 5:.2f}" stroke="#333333"/>')
        parts.append(f'<text x="{x:.2f}" y="{ax_y + 20:.2f}" text-anchor="middle">{tv:g}</text>')
    for tv in _ticks(y_lo, y_hi):
        y = sy(tv)
        parts.append(f'<line x1="{_ML - 5:.2f}" y1="{y:.2f}" x2="{_ML:.2f}" y2="{y:.2f}" stroke="#333333"/>')
        parts.append(f'<text x="{_ML - 8:.2f}" y="{y + 4:.2f}" text-anchor="end">{tv:.4g}</text>')
    parts.append(f'<text x="{(_ML + _WIDTH - _MR) / 2:.2f}" y="{_HEIGHT - 12:.2f}" '
                 'text-anchor="middle">episode</text>')
    parts.append(f'<text x="16" y="{(_MT + ax_y) / 2:.2f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT + ax_y) / 2:.2f})">mean true return</text>')
    parts.append('</g>')

    for i, (label, agg) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        upper = [(sx(e), sy(m + s)) for e, (m, s) in enumerate(zip(agg.mean, agg.std))]
        lower = [(sx(e), sy(m - s)) for e, (m, s) in enumerate(zip(agg.mean, agg.std))]
        pts = upper + lower[::-1]
        band = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.2" stroke="none"/>')
        line = " ".join(f"{sx(e):.2f},{sy(m):.2f}" for e, m in enumerate(agg.mean))
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>')

    parts.append('<g id="legend" font-family="sans-serif" font-size="13">')
    lx = _WIDTH - _MR - 200
    for i, (label, _) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        ly = _MT + 14 + 20 * i
        # Escaped by hand: xml.sax.saxutils imports urllib and 40 more modules.
        label = (_NOT_XML.sub("\ufffd", label)
                 .replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
        parts.append(f'<line x1="{lx:.2f}" y1="{ly:.2f}" x2="{lx + 28:.2f}" y2="{ly:.2f}" '
                     f'stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{lx + 36:.2f}" y="{ly + 4:.2f}" fill="#333333">{label}</text>')
    parts.append('</g>')

    parts.append('</svg>')
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
