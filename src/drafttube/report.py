"""Plot emission as standalone SVG markup (no plotting dependency)."""

from __future__ import annotations

from html import escape

import numpy as np

__all__ = ["svg_scatter", "svg_polylines"]

_W, _H = 640, 480
_MARGIN = 60
_COLORS = ("#1f6fb4", "#d1342f", "#2f9e44", "#b07d0a", "#7048a8")


def _axes(x_min, x_max, y_min, y_max, x_label, y_label, title):
    def sx(x):
        return _MARGIN + (x - x_min) / (x_max - x_min) * (_W - 2 * _MARGIN)

    def sy(y):
        return _H - _MARGIN - (y - y_min) / (y_max - y_min) * (_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16">'
        f'{escape(title, quote=False)}</text>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W / 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="13">{escape(x_label, quote=False)}</text>',
        f'<text x="18" y="{_H / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_H / 2})">'
        f'{escape(y_label, quote=False)}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        parts.append(f'<text x="{sx(xv):.1f}" y="{_H - _MARGIN + 18}" '
                     f'text-anchor="middle" font-size="11">{xv:.4g}</text>')
        parts.append(f'<text x="{_MARGIN - 8}" y="{sy(yv):.1f}" '
                     f'text-anchor="end" font-size="11">{yv:.4g}</text>')
    return parts, sx, sy


def _bounds(vals):
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def svg_scatter(series: dict, x_label: str, y_label: str, title: str,
                highlight: dict | None = None) -> str:
    """Scatter plot of named (n, 2) arrays; ``highlight`` marks named points."""
    all_pts = np.vstack([np.atleast_2d(v) for v in series.values()]
                        + ([np.atleast_2d(list(highlight.values()))]
                           if highlight else []))
    x_min, x_max = _bounds(all_pts[:, 0])
    y_min, y_max = _bounds(all_pts[:, 1])
    parts, sx, sy = _axes(x_min, x_max, y_min, y_max, x_label, y_label, title)
    for ci, (name, pts) in enumerate(series.items()):
        color = _COLORS[ci % len(_COLORS)]
        for x, y in np.atleast_2d(pts):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                         f'fill="{color}" fill-opacity="0.7"/>')
        parts.append(f'<text x="{_W - _MARGIN}" y="{_MARGIN + 16 * ci}" '
                     f'text-anchor="end" font-size="12" fill="{color}">'
                     f'{escape(name, quote=False)}</text>')
    if highlight:
        for name, (x, y) in highlight.items():
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="6" '
                         f'fill="none" stroke="black" stroke-width="2"/>')
            parts.append(f'<text x="{sx(x) + 8:.2f}" y="{sy(y) - 8:.2f}" '
                         f'font-size="12">{escape(name, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_polylines(series: dict, x_label: str, y_label: str, title: str,
                  log_y: bool = False) -> str:
    """Line plot of named traces given as (n, 2) arrays of (x, y)."""
    pts = np.vstack([np.atleast_2d(v) for v in series.values()])
    ys = pts[:, 1]
    if log_y:
        ys = np.log10(np.maximum(ys, 1e-300))
    x_min, x_max = _bounds(pts[:, 0])
    y_min, y_max = _bounds(ys)
    y_lab = f"log10({y_label})" if log_y else y_label
    parts, sx, sy = _axes(x_min, x_max, y_min, y_max, x_label, y_lab, title)
    for ci, (name, tr) in enumerate(series.items()):
        tr = np.atleast_2d(tr)
        color = _COLORS[ci % len(_COLORS)]
        yv = np.log10(np.maximum(tr[:, 1], 1e-300)) if log_y else tr[:, 1]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                          for x, y in zip(tr[:, 0], yv))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MARGIN}" y="{_MARGIN + 16 * ci}" '
                     f'text-anchor="end" font-size="12" fill="{color}">'
                     f'{escape(name, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
