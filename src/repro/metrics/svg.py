"""Standalone SVG rendering of DET curves (paper Fig. 3 as an artifact).

No plotting dependency is available offline, so this module writes the
DET figure directly as SVG: probit-scaled axes, percentage tick labels at
the NIST-customary operating points, one polyline per system, and a
legend.  The output opens in any browser and embeds in markdown.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import ndtri

__all__ = ["det_curves_svg", "save_det_svg"]

_TICKS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.40)
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _probit(p: np.ndarray | float) -> np.ndarray:
    return ndtri(np.clip(p, 1e-4, 1 - 1e-4))


def det_curves_svg(
    curves: dict[str, tuple[np.ndarray, np.ndarray]],
    *,
    width: int = 480,
    height: int = 480,
    p_range: tuple[float, float] = (0.008, 0.50),
    title: str = "DET curves",
) -> str:
    """Render named ``(P_fa, P_miss)`` curves as an SVG document string."""
    if not curves:
        raise ValueError("need at least one curve")
    margin = 56
    lo, hi = _probit(p_range[0]), _probit(p_range[1])
    span = hi - lo

    def sx(p):
        return margin + (_probit(p) - lo) / span * (width - 2 * margin)

    def sy(p):
        return height - margin - (_probit(p) - lo) / span * (
            height - 2 * margin
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # Axes box.
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" '
        f'height="{height-2*margin}" fill="none" stroke="#444"/>'
    )
    # Grid + tick labels.
    for tick in _TICKS:
        if not p_range[0] <= tick <= p_range[1]:
            continue
        x, y = sx(tick), sy(tick)
        label = f"{100*tick:g}%"
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin}" x2="{x:.1f}" '
            f'y2="{height-margin}" stroke="#ddd"/>'
        )
        parts.append(
            f'<line x1="{margin}" y1="{y:.1f}" x2="{width-margin}" '
            f'y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height-margin+16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
        parts.append(
            f'<text x="{margin-6}" y="{y+3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
    # Axis titles.
    parts.append(
        f'<text x="{width/2:.0f}" y="{height-12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">'
        "False alarm probability</text>"
    )
    parts.append(
        f'<text x="14" y="{height/2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {height/2:.0f})">'
        "Miss probability</text>"
    )
    # Curves.
    for idx, (name, (p_fa, p_miss)) in enumerate(curves.items()):
        color = _COLORS[idx % len(_COLORS)]
        keep = (
            (p_fa >= p_range[0] / 2)
            & (p_fa <= p_range[1] * 1.5)
            & (p_miss >= p_range[0] / 2)
            & (p_miss <= p_range[1] * 1.5)
        )
        xs = np.array([sx(p) for p in np.asarray(p_fa)[keep]])
        ys = np.array([sy(p) for p in np.asarray(p_miss)[keep]])
        if xs.size == 0:
            continue
        points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        ly = margin + 18 + 16 * idx
        parts.append(
            f'<line x1="{width-margin-110}" y1="{ly-4}" '
            f'x2="{width-margin-86}" y2="{ly-4}" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{width-margin-80}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def save_det_svg(
    path: str | Path,
    curves: dict[str, tuple[np.ndarray, np.ndarray]],
    **kwargs,
) -> Path:
    """Write :func:`det_curves_svg` output to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(det_curves_svg(curves, **kwargs))
    return path
