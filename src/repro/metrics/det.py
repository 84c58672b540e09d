"""Detection error trade-off (DET) curves (paper Fig. 3).

A DET curve plots miss probability against false-alarm probability on
normal-deviate (probit) axes, where Gaussian-scored systems trace straight
lines.  :func:`det_curve` returns the (P_fa, P_miss) operating points of a
pooled trial set; :func:`det_points_probit` maps them through the probit
for plotting; :func:`render_det_ascii` draws a terminal plot so the
benchmark harness can "show" Fig. 3 without matplotlib.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from repro.metrics.eer import split_trials

__all__ = ["det_curve", "det_points_probit", "render_det_ascii"]


def det_curve(
    target_scores: np.ndarray, nontarget_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Operating points ``(P_fa, P_miss)`` over all score thresholds.

    Points are ordered by increasing threshold: P_miss ascends while P_fa
    descends.
    """
    tar = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if tar.size == 0 or non.size == 0:
        raise ValueError("need both target and non-target scores")
    thresholds = np.unique(np.concatenate([tar, non]))
    p_miss = np.searchsorted(tar, thresholds, side="left") / tar.size
    p_fa = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    return p_fa, p_miss


def det_points_probit(
    scores: np.ndarray, labels: np.ndarray, *, clip: float = 1e-4
) -> tuple[np.ndarray, np.ndarray]:
    """Probit-scaled DET points of a ``(m, K)`` score matrix.

    Probabilities are clipped to ``[clip, 1-clip]`` before the probit so
    the axes stay finite at the extremes.
    """
    tar, non = split_trials(scores, labels)
    p_fa, p_miss = det_curve(tar, non)
    p_fa = np.clip(p_fa, clip, 1.0 - clip)
    p_miss = np.clip(p_miss, clip, 1.0 - clip)
    return ndtri(p_fa), ndtri(p_miss)


def render_det_ascii(
    curves: dict[str, tuple[np.ndarray, np.ndarray]],
    *,
    width: int = 64,
    height: int = 24,
    p_range: tuple[float, float] | None = None,
) -> str:
    """ASCII DET plot of named ``(P_fa, P_miss)`` curves.

    Axes are probit-scaled over ``p_range``; each curve is drawn with its
    own marker (first letter of its name).  With ``p_range=None`` the axes
    auto-scale to the data (clipped to [0.001, 0.7]).
    """
    if p_range is None:
        probs = np.concatenate(
            [np.concatenate(c) for c in curves.values()]
        )
        probs = probs[(probs > 0) & (probs < 1)]
        if probs.size == 0:
            p_range = (0.01, 0.60)
        else:
            p_range = (
                float(np.clip(probs.min() * 0.8, 1e-3, 0.5)),
                float(np.clip(probs.max() * 1.1, 0.05, 0.7)),
            )
    lo, hi = ndtri(p_range[0]), ndtri(p_range[1])
    grid = [[" " for _ in range(width)] for _ in range(height)]

    def to_cell(x: float, y: float) -> tuple[int, int] | None:
        if not (lo <= x <= hi and lo <= y <= hi):
            return None
        col = int((x - lo) / (hi - lo) * (width - 1))
        row = int((hi - y) / (hi - lo) * (height - 1))
        return row, col

    for name, (p_fa, p_miss) in curves.items():
        marker = name[0] if name else "?"
        xs = ndtri(np.clip(p_fa, 1e-4, 1 - 1e-4))
        ys = ndtri(np.clip(p_miss, 1e-4, 1 - 1e-4))
        for x, y in zip(xs, ys):
            cell = to_cell(float(x), float(y))
            if cell is not None:
                grid[cell[0]][cell[1]] = marker
    lines = ["P_miss (probit) vs P_fa (probit)"]
    lines += ["|" + "".join(row) + "|" for row in grid]
    lines.append("+" + "-" * width + "+")
    legend = "   ".join(f"{name[0]} = {name}" for name in curves)
    lines.append(legend)
    return "\n".join(lines)
