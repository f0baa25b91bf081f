"""Power-law rate fitting on log-log axes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .errors import ConfigError

__all__ = ["RateFit", "fit_rate"]


@dataclass(frozen=True)
class RateFit:
    """Weighted least-squares fit of ``log value`` against ``log abscissa``."""

    slope: float
    intercept: float
    r_squared: float
    ci95: tuple

    def __post_init__(self):
        lo, hi = self.ci95
        if not (lo <= self.slope <= hi):
            raise ValueError("confidence interval must contain the slope")


def fit_rate(points) -> RateFit:
    """Fit ``value ~ C * abscissa^slope`` from (abscissa, value[, weight]) rows.

    Refuses fewer than 4 points, or an abscissa, value or weight that is not
    positive and finite, with a ``ConfigError`` naming ``points``.  The 95%
    confidence interval comes from the t-statistic of the slope; for an exact
    two-parameter fit through duplicated data the interval degenerates to the
    slope itself.
    """
    rows = [tuple(p) for p in points]
    if len(rows) < 4:
        raise ConfigError(f"rate fitting needs at least 4 points, got {len(rows)}", field="points")
    xs = np.array([r[0] for r in rows], dtype=float)
    ys = np.array([r[1] for r in rows], dtype=float)
    ws = np.array([r[2] if len(r) > 2 else 1.0 for r in rows], dtype=float)
    for name, a in (("abscissa", xs), ("value", ys), ("weight", ws)):
        if not np.all((a > 0) & (a < np.inf)):
            raise ConfigError(f"every {name} of a log-log fit must be positive and finite, "
                              f"got {a.tolist()}", field="points")
    lx, ly = np.log(xs), np.log(ys)
    W = np.diag(ws)
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(np.sqrt(W) @ A, np.sqrt(ws) * ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])

    resid = ly - A @ coef
    ss_res = float(np.sum(ws * resid**2))
    ybar = float(np.sum(ws * ly) / np.sum(ws))
    ss_tot = float(np.sum(ws * (ly - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))

    dof = len(rows) - 2
    sxx = float(np.sum(ws * (lx - np.sum(ws * lx) / np.sum(ws)) ** 2))
    if dof > 0 and sxx > 0 and ss_res > 0:
        se = np.sqrt(ss_res / dof / sxx)
        half = float(stdtrit(dof, 0.975)) * se
    else:
        half = 0.0
    return RateFit(slope=slope, intercept=intercept, r_squared=r2, ci95=(slope - half, slope + half))
