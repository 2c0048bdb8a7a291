"""Grid-based checks of the regularity-compatibility conditions.

The strict-mode condition bounds sigma*omega(1/sigma) by a multiple of
phi(sigma); the weak-mode condition bounds sigma by a multiple of
phi(sigma / sqrt(omega(1/sigma))).  On a finite grid the ratio maximum is
always finite, so boundedness is diagnosed by the fitted log-log growth of
the ratio over the top decades: a compatible pair levels off (slope <= 0 up
to noise) while a derivative-loss pair keeps growing.  The continuity check
takes its (grid, grid) pair tables in row blocks of ``blocks.BLOCK_VALUES``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK_VALUES, row_blocks
from .errors import NotOmegaContinuousError, PreconditionError
from .functions import FunctionSpec, weight_values

SLOPE_TOL = 0.01  # the largest trend slope a compatible pair may read
TREND_DECADES = 2.0  # top grid decades over which the ratio's growth is fitted
SIGMA_SPAN = (1e-6, 1e6)  # the sigma range of the compatibility grid


def default_sigma_grid() -> np.ndarray:
    """Log-uniform grid over SIGMA_SPAN with the documented 512 points per decade."""
    lo, hi = SIGMA_SPAN
    return np.logspace(np.log10(lo), np.log10(hi), 12 * 512 + 1)


def log_log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x (positive data only)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0.0) & (y > 0.0) & np.isfinite(y)
    if np.count_nonzero(keep) < 2:
        return float("nan")
    coeff = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(coeff[0])


@dataclass(frozen=True)
class ConditionReport:
    """Result of a compatibility check.

    ``lambda_estimate`` is the grid maximum of the ratio (a lower bound for
    the true constant), ``trend_slope`` the fitted log-log growth over the
    top decades, and ``passed`` is true when every ratio is finite and the
    trend levels off.
    """

    mode: str
    lambda_estimate: float
    worst_sigma: float
    passed: bool
    samples: int
    trend_slope: float


def estimate_continuity_constant(
    m: FunctionSpec, omega: FunctionSpec, grid: np.ndarray
) -> float:
    """Grid maximum of |m(a) - m(b)| / omega(|a - b|), a lower bound for L."""
    g = np.asarray(grid, dtype=float)
    if g.size < 2:
        raise PreconditionError("grid needs at least 2 points")
    mv = np.asarray(m(g), dtype=float)
    maxima = []
    for rows in row_blocks(g.size, g.size, BLOCK_VALUES):
        num = np.abs(mv[rows, None] - mv[None, :])
        gaps = np.abs(g[rows, None] - g[None, :])
        den = np.asarray(omega(gaps), dtype=float)
        off = gaps > 0.0
        zero_den = off & (den == 0.0)
        if np.any(zero_den & (num > 0.0)):
            i, j = np.argwhere(zero_den & (num > 0.0))[0]
            raise NotOmegaContinuousError(
                f"not omega-continuous on grid: omega({gaps[i, j]:g}) = 0 while "
                f"|m({g[rows.start + i]:g}) - m({g[j]:g})| = {num[i, j]:g}"
            )
        ratio = np.where(off & (den > 0.0), num / np.where(den > 0.0, den, 1.0), 0.0)
        maxima.append(np.max(ratio))
    return float(np.max(maxima))


def check_phi_condition(omega: FunctionSpec, phi: FunctionSpec, mode: str) -> ConditionReport:
    """Evaluate the compatibility ratio for the given hyperbolicity mode.

    ``mode`` is "strict" or "weak"; the ratio is read on ``default_sigma_grid()``.
    """
    if mode not in ("strict", "weak"):
        raise PreconditionError(f"mode must be 'strict' or 'weak', got {mode!r}")
    g = default_sigma_grid()
    phi_at = weight_values(phi, g)
    omega_inv = np.asarray(omega(1.0 / g), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if mode == "strict":
            ratio = g * omega_inv / phi_at
        else:
            arg = np.where(omega_inv > 0.0, g / np.sqrt(omega_inv), np.inf)
            finite = np.isfinite(arg)
            phi_arg = np.ones_like(g)
            phi_arg[finite] = weight_values(phi, arg[finite])
            ratio = np.where(finite, g / phi_arg, np.inf)

    finite_ratios = np.all(np.isfinite(ratio))
    top = g >= g[-1] / 10.0**TREND_DECADES
    slope = log_log_slope(g[top], ratio[top])
    worst = int(np.nanargmax(np.where(np.isfinite(ratio), ratio, -np.inf)))
    lam_est = float(ratio[worst]) if finite_ratios else float("inf")
    passed = bool(finite_ratios and np.isfinite(slope) and slope <= SLOPE_TOL)
    return ConditionReport(
        mode=mode,
        lambda_estimate=lam_est,
        worst_sigma=float(g[worst]),
        passed=passed,
        samples=int(g.size),
        trend_slope=float(slope),
    )
