"""Weighted spectral norms and tail sums over scales of spaces.

One kernel, ``_weighted_sums``, computes sum_k lambda_k^(4*alpha) u_k^2
exp(w_k) for each row of a (rows, modes) array: w = r*phi(lambda) for the
Gevrey norm, w = 0 for the Sobolev norm, and for the tails in
``spectral_gap`` w = rho^beta*phi(lambda) above rho and -inf (mode left out)
below.  Terms are assembled in the log domain, 2*log|u| + 4a*log lam + w, so
mixed huge/tiny factors cancel before exponentiation; zero components
contribute nothing.  Each row is added with error-free compensated summation
(math.fsum) in index order, which makes results bit-reproducible however
many rows a call carries and makes the r = 0 case coincide exactly with the
plain Sobolev norm; the rows go in blocks of the package's one budget,
``blocks.BLOCK_VALUES`` values a temporary.  A row with a nonzero term above
the exponent cap sums to +inf and the kernel reports the first such mode: the
norms raise ``NormOverflowError`` naming it, the tails keep the +inf (a
non-member).
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import BLOCK_VALUES, row_blocks
from .errors import InvalidWeightError, NormOverflowError, PreconditionError
from .functions import FunctionSpec
from .spectrum import SpectralVector

EXP_CAP = 700.0


def _weighted_sums(c, lam, alpha, weight=0.0):
    """Row sums of lambda^(4*alpha) c^2 exp(weight) over (rows, modes).

    ``c`` and ``weight`` broadcast together; a 1-D result is one row.
    Returns the sums, +inf for a row that overflows, and the first overflow
    as (mode, exponent), or None.
    """
    c, weight = np.broadcast_arrays(np.atleast_2d(c), weight)
    sums = np.empty(len(c))
    first = None
    # an infinite weight on a zero component makes a NaN exponent there;
    # the component is dropped below
    with np.errstate(divide="ignore", invalid="ignore"):
        power = 4.0 * alpha * np.log(lam) if alpha != 0.0 else 0.0  # -inf at lambda = 0
        for rows in row_blocks(*c.shape, BLOCK_VALUES):
            e = np.abs(c[rows])
            np.log(e, out=e)
            e *= 2.0
            e += power
            e += weight[rows]
            nonzero = c[rows] != 0.0
            over = (e > EXP_CAP) & nonzero
            if first is None and over.any():
                i, k = np.argwhere(over)[0]
                first = (int(k), float(e[i, k]))
            e[over | ~nonzero] = -math.inf
            sums[rows] = [math.fsum(row.tolist()) for row in np.exp(e, out=e)]
            sums[rows][over.any(axis=1)] = math.inf
    return sums, first


def _norms(c, lam, alpha, weight=0.0) -> np.ndarray:
    """Square roots of ``_weighted_sums``; an overflow raises NormOverflowError."""
    if not alpha >= 0.0:  # or NaN
        raise PreconditionError("exponent alpha must be >= 0")
    sums, over = _weighted_sums(c, lam, alpha, weight)
    if over is not None:
        raise NormOverflowError(*over)
    return np.sqrt(sums)


def _radius_weights(phi: FunctionSpec | None, lam: np.ndarray, radii) -> np.ndarray:
    """radii * phi(lambda), with phi checked to be >= 1 on the spectrum."""
    if phi is None:
        raise PreconditionError("r > 0 needs a weight function")
    # an infinite weight is an overflow the kernel reports by its mode
    with np.errstate(over="ignore"):
        w = np.asarray(phi(lam), dtype=float)
        if np.any(w < 1.0):
            k = int(np.argmax(w < 1.0))
            raise InvalidWeightError(
                f"weight phi evaluated below 1 at lambda = {lam[k]:g}"
            )
        return radii * w


def gevrey_norm(u: SpectralVector, phi: FunctionSpec | None, r: float, alpha: float) -> float:
    """sqrt( sum_k lambda_k^(4*alpha) u_k^2 exp(r*phi(lambda_k)) ), for r, alpha >= 0."""
    if not r >= 0.0:  # or NaN
        raise PreconditionError("scale radius r must be >= 0")
    lam = u.spectrum.lambdas
    weight = _radius_weights(phi, lam, r) if r != 0.0 else 0.0
    return float(_norms(u.components, lam, alpha, weight)[0])


def sobolev_norm(u: SpectralVector, alpha: float) -> float:
    """sqrt( sum_k lambda_k^(4*alpha) u_k^2 ), the fractional-domain norm.

    Shares the summation path of ``gevrey_norm`` so that gevrey_norm at
    r = 0 equals this exactly.
    """
    lam = u.spectrum.lambdas
    return float(_norms(u.components, lam, alpha)[0])
