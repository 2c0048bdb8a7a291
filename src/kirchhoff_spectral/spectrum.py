"""Discrete spectral representation: eigenvalue sequences and component vectors.

The operator is represented by the finite sequence lambda_k >= 0; it acts on
component vectors by multiplication with lambda_k**2.  Fractional powers act
by multiplication with lambda_k**(4*alpha) on squared components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


def _frozen_array(values) -> np.ndarray:
    a = np.array(values, dtype=float, copy=True)
    if a.ndim != 1:
        raise PreconditionError("expected a one-dimensional sequence")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Nondecreasing finite sequence of nonnegative eigenvalue roots lambda_k."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = _frozen_array(self.lambdas)
        if lam.size < 1:
            raise PreconditionError("spectrum needs at least one mode")
        if not np.all(np.isfinite(lam)):
            raise PreconditionError("eigenvalues must be finite")
        if np.any(lam < 0.0):
            raise PreconditionError("eigenvalues lambda_k must be nonnegative")
        if np.any(np.diff(lam) < 0.0):
            raise PreconditionError("eigenvalues must be nondecreasing")
        object.__setattr__(self, "lambdas", lam)

    @property
    def n(self) -> int:
        return int(self.lambdas.size)

    @property
    def lam2(self) -> np.ndarray:
        """Eigenvalues of the operator itself, lambda_k**2."""
        return self.lambdas**2

    @property
    def lambda_max(self) -> float:
        return float(self.lambdas[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return np.array_equal(self.lambdas, other.lambdas)

    def __repr__(self) -> str:
        return f"Spectrum(n={self.n}, lambda_max={self.lambda_max:g})"


def power_spectrum(n: int, p: float = 1.0) -> Spectrum:
    """Spectrum lambda_k = k**p for k = 1..n."""
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore"):  # Spectrum refuses an infinite eigenvalue
        lam = k**p
    return Spectrum(lam)


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """Component vector u_k paired with its spectrum."""

    spectrum: Spectrum
    components: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.components)
        if c.size != self.spectrum.n:
            raise PreconditionError(
                f"component count {c.size} does not match spectrum size "
                f"{self.spectrum.n}"
            )
        if not np.all(np.isfinite(c)):
            raise PreconditionError("components must be finite")
        object.__setattr__(self, "components", c)

    @property
    def n(self) -> int:
        return self.spectrum.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralVector):
            return NotImplemented
        return self.spectrum == other.spectrum and np.array_equal(
            self.components, other.components
        )

    def __repr__(self) -> str:
        return f"SpectralVector(n={self.n})"


def zero_vector(spectrum: Spectrum) -> SpectralVector:
    return SpectralVector(spectrum, np.zeros(spectrum.n))


def basis_vector(spectrum: Spectrum, k: int, amplitude: float = 1.0) -> SpectralVector:
    """Vector with a single nonzero component at 0-based mode index k."""
    if not 0 <= k < spectrum.n:
        raise PreconditionError(f"mode index {k} is outside [0, {spectrum.n})")
    c = np.zeros(spectrum.n)
    c[k] = amplitude
    return SpectralVector(spectrum, c)


def require_shared_spectrum(*vectors: SpectralVector) -> Spectrum:
    spec = vectors[0].spectrum
    for v in vectors[1:]:
        if v.spectrum != spec:
            raise PreconditionError("vectors must share one spectrum")
    return spec


# Quadratic functionals of the flow.  These are the single source for the
# quantities shared between the uniqueness conditions and the
# reparametrization derivatives, so the two agree bit for bit.


def a_half_norm_sq(u: SpectralVector) -> float:
    """|A^(1/2) u|^2 = sum lambda_k^2 u_k^2."""
    return float(np.dot(u.spectrum.lam2, u.components**2))


def a_norm_sq(u: SpectralVector) -> float:
    """|A u|^2 = sum lambda_k^4 u_k^2."""
    return float(np.dot(u.spectrum.lam2**2, u.components**2))


def a_inner(u: SpectralVector, v: SpectralVector) -> float:
    """<A u, v> = sum lambda_k^2 u_k v_k."""
    require_shared_spectrum(u, v)
    return float(np.dot(u.spectrum.lam2, u.components * v.components))
