import numpy as np
import pytest

from kirchhoff_spectral import IntegratorConfig, Spectrum, SpectralVector, Trajectory


@pytest.fixture
def unit_spectrum():
    return Spectrum([1.0])


@pytest.fixture
def small_spectrum():
    return Spectrum([1.0, 2.0, 3.0])


@pytest.fixture
def tight_cfg():
    return IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10)


def random_vector(spectrum, rng, scale=1.0, decay=1.5):
    lam = np.maximum(spectrum.lambdas, 1.0)
    return SpectralVector(
        spectrum, scale * rng.standard_normal(spectrum.n) / lam**decay
    )


def hand_trajectory(spectrum, u, v, t=None):
    """Sample rows as a trajectory without an integrator run.

    The rows are one time unit apart unless ``t`` is given.  sigma is formed
    as ``evolve`` forms it; with no m, the coefficient is NaN.
    """
    u, v = np.array(u, dtype=float), np.array(v, dtype=float)
    t = np.arange(len(u), dtype=float) if t is None else t
    sigma = u**2 @ spectrum.lam2
    return Trajectory(spectrum, t, u, v, sigma, np.full(len(u), np.nan), None)
