import signal
from contextlib import contextmanager

import numpy as np
import pytest

from kirchhoff_spectral import IntegratorConfig, Spectrum, SpectralVector, Trajectory
from kirchhoff_spectral.artifacts import blas_core


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


@contextmanager
def deadline(seconds):
    """Fail the block with TimeoutError if it runs longer than ``seconds``."""
    def fail(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def pin_note() -> str:
    """The failure message of a byte pin: the hashes depend on the BLAS kernel."""
    return (f"byte pins recorded on OpenBLAS SkylakeX with numpy 2.4.6; this run: "
            f"{blas_core()} with numpy {np.__version__}")
