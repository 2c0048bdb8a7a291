import numpy as np
import pytest

from kirchhoff_spectral import (
    SpectralVector,
    Spectrum,
    a_half_norm_sq,
    a_inner,
    a_norm_sq,
    basis_vector,
    power_spectrum,
    zero_vector,
)
from kirchhoff_spectral.errors import PreconditionError


def test_spectrum_orders_and_counts():
    spec = Spectrum([0.0, 1.0, 1.0, 4.0])
    assert spec.n == 4
    assert spec.lambda_max == 4.0
    assert np.array_equal(spec.lam2, [0.0, 1.0, 1.0, 16.0])


def test_spectrum_rejects_bad_sequences():
    with pytest.raises(PreconditionError):
        Spectrum([])
    with pytest.raises(PreconditionError):
        Spectrum([2.0, 1.0])
    with pytest.raises(PreconditionError):
        Spectrum([-1.0, 2.0])
    with pytest.raises(PreconditionError):
        Spectrum([1.0, np.inf])


def test_power_spectrum_generator():
    spec = power_spectrum(5, p=2.0)
    assert np.array_equal(spec.lambdas, [1.0, 4.0, 9.0, 16.0, 25.0])


def test_vector_length_must_match():
    spec = Spectrum([1.0, 2.0])
    with pytest.raises(PreconditionError):
        SpectralVector(spec, [1.0])


def test_vectors_are_immutable():
    v = basis_vector(Spectrum([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        v.components[0] = 3.0


def test_quadratic_functionals():
    spec = Spectrum([1.0, 2.0])
    u = SpectralVector(spec, [1.0, 0.5])
    w = SpectralVector(spec, [2.0, 1.0])
    # sum lam^2 u^2 = 1 + 4*0.25
    assert a_half_norm_sq(u) == 2.0
    # sum lam^4 u^2 = 1 + 16*0.25
    assert a_norm_sq(u) == 5.0
    # sum lam^2 u w = 2 + 4*0.5
    assert a_inner(u, w) == 4.0


def test_inner_requires_shared_spectrum():
    u = basis_vector(Spectrum([1.0]), 0)
    w = basis_vector(Spectrum([2.0]), 0)
    with pytest.raises(PreconditionError):
        a_inner(u, w)


def test_zero_vector(small_spectrum):
    z = zero_vector(small_spectrum)
    assert a_half_norm_sq(z) == 0.0


def test_basis_vector_rejects_out_of_range_index():
    spec = Spectrum([1.0, 2.0, 3.0, 4.0])
    for k in (-1, 4, 9):
        with pytest.raises(PreconditionError, match="mode index"):
            basis_vector(spec, k)
    assert basis_vector(spec, 3).components.tolist() == [0.0, 0.0, 0.0, 1.0]
