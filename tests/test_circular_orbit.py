"""An exact multi-mode oracle for every m: circular orbits in a repeated eigenvalue.

The equation is invariant under rotations inside an eigenspace of A.  Two
modes on one eigenvalue lam with u0 = (r, 0), u1 = (0, r*omega) and
omega = lam * sqrt(m(lam**2 r**2)) give u(t) = r (cos omega t, sin omega t)
exactly: sigma = lam**2 r**2 stays put, so m is read at one point and the
orbit is exact for the modulus kinds too.  Further modes with zero data stay
zero.  For any data inside one eigenspace the angular momentum
L = u_1 v_2 - u_2 v_1 is conserved (Noether).

Each bound is at most twice the largest error measured at the default
tolerances (1e-10) and sample grid over t in [0, 10]: 2.45e-9 for the
catalog at lam = 3, r = 0.7 (table3_loglog), 1.54e-8 over lam in [0.5, 4] and
r in [0.2, 1] (lam = 4, r = 1), and 1.04e-12 for L on the seeded data below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhoff_spectral import (
    IntegratorConfig,
    SpectralState,
    SpectralVector,
    Spectrum,
    affine,
    evolve,
    list_presets,
    power,
)

T_END = 10.0
CATALOG_BOUND = 4.9e-9
PROPERTY_BOUND = 3e-8
ANGULAR_MOMENTUM_BOUND = 2e-12


def distinct_ms():
    """Each distinct m of the preset catalog, by the first preset that has it;
    affine(1, 1) is table1_lipschitz's."""
    ms = {}
    for bundle in list_presets():
        ms.setdefault(repr(bundle.m.to_dict()), (bundle.name, bundle.m))
    return dict(ms.values())


def circle(m, lam, r, n=2):
    """The state u0 = (r, 0, ...), u1 = (0, r*omega, ...) on the spectrum
    (lam, lam, lam + 1, ...) of ``n`` modes, and its angular speed omega."""
    spectrum = Spectrum([lam, lam, *(lam + k for k in range(1, n - 1))])
    omega = lam * math.sqrt(float(m(lam**2 * r**2)))
    u0, u1 = np.zeros(n), np.zeros(n)
    u0[0], u1[1] = r, r * omega
    state = SpectralState(t=0.0, u=SpectralVector(spectrum, u0),
                          v=SpectralVector(spectrum, u1))
    return state, omega


def circle_error(tr, r, omega):
    """max |u - exact| over the samples, every mode past the pair exactly 0."""
    exact = np.zeros_like(tr.u)
    exact[:, 0], exact[:, 1] = r * np.cos(omega * tr.t), r * np.sin(omega * tr.t)
    return float(np.max(np.abs(tr.u - exact)))


CATALOG = distinct_ms()


@pytest.mark.parametrize("m", CATALOG.values(), ids=CATALOG.keys())
def test_catalog_m_runs_the_circle_solo_and_in_an_ensemble(m):
    state, omega = circle(m, 3.0, 0.7)
    cfg = IntegratorConfig()
    solo = evolve(state, m, cfg, T_END)
    pair = evolve([state, state], [m, m], cfg, T_END)
    assert solo.meta.status == "completed" and pair[0].meta.status == "completed"
    for tr in (solo, *pair):
        assert circle_error(tr, 0.7, omega) < CATALOG_BOUND


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.5, 4.0), r=st.floats(0.2, 1.0), n=st.sampled_from([2, 3, 4]),
       m=st.sampled_from([affine(1.0, 1.0), power(1.0)]))
def test_circle_is_exact_for_any_eigenvalue_radius_and_width(lam, r, n, m):
    state, omega = circle(m, lam, r, n)
    tr = evolve(state, m, IntegratorConfig(), T_END)
    assert tr.meta.status == "completed"
    assert circle_error(tr, r, omega) < PROPERTY_BOUND
    assert not np.any(tr.u[:, 2:]) and not np.any(tr.v[:, 2:])


@pytest.mark.parametrize("name", ["table1_lipschitz", "table3_loglog"])
@pytest.mark.parametrize("seed", range(4))
def test_angular_momentum_is_conserved_in_one_eigenspace(name, seed):
    # any data in the eigenspace of lam = 2, none in the mode of lam = 3
    m = CATALOG[name]
    rng = np.random.default_rng(seed)
    spectrum = Spectrum([2.0, 2.0, 3.0])
    u0, u1 = np.zeros(3), np.zeros(3)
    u0[:2], u1[:2] = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
    state = SpectralState(t=0.0, u=SpectralVector(spectrum, u0),
                          v=SpectralVector(spectrum, u1))
    tr = evolve(state, m, IntegratorConfig(), T_END)
    assert tr.meta.status == "completed"
    ang = tr.u[:, 0] * tr.v[:, 1] - tr.u[:, 1] * tr.v[:, 0]
    assert np.max(np.abs(ang - ang[0])) < ANGULAR_MOMENTUM_BOUND
