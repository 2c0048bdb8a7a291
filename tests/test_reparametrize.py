import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PchipInterpolator

from kirchhoff_spectral import (
    IntegratorConfig,
    SpectralState,
    SpectralVector,
    Spectrum,
    basis_vector,
    constant,
    evolve,
    power_spectrum,
    psi_initial_derivatives,
    psi_trace,
    reparametrization_check,
    scurve_from_trajectory,
    solve_parametrization,
    solve_trajectory_system,
    uniqueness_condition,
    zero_vector,
)
from kirchhoff_spectral import reparametrize
from kirchhoff_spectral.errors import ParametrizationError, PreconditionError
from kirchhoff_spectral.reparametrize import SCurve, not_a_knot_spline, pchip
from tests.conftest import random_vector


def test_psi_zero_solution(tight_cfg):
    spec = power_spectrum(3)
    tr = evolve(
        SpectralState(t=0.0, u=zero_vector(spec), v=zero_vector(spec)),
        constant(1.0),
        tight_cfg,
        1.0,
    )
    pt = psi_trace(tr)
    assert np.all(pt.psi == 0.0)
    assert np.all(pt.f == 0.0)


def test_psi_single_mode_closed_form(tight_cfg):
    # m = 1, lam = 1, u0 = e1, u1 = 0: u = cos t, psi = cos^2 t - 1 = -sin^2 t
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    tr = evolve(SpectralState(t=0.0, u=u0, v=zero_vector(spec)), constant(1.0),
                tight_cfg, 1.2)
    pt = psi_trace(tr)
    assert pt.psi[0] == 0.0
    assert np.max(np.abs(pt.psi + np.sin(tr.t) ** 2)) < 1e-9
    assert np.max(np.abs(pt.f + np.sin(2.0 * tr.t))) < 1e-9


def test_initial_derivative_examples():
    spec1 = Spectrum([1.0])
    e1 = basis_vector(spec1, 0)
    assert psi_initial_derivatives(e1, e1, constant(1.0)) == (2.0, 0.0)

    spec = Spectrum([1.0, 2.0])
    u0 = basis_vector(spec, 0)
    u1 = basis_vector(spec, 1)
    assert psi_initial_derivatives(u0, u1, constant(1.0)) == (0.0, 6.0)

    u1m = SpectralVector(spec, [0.0, 0.5])
    assert psi_initial_derivatives(u0, u1m, constant(1.0)) == (0.0, 0.0)


def test_derivatives_equal_twice_uniqueness_quantities_exactly():
    rng = np.random.default_rng(21)
    spec = power_spectrum(12)
    m = constant(1.0)
    for _ in range(50):
        u0 = random_vector(spec, rng)
        u1 = random_vector(spec, rng, decay=0.5)
        rep = uniqueness_condition(u0, u1, m)
        d1, d2 = psi_initial_derivatives(u0, u1, m)
        assert d1 == 2.0 * rep.as1
        assert d2 == 2.0 * rep.as2


def test_finite_difference_convergence(tight_cfg):
    # second-order one-sided stencils against the algebraic derivatives
    rng = np.random.default_rng(3)
    spec = power_spectrum(6)
    m = constant(1.0)
    ref_cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    for _ in range(3):
        u0 = random_vector(spec, rng)
        u1 = random_vector(spec, rng, decay=0.5)
        d1, d2 = psi_initial_derivatives(u0, u1, m)

        def fd_errors(dt):
            cfg = IntegratorConfig(1e-12, 1e-12, dense_output_dt=dt)
            tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, cfg, 2.0 * dt)
            pt = psi_trace(tr)
            p0, p1, p2 = pt.psi[0], pt.psi[1], pt.psi[2]
            fd1 = (-3.0 * p0 + 4.0 * p1 - p2) / (2.0 * dt)
            fd2 = (p0 - 2.0 * p1 + p2) / dt**2
            return abs(fd1 - d1), abs(fd2 - d2)

        e1a, e2a = fd_errors(2e-3)
        e1b, e2b = fd_errors(1e-3)
        order1 = math.log2(e1a / e1b)
        order2 = math.log2(e2a / e2b)
        assert order1 >= 1.8
        assert order2 >= 0.9


def test_direct_branch_consistency(tight_cfg):
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = basis_vector(spec, 0)
    m = constant(1.0)
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 0.7)
    curve = solve_trajectory_system(u0, u1, m, 0.9, tight_cfg)
    assert curve.branch == "direct"
    assert curve.direction == 1
    check = reparametrization_check(tr, curve)
    assert check.max_deviation < 1e-6


def test_bootstrap_branch_consistency(tight_cfg):
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = zero_vector(spec)
    m = constant(1.0)
    d1, d2 = psi_initial_derivatives(u0, u1, m)
    assert d1 == 0.0 and d2 == -2.0
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 1.1)
    curve = solve_trajectory_system(u0, u1, m, 0.8, tight_cfg)
    assert curve.branch == "bootstrap"
    assert curve.direction == -1
    check = reparametrization_check(tr, curve)
    assert check.max_deviation < 1e-5


def test_refusal_when_both_derivatives_vanish(tight_cfg):
    spec = Spectrum([1.0, 2.0])
    u0 = basis_vector(spec, 0)
    u1 = SpectralVector(spec, [0.0, 0.5])
    with pytest.raises(PreconditionError, match="vanish"):
        solve_trajectory_system(u0, u1, constant(1.0), 0.5, tight_cfg)


def speed_curve(s, f):
    """A one-mode curve on lambda = 1 whose speed 2*z*w is f: z = 1, w = f/2."""
    return SCurve(spectrum=Spectrum([1.0]), s=s, z=np.ones((s.size, 1)),
                  w=(f / 2.0)[:, None], direction=1, branch="synthetic",
                  psi_prime0=float(f[0]), psi_second0=math.nan)


def test_constant_speed_parametrization(tight_cfg):
    s = np.linspace(0.0, 1.0, 101)
    pt = solve_parametrization(speed_curve(s, np.ones_like(s)), 0.9, tight_cfg)
    assert np.max(np.abs(pt.psi - pt.t)) < 1e-9


def test_parametrization_sign_change_rejected(tight_cfg):
    s = np.linspace(0.0, 1.0, 101)
    f = np.cos(2.0 * s)  # goes negative inside
    with pytest.raises(ParametrizationError, match="sign"):
        solve_parametrization(speed_curve(s, f), 1.0, tight_cfg)


@pytest.mark.parametrize("name, value", [
    ("s_max", math.nan), ("s_max", math.inf), ("t_end", math.nan), ("t_end", math.inf),
])
def test_non_finite_scalar_refused_before_integration(tight_cfg, monkeypatch, name, value):
    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(reparametrize, "evolve", no_integration)
    monkeypatch.setattr(reparametrize, "solve_to_samples", no_integration)
    spec = Spectrum([1.0])
    with pytest.raises(PreconditionError, match=f"{name} must be positive and finite"):
        if name == "s_max":  # bootstrap data, so a time leg would come first
            solve_trajectory_system(basis_vector(spec, 0), zero_vector(spec),
                                    constant(1.0), value, tight_cfg)
        else:
            s = np.linspace(0.0, 1.0, 101)
            solve_parametrization(speed_curve(s, np.ones_like(s)), value, tight_cfg)


def test_round_trip_direct_branch(tight_cfg):
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = basis_vector(spec, 0)
    m = constant(1.0)
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 0.7)
    pt = psi_trace(tr)
    curve = solve_trajectory_system(u0, u1, m, 0.9, tight_cfg)
    recovered = solve_parametrization(curve, 0.7, tight_cfg)
    direct = np.interp(recovered.t, pt.t, pt.psi)
    assert np.max(np.abs(recovered.psi - direct)) < 1e-6


def test_round_trip_degenerate_start(tight_cfg):
    # F(0) = 0 with first-order vanishing: the recovered pace still escapes
    # the trivial branch and matches the direct run
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = zero_vector(spec)
    m = constant(1.0)
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 1.1)
    pt = psi_trace(tr)
    curve = solve_trajectory_system(u0, u1, m, 0.8, tight_cfg)
    recovered = solve_parametrization(curve, 1.1, tight_cfg)
    assert np.all(recovered.psi[1:] < 0.0)  # escapes, mirrored sign restored
    direct = np.interp(recovered.t, pt.t, pt.psi)
    assert np.max(np.abs(recovered.psi - direct)) < 1e-5


def test_self_comparison_within_interpolation_error(tight_cfg):
    rng = np.random.default_rng(17)
    spec = power_spectrum(4)
    u0 = random_vector(spec, rng)
    u1 = random_vector(spec, rng, decay=0.5)
    m = constant(1.0)
    d1, _ = psi_initial_derivatives(u0, u1, m)
    if d1 == 0.0:
        u1 = SpectralVector(spec, u1.components + 0.1 * u0.components)
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 0.2)
    curve = scurve_from_trajectory(tr)
    sub = tr  # same trajectory: deviation is pure interpolation error
    check = reparametrization_check(sub, curve)
    assert check.max_deviation < 1e-8


def test_zero_solution_monotonicity_gate(tight_cfg):
    spec = Spectrum([1.0])
    tr = evolve(
        SpectralState(t=0.0, u=zero_vector(spec), v=zero_vector(spec)),
        constant(1.0),
        tight_cfg,
        1.0,
    )
    with pytest.raises(ParametrizationError):
        scurve_from_trajectory(tr)


def test_sign_coherence(tight_cfg):
    # on the monotone window the sign of psi' equals the sign of the first
    # nonzero initial derivative
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    for u1, expected in ((basis_vector(spec, 0), 1), (zero_vector(spec), -1)):
        curve = solve_trajectory_system(u0, u1, constant(1.0), 0.5, tight_cfg)
        assert curve.direction == expected
        f_vals = curve.f_values()
        assert np.all(f_vals[1:] > 0.0)  # mirrored speed positive past 0


# scipy's interpolators stay here as the references the numpy cubics replaced


def pchip_tables(rng, n):
    x = np.cumsum(rng.uniform(0.01, 2.0, n)) - rng.uniform(0.0, 5.0)
    yield x, rng.standard_normal(n)  # sign changes
    yield x, rng.integers(-2, 3, n).astype(float)  # flat runs and zero secants
    yield x, np.cumsum(rng.exponential(size=n))  # monotone
    yield x, np.full(n, rng.standard_normal())


@pytest.mark.parametrize("n", [2, 3, 4, 9, 200])
def test_pchip_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        for x, y in pchip_tables(rng, n):
            # the knots themselves, both end knots among them, then points
            # inside and outside the table
            at = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 64)])
            assert np.array_equal(pchip(x, y)(at), PchipInterpolator(x, y)(at))


@pytest.mark.parametrize("shape", [(), (5,)], ids=["1d", "columns"])
@pytest.mark.parametrize("n", [2, 3, 4, 1001])
def test_not_a_knot_spline_matches_scipy(n, shape):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    y = rng.standard_normal((n, *shape))
    at = np.concatenate([x, rng.uniform(x[0] - 0.5, x[-1] + 0.5, 300)])
    ours = not_a_knot_spline(x, y)(at)
    ref = CubicSpline(x, y, axis=0)(at)
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_reparametrize_run_loads_no_scipy(tmp_path):
    # a fresh interpreter: this test session has imported scipy for the
    # references above
    cfg = {
        "version": 1,
        "name": "direct",
        "spectrum": {"explicit": [1.0]},
        "data": {
            "u0": {"basis": {"index": 0, "amplitude": 1.0}},
            "u1": {"basis": {"index": 0, "amplitude": 1.0}},
        },
        "functions": {"m": {"kind": "constant", "c": 1.0}},
        "task": "reparametrize",
        "params": {"t_end": 0.7},
    }
    code = (
        "import json, sys\n"
        "from kirchhoff_spectral.scenario import run_scenario\n"
        "run_scenario(json.loads(sys.argv[1]), out_dir=sys.argv[2])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cfg), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads((tmp_path / "out" / "reparametrization_report.json").read_text())
    assert report["branch"] == "direct"
    assert json.loads(done.stdout.splitlines()[-1]) == []
