import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kirchhoff_spectral import (
    IntegratorConfig,
    SpectralState,
    SpectralVector,
    Spectrum,
    basis_vector,
    constant,
    evolve,
    power,
    power_spectrum,
    psi_initial_derivatives,
    psi_trace,
    reparametrization_check,
    solve_parametrization,
    solve_trajectory_system,
    uniqueness_condition,
    zero_vector,
)
from kirchhoff_spectral import reparametrize
from kirchhoff_spectral.scenario import run_scenario
from kirchhoff_spectral.errors import ParametrizationError, PreconditionError
from kirchhoff_spectral.reparametrize import SCurve
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


def landed_curve(tr, m, s_max, cfg):
    """The curve of tr's datum landed on the shift values of tr's first rise
    up to s_max, as the reparametrize task lands it."""
    u0, u1 = (SpectralVector(tr.spectrum, x[0]) for x in (tr.u, tr.v))
    _, direction = reparametrize.curve_branch(*psi_initial_derivatives(u0, u1, m))
    s = direction * psi_trace(tr).psi
    s = s[:reparametrize._monotone_prefix(s)]
    return solve_trajectory_system(u0, u1, m, s[s <= s_max], cfg)


def assert_compares_the_rise_past_start(tr, curve, check):
    # every time sample whose shift lies past the curve's start row and inside
    # its range, at that very shift value, which is where the curve's rows past
    # its start lie; the shift rises over these runs
    s = curve.direction * psi_trace(tr).psi
    rows = np.nonzero((s > curve.s[curve.start]) & (s <= curve.s[-1]))[0]
    assert rows.size == check.n_compared > 1 and np.array_equal(check.t, tr.t[rows])
    assert np.array_equal(check.s, s[rows]) and check.worst_t in check.t
    assert np.array_equal(curve.s[curve.start + 1:], s[rows])


def test_direct_branch_consistency(tight_cfg):
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = basis_vector(spec, 0)
    m = constant(1.0)
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 0.7)
    curve = landed_curve(tr, m, 0.9, tight_cfg)
    assert curve.branch == "direct"
    assert curve.direction == 1 and curve.start == 0 and curve.t_start == 0.0
    check = reparametrization_check(tr, curve)
    assert check.max_deviation < 1e-6
    assert_compares_the_rise_past_start(tr, curve, check)
    # a curve landed on other shift values has no rows to compare
    elsewhere = solve_trajectory_system(u0, u1, m, np.linspace(0.0, 0.9, 10), tight_cfg)
    with pytest.raises(PreconditionError, match="not landed on this run's shift values"):
        reparametrization_check(tr, elsewhere)


def test_bootstrap_branch_consistency(tight_cfg):
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = zero_vector(spec)
    m = constant(1.0)
    d1, d2 = psi_initial_derivatives(u0, u1, m)
    assert d1 == 0.0 and d2 == -2.0
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 1.1)
    curve = landed_curve(tr, m, 0.8, tight_cfg)
    assert curve.branch == "bootstrap"
    assert curve.direction == -1
    check = reparametrization_check(tr, curve)
    assert check.max_deviation < 1e-5
    assert curve.start > 0 and curve.s[curve.start] > 0.0  # the handoff row
    # u = cos t, so the mirrored shift is sin(t)**2
    assert curve.t_start == pytest.approx(math.asin(math.sqrt(curve.s[curve.start])), rel=1e-6)
    assert_compares_the_rise_past_start(tr, curve, check)


def bootstrap_leg_ends(monkeypatch, u0, u1, m, shifts):
    """The end times of the bootstrap leg's time runs, and the curve or its error."""
    ends = []

    def spy(state, m, cfg, t_end):
        ends.append(t_end)
        return evolve(state, m, cfg, t_end)

    monkeypatch.setattr(reparametrize, "evolve", spy)
    try:
        return ends, solve_trajectory_system(u0, u1, m, shifts, IntegratorConfig())
    except ParametrizationError as exc:
        return ends, exc


def test_bootstrap_leg_doubles_a_guess_that_falls_short(monkeypatch):
    # psi''(0) = -2e-9 lies below the guess's floor 1e-8, so the first time
    # run ends at 3e4, before the speed 40 w sin(2wt), w = 5e-6, clears the
    # threshold; the doubled run clears it.  u = a cos(wt) with a^2 = 40, so
    # the mirrored shift is 40 sin(wt)^2
    spec = Spectrum([1.0])
    u0, u1, m = basis_vector(spec, 0, math.sqrt(40.0)), zero_vector(spec), constant(2.5e-11)
    assert psi_initial_derivatives(u0, u1, m) == (0.0, pytest.approx(-2e-9, rel=1e-12))
    shifts = np.linspace(4.0, 20.0, 5)
    ends, curve = bootstrap_leg_ends(monkeypatch, u0, u1, m, shifts)
    first = 3.0 * reparametrize.HANDOFF_SCALE * (1.0 + 2e-9) / 1e-8
    assert ends == [pytest.approx(first, rel=1e-12), pytest.approx(2.0 * first, rel=1e-12)]
    assert curve.branch == "bootstrap" and first < curve.t_start < 2.0 * first
    s = curve.s[curve.start]
    assert curve.t_start == pytest.approx(math.asin(math.sqrt(s / 40.0)) / 5e-6, rel=1e-6)
    assert np.array_equal(curve.s[curve.start + 1:], shifts)
    assert np.allclose(curve.z[:, 0], np.sqrt(40.0 - curve.s), rtol=1e-7)
    assert np.allclose(curve.w[:, 0], -5e-6 * np.sqrt(curve.s), rtol=1e-7)


def test_bootstrap_leg_that_never_clears_the_threshold_is_refused(monkeypatch):
    # u = a cos t with a^2 = 9e-5: the speed, at most 9e-5, never reaches the
    # threshold 1e-4 (1 + 1.8e-4), however long the eight doubling runs go
    spec = Spectrum([1.0])
    u0, u1, m = basis_vector(spec, 0, math.sqrt(9e-5)), zero_vector(spec), constant(1.0)
    ends, exc = bootstrap_leg_ends(monkeypatch, u0, u1, m, [1e-5])
    assert isinstance(exc, ParametrizationError)
    assert "never cleared the handoff threshold" in str(exc)
    assert len(ends) == 8 and ends[1:] == [2.0 * t for t in ends[:-1]]


@pytest.mark.parametrize("u1", [[1.0], [0.0]], ids=["direct", "bootstrap"])
def test_curve_that_stops_early_is_refused(u1):
    # m = sigma^1000 stiffens as sigma leaves 1: the curve's step falls
    # below the step floor before it lands on the shifts
    spec = Spectrum([1.0])
    u0, u1 = basis_vector(spec, 0), SpectralVector(spec, u1)
    with pytest.raises(ParametrizationError, match="curve integration stopped early: step size"):
        solve_trajectory_system(u0, u1, power(1e3), [0.5, 1.0], IntegratorConfig())


def ci_reparametrize_config(name, lambdas, u0, u1, t_end):
    """The one- and two-mode reparametrize runs of the CI packaging smoke step."""
    return {"version": 1, "name": name, "task": "reparametrize",
            "spectrum": {"explicit": lambdas}, "data": {"u0": u0, "u1": u1},
            "functions": {"m": {"kind": "affine", "a": 1.0, "b": 1.0}},
            "params": {"t_end": t_end}}


GOLDEN_TASKS = Path(__file__).resolve().parent / "golden_tasks"


@pytest.mark.parametrize("config, bound", [
    pytest.param(GOLDEN_TASKS / "seeded_reparametrize_direct.json", 2e-14, id="golden_direct"),
    pytest.param(GOLDEN_TASKS / "seeded_reparametrize_bootstrap.json", 5e-12,
                 id="golden_bootstrap"),
    pytest.param(ci_reparametrize_config("two_mode", [1.0, 2.0], {"explicit": [1.0, 0.5]},
                                         {"explicit": [1.0, 0.0]}, 0.3), 1.1e-13,
                 id="two_mode"),
    pytest.param(ci_reparametrize_config("one_mode", [1.0], {"basis": {"index": 0}}, "zero",
                                         0.8), 5.5e-12, id="one_mode"),
])
def test_landed_check_reads_the_flows_agreement(tmp_path, config, bound):
    # the curve lands on the time run's shift values, so what the check reads
    # is the difference of the two flows, with no interpolation error; the
    # pace read off the landed rows puts each at its sample's time
    manifest = run_scenario(config, out_dir=tmp_path)
    report = json.loads((tmp_path / "reparametrization_report.json").read_text())
    assert manifest.summary["ok"] and report["max_deviation"] < bound
    assert report["pace_deviation"] < 1e-9
    # the recovered rows are the compared rows of the time run, with its psi
    trace = np.loadtxt(tmp_path / "psi_trace.csv", delimiter=",", skiprows=1)
    recovered = np.loadtxt(tmp_path / "psi_recovered.csv", delimiter=",", skiprows=1, ndmin=2)
    rows = np.nonzero(np.isin(trace[:, 1], recovered[:, 1]))[0]
    assert rows.size == recovered.shape[0] == report["n_compared"]
    lag = np.abs(recovered[:, 0] - trace[rows, 0])
    assert lag.max() == report["pace_deviation"]
    assert trace[rows[np.argmax(lag)], 0] == report["pace_worst_t"]


@pytest.mark.parametrize("name", ["seeded_reparametrize_direct", "seeded_reparametrize_bootstrap"])
def test_one_curve_integration_per_run(tmp_path, monkeypatch, name):
    # the curve is integrated once, on the time run's shift values; the
    # check and the pace read that one flow
    solves = []

    def counted(*args, **kwargs):
        solves.append(args[2])
        return solve_to_samples(*args, **kwargs)

    solve_to_samples = reparametrize.solve_to_samples
    monkeypatch.setattr(reparametrize, "solve_to_samples", counted)
    run_scenario(GOLDEN_TASKS / f"{name}.json", out_dir=tmp_path)
    assert len(solves) == 1


def test_refusal_when_both_derivatives_vanish(tight_cfg):
    spec = Spectrum([1.0, 2.0])
    u0 = basis_vector(spec, 0)
    u1 = SpectralVector(spec, [0.0, 0.5])
    with pytest.raises(PreconditionError, match="vanish"):
        solve_trajectory_system(u0, u1, constant(1.0), [0.5], tight_cfg)


@pytest.mark.parametrize("d1, d2, expected", [
    (2.0, -3.0, ("direct", 1)),
    (-2e-10, 3.0, ("direct", -1)),
    (1e-10, -3.0, ("bootstrap", -1)),
    (0.0, math.inf, ("bootstrap", 1)),
    (1e-10, -1e-10, None),
    (math.nan, math.nan, None),
])
def test_curve_branch(d1, d2, expected):
    # the first derivative decides when it clears HP_TOL, else the second
    if expected is None:
        with pytest.raises(PreconditionError, match="vanish"):
            reparametrize.curve_branch(d1, d2)
    else:
        assert reparametrize.curve_branch(d1, d2) == expected


def speed_curve(s, f):
    """A one-mode curve on lambda = 1 whose speed 2*z*w is f: z = 1, w = f/2."""
    return SCurve(spectrum=Spectrum([1.0]), s=s, z=np.ones((s.size, 1)),
                  w=(f / 2.0)[:, None], start=0, t_start=0.0, direction=1,
                  branch="synthetic", psi_prime0=float(f[0]), psi_second0=math.nan)


def test_constant_speed_parametrization():
    # with z = 1 and w = 1/2, m = 1/4 makes psi'' = 2 (w**2 - m z**2) vanish
    s = np.linspace(0.0, 1.0, 101)
    pt = solve_parametrization(speed_curve(s, np.ones_like(s)), constant(0.25))
    assert np.array_equal(pt.psi, s[1:]) and np.max(np.abs(pt.psi - pt.t)) < 1e-9


def test_parametrization_sign_change_rejected():
    s = np.linspace(0.0, 1.0, 101)
    f = np.cos(2.0 * s)  # goes negative inside
    with pytest.raises(ParametrizationError, match="sign"):
        solve_parametrization(speed_curve(s, f), constant(1.0))


@pytest.mark.parametrize("s_max", [math.nan, math.inf], ids=["s_max-nan", "s_max-inf"])
def test_non_finite_scalar_refused_before_integration(tight_cfg, monkeypatch, s_max):
    # the last shift, the top of the curve's range, is checked before the
    # bootstrap data's time leg would start
    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(reparametrize, "evolve", no_integration)
    monkeypatch.setattr(reparametrize, "solve_to_samples", no_integration)
    spec = Spectrum([1.0])
    with pytest.raises(PreconditionError, match="shifts must be finite"):
        solve_trajectory_system(basis_vector(spec, 0), zero_vector(spec), constant(1.0),
                                [0.25, s_max], tight_cfg)


def test_round_trip_direct_branch(tight_cfg):
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = basis_vector(spec, 0)
    m = constant(1.0)
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 0.7)
    curve = landed_curve(tr, m, 0.9, tight_cfg)
    recovered = solve_parametrization(curve, m)
    check = reparametrization_check(tr, curve)
    # psi = sin 2t, so a time lag dt moves psi by at most 2 dt
    assert np.array_equal(recovered.psi, curve.direction * check.s)
    assert np.max(np.abs(recovered.t - check.t)) < 1e-9


def test_round_trip_degenerate_start(tight_cfg):
    # F(0) = 0 with first-order vanishing: the recovered pace still escapes
    # the trivial branch and matches the direct run
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = zero_vector(spec)
    m = constant(1.0)
    tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 1.1)
    curve = landed_curve(tr, m, 0.8, tight_cfg)
    recovered = solve_parametrization(curve, m)
    check = reparametrization_check(tr, curve)
    assert np.all(recovered.psi < 0.0)  # escapes, mirrored sign restored
    # psi = -sin(t)**2, so a time lag dt moves psi by at most dt
    assert np.max(np.abs(recovered.t - check.t)) < 1e-9


def test_sign_coherence(tight_cfg):
    # on the monotone window the sign of psi' equals the sign of the first
    # nonzero initial derivative
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    for u1, expected in ((basis_vector(spec, 0), 1), (zero_vector(spec), -1)):
        curve = solve_trajectory_system(u0, u1, constant(1.0), np.linspace(0.0, 0.5, 11),
                                        tight_cfg)
        assert curve.direction == expected
        f_vals = curve.f_values()
        assert np.all(f_vals[1:] > 0.0)  # mirrored speed positive past 0


def test_reparametrize_run_loads_no_scipy(tmp_path):
    # a fresh interpreter: other tests of this session import scipy as a
    # reference
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
