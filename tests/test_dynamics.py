import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ellipj

from kirchhoff_spectral import (
    IntegratorConfig,
    SpectralState,
    SpectralVector,
    Spectrum,
    affine,
    basis_vector,
    coefficient_trace,
    constant,
    evolve,
    get_preset,
    hamiltonian,
    hamiltonian_series,
    higher_order_series,
    offset,
    pohozaev,
    pohozaev_series,
    power,
    relative_drift,
    power_spectrum,
    table,
    weight_power_log,
    zero_vector,
)
from kirchhoff_spectral import dynamics
from kirchhoff_spectral.artifacts import dump_json
from kirchhoff_spectral.errors import (
    DomainError,
    NegativeNonlinearityError,
    NondegeneracyError,
    PreconditionError,
)
from kirchhoff_spectral.scenario import run_scenario
from tests.conftest import deadline, hand_trajectory, random_vector


def closed_form(spectrum, u0, v0, c0, t):
    """Per-mode solution u_k = u0 cos(w t) + v0 sin(w t) / w, w = lam sqrt(c0)."""
    w = spectrum.lambdas * math.sqrt(c0)
    wt = w * t
    u = u0 * np.cos(wt) + np.where(w > 0, v0 * np.sin(wt) / np.where(w > 0, w, 1.0),
                                   v0 * t)
    v = -u0 * w * np.sin(wt) + v0 * np.cos(wt)
    return u, v


def test_constant_m_matches_closed_form(tight_cfg):
    spec = Spectrum([2.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    tr = evolve(state, constant(1.0), tight_cfg, math.pi)
    assert abs(tr.u[-1, 0] - math.cos(2.0 * math.pi)) < 10.0 * tight_cfg.rel_tol
    assert abs(tr.v[-1, 0]) < 10.0 * tight_cfg.rel_tol


def test_rest_state_stays_zero(tight_cfg):
    spec = power_spectrum(4)
    state = SpectralState(t=0.0, u=zero_vector(spec), v=zero_vector(spec))
    tr = evolve(state, affine(1.0, 1.0), tight_cfg, 2.0)
    assert np.all(tr.u == 0.0)
    assert np.all(tr.v == 0.0)


def test_cubic_oscillator_hamiltonian(tight_cfg):
    # m(sigma) = sigma on one unit mode: u'' = -u^3, H = v^2 + u^4/2 = 1/2
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    tr = evolve(state, power(1.0), tight_cfg, 20.0)
    ham = hamiltonian_series(tr, power(1.0))
    assert abs(ham[0] - 0.5) < 1e-14
    assert np.max(np.abs(ham - 0.5)) < 1e-8

    # reference run at a much tighter tolerance agrees pointwise
    ref = evolve(state, power(1.0), IntegratorConfig(1e-13, 1e-13), 20.0)
    assert np.max(np.abs(tr.u - ref.u)) < 1e-7


def test_negative_m_is_hard_error(tight_cfg):
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    with pytest.raises(NegativeNonlinearityError):
        evolve(state, affine(-2.0, 0.0), tight_cfg, 1.0)


def test_evolve_requires_forward_window(tight_cfg):
    spec = Spectrum([1.0])
    state = SpectralState(t=1.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    with pytest.raises(PreconditionError):
        evolve(state, constant(1.0), tight_cfg, 1.0)


def test_mode_support_closure(tight_cfg):
    # modes starting at exact zero stay exactly zero
    spec = power_spectrum(6)
    u = np.zeros(6)
    u[1] = 0.7
    state = SpectralState(
        t=0.0, u=SpectralVector(spec, u), v=zero_vector(spec)
    )
    tr = evolve(state, affine(1.0, 1.0), tight_cfg, 3.0)
    touched = np.zeros(6, dtype=bool)
    touched[1] = True
    assert np.all(tr.u[:, ~touched] == 0.0)
    assert np.all(tr.v[:, ~touched] == 0.0)


def test_galerkin_padding_changes_nothing(tight_cfg):
    rng = np.random.default_rng(11)
    spec_small = power_spectrum(8)
    u0 = random_vector(spec_small, rng)
    v0 = random_vector(spec_small, rng, decay=0.5)
    tr_small = evolve(
        SpectralState(t=0.0, u=u0, v=v0), affine(1.0, 1.0), tight_cfg, 2.0
    )
    spec_big = power_spectrum(12)
    pad = np.zeros(12)
    pad[:8] = u0.components
    pad_v = np.zeros(12)
    pad_v[:8] = v0.components
    tr_big = evolve(
        SpectralState(
            t=0.0,
            u=SpectralVector(spec_big, pad),
            v=SpectralVector(spec_big, pad_v),
        ),
        affine(1.0, 1.0),
        tight_cfg,
        2.0,
    )
    # identical coupling scalar, hence identical step sequence: bitwise equal
    assert np.array_equal(tr_big.u[:, :8], tr_small.u)
    assert np.all(tr_big.u[:, 8:] == 0.0)


def test_time_reversibility(tight_cfg):
    rng = np.random.default_rng(5)
    spec = power_spectrum(8)
    u0 = random_vector(spec, rng)
    v0 = random_vector(spec, rng, decay=0.5)
    fwd = evolve(SpectralState(t=0.0, u=u0, v=v0), affine(1.0, 1.0), tight_cfg, 4.0)
    flipped = SpectralState(
        t=0.0,
        u=SpectralVector(spec, fwd.u[-1]),
        v=SpectralVector(spec, -fwd.v[-1]),
    )
    back = evolve(flipped, affine(1.0, 1.0), tight_cfg, 4.0)
    err_u = np.max(np.abs(back.u[-1] - u0.components))
    err_v = np.max(np.abs(back.v[-1] + v0.components))
    assert max(err_u, err_v) < 100.0 * tight_cfg.rel_tol


def test_blowup_policy_returns_partial():
    # free motion with an enormous speed crosses the state cap mid-run; the
    # run must come back truncated and flagged, not raise
    spec = Spectrum([1.0])
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8)
    state = SpectralState(
        t=0.0,
        u=SpectralVector(spec, [0.0]),
        v=SpectralVector(spec, [1e11]),
    )
    tr = evolve(state, constant(0.0), cfg, 20.0)
    assert tr.meta.status == "blow_up"
    assert "blow-up" in tr.meta.message
    assert tr.t[-1] < 20.0


def test_nonlinear_linear_closed_form_agree(tight_cfg):
    # evolve with m = c0 is the linear problem with coefficient c0, whose
    # per-mode closed form it must follow up to tolerances
    rng = np.random.default_rng(13)
    spec = power_spectrum(5)
    u0 = random_vector(spec, rng)
    v0 = random_vector(spec, rng, decay=0.5)
    c0 = 2.0
    state = SpectralState(t=0.0, u=u0, v=v0)
    nl = evolve(state, constant(c0), tight_cfg, 1.5)
    for i in (0, 400, 1000):
        ue, ve = closed_form(spec, u0.components, v0.components, c0, nl.t[i])
        assert np.max(np.abs(nl.u[i] - ue)) < 1e-9
        assert np.max(np.abs(nl.v[i] - ve)) < 1e-9


def test_hamiltonian_closed_forms():
    spec = Spectrum([1.0, 2.0])
    u = SpectralVector(spec, [1.0, 0.5])
    v = SpectralVector(spec, [0.2, 0.1])
    state = SpectralState(t=0.0, u=u, v=v)
    sigma = 1.0 + 4.0 * 0.25
    assert hamiltonian(state, constant(1.0)) == pytest.approx(0.05 + sigma)
    # m = (1+s)^-2 with |A^(1/2)u|^2 = 1 and u' = 0: M(1) = 1/2
    state2 = SpectralState(
        t=0.0, u=SpectralVector(Spectrum([1.0]), [1.0]),
        v=SpectralVector(Spectrum([1.0]), [0.0]),
    )
    assert hamiltonian(state2, pohozaev(1.0, 1.0)) == pytest.approx(0.5)
    zero = SpectralState(
        t=0.0,
        u=zero_vector(spec),
        v=zero_vector(spec),
    )
    assert hamiltonian(zero, pohozaev(1.0, 1.0)) == 0.0


def test_higher_order_energy_examples():
    for lams, u, v, energy in (([1.0], [1.0], [0.0], 1.0), ([4.0], [0.0], [1.0], 4.0),
                               ([1.0, 2.0], [1.0, 0.5], [1.0 / 3.0, 0.0], 1.0 / 9.0 + 3.0)):
        tr = hand_trajectory(Spectrum(lams), [u], [v])
        assert higher_order_series(tr) == pytest.approx([energy])


def test_pohozaev_examples():
    # the unit state and the zero state as the two samples of one record
    rows = hand_trajectory(Spectrum([1.0]), [[1.0], [0.0]], [[0.0], [0.0]])
    unit, zero = pohozaev_series(rows, 1.0, 1.0)
    assert unit == pytest.approx(0.5)
    assert zero == 0.0
    with pytest.raises(NondegeneracyError, match="at t = 0"):
        pohozaev_series(rows, 1.0, -2.0)


def test_series_ignore_a_mode_that_is_zero_at_every_sample():
    # lambda^3 = 1e330 and lambda^4 = 1e440 overflow at the second mode, which
    # carries no data: it adds nothing, where inf * 0 once gave NaN
    rows = hand_trajectory(Spectrum([1.0, 1e110]), [[1.0, 0.0], [0.0, 0.0]],
                           [[0.0, 0.0], [0.0, 0.0]])
    assert higher_order_series(rows).tolist() == [1.0, 0.0]
    unit, zero = pohozaev_series(rows, 1.0, 1.0)
    assert unit == pytest.approx(0.5)
    assert zero == 0.0
    # a live mode there keeps its infinite weight; one whose square
    # underflows to 0 at every sample adds nothing
    for u_big, energy in ((1e-100, math.inf), (1e-300, 1.0)):
        rows = hand_trajectory(Spectrum([1.0, 1e110]), [[1.0, u_big]], [[0.0, 0.0]])
        assert higher_order_series(rows).tolist() == [energy]


def test_evolve_ignores_a_zero_mode_whose_lambda_squared_overflows():
    # lambda^2 = 1e400 overflows at the second mode, which carries no data in
    # any member and stays 0: sigma gives it weight 0, where inf * 0 once
    # made the first derivative NaN and the run stop on step_underflow
    spec = Spectrum([1.0, 1e200])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=SpectralVector(spec, [0.0, -0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solo = evolve(state, affine(1.0, 1.0), IntegratorConfig(), 1.0)
        members = evolve([state, state], [affine(1.0, 1.0), constant(2.0)],
                         IntegratorConfig(), 1.0)
    for tr in (solo, *members):
        assert tr.meta.status == "completed" and np.all(np.isfinite(tr.sigma))
        assert not tr.u[:, 1].any() and not tr.v[:, 1].any()
        assert tr.meta.hamiltonian_drift < 1e-9


def test_pohozaev_constancy_and_negative_control(tight_cfg):
    rng = np.random.default_rng(9)
    spec = power_spectrum(8)
    u0 = random_vector(spec, rng, scale=0.5, decay=2.0)
    v0 = random_vector(spec, rng, scale=0.5, decay=1.0)
    state = SpectralState(t=0.0, u=u0, v=v0)
    tr = evolve(state, pohozaev(1.0, 1.0), tight_cfg, 10.0)
    drift = relative_drift(pohozaev_series(tr, 1.0, 1.0))
    assert drift < 1e-6

    # mismatched nonlinearity: the quantity is no longer conserved
    tr2 = evolve(state, affine(1.0, 1.0), tight_cfg, 10.0)
    drift2 = relative_drift(pohozaev_series(tr2, 1.0, 1.0))
    assert drift2 > 1e-3


def test_coefficient_trace(tight_cfg):
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    tr = evolve(state, constant(1.0), tight_cfg, 1.0)
    trace = coefficient_trace(tr)
    assert np.all(tr.coefficient == 1.0)
    assert np.all(trace.modulus_values == 0.0)

    zero_tr = evolve(
        SpectralState(t=0.0, u=zero_vector(spec), v=zero_vector(spec)),
        power(1.0),
        tight_cfg,
        1.0,
    )
    assert np.all(zero_tr.coefficient == 0.0)
    assert np.all(coefficient_trace(zero_tr).modulus_values == 0.0)


@pytest.mark.parametrize("intervals", [1, 5, 127, 128])
def test_coefficient_trace_windows_stop_at_the_run(tight_cfg, intervals):
    # windows of 1, 2, 4, ... sample steps up to MODULUS_WINDOWS of them; a
    # run of at most 128 samples ends the doubling at its own length
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    cfg = replace(tight_cfg, dense_output_dt=2.0 / intervals)
    tr = evolve(state, power(1.0), cfg, 2.0)
    assert tr.n_samples == intervals + 1
    trace = coefficient_trace(tr)
    steps = [k for k in 2 ** np.arange(dynamics.MODULUS_WINDOWS) if k < tr.n_samples]
    c, dt = tr.coefficient, tr.t[1] - tr.t[0]
    assert list(trace.modulus_deltas) == [k * dt for k in steps]
    spread = [max(np.ptp(c[i:i + k + 1]) for i in range(tr.n_samples - k)) for k in steps]
    assert list(trace.modulus_values) == spread
    assert spread[0] > 0.0


def test_cubic_period_against_reference(tight_cfg):
    # single-mode cubic oscillator: period from the coefficient trace matches
    # a tight-tolerance reference run
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))

    def period_of(cfg):
        tr = evolve(state, power(1.0), cfg, 20.0)
        u = tr.u[:, 0]
        # zero crossings of u give the half period
        sign_flips = np.nonzero(np.diff(np.sign(u)) != 0.0)[0]
        t0, t1 = tr.t[sign_flips[0]], tr.t[sign_flips[2]]
        return t1 - t0

    p = period_of(tight_cfg)
    p_ref = period_of(IntegratorConfig(1e-13, 1e-13))
    assert abs(p - p_ref) < 1e-6


def duffing_cn(lam, a, b, amp, t):
    """Exact (u, v, omega) of one mode under m = affine(a, b) from u = amp at rest.

    u'' = -(a + b lam^2 u^2) lam^2 u is Duffing's equation, solved by
    u = amp cn(omega t | k^2) with omega^2 = lam^2 (a + b lam^2 amp^2) and
    k^2 = b lam^4 amp^2 / (2 omega^2) (DLMF 22.13); b >= 0 keeps k^2 in [0, 1/2].
    """
    w2 = lam**2 * (a + b * lam**2 * amp**2)
    w = math.sqrt(w2)
    sn, cn, dn, _ = ellipj(w * t, b * lam**4 * amp**2 / (2.0 * w2))
    return amp * cn, -amp * w * sn * dn, w


def test_single_mode_cubic_scenario_moves_as_a_jacobi_cn(tmp_path):
    # the bundled config: power(1) is affine(0, 1), lambda = 1, u = 1 at rest,
    # so u = cn(t | 1/2); 2.6e-13 and 3.3e-13 when the bound was set
    run_scenario(Path(__file__).parents[1] / "scenarios" / "single_mode_cubic.json",
                 out_dir=tmp_path)
    with open(tmp_path / "trajectory.csv") as f:
        assert f.readline().strip() == "t,u_1,v_1"
    t, u, v = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, unpack=True)
    u_cn, v_cn, _ = duffing_cn(1.0, 0.0, 1.0, 1.0, t)
    assert t.size == 1001 and t[-1] == 20.0
    assert np.max(np.abs(u - u_cn)) < 1e-12
    assert np.max(np.abs(v - v_cn)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.5, 4.0), a=st.floats(0.0, 2.0), b=st.floats(0.0, 2.0),
       amp=st.floats(0.1, 2.0))
def test_one_mode_moves_as_a_jacobi_cn(lam, a, b, amp):
    # the solo form (the pair step loop) and a two-member ensemble (the array
    # loop) against the exact solution at tol 1e-12, over t = 2: up to 14
    # periods.  The worst error of 600 random draws and 72 corner and edge points of this
    # box was 1.8e-10, at lambda = 4, a = b = A = 2; the bound is not to be
    # widened to let a change pass.
    assume(a + b >= 0.01)
    spec = Spectrum([lam])
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    m = affine(a, b)

    def at(u0):
        return SpectralState(t=0.0, u=SpectralVector(spec, [u0]), v=zero_vector(spec))

    solo = evolve(at(amp), m, cfg, 2.0)
    members = evolve([at(amp), at(amp / 2.0)], [m, m], cfg, 2.0)
    for tr, u0 in ((solo, amp), (members[0], amp), (members[1], amp / 2.0)):
        assert tr.meta.status == "completed"
        u_cn, v_cn, w = duffing_cn(lam, a, b, u0, tr.t)
        assert np.max(np.abs(tr.u[:, 0] - u_cn)) / u0 < 4e-10
        assert np.max(np.abs(tr.v[:, 0] - v_cn)) / (u0 * w) < 4e-10


def test_degenerate_interval_flagging(tight_cfg):
    # really degenerate data: m(sigma) = sigma with zero solution keeps c = 0
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=zero_vector(spec), v=zero_vector(spec))
    tr = evolve(state, power(1.0), tight_cfg, 1.0)
    assert tr.meta.degenerate_spans
    lo, hi = tr.meta.degenerate_spans[0]
    assert lo == 0.0 and hi == 1.0
    # the run record serializes the spans as [lo, hi] pairs
    assert json.loads(dump_json(tr.meta.to_dict()))["degenerate_spans"] == [[0.0, 1.0]]


def degenerate_spans_loop(t, c):
    """The run-tracking loop that ``_degenerate_spans`` replaced, as its reference."""
    spans, start = [], None
    for i, flag in enumerate(c < dynamics.DEGENERATE_TOL):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            spans.append((float(t[start]), float(t[i - 1])))
            start = None
    if start is not None:
        spans.append((float(t[start]), float(t[-1])))
    return tuple(spans)


def test_degenerate_spans_match_the_run_loop():
    # NaN, runs at both ends, one-sample runs, no run and all low
    rng = np.random.default_rng(25)
    series = [np.array(c, dtype=float) for c in
              ([], [0.0], [1.0], [math.nan], [0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0])]
    for _ in range(5000):
        series.append(rng.choice([0.0, 1e-13, 1e-12, 1.0, math.nan], size=rng.integers(1, 40)))
    for c in series:
        t = np.cumsum(rng.random(c.size) + 0.1)
        assert dynamics._degenerate_spans(t, c) == degenerate_spans_loop(t, c)


def test_meta_records_span_and_drift(tight_cfg):
    spec = power_spectrum(4)
    state = SpectralState(
        t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec)
    )
    tr = evolve(state, constant(1.0), tight_cfg, 2.5)
    assert tr.meta.lambda_max_span == pytest.approx(4.0 * 2.5)
    assert tr.meta.hamiltonian_drift is not None
    assert tr.meta.hamiltonian_drift < 1e-9
    assert tr.meta.method == "verner65"


@pytest.mark.parametrize("value", [0.0, -1e-10, math.nan, math.inf])
@pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
def test_config_tolerances_must_be_positive_and_finite(field, value):
    with pytest.raises(PreconditionError, match="positive and finite"):
        IntegratorConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("dense_output_dt", math.nan), ("dense_output_dt", 0.0), ("dense_output_dt", -1.0)],
)
def test_config_step_and_sample_spacing_must_be_positive(field, value):
    # dense_output_dt = nan failed in sample_intervals
    with pytest.raises(PreconditionError, match=f"{field} must be positive"):
        IntegratorConfig(**{field: value})


@pytest.mark.parametrize("field", ["dense_output_dt"])
def test_config_step_and_sample_spacing_may_be_infinite(field):
    assert getattr(IntegratorConfig(**{field: math.inf}), field) == math.inf


def test_undefined_antiderivative_fails_before_integrating(tight_cfg, monkeypatch):
    # M = integral of sigma^-3 diverges at 0; the drift needs M, so evolve
    # must refuse before the first step rather than after the last
    def no_solve(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(dynamics, "solve_to_samples", no_solve)
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    with pytest.raises(DomainError):
        evolve(state, power(-3.0), tight_cfg, 5.0)
    # a weight kind has no antiderivative at all, so it cannot be m
    with pytest.raises(DomainError, match="cannot be the nonlinearity m"):
        evolve(state, weight_power_log(1.0), tight_cfg, 5.0)


def test_negative_power_at_zero_sigma_is_a_domain_error(tight_cfg):
    # from u0 = 0 the first RHS call meets sigma = 0, where sigma**-0.5 is singular
    spec = Spectrum([1.0, 2.0])
    state = SpectralState(t=0.0, u=zero_vector(spec), v=basis_vector(spec, 0))
    with pytest.raises(DomainError, match="negative power is singular"):
        evolve(state, power(-0.5), tight_cfg, 1.0)


def test_driver_looks_up_solver_at_call_time(tight_cfg, monkeypatch):
    # tracing rebinds dynamics.solve_to_samples from outside; evolve must
    # reach the rebound name
    calls = []
    solve = dynamics.solve_to_samples

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_to_samples", counting)
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    evolve(state, constant(1.0), tight_cfg, 0.5)
    assert len(calls) == 1


@pytest.mark.parametrize("t_end", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "run", [evolve, lambda s, m, cfg, t_end: evolve([s], [m], cfg, t_end)],
    ids=["evolve", "ensemble"],
)
def test_non_finite_t_end_refused_before_integrating(tight_cfg, monkeypatch, run, t_end):
    calls = []
    monkeypatch.setattr(dynamics, "solve_to_samples", lambda *args, **kwargs: calls.append(1))
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    # checked before the antiderivative too, which a weight kind lacks
    for m in (affine(1.0, 1.0), weight_power_log(1.0)):
        with pytest.raises(PreconditionError, match="t_end must be finite"):
            run(state, m, tight_cfg, t_end)
    assert calls == []


# ---------------------------------------------------------------------------
# ensembles: sequences of states and nonlinearities through one step loop


def normalized_state(spec, rng):
    """|A^(1/2)u0|^2 = 1 and |u1| = 1, every mode carrying energy."""
    lam = spec.lambdas
    u0 = rng.standard_normal(spec.n) / lam**1.5
    u0 /= math.sqrt(float(lam**2 @ u0**2))
    u1 = rng.standard_normal(spec.n) / lam**0.5
    u1 /= float(np.linalg.norm(u1))
    return SpectralState(t=0.0, u=SpectralVector(spec, u0), v=SpectralVector(spec, u1))


@pytest.mark.parametrize("n", [2, 3, 33, 512])
def test_ensemble_of_one_matches_solo_evolve_bit_for_bit(n):
    # odd widths and widths past the BLAS kernels' unrolled blocks reach
    # both m steps of the one array closure
    rng = np.random.default_rng(5)
    state = normalized_state(power_spectrum(n), rng)
    cfg = IntegratorConfig()
    t_end = 3.0 if n < 100 else 0.3
    solo = evolve(state, power(2.0), cfg, t_end)
    (member,) = evolve([state], [power(2.0)], cfg, t_end)
    for field in ("t", "u", "v", "sigma", "coefficient"):
        assert getattr(member, field).tobytes() == getattr(solo, field).tobytes()
    assert member.meta == solo.meta and solo.meta.status == "completed"


@pytest.mark.parametrize("n", [1, 2])
def test_negative_m_reads_alike_in_every_form(n, tight_cfg):
    # n = 1 takes the pair closure, n = 2 the array closure on a vector; an
    # ensemble's text adds its member.  Both states have sigma = 1.
    spec = Spectrum([1.0, 2.0][:n])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    text = "m(1) = -2 < 0 at t = 0"
    with pytest.raises(NegativeNonlinearityError) as solo:
        evolve(state, affine(-2.0, 0.0), tight_cfg, 1.0)
    assert str(solo.value) == text
    with pytest.raises(NegativeNonlinearityError) as member:
        evolve([state, state], [constant(1.0), affine(-2.0, 0.0)], tight_cfg, 1.0)
    assert str(member.value) == text + " in ensemble member 1"


@pytest.mark.parametrize("n, members", [(4, None), (4, 1), (1, None)],
                         ids=["vector", "ensemble_of_one", "pair"])
def test_start_far_from_zero_stops_on_step_underflow(n, members, tight_cfg):
    # from t0 = -1e17 a step of order 1 gives t + h == t; the step floor
    # covers |t0| too, so each loop stops at once instead of spinning
    spec = power_spectrum(n)
    state = SpectralState(t=-1e17, u=basis_vector(spec, 0), v=zero_vector(spec))
    with deadline(1.0):
        if members is None:
            trs = [evolve(state, affine(1.0, 1.0), tight_cfg, 1.0)]
        else:
            trs = evolve([state] * members, [affine(1.0, 1.0)] * members, tight_cfg, 1.0)
    for tr in trs:
        assert tr.meta.status == "step_underflow"
        assert tr.n_samples == 1 and "underflowed at t = -1e+17" in tr.meta.message


# one mode: the solo form's Python-float RHS against the ensemble's array RHS,
# from data whose sigma crosses the knee of table1_loglipschitz (e**-1) and
# the table's knots; lambda = 1.3, so that a product with lambda**2 taken in
# another order shows
ONE_MODE_MS = {
    "affine": affine(1.0, 1.0),
    "power1": power(1.0),
    "pohozaev": pohozaev(1.0, 1.0),
    "table1_loglipschitz": get_preset("table1_loglipschitz").m,
    "table": table([0.0, 0.25, 0.5, 1.0], [1.0, 1.5, 1.25, 2.0]),
    # the catalog's other distinct m, and a constant
    "offset_power_half": offset(1.0, power(0.5)),
    "power_half": power(0.5),
    "table3_loglipschitz_cubed": get_preset("table3_loglipschitz_cubed").m,
    "table3_loglog": get_preset("table3_loglog").m,
    "constant": constant(2.0),
}


@pytest.mark.parametrize("name", ONE_MODE_MS)
def test_one_mode_solo_matches_one_member_ensemble(name):
    spec = Spectrum([1.3])
    state = SpectralState(t=0.0, u=SpectralVector(spec, [0.3]), v=SpectralVector(spec, [1.0]))
    solo = evolve(state, ONE_MODE_MS[name], IntegratorConfig(), 10.0)
    (member,) = evolve([state], [ONE_MODE_MS[name]], IntegratorConfig(), 10.0)
    for field in ("t", "u", "v", "sigma", "coefficient"):
        assert getattr(solo, field).tobytes() == getattr(member, field).tobytes()
    assert solo.meta == member.meta and solo.meta.status == "completed"
    assert solo.sigma.min() < 0.25 and solo.sigma.max() > 0.5


@pytest.mark.parametrize(
    "u0, u1, m, error",
    [
        ([1.0], [0.0], affine(-2.0, 0.0), NegativeNonlinearityError),  # at the first call
        ([0.5], [0.5], affine(0.5, -1.0), NegativeNonlinearityError),  # once sigma > 1/2
        ([0.0], [1.0], power(-0.5), DomainError),  # sigma**-0.5 at sigma = 0
    ],
    ids=["negative_at_start", "negative_later", "singular_power"],
)
def test_one_mode_solo_raises_as_one_member_ensemble(u0, u1, m, error, tight_cfg):
    spec = Spectrum([1.3])
    state = SpectralState(t=0.0, u=SpectralVector(spec, u0), v=SpectralVector(spec, u1))
    with pytest.raises(error) as solo:
        evolve(state, m, tight_cfg, 5.0)
    with pytest.raises(error) as member:
        evolve([state], [m], tight_cfg, 5.0)
    # an ensemble's negative m also names its member
    suffix = " in ensemble member 0" if error is NegativeNonlinearityError else ""
    assert str(solo.value) + suffix == str(member.value)
    assert member.value.member == 0 and not hasattr(solo.value, "member")


def test_ensemble_members_track_their_solo_runs():
    # Batched and solo runs take different steps, so they differ by about
    # the solo run's own error.  On these data that error is 3e-11 to 1.3e-7
    # against a 1e-13 run, so the batched members are checked against the
    # same tight run: each is at least about as accurate as its solo run.
    spec = power_spectrum(32)
    rng = np.random.default_rng(0)
    cfg = IntegratorConfig()
    ms = [affine(1.0, 1.0), power(2.0), pohozaev(1.0, 1.0)]
    states = [normalized_state(spec, rng) for _ in ms]
    batch = evolve(states, ms, cfg, 10.0)

    def distance(a, b):
        return max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.v - b.v)))

    solo_rhs = 0
    for tr, state, m in zip(batch, states, ms):
        solo = evolve(state, m, cfg, 10.0)
        tight = evolve(state, m, IntegratorConfig(1e-13, 1e-13), 10.0)
        solo_rhs += solo.meta.n_rhs
        assert tr.meta.status == "completed"
        assert np.array_equal(tr.t, solo.t)
        solo_error = distance(solo, tight)
        assert distance(tr, tight) <= 1.25 * solo_error + 1e-10
        assert distance(tr, solo) <= 2.25 * solo_error + 1e-10
        # each member's own diagnostics; the step counters are shared
        assert tr.meta.hamiltonian_drift < 1e-7
        assert tr.meta.n_rhs == batch[0].meta.n_rhs
    assert batch[0].meta.n_rhs < solo_rhs


@pytest.mark.parametrize("stop", ["blow_up", "step_underflow"])
def test_ensemble_stops_as_one(stop, monkeypatch):
    # one member's stop ends all three at one sample with one status and
    # message: its drift past BLOWUP_CAP, or its m turning NaN below
    # sigma = 0.5 (at t = pi/4), so that no step passes the error test.
    # The message names that member.  Drift and degenerate spans stay each
    # member's own.
    spec = Spectrum([1.0])
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8)
    calm = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    if stop == "blow_up":
        odd = SpectralState(t=0.0, u=SpectralVector(spec, [0.0]),
                            v=SpectralVector(spec, [1e11]))
        odd_m = constant(0.0)
    else:
        odd, odd_m = calm, constant(1.0)
        scalar = dynamics.scalar_callable
        monkeypatch.setattr(dynamics, "scalar_callable", lambda m: (
            (lambda s: math.nan if s < 0.5 else 1.0) if m is odd_m else scalar(m)))
    trs = evolve([calm, odd, calm], [constant(1.0), odd_m, constant(4.0)], cfg, 20.0)
    first = trs[0]
    assert first.meta.status == stop and first.meta.message.startswith("member 1: ")
    assert 1 < first.n_samples < 1001 and first.t[-1] < 20.0
    for tr in trs:
        assert tr.t.tobytes() == first.t.tobytes()
        assert (tr.meta.status, tr.meta.message) == (stop, first.meta.message)
    assert trs[1].meta.degenerate_spans == (((0.0, first.t[-1]),) if stop == "blow_up"
                                            else ())
    for tr, c in ((trs[0], 1.0), (trs[2], 4.0)):
        assert tr.meta.degenerate_spans == () and tr.meta.hamiltonian_drift < 1e-7
        u, _ = closed_form(spec, np.array([1.0]), np.array([0.0]), c, tr.t)
        assert np.max(np.abs(tr.u[:, 0] - u)) < 1e-6


def solo_n32_run():
    m = affine(1.0, 1.0)
    state = normalized_state(power_spectrum(32), np.random.default_rng(21))
    return [(evolve(state, m, IntegratorConfig(), 2.0), m)]


def one_mode_run():
    # the pair step loop, with a modulus m whose knee sigma crosses
    m = get_preset("table1_loglipschitz").m
    spec = Spectrum([1.3])
    state = SpectralState(t=0.0, u=SpectralVector(spec, [0.3]), v=SpectralVector(spec, [1.0]))
    return [(evolve(state, m, IntegratorConfig(), 10.0), m)]


def ensemble_run_with_blow_up():
    # the last member drifts linearly past BLOWUP_CAP and stops all early
    spec = power_spectrum(3)
    rng = np.random.default_rng(8)
    fast = SpectralState(t=0.0, u=zero_vector(spec), v=SpectralVector(spec, [1e11, 0.0, 0.0]))
    states = [normalized_state(spec, rng), normalized_state(spec, rng), fast]
    ms = [affine(1.0, 1.0), pohozaev(1.0, 1.0), constant(0.0)]
    trs = evolve(states, ms, IntegratorConfig(), 20.0)
    assert [tr.meta.status for tr in trs] == ["blow_up"] * 3
    return list(zip(trs, ms))


SERIES_RUNS = {"solo_n32": solo_n32_run, "one_mode": one_mode_run,
               "ensemble_with_blow_up": ensemble_run_with_blow_up}


@pytest.mark.parametrize("run", SERIES_RUNS)
def test_trajectory_carries_sigma_and_coefficient(run):
    for tr, m in SERIES_RUNS[run]():
        sigma = tr.u**2 @ tr.spectrum.lam2
        assert tr.sigma.shape == tr.coefficient.shape == (tr.n_samples,)
        assert tr.sigma.tobytes() == sigma.tobytes()
        assert tr.coefficient.tobytes() == np.asarray(m(sigma), dtype=float).tobytes()


@pytest.mark.parametrize("run", SERIES_RUNS)
def test_trajectory_refuses_misshaped_sigma_or_coefficient(run):
    for tr, _ in SERIES_RUNS[run]():
        short, column = tr.sigma[:-1], tr.coefficient[:, None]
        for fields in ({"sigma": short}, {"coefficient": short}, {"sigma": column},
                       {"coefficient": column}, {"sigma": np.float64(1.0)}):
            with pytest.raises(PreconditionError, match="one value per sample"):
                replace(tr, **fields)


def test_ensemble_negative_m_names_its_member(monkeypatch, tight_cfg):
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    with pytest.raises(NegativeNonlinearityError, match="member 1") as exc:
        evolve([state, state], [constant(1.0), affine(-2.0, 0.0)], tight_cfg, 1.0)
    assert exc.value.member == 1
    with pytest.raises(DomainError) as exc:
        evolve([state, state], [constant(1.0), power(-3.0)], tight_cfg, 1.0)
    assert exc.value.member == 1
    # a NaN coefficient in an earlier slot (a member whose stage went
    # non-finite; a spec cannot hold a NaN param) hides no later negative one
    nan_m = constant(1.0)
    scalar = dynamics.scalar_callable
    monkeypatch.setattr(dynamics, "scalar_callable",
                        lambda m: (lambda s: math.nan) if m is nan_m else scalar(m))
    with pytest.raises(NegativeNonlinearityError, match="member 1") as exc:
        evolve([state, state], [nan_m, affine(-2.0, 0.0)], tight_cfg, 1.0)
    assert exc.value.member == 1
    monkeypatch.undo()
    # any error of a member's m carries its index, not only the library's own
    bad_m = constant(1.0)
    monkeypatch.setattr(dynamics, "scalar_callable",
                        lambda m: (lambda s: 1 / 0) if m is bad_m else scalar(m))
    with pytest.raises(ZeroDivisionError) as exc:
        evolve([state, state], [constant(1.0), bad_m], tight_cfg, 1.0)
    assert exc.value.member == 1


def test_ensemble_needs_matching_members(tight_cfg):
    spec = Spectrum([1.0])
    state = SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec))
    other = SpectralState(t=0.0, u=basis_vector(Spectrum([2.0]), 0),
                          v=zero_vector(Spectrum([2.0])))
    later = SpectralState(t=0.5, u=basis_vector(spec, 0), v=zero_vector(spec))
    with pytest.raises(PreconditionError, match="one nonlinearity per state"):
        evolve([state, state], [constant(1.0)], tight_cfg, 1.0)
    with pytest.raises(PreconditionError, match="one nonlinearity per state"):
        evolve([], [], tight_cfg, 1.0)
    with pytest.raises(PreconditionError, match="one nonlinearity per state"):
        evolve([state, state], constant(1.0), tight_cfg, 1.0)
    for ms in ([constant(1.0)], (constant(1.0),)):
        with pytest.raises(PreconditionError, match="one nonlinearity per state"):
            evolve(state, ms, tight_cfg, 1.0)
    # checked before the antiderivative too, which a weight kind lacks
    for mate in (other, later):
        for m in (constant(1.0), weight_power_log(1.0)):
            with pytest.raises(PreconditionError, match="one spectrum and start time"):
                evolve([state, mate], [m] * 2, tight_cfg, 1.0)
