import math

import numpy as np
import pytest

from kirchhoff_spectral import (
    Degeneracy,
    GevreyParams,
    IntegratorConfig,
    ScaleTraceConfig,
    SpectralState,
    SpectralVector,
    Spectrum,
    affine,
    basis_vector,
    classify_degeneracy,
    constant,
    continuous_dependence_study,
    derivative_loss_probe,
    evolve,
    gevrey_norm,
    hamiltonian_reachable_sigma,
    offset,
    power,
    power_spectrum,
    scale_norm_trace,
    sobolev_norm,
    uniqueness_condition,
    weight_power_log,
    zero_vector,
)
from kirchhoff_spectral.analysis import energy_distance
from kirchhoff_spectral.conditions import log_log_slope
from kirchhoff_spectral.errors import NegativeNonlinearityError, PreconditionError


def test_scale_trace_zero_trajectory(tight_cfg):
    spec = power_spectrum(3)
    tr = evolve(
        SpectralState(t=0.0, u=zero_vector(spec), v=zero_vector(spec)),
        affine(1.0, 1.0),
        tight_cfg,
        1.0,
    )
    trace = scale_norm_trace(
        tr, ScaleTraceConfig(phi=constant(1.0), r0=1.0, big_r=0.5, alpha=0.25)
    )
    assert np.all(trace.u_norms == 0.0)
    assert np.all(trace.v_norms == 0.0)


def test_scale_trace_single_mode_closed_form(tight_cfg):
    # m = 1, one mode lam = 1, phi = 1: the trace is e^(r(t)/2) |u(t)| with
    # u(t) = cos t and exponent weights lam^(4a) = 1
    spec = Spectrum([1.0])
    tr = evolve(
        SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec)),
        constant(1.0),
        tight_cfg,
        0.8,
    )
    cfg = ScaleTraceConfig(phi=constant(1.0), r0=1.0, big_r=0.5, alpha=0.25)
    trace = scale_norm_trace(tr, cfg)
    expected_u = np.exp((1.0 - 0.5 * tr.t) / 2.0) * np.abs(np.cos(tr.t))
    assert np.max(np.abs(trace.u_norms - expected_u)) < 1e-8


def test_scale_trace_phi_one_factorization(tight_cfg):
    rng = np.random.default_rng(4)
    spec = power_spectrum(5)
    u0 = SpectralVector(spec, rng.standard_normal(5) / spec.lambdas**2)
    v0 = SpectralVector(spec, rng.standard_normal(5) / spec.lambdas)
    tr = evolve(SpectralState(t=0.0, u=u0, v=v0), affine(1.0, 1.0), tight_cfg, 0.5)
    cfg = ScaleTraceConfig(phi=constant(1.0), r0=2.0, big_r=1.0, alpha=0.25)
    trace = scale_norm_trace(tr, cfg)
    for i in (0, 100, 500, 1000):
        r_t = 2.0 - 1.0 * tr.t[i]
        u_i = SpectralVector(spec, tr.u[i])
        assert trace.u_norms[i] == pytest.approx(
            math.exp(r_t / 2.0) * sobolev_norm(u_i, 0.75), rel=1e-13
        )


def test_scale_trace_r_zero_reduction(tight_cfg):
    spec = Spectrum([1.0, 2.0])
    u0 = SpectralVector(spec, [1.0, 0.5])
    tr = evolve(
        SpectralState(t=0.0, u=u0, v=zero_vector(spec)),
        constant(1.0),
        tight_cfg,
        0.5,
    )
    phi = weight_power_log(1.0)
    cfg = ScaleTraceConfig(phi=phi, r0=0.7, big_r=0.0, alpha=0.25)
    trace = scale_norm_trace(tr, cfg)
    for i in range(tr.n_samples):
        u_i = SpectralVector(spec, tr.u[i])
        assert trace.u_norms[i] == gevrey_norm(u_i, GevreyParams(phi, 0.7, 0.75))
    # with a shrinking radius each sample matches its own fixed-radius norm
    cfg = ScaleTraceConfig(phi=phi, r0=0.7, big_r=1.0, alpha=0.25)
    trace = scale_norm_trace(tr, cfg)
    for i in range(tr.n_samples):
        r_i = float(trace.radii[i])
        u_i = SpectralVector(spec, tr.u[i])
        v_i = SpectralVector(spec, tr.v[i])
        assert trace.u_norms[i] == gevrey_norm(u_i, GevreyParams(phi, r_i, 0.75))
        assert trace.v_norms[i] == gevrey_norm(v_i, GevreyParams(phi, r_i, 0.25))


def test_scale_trace_radius_guard(tight_cfg):
    spec = Spectrum([1.0])
    tr = evolve(
        SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec)),
        constant(1.0),
        tight_cfg,
        2.0,
    )
    with pytest.raises(PreconditionError, match="radius"):
        scale_norm_trace(
            tr, ScaleTraceConfig(phi=constant(1.0), r0=1.0, big_r=1.0, alpha=0.0)
        )


def test_classify_degeneracy_examples():
    spec = Spectrum([1.0])
    grid = np.linspace(0.0, 4.0, 257)
    u_unit = basis_vector(spec, 0)
    assert classify_degeneracy(affine(1.0, 1.0), u_unit, grid) is (
        Degeneracy.STRICTLY_HYPERBOLIC
    )
    # m(sigma) = sigma with |A^(1/2)u0|^2 = 1: m(1) = 1 != 0 but inf m = 0
    assert classify_degeneracy(power(1.0), u_unit, grid) is (
        Degeneracy.MILDLY_DEGENERATE
    )
    assert classify_degeneracy(power(1.0), zero_vector(spec), grid) is (
        Degeneracy.REALLY_DEGENERATE
    )


def test_classify_shifted_m_is_strict():
    spec = Spectrum([1.0])
    grid = np.linspace(0.0, 4.0, 257)
    for base in (power(1.0), power(0.5)):
        shifted = offset(0.5, base)
        assert classify_degeneracy(shifted, zero_vector(spec), grid) is (
            Degeneracy.STRICTLY_HYPERBOLIC
        )


def test_reachable_sigma_bound():
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = basis_vector(spec, 0, 2.0)
    bound = hamiltonian_reachable_sigma(u0, u1, affine(1.0, 0.0))
    # H = 4 + M(1) = 5 with M(s) = s: reachable sigma <= 5
    assert bound >= 5.0


def test_uniqueness_examples():
    spec1 = Spectrum([1.0])
    e1 = basis_vector(spec1, 0)
    rep = uniqueness_condition(e1, e1, constant(1.0))
    assert rep.as1 == 1.0 and rep.as2 == 0.0 and rep.hp_main_holds

    spec = Spectrum([1.0, 2.0])
    u0 = basis_vector(spec, 0)
    u1 = basis_vector(spec, 1)
    rep = uniqueness_condition(u0, u1, constant(1.0))
    assert rep.as1 == 0.0
    assert rep.as2 == pytest.approx(3.0)
    assert rep.hp_main_holds

    # matched scaling solves |A^(1/2)u1|^2 = m * |A u0|^2 exactly
    u1_matched = SpectralVector(spec, [0.0, 0.5])
    rep = uniqueness_condition(u0, u1_matched, constant(1.0))
    assert rep.as1 == 0.0 and rep.as2 == 0.0
    assert not rep.hp_main_holds


def test_uniqueness_permutation_invariance():
    rng = np.random.default_rng(8)
    lam = np.array([1.0, 1.0, 2.0, 2.0])
    spec = Spectrum(lam)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    rep = uniqueness_condition(
        SpectralVector(spec, a), SpectralVector(spec, b), affine(1.0, 1.0)
    )
    # swap the two modes with equal eigenvalue 1 and the two with 2
    perm = [1, 0, 3, 2]
    rep_p = uniqueness_condition(
        SpectralVector(spec, a[perm]), SpectralVector(spec, b[perm]),
        affine(1.0, 1.0),
    )
    assert rep_p.as1 == pytest.approx(rep.as1, rel=1e-15, abs=1e-15)
    assert rep_p.as2 == pytest.approx(rep.as2, rel=1e-15, abs=1e-15)


def test_loss_probe_zero_solution(tight_cfg):
    spec = power_spectrum(4)
    tr = evolve(
        SpectralState(t=0.0, u=zero_vector(spec), v=zero_vector(spec)),
        affine(1.0, 1.0),
        tight_cfg,
        1.0,
    )
    rep = derivative_loss_probe(tr, constant(1.0), [0.25], [0.25, 0.5])
    assert not rep.has_signature


def test_loss_probe_constant_m_no_signature(tight_cfg):
    rng = np.random.default_rng(12)
    spec = power_spectrum(8)
    u0 = SpectralVector(spec, rng.standard_normal(8) / spec.lambdas**2)
    v0 = SpectralVector(spec, rng.standard_normal(8) / spec.lambdas)
    tr = evolve(SpectralState(t=0.0, u=u0, v=v0), constant(1.0), tight_cfg, 1.0)
    rep = derivative_loss_probe(tr, constant(1.0), [0.25, 0.75], [0.25, 0.5])
    assert not rep.has_signature
    # per-mode closed form keeps each norm bounded by its t = 0 level scale
    for entry in rep.entries:
        assert entry.max_early_norm < 10.0 * max(entry.norm_at_start, 1e-12)


def test_loss_probe_truncation_refinement(tight_cfg):
    # data u_k ~ e^(-lambda_k): finite truncations keep every probed norm
    # finite and report no signature at any refinement level
    for n in (8, 16, 32):
        spec = power_spectrum(n)
        profile = np.exp(-spec.lambdas)
        u0 = SpectralVector(spec, profile)
        tr = evolve(
            SpectralState(t=0.0, u=u0, v=zero_vector(spec)),
            affine(1.0, 1.0),
            tight_cfg,
            0.5,
        )
        rep = derivative_loss_probe(tr, power(1.0), [0.25, 0.75], [0.5, 1.0])
        assert not rep.has_signature
        assert all(np.isfinite(e.max_early_norm) for e in rep.entries)


def test_loss_probe_needs_samples(tight_cfg):
    spec = Spectrum([1.0])
    tr = evolve(
        SpectralState(t=0.0, u=basis_vector(spec, 0), v=zero_vector(spec)),
        constant(1.0),
        IntegratorConfig(dense_output_dt=0.5),
        1.0,
    )
    with pytest.raises(PreconditionError, match="finer"):
        derivative_loss_probe(tr, constant(1.0), [0.25], [0.5])


def test_dependence_identical_problems(tight_cfg):
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = zero_vector(spec)
    m = constant(1.0)
    rep = continuous_dependence_study(
        [(m, u0, u1), (m, u0, u1)], (m, u0, u1), tight_cfg, 1.0
    )
    assert np.all(rep.deviations == 0.0)


def test_dependence_m_perturbation_rate(tight_cfg):
    # m_n = 1 + 1/n on a single unit mode: frequency sqrt(1 + 1/n) and
    # deviation O(1/n)
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = zero_vector(spec)
    ns = [4, 8, 16, 32]
    problems = [(affine(1.0 + 1.0 / n, 0.0), u0, u1) for n in ns]
    rep = continuous_dependence_study(
        problems, (constant(1.0), u0, u1), tight_cfg, 1.0
    )
    slope = log_log_slope(np.array(ns, float), rep.deviations)
    assert -1.2 < slope < -0.8
    # the closed-form bound |cos(w_n t) - cos(t)| <= |w_n - 1| t
    for n, dev in zip(ns, rep.deviations):
        w = math.sqrt(1.0 + 1.0 / n)
        assert dev <= 2.0 * (w - 1.0) * 1.0 + 1e-6


def test_dependence_runs_one_ensemble(tight_cfg, monkeypatch):
    from kirchhoff_spectral import analysis

    calls = []
    real_evolve = analysis.evolve

    def counting(init, m, cfg, t_end):
        calls.append(len(init))
        return real_evolve(init, m, cfg, t_end)

    monkeypatch.setattr(analysis, "evolve", counting)
    spec = power_spectrum(3)
    u0 = SpectralVector(spec, [1.0, 0.3, 0.1])
    u1 = zero_vector(spec)
    limit = (affine(1.0, 1.0), u0, u1)
    near = (offset(0.25, affine(1.0, 1.0)), u0, u1)
    nearer = (offset(0.125, affine(1.0, 1.0)), u0, u1)
    rep = continuous_dependence_study([near, nearer, near, limit], limit, tight_cfg, 1.0)
    # the limit, near and nearer: one slot each, in one call
    assert calls == [3]
    devs = rep.deviations
    assert devs[0] == devs[2] and devs[3] == 0.0
    assert devs[0] > devs[1] > 0.0
    tr_lim = real_evolve(SpectralState(t=0.0, u=u0, v=u1), limit[0], tight_cfg, 1.0)
    for dev, (m, _, _) in zip(devs, (near, nearer)):
        tr = real_evolve(SpectralState(t=0.0, u=u0, v=u1), m, tight_cfg, 1.0)
        assert abs(dev - energy_distance(tr, tr_lim)) < 1e-9


def test_dependence_names_the_failing_problem(tight_cfg, monkeypatch):
    spec = Spectrum([1.0])
    u0 = basis_vector(spec, 0)
    u1 = zero_vector(spec)
    m = constant(1.0)
    problems = [(m, u0, u1), (affine(1.5, 0.0), u0, u1), (affine(-2.0, 0.0), u0, u1)]
    with pytest.raises(PreconditionError, match="integration failed for problem 2"):
        continuous_dependence_study(problems, (m, u0, u1), tight_cfg, 1.0)
    # an error of any type is mapped from its ensemble slot to the problem
    from kirchhoff_spectral import analysis

    def failing(init, ms, cfg, t_end):
        exc = OverflowError("math range error")
        exc.member = 1
        raise exc

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "evolve", failing)
        with pytest.raises(PreconditionError, match="problem 1: math range error"):
            continuous_dependence_study(problems[:2], (m, u0, u1), tight_cfg, 1.0)
    # a failing limit raises as it is
    with pytest.raises(NegativeNonlinearityError, match="member 0"):
        continuous_dependence_study(problems[:2], (affine(-2.0, 0.0), u0, u1),
                                    tight_cfg, 1.0)
