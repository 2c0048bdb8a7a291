"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; any failure is a hard test failure.
"""

import math
import time

import numpy as np

from kirchhoff_spectral import (
    IntegratorConfig,
    SpectralState,
    SpectralVector,
    affine,
    constant,
    evolve,
    gm_membership,
    hamiltonian_series,
    pohozaev,
    pohozaev_series,
    power,
    power_spectrum,
    psi_initial_derivatives,
    psi_trace,
    relative_drift,
    reparametrization_check,
    solve_parametrization,
    solve_trajectory_system,
    sum_decompose,
    uniqueness_condition,
    zero_vector,
)
from kirchhoff_spectral.conditions import check_phi_condition
from kirchhoff_spectral.presets import list_presets
from kirchhoff_spectral.scenario import run_scenario

TOL = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10)
N_MODES = 32


def normalized_data(rng, spectrum, sigma0=1.0, speed=1.0):
    """Random data with |A^(1/2)u0|^2 = sigma0 and |u1| = speed."""
    lam = spectrum.lambdas
    u0 = rng.standard_normal(spectrum.n) / lam**1.5
    u0 *= math.sqrt(sigma0 / float(lam**2 @ u0**2))
    u1 = rng.standard_normal(spectrum.n) / lam**0.5
    u1 *= speed / float(np.linalg.norm(u1))
    return SpectralVector(spectrum, u0), SpectralVector(spectrum, u1)


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_linear_oracle():
    spec = power_spectrum(N_MODES)
    lam = spec.lambdas
    rng = np.random.default_rng(101)
    u0, u1 = normalized_data(rng, spec)
    started = time.perf_counter()
    worst = 0.0
    for c0 in (1.0, 4.0):
        state = SpectralState(t=0.0, u=u0, v=u1)
        tr = evolve(state, constant(c0), TOL, 1.0)
        w = lam * math.sqrt(c0)
        for i, t in enumerate(tr.t):
            ue = u0.components * np.cos(w * t) + u1.components * np.sin(w * t) / w
            ve = -u0.components * w * np.sin(w * t) + u1.components * np.cos(w * t)
            worst = max(
                worst,
                float(np.max(np.abs(tr.u[i] - ue))),
                float(np.max(np.abs(tr.v[i] - ve))),
            )
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 2.0
    report(f"criterion 1 PASS linear oracle: max component error {worst:.2e}, "
           f"{elapsed:.2f} s")


def test_criterion_02_hamiltonian_conservation():
    spec = power_spectrum(N_MODES)
    presets = [affine(1.0, 1.0), power(1.0), power(2.0), pohozaev(1.0, 1.0)]
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    for m in presets:
        for _ in range(10):
            u0, u1 = normalized_data(rng, spec)
            tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, TOL, 10.0)
            assert tr.meta.status == "completed"
            drift = relative_drift(hamiltonian_series(tr, m))
            worst = max(worst, drift)
            assert drift <= 1e-7
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(f"criterion 2 PASS hamiltonian conservation: worst drift "
           f"{worst:.2e} over 40 runs, {elapsed:.1f} s")


def test_criterion_03_pohozaev_invariant():
    spec = power_spectrum(N_MODES)
    rng = np.random.default_rng(303)
    u0, u1 = normalized_data(rng, spec)
    state = SpectralState(t=0.0, u=u0, v=u1)
    tr = evolve(state, pohozaev(1.0, 1.0), TOL, 10.0)
    drift = relative_drift(pohozaev_series(tr, 1.0, 1.0))
    assert drift <= 1e-6

    control = evolve(state, affine(1.0, 1.0), TOL, 10.0)
    control_drift = relative_drift(pohozaev_series(control, 1.0, 1.0))
    assert control_drift >= 1e-3
    report(f"criterion 3 PASS pohozaev invariant: drift {drift:.2e}, "
           f"negative control {control_drift:.2e}")


def test_criterion_04_time_reversibility():
    spec = power_spectrum(N_MODES)
    rng = np.random.default_rng(404)
    worst = 0.0
    for m in (affine(1.0, 1.0), power(1.0), power(2.0), pohozaev(1.0, 1.0)):
        u0, u1 = normalized_data(rng, spec)
        fwd = evolve(SpectralState(t=0.0, u=u0, v=u1), m, TOL, 5.0)
        flipped = SpectralState(
            t=0.0,
            u=SpectralVector(spec, fwd.u[-1]),
            v=SpectralVector(spec, -fwd.v[-1]),
        )
        back = evolve(flipped, m, TOL, 5.0)
        err = max(
            float(np.max(np.abs(back.u[-1] - u0.components))),
            float(np.max(np.abs(back.v[-1] + u1.components))),
        )
        worst = max(worst, err)
        assert err <= 1e-6
    report(f"criterion 4 PASS time reversibility: worst return error {worst:.2e}")


def test_criterion_05_condition_table_suite():
    started = time.perf_counter()
    for bundle in list_presets():
        rep = check_phi_condition(bundle.omega, bundle.phi, bundle.mode)
        if bundle.loss_regime:
            assert not rep.passed, bundle.name
            assert rep.trend_slope > 0.0, bundle.name
        else:
            assert rep.passed, bundle.name
            assert np.isfinite(rep.lambda_estimate), bundle.name
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"criterion 5 PASS condition tables: "
           f"{len(list_presets())} preset pairs classified, {elapsed:.2f} s")


def test_criterion_06_uniqueness_coherence():
    spec = power_spectrum(N_MODES)
    rng = np.random.default_rng(606)
    m = affine(1.0, 1.0)
    for _ in range(100):
        u0, u1 = normalized_data(rng, spec)
        rep = uniqueness_condition(u0, u1, m)
        d1, d2 = psi_initial_derivatives(u0, u1, m)
        assert d1 == 2.0 * rep.as1
        assert d2 == 2.0 * rep.as2

    # finite differences of the sampled shift converge at the stated orders
    ref = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    orders1, orders2 = [], []
    for _ in range(3):
        u0, u1 = normalized_data(rng, spec)
        d1, d2 = psi_initial_derivatives(u0, u1, m)

        def fd(dt):
            cfg = IntegratorConfig(1e-12, 1e-12, dense_output_dt=dt)
            tr = evolve(SpectralState(t=0.0, u=u0, v=u1), m, cfg, 2.0 * dt)
            pt = psi_trace(tr)
            fd1 = (-3.0 * pt.psi[0] + 4.0 * pt.psi[1] - pt.psi[2]) / (2.0 * dt)
            fd2 = (pt.psi[0] - 2.0 * pt.psi[1] + pt.psi[2]) / dt**2
            return abs(fd1 - d1), abs(fd2 - d2)

        e1a, e2a = fd(2e-3)
        e1b, e2b = fd(1e-3)
        orders1.append(math.log2(e1a / e1b))
        orders2.append(math.log2(e2a / e2b))
    assert min(orders1) >= 1.8
    assert min(orders2) >= 0.9
    report(f"criterion 6 PASS uniqueness coherence: exact equalities for 100 "
           f"pairs; fd orders {min(orders1):.2f} / {min(orders2):.2f}")


def test_criterion_07_round_trip():
    spec = power_spectrum(1)  # single unit mode
    e1 = SpectralVector(spec, [1.0])
    m = constant(1.0)

    worst = 0.0
    for u1, t_end, s_max, direction in (
        (SpectralVector(spec, [1.0]), 0.7, 0.9, 1),    # psi'(0) != 0
        (zero_vector(spec), 1.1, 0.8, -1),             # psi'(0) = 0, psi''(0) != 0
    ):
        tr = evolve(SpectralState(t=0.0, u=e1, v=u1), m, TOL, t_end)
        # the shift rises over the whole run; the curve lands on its values
        # up to s_max
        rise = direction * psi_trace(tr).psi
        assert np.all(np.diff(rise) > 0.0)
        curve = solve_trajectory_system(e1, u1, m, rise[rise <= s_max], TOL)
        direct = reparametrization_check(tr, curve)
        assert direct.max_deviation <= 1e-5

        recovered = solve_parametrization(curve, m)
        # u(t) = z(psi(t)) / lambda on the recovered pace, against the time run
        u_rec = curve.z[curve.start + 1:, 0] / spec.lambdas[0]
        u_direct = np.interp(recovered.t, tr.t, tr.u[:, 0])
        err = float(np.max(np.abs(u_rec - u_direct)))
        worst = max(worst, direct.max_deviation, err)
        assert err <= 1e-5
    report(f"criterion 7 PASS reparametrization round trip: worst deviation "
           f"{worst:.2e}")


def test_criterion_08_sum_property():
    spec = power_spectrum(64)
    lam = spec.lambdas
    phi = power(1.0)
    started = time.perf_counter()
    for gamma, q in ((1.0, 1.0), (1.0, 2.0), (0.1, 2.0)):
        profile = np.exp(-gamma * lam**q)
        u0 = SpectralVector(spec, profile)
        u1 = SpectralVector(spec, 0.5 * profile)
        for beta in (2.0, 3.0):
            dec = sum_decompose(u0, u1, phi, 0.25, beta)
            # (a) exact reconstruction
            assert np.array_equal(
                dec.u0_bar.components + dec.u0_hat.components, u0.components
            )
            assert np.array_equal(
                dec.u1_bar.components + dec.u1_hat.components, u1.components
            )
            # (b) disjoint supports, interleaving thresholds
            assert not np.any(
                (dec.u0_bar.components != 0.0) & (dec.u0_hat.components != 0.0)
            )
            rb, rh = dec.rho_bar, dec.rho_hat
            for i in range(min(len(rb), len(rh))):
                assert rb[i] < rh[i]
                if i + 1 < len(rb):
                    assert rh[i] < rb[i + 1]
            # (c) membership at (alpha + 1/2, alpha) = (3/4, 1/4)
            for vec, rhos, alpha in (
                (dec.u0_bar, rb, 0.75),
                (dec.u1_bar, rb, 0.25),
                (dec.u0_hat, rh, 0.75),
                (dec.u1_hat, rh, 0.25),
            ):
                assert gm_membership(vec, phi, rhos, alpha, beta).member
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"criterion 8 PASS sum property: 3 profiles x 2 exponents, "
           f"{elapsed:.2f} s")


def test_criterion_09_continuous_dependence_rate():
    from kirchhoff_spectral import continuous_dependence_study
    from kirchhoff_spectral.conditions import log_log_slope

    spec = power_spectrum(1)
    u0 = SpectralVector(spec, [1.0])
    u1 = zero_vector(spec)
    ns = [4, 8, 16, 32, 64, 128, 256]
    problems = [(affine(1.0 + 1.0 / n, 0.0), u0, u1) for n in ns]
    rep = continuous_dependence_study(problems, (constant(1.0), u0, u1), TOL, 1.0)
    slope = log_log_slope(np.array(ns, dtype=float), rep.deviations)
    assert -1.2 <= slope <= -0.8
    report(f"criterion 9 PASS continuous dependence: fitted slope {slope:.3f}")


def test_criterion_10_determinism(tmp_path):
    scenarios = [
        {
            "version": 1,
            "name": "det_simulate",
            "spectrum": {"generator": {"count": 16}},
            "data": {"u0": {"random": {"scale": 0.3}}, "u1": {"random": {}}},
            "functions": {"m": {"kind": "affine", "a": 1.0, "b": 1.0}},
            "task": "simulate",
            "params": {"t_end": 2.0},
            "seed": 7,
        },
        {
            "version": 1,
            "name": "det_conditions",
            "spectrum": {"explicit": [1.0]},
            "data": {"u0": "zero", "u1": "zero"},
            "functions": {"preset": "table2_holder_beta"},
            "task": "conditions",
        },
        {
            "version": 1,
            "name": "det_decompose",
            "spectrum": {"generator": {"count": 48}},
            "data": {
                "u0": {"profile": {"amplitude": 1.0, "gamma": 0.5, "exponent": 1.0}},
                "u1": {"profile": {"amplitude": 0.3, "gamma": 0.5, "exponent": 1.0}},
            },
            "functions": {"phi": {"kind": "power", "beta": 1.0}},
            "task": "decompose",
            "params": {"alpha": 0.25, "beta": 2.0},
        },
    ]
    checked = 0
    for cfg in scenarios:
        m1 = run_scenario(cfg, out_dir=tmp_path / cfg["name"] / "a")
        m2 = run_scenario(cfg, out_dir=tmp_path / cfg["name"] / "b")
        for art1, art2 in zip(m1.artifacts, m2.artifacts):
            assert art1["name"] == art2["name"]
            b1 = (tmp_path / cfg["name"] / "a" / art1["name"]).read_bytes()
            b2 = (tmp_path / cfg["name"] / "b" / art2["name"]).read_bytes()
            assert b1 == b2, f"{cfg['name']}/{art1['name']} differs"
            checked += 1
        assert m1.scenario_hash == m2.scenario_hash
    report(f"criterion 10 PASS determinism: {checked} artifacts byte-identical "
           f"across reruns")
