import math

import numpy as np
import pytest

from kirchhoff_spectral import (
    IntegratorConfig,
    SpectralState,
    SpectralVector,
    Spectrum,
    affine,
    constant,
    dynamics,
    integrate,
    pohozaev,
    power,
    power_spectrum,
    reparametrize,
)
from kirchhoff_spectral.integrate import IntegrationOutcome, solve_to_samples


def test_harmonic_oscillator_closed_form():
    w = 3.0

    def rhs(t, y):
        return np.array([y[1], -w * w * y[0]])

    samples = np.linspace(0.0, 5.0, 101)
    res = solve_to_samples(rhs, np.array([1.0, 0.0]), samples, 1e-11, 1e-11)
    assert res.completed
    exact = np.cos(w * samples)
    assert np.max(np.abs(res.y[:, 0] - exact)) < 1e-9
    assert res.n_accepted > 0
    assert np.array_equal(res.t, samples)


def test_linear_growth_exact():
    def rhs(t, y):
        return np.array([2.0])

    samples = np.linspace(0.0, 1.0, 11)
    res = solve_to_samples(rhs, np.array([0.0]), samples, 1e-10, 1e-10)
    assert res.completed
    assert np.max(np.abs(res.y[:, 0] - 2.0 * samples)) < 1e-13


def test_samples_must_increase():
    def rhs(t, y):
        return -y

    with pytest.raises(ValueError):
        solve_to_samples(rhs, np.array([1.0]), np.array([0.0, 0.0, 1.0]), 1e-8, 1e-8)


def test_blow_up_returns_partial_record():
    def rhs(t, y):
        return y * y  # finite-time blow-up at t = 1

    samples = np.linspace(0.0, 2.0, 201)
    res = solve_to_samples(
        rhs, np.array([1.0]), samples, 1e-10, 1e-10, state_cap=1e6
    )
    assert res.status == "blow_up"
    assert "blow-up" in res.message
    assert res.t.size < samples.size
    assert res.t[-1] < 1.0


def test_step_underflow_returns_partial_record():
    # uncapped finite-time blow-up: the step collapses near t = 1 and the
    # driver must come back with the samples it reached plus a diagnostic
    def rhs(t, y):
        return y * y

    samples = np.linspace(0.0, 2.0, 401)
    res = solve_to_samples(rhs, np.array([1.0]), samples, 1e-10, 1e-10)
    assert res.status == "step_underflow"
    assert "underflow" in res.message
    assert 0 < res.t.size < samples.size
    assert res.t[-1] <= 1.0


def test_empty_state_rejected():
    with pytest.raises(ValueError, match="component"):
        solve_to_samples(lambda t, y: y, np.array([]), np.array([0.0, 1.0]), 1e-8, 1e-8)


def test_rhs_exception_propagates():
    def rhs(t, y):
        if t > 0.5:
            raise ValueError("boom")
        return -y

    with pytest.raises(ValueError, match="boom"):
        solve_to_samples(
            rhs, np.array([1.0]), np.linspace(0.0, 1.0, 11), 1e-8, 1e-8
        )


def test_rejections_are_counted():
    # an abrupt coefficient change forces at least one rejection
    def rhs(t, y):
        k = 1.0 if t < 0.5 else 2500.0
        return np.array([y[1], -k * y[0]])

    res = solve_to_samples(
        rhs, np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 3), 1e-9, 1e-9
    )
    assert res.completed
    assert res.n_rejected >= 1
    assert res.n_rhs > 8 * res.n_accepted


def test_max_step_honored():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.array([1.0])

    res = solve_to_samples(
        rhs, np.array([0.0]), np.linspace(0.0, 1.0, 2), 1e-6, 1e-6, max_step=0.01
    )
    assert res.completed
    assert res.n_accepted >= 100


# ---------------------------------------------------------------------------
# the plain step loop, kept as the reference for solve_to_samples: one
# allocating numpy expression per formula, with first-same-as-last applied on
# accepted steps only.  solve_to_samples must match it bit for bit.  It also
# returns how many steps were rejected after the first accepted one, the
# steps whose retries first-same-as-last affects.

_C_REF = np.array(integrate._C)
_A_REF = np.zeros((9, 9))
for _i, _row in enumerate(integrate._A_ROWS):
    _A_REF[_i + 1, : len(_row)] = _row


def reference_solve(rhs, y0, samples, rel_tol, abs_tol, max_step=math.inf,
                    state_cap=None):
    samples = np.asarray(samples, dtype=float)
    t = float(samples[0])
    t_end = float(samples[-1])
    y = np.array(y0, dtype=float)
    dim = y.size

    f = rhs(t, y)
    n_rhs = 1
    h, extra = integrate._initial_step(rhs, t, y, f, t_end - t, rel_tol, abs_tol)
    n_rhs += extra
    h = min(h, max_step)

    k = np.empty((9, dim))
    out = np.empty((samples.size, dim))
    out[0] = y
    si = 1
    n_accepted = 0
    n_rejected = 0
    late_rejects = 0
    status = "completed"
    h_floor_scale = 16.0 * np.finfo(float).eps * max(abs(t_end), 1.0)
    grew_after_reject = False

    while si < samples.size:
        target = float(samples[si])
        h_try = min(h, target - t)
        if h_try < h_floor_scale:
            status = "step_underflow"
            break

        k[0] = f
        for i in range(1, 9):
            k[i] = rhs(t + _C_REF[i] * h_try, y + h_try * (_A_REF[i, :i] @ k[:i]))
        n_rhs += 8
        y_new = y + h_try * (integrate._B @ k)
        err_vec = h_try * (integrate._E @ k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))

        if math.isfinite(err) and err <= 1.0:
            t_new = t + h_try
            if t_new >= target - 1e-12 * max(1.0, abs(target)):
                t_new = target
                out[si] = y_new
                si += 1
            t = t_new
            y = y_new
            f = k[8].copy()  # a view would be overwritten by a rejected step
            n_accepted += 1
            limit_growth = grew_after_reject
            grew_after_reject = False
            if state_cap is not None and float(np.max(np.abs(y))) > state_cap:
                status = "blow_up"
                break
        else:
            n_rejected += 1
            late_rejects += n_accepted > 0
            grew_after_reject = True
            limit_growth = True

        if math.isfinite(err) and err > 0.0:
            factor = integrate._SAFETY * err**integrate._ERROR_EXPONENT
        elif err == 0.0:
            factor = integrate._MAX_FACTOR
        else:
            factor = integrate._MIN_FACTOR
        factor = min(integrate._MAX_FACTOR, max(integrate._MIN_FACTOR, factor))
        if limit_growth:
            factor = min(factor, 1.0)
        h = min(h_try * factor, max_step)

    outcome = IntegrationOutcome(
        t=samples[:si].copy(),
        y=out[:si],
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
        status=status,
    )
    return outcome, late_rejects


def assert_matches_reference(rhs, y0, samples, *args, **kwargs):
    """Compare with the reference loop; return its outcome and late rejects."""
    got = solve_to_samples(rhs, y0, samples, *args, **kwargs)
    ref, late_rejects = reference_solve(rhs, y0, samples, *args, **kwargs)
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y)
    assert (got.n_accepted, got.n_rejected, got.n_rhs, got.status) == (
        ref.n_accepted, ref.n_rejected, ref.n_rhs, ref.status
    )
    return ref, late_rejects


def captured_solves(monkeypatch, modules, run):
    """Run ``run`` and return the (rhs, y0, samples, args, kwargs) of every
    solve_to_samples call the given modules make."""
    calls = []

    def spy(rhs, y0, samples, *args, **kwargs):
        calls.append((rhs, np.array(y0), np.array(samples), args, kwargs))
        return solve_to_samples(rhs, y0, samples, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "solve_to_samples", spy)
    run()
    monkeypatch.undo()
    return calls


def normalized_state(n, seed):
    """Criterion-2 data: |A^(1/2)u0|^2 = 1 and |u1| = 1."""
    spec = power_spectrum(n)
    lam = spec.lambdas
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n) / lam**1.5
    u0 *= math.sqrt(1.0 / float(lam**2 @ u0**2))
    u1 = rng.standard_normal(n) / lam**0.5
    u1 /= float(np.linalg.norm(u1))
    return SpectralState(t=0.0, u=SpectralVector(spec, u0), v=SpectralVector(spec, u1))


def test_reference_harmonic_oscillator():
    def rhs(t, y):
        return np.array([y[1], -9.0 * y[0]])

    assert_matches_reference(rhs, np.array([1.0, 0.0]), np.linspace(0.0, 5.0, 101),
                             1e-11, 1e-11)


def test_reference_blow_up_and_underflow():
    def rhs(t, y):
        return y * y

    res, _ = assert_matches_reference(rhs, np.array([1.0]), np.linspace(0.0, 2.0, 201),
                                      1e-10, 1e-10, state_cap=1e6)
    assert res.status == "blow_up"
    res, _ = assert_matches_reference(rhs, np.array([1.0]), np.linspace(0.0, 2.0, 401),
                                      1e-10, 1e-10)
    assert res.status == "step_underflow"


@pytest.mark.parametrize("n", [1, 4, 32])
@pytest.mark.parametrize("m", [affine(1.0, 1.0), power(2.0), pohozaev(1.0, 1.0)],
                         ids=["affine", "power2", "pohozaev"])
def test_reference_mode_system(monkeypatch, n, m):
    state = normalized_state(n, seed=0)
    calls = captured_solves(
        monkeypatch, [dynamics], lambda: dynamics.evolve(state, m, IntegratorConfig(), 2.0)
    )
    assert len(calls) == 1
    rhs, y0, samples, args, kwargs = calls[0]
    assert_matches_reference(rhs, y0, samples, *args, **kwargs)


def test_reference_reject_after_accept(monkeypatch):
    # power(2) at N = 32 on seed-1 data rejects steps in mid-run, so the
    # retries exercise first-same-as-last after a reject
    state = normalized_state(32, seed=1)
    calls = captured_solves(
        monkeypatch,
        [dynamics],
        lambda: dynamics.evolve(state, power(2.0), IntegratorConfig(), 10.0),
    )
    rhs, y0, samples, args, kwargs = calls[0]
    _, late_rejects = assert_matches_reference(rhs, y0, samples, *args, **kwargs)
    assert late_rejects > 0


def test_reference_linear_system(monkeypatch):
    state = normalized_state(4, seed=2)
    calls = captured_solves(
        monkeypatch,
        [dynamics],
        lambda: dynamics.linear_evolve(state, lambda t: 1.0 + 0.5 * math.sin(t),
                                       IntegratorConfig(), 3.0),
    )
    rhs, y0, samples, args, kwargs = calls[0]
    assert_matches_reference(rhs, y0, samples, *args, **kwargs)


@pytest.mark.parametrize("u1, branch", [([1.0], "direct"), ([0.0], "bootstrap")])
def test_reference_curve_system(monkeypatch, tight_cfg, u1, branch):
    spec = Spectrum([1.0])
    u0 = SpectralVector(spec, [1.0])
    u1 = SpectralVector(spec, u1)
    curves = []
    calls = captured_solves(
        monkeypatch,
        [dynamics, reparametrize],
        lambda: curves.append(
            reparametrize.solve_trajectory_system(u0, u1, constant(1.0), 0.8, tight_cfg)
        ),
    )
    assert curves[0].branch == branch
    assert len(calls) >= 1
    for rhs, y0, samples, args, kwargs in calls:
        assert_matches_reference(rhs, y0, samples, *args, **kwargs)


def test_retry_after_reject_starts_from_accepted_derivative():
    # Each attempted step makes eight RHS calls after the two of the start
    # (the initial derivative and the first-step guess).  Stages 1 and 2 of
    # an attempt determine its first stage k0 and its start y; after a
    # reject, k0 must still be the derivative at the last accepted point,
    # not the last stage of the rejected attempt.
    calls = []

    def rhs(t, y):
        out = y * y
        calls.append((t, y.copy(), out.copy()))
        return out

    res = solve_to_samples(rhs, np.array([1.0]), np.linspace(0.0, 2.0, 201),
                           1e-10, 1e-10, state_cap=1e6)
    steps = [calls[i : i + 8] for i in range(2, len(calls), 8)]
    assert len(steps) == res.n_accepted + res.n_rejected

    c1 = integrate._C[1]
    a10, (a20, a21) = integrate._A_ROWS[0][0], integrate._A_ROWS[1]

    def start(step):
        (t1, y1, k1), (_, y2, _) = step[0], step[1]
        h = (step[7][0] - t1) / (1.0 - c1)  # stage 8 sits at t + h
        k0 = ((y2 - y1) / h - a21 * k1) / (a20 - a10)
        return t1 - c1 * h, y1 - h * a10 * k0, k0

    retries = 0
    accepted_before = False  # some attempt before ``prev`` was accepted
    for prev, step in zip(steps, steps[1:]):
        t_prev, _, _ = start(prev)
        t, y, k0 = start(step)
        retry = abs(t - t_prev) < 1e-9 * max(1.0, abs(t))  # prev was rejected
        if retry and accepted_before:
            retries += 1
            assert np.allclose(k0, y * y, rtol=1e-6, atol=0.0)
            assert not np.allclose(k0, prev[7][2], rtol=1e-6, atol=0.0)
        accepted_before = accepted_before or not retry
    assert retries > 0


# ---------------------------------------------------------------------------
# ensembles: a (B, d) state through the shared step loop


def squares_first_row(t, y):
    """Member 0 obeys y' = y^2 (blow-up at t = 1); the others y' = -y."""
    out = -y
    out[0] = y[0] * y[0]
    return out


def test_ensemble_of_one_matches_solo_bit_for_bit():
    def rhs(t, y):
        return np.stack([y[..., 1], -9.0 * y[..., 0] * (1.0 + 0.1 * math.sin(t))], axis=-1)

    samples = np.linspace(0.0, 5.0, 101)
    solo = solve_to_samples(rhs, np.array([1.0, 0.0]), samples, 1e-11, 1e-11)
    batch = solve_to_samples(rhs, np.array([[1.0, 0.0]]), samples, 1e-11, 1e-11)
    (member,) = batch.members
    assert np.array_equal(member.t, solo.t)
    assert np.array_equal(member.y, solo.y)
    assert (member.n_accepted, member.n_rejected, member.n_rhs, member.status) == (
        solo.n_accepted, solo.n_rejected, solo.n_rhs, solo.status
    )
    # the ensemble's own record holds only the shared counters
    assert batch.status == "ensemble" and batch.t.size == 0
    assert (batch.n_accepted, batch.n_rejected, batch.n_rhs) == (
        solo.n_accepted, solo.n_rejected, solo.n_rhs
    )


@pytest.mark.parametrize("state_cap, status", [(1e6, "blow_up"), (None, "step_underflow")])
def test_ensemble_member_stops_alone(state_cap, status):
    samples = np.linspace(0.0, 2.0, 201)
    y0 = np.array([[1.0], [1.0], [0.5]])
    res = solve_to_samples(squares_first_row, y0, samples, 1e-10, 1e-10,
                           state_cap=state_cap)
    stopped, *rest = res.members
    assert stopped.status == status and stopped.message
    assert 0 < stopped.t.size < samples.size and stopped.t[-1] <= 1.0
    assert np.array_equal(stopped.t, samples[: stopped.t.size])
    solo = solve_to_samples(lambda t, y: y * y, np.array([1.0]), samples, 1e-10, 1e-10,
                            state_cap=state_cap)
    assert solo.status == status
    for member, start in zip(rest, (1.0, 0.5)):
        assert member.completed and member.message == ""
        assert np.array_equal(member.t, samples)
        alone = solve_to_samples(lambda t, y: -y, np.array([start]), samples,
                                 1e-10, 1e-10)
        assert np.max(np.abs(member.y - alone.y)) < 1e-9
        assert np.max(np.abs(member.y[:, 0] - start * np.exp(-samples))) < 1e-9


def test_nan_derivative_stops_instead_of_spinning():
    # a NaN first derivative gives a NaN first step: the loop must stop on
    # it, not retry it for ever, and a NaN member must not set the others' step
    samples = np.linspace(0.0, 1.0, 11)
    solo = solve_to_samples(lambda t, y: y * math.nan, np.array([1.0]), samples,
                            1e-10, 1e-10)
    assert solo.status == "step_underflow" and solo.t.size == 1

    def rhs(t, y):
        out = -y
        out[0] *= math.nan
        return out

    nan_member, calm = solve_to_samples(rhs, np.array([[1.0], [1.0]]), samples,
                                        1e-10, 1e-10).members
    assert nan_member.status == "step_underflow"
    assert calm.completed
    assert np.max(np.abs(calm.y[:, 0] - np.exp(-samples))) < 1e-9


def test_ensemble_error_norm_is_the_worst_member():
    # a fast member forces the shared step: the slow member's error stays
    # far below what it would accept alone, and its solution is as accurate
    def rhs(t, y):
        w = np.array([[1.0], [40.0]])
        return np.concatenate([y[:, 1:], -(w * w) * y[:, :1]], axis=1)

    samples = np.linspace(0.0, 3.0, 4)
    res = solve_to_samples(rhs, np.array([[1.0, 0.0], [1.0, 0.0]]), samples, 1e-9, 1e-9)
    slow_alone = solve_to_samples(lambda t, y: np.array([y[1], -y[0]]),
                                  np.array([1.0, 0.0]), samples, 1e-9, 1e-9)
    slow, fast = res.members
    assert slow.completed and fast.completed
    assert res.n_accepted > 5 * slow_alone.n_accepted
    assert np.max(np.abs(slow.y[:, 0] - np.cos(samples))) < 1e-9
    assert np.max(np.abs(fast.y[:, 0] - np.cos(40.0 * samples))) < 1e-7


def test_state_of_three_axes_rejected():
    with pytest.raises(ValueError, match="members"):
        solve_to_samples(lambda t, y: y, np.ones((2, 2, 2)), np.array([0.0, 1.0]),
                         1e-8, 1e-8)
