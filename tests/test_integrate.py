import hashlib
import math

import numpy as np
import pytest

from kirchhoff_spectral import (
    IntegratorConfig,
    SpectralState,
    SpectralVector,
    Spectrum,
    a_half_norm_sq,
    affine,
    constant,
    dynamics,
    functions,
    get_preset,
    integrate,
    modulus_sigma_log,
    pohozaev,
    power,
    power_spectrum,
    reparametrize,
    table,
)
from kirchhoff_spectral.integrate import IntegrationOutcome, solve_to_samples
from tests.conftest import deadline, pin_note


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


def as_array_rhs(rhs):
    """A pair ``rhs``, which maps a (float, float) tuple to one, as an array RHS."""
    return lambda t, y: np.array(rhs(t, tuple(y.tolist())), dtype=float)


def reference_solve(rhs, y0, samples, rel_tol, abs_tol, state_cap=None, pair=False):
    samples = np.asarray(samples, dtype=float)
    t = float(samples[0])
    t_end = float(samples[-1])
    y = np.array(y0, dtype=float)
    dim = y.size
    given = as_array_rhs(rhs) if pair else rhs
    n_rhs = 0

    def rhs(t, y):  # counts every call, the first-step guess's included
        nonlocal n_rhs
        n_rhs += 1
        return given(t, y)

    f = np.array(rhs(t, y))  # rhs may return the same buffer on every call
    if not np.isfinite(f).all():
        return IntegrationOutcome(samples[:1], y[None], 0, 0, n_rhs, "step_underflow"), 0
    h = integrate._initial_step(rhs, t, y, f, t_end - t, rel_tol, abs_tol)

    k = np.empty((9, dim))
    out = np.empty((samples.size, dim))
    out[0] = y
    si = 1
    n_accepted = 0
    n_rejected = 0
    late_rejects = 0
    status = "completed"
    h_floor_scale = 16.0 * np.finfo(float).eps * max(abs(t), abs(t_end), 1.0)
    grew_after_reject = False

    while si < samples.size:
        target = float(samples[si])
        h_try = min(h, target - t)
        if not h_try >= h_floor_scale:  # or NaN
            status = "step_underflow"
            break

        k[0] = f
        for i in range(1, 9):
            k[i] = rhs(t + _C_REF[i] * h_try, y + h_try * (_A_REF[i, :i] @ k[:i]))
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
        h = h_try * factor

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
    """Compare with the reference loop; return its outcome and late rejects.

    A (1, d) ``y0`` is an ensemble of one, whose member must match.
    """
    got = solve_to_samples(rhs, y0, samples, *args, **kwargs)
    got_y = got.y
    if np.ndim(y0) == 2:
        got_y, y0 = got_y[:, 0], y0[0]
    ref, late_rejects = reference_solve(rhs, y0, samples, *args, **kwargs)
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got_y, ref.y)
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


def normalized_state(n, seed, spec=None):
    """Criterion-2 data: |A^(1/2)u0|^2 = 1 and |u1| = 1."""
    spec = spec or power_spectrum(n)
    lam = spec.lambdas
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n) / lam**1.5
    u0 *= math.sqrt(1.0 / float(lam**2 @ u0**2))
    u1 = rng.standard_normal(n) / lam**0.5
    u1 /= float(np.linalg.norm(u1))
    return SpectralState(t=0.0, u=SpectralVector(spec, u0), v=SpectralVector(spec, u1))


def linear_system(state, c_of_t, t_end):
    """(rhs, y0, samples) of u_k'' = -c(t) lambda_k^2 u_k from ``state``.

    The RHS forms -c(t) * lam2, then * u, and the samples are the 1,001-point
    grid of ``dynamics.evolve``; run it with LINEAR_TOLERANCES.
    """
    n, lam2 = state.spectrum.n, state.spectrum.lam2

    def rhs(t, y):
        return np.concatenate([y[n:], (-c_of_t(t) * lam2) * y[:n]])

    y0 = np.concatenate([state.u.components, state.v.components])
    return rhs, y0, np.linspace(state.t, t_end, 1001)


LINEAR_TOLERANCES = {"rel_tol": 1e-10, "abs_tol": 1e-10, "state_cap": dynamics.BLOWUP_CAP}


def test_reference_harmonic_oscillator():
    def rhs(t, y):
        return np.array([y[1], -9.0 * y[0]])

    assert_matches_reference(rhs, np.array([1.0, 0.0]), np.linspace(0.0, 5.0, 101),
                             1e-11, 1e-11)


def test_reference_rhs_returning_one_buffer():
    # rhs may fill and return the same array on every call: the solver and
    # the reference copy it, so the bits are those of a fresh array per call
    out = np.empty(2)

    def reused(t, y):
        out[0] = y[1]
        out[1] = -9.0 * y[0] * (1.0 + 0.1 * math.sin(t))
        return out

    def fresh(t, y):
        return np.array([y[1], -9.0 * y[0] * (1.0 + 0.1 * math.sin(t))])

    args = (np.array([1.0, 0.0]), np.linspace(0.0, 5.0, 101), 1e-11, 1e-11)
    res, _ = assert_matches_reference(reused, *args)
    assert np.array_equal(res.y, solve_to_samples(fresh, *args).y)


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


def test_reference_linear_system():
    # an RHS that reads t, so the stage times enter the solution
    state = normalized_state(4, seed=2)
    assert_matches_reference(*linear_system(state, lambda t: 1.0 + 0.5 * math.sin(t), 3.0),
                             **LINEAR_TOLERANCES)


@pytest.mark.parametrize("u1, branch", [
    ([1.0], "direct"),
    ([0.0], "bootstrap"),
    # two modes, lambda = (1, 2), take the array closure
    pytest.param([2.0, 0.0], "direct", id="two_modes"),
])
def test_reference_curve_system(monkeypatch, tight_cfg, u1, branch):
    spec = Spectrum([1.0, 2.0][: len(u1)])
    u0 = SpectralVector(spec, [1.0, 0.1][: len(u1)])
    u1 = SpectralVector(spec, u1)
    curves = []
    calls = captured_solves(
        monkeypatch,
        [dynamics, reparametrize],
        lambda: curves.append(
            reparametrize.solve_trajectory_system(u0, u1, constant(1.0),
                                                  np.linspace(0.0, 0.8, 9), tight_cfg)
        ),
    )
    assert curves[0].branch == branch
    assert len(calls) >= 1
    for rhs, y0, samples, args, kwargs in calls:
        assert_matches_reference(rhs, y0, samples, *args, **kwargs)


def pair_squares(t, y):
    return y[0] * y[0], -y[1]  # the first blows up at t = 1


POWER_1E6 = functions.scalar_callable(power(1e6))


@pytest.mark.parametrize(
    "rhs, kwargs, status",
    [
        (pair_squares, {"state_cap": 1e6}, "blow_up"),
        (pair_squares, {}, "step_underflow"),
        # the second derivative turns NaN halfway, so no later attempt passes
        (lambda t, y: (-y[0], math.nan if t > 0.5 else -y[1]), {}, "step_underflow"),
        (lambda t, y: (math.nan, y[0]), {}, "step_underflow"),
        (lambda t, y: (y[1], -math.inf * y[0]), {}, "step_underflow"),
        # no step cap: the sample grid and the tolerances alone bound the step
        (lambda t, y: (y[1], -9.0 * y[0] * (1.0 + 0.1 * math.sin(t))), {}, "completed"),
        # m = sigma^1e6 overflows at the first step guess's trial state, and
        # the guess must still be a usable step
        (lambda t, y: (y[1], -POWER_1E6(y[0] * y[0]) * y[0]), {}, "completed"),
        (lambda t, y: (y[1], -9.0 * y[0]), {"state_cap": 1e6}, "completed"),
    ],
    ids=["blow_up", "step_underflow", "nan_midway", "nan_first_derivative",
         "inf_first_derivative", "max_step", "overflowing_trial_derivative", "oscillator"],
)
def test_pair_loop_matches_array_loop_and_reference(rhs, kwargs, status):
    # the pair loop gives the array loop's record, message included, and the
    # reference's; its rhs gets and returns (float, float) tuples
    seen = set()

    def pair_rhs(t, y):
        seen.add((type(y), *map(type, y)))
        return rhs(t, y)

    y0, samples = np.array([1.0, 0.5]), np.linspace(0.0, 2.0, 201)
    got = solve_to_samples(pair_rhs, y0, samples, 1e-10, 1e-10, pair=True, **kwargs)
    arr = solve_to_samples(as_array_rhs(rhs), y0, samples, 1e-10, 1e-10, **kwargs)
    assert got.status == status and bool(got.message) == (status != "completed")
    assert seen == {(tuple, float, float)}
    assert np.array_equal(got.t, arr.t) and np.array_equal(got.y, arr.y)
    assert (got.n_accepted, got.n_rejected, got.n_rhs, got.status, got.message) == (
        arr.n_accepted, arr.n_rejected, arr.n_rhs, arr.status, arr.message)
    with np.errstate(over="ignore", invalid="ignore"):  # as both loops run
        ref, _ = assert_matches_reference(rhs, y0, samples, 1e-10, 1e-10, pair=True, **kwargs)
    if status != "completed":
        assert ref.t.size < samples.size


@pytest.mark.parametrize("form", ["vector", "ensemble", "pair"])
def test_start_far_from_zero_stops_on_step_underflow(form):
    # from t0 = -1e17 a step of 1e-2 gives t + h == t: the step floor must
    # cover |t0| as well as |t_end|, or the loop never returns
    def rhs(t, y):
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    y0, samples = np.array([1.0, 0.0]), np.linspace(-1e17, 1.0, 11)
    with deadline(1.0):
        if form == "ensemble":
            got = solve_to_samples(rhs, y0[None], samples, 1e-10, 1e-10)
        elif form == "pair":
            got = solve_to_samples(lambda t, y: (y[1], -y[0]), y0, samples, 1e-10, 1e-10,
                                   pair=True)
        else:
            got = solve_to_samples(rhs, y0, samples, 1e-10, 1e-10)
        ref, _ = assert_matches_reference(rhs, y0, samples, 1e-10, 1e-10)
    assert got.status == ref.status == "step_underflow"
    assert got.t.size == 1 and "underflowed at t = -1e+17" in got.message


@pytest.mark.parametrize("form", ["vector", "ensemble", "pair"])
def test_overflowing_first_derivative_stops_on_step_underflow(form):
    # the scaled RMS of y'(0) = (1e200, -0.3) overflows, so the first trial
    # step is 0: the loop stops before a step, with only the first RHS call
    def rhs(t, y):
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    y0, samples, kwargs = np.array([0.3, 1e200]), np.array([0.0, 1.0]), {}
    if form == "ensemble":
        y0 = y0[None]
    elif form == "pair":
        rhs, kwargs = (lambda t, y: (y[1], -y[0])), {"pair": True}
    ref, _ = assert_matches_reference(rhs, y0, samples, 1e-10, 1e-10, **kwargs)
    assert ref.status == "step_underflow" and ref.t.size == 1
    assert (ref.n_accepted, ref.n_rejected, ref.n_rhs) == (0, 0, 1)
    got = solve_to_samples(rhs, y0, samples, 1e-10, 1e-10, **kwargs)
    assert got.message == integrate._UNDERFLOW.format(h=0.0, t=0.0)


def test_pair_state_must_have_two_components():
    with pytest.raises(ValueError, match="two components"):
        solve_to_samples(lambda t, y: y, np.ones(3), np.array([0.0, 1.0]), 1e-8, 1e-8,
                         pair=True)


@pytest.mark.parametrize(
    "rhs, y0, samples, state_cap, status",
    [
        # one component blows up (y' = y^2, at t = 1) while the others decay
        (lambda t, y: np.concatenate([y[:1] * y[:1], -y[1:]]),
         np.array([1.0, 0.5, -0.25, 2.0]), np.linspace(0.0, 2.0, 201), 1e6, "blow_up"),
        # one component's derivative turns NaN halfway, so no later attempt passes
        (lambda t, y: np.where(np.arange(y.size) == 2, math.nan if t > 0.5 else -y, -y),
         np.array([1.0, 0.5, -0.25, 2.0]), np.linspace(0.0, 2.0, 201), 1e6,
         "step_underflow"),
        # a component squared overflows long before it crosses a cap of 1e200
        (lambda t, y: np.concatenate([50.0 * y[:1], -y[1:]]),
         np.array([1e150, 1.0, -1.0]), np.linspace(0.0, 3.0, 31), 1e200, "blow_up"),
    ],
    ids=["one_component_over_cap", "nan_component", "cap_1e200"],
)
def test_reference_state_cap_on_many_components(rhs, y0, samples, state_cap, status):
    ref, _ = assert_matches_reference(rhs, y0, samples, 1e-10, 1e-10, state_cap=state_cap)
    assert ref.status == status and 1 < ref.t.size < samples.size


def test_rhs_closures_match_the_allocating_expressions(monkeypatch):
    # evolve's closures fill a buffer with their scalars passed as 0-d
    # arrays, or, for one mode, work on Python floats, as the curve's does;
    # each result must equal the plain expression with Python floats, bit
    # for bit
    rng = np.random.default_rng(5)
    ms = [affine(1.0, 1.0), power(2.0), pohozaev(1.0, 1.0)]
    m_ats = [functions.scalar_callable(m) for m in ms]
    # lambda = 1.3 at one mode, so that a product with lambda or lambda**2
    # taken in another order shows
    for spec in (power_spectrum(6), Spectrum([1.3])):
        check_rhs_closures(monkeypatch, rng, spec, ms, m_ats)


def check_rhs_closures(monkeypatch, rng, spec, ms, m_ats):
    n = spec.n
    lam, lam2 = spec.lambdas, spec.lam2
    states = [normalized_state(n, seed, spec) for seed in range(3)]

    calls = captured_solves(monkeypatch, [dynamics], lambda: (
        dynamics.evolve(states[0], ms[0], IntegratorConfig(), 0.5),
        dynamics.evolve(states, ms, IntegratorConfig(), 0.5),
    ))
    solo, ensemble = (call[0] for call in calls)
    # a one-mode closure takes and returns a (float, float) pair
    arg = (lambda y: tuple(y.tolist())) if n == 1 else (lambda y: y)
    for _ in range(5):
        t = float(rng.uniform(0.0, 3.0))
        y = rng.standard_normal((3, 2 * n))
        u, v = y[:, :n], y[:, n:]
        c = m_ats[0](float(lam2 @ (u[0] * u[0])))
        assert np.array_equal(solo(t, arg(y[0])), np.concatenate([v[0], (-c * lam2) * u[0]]))
        cs = np.array([m_at(sigma) for m_at, sigma in zip(m_ats, (u * u) @ lam2)])
        assert np.array_equal(ensemble(t, y),
                              np.concatenate([v, (-cs[:, None] * lam2) * u], axis=1))

    directions = set()
    for sign in (1.0, -1.0):
        u0 = states[0].u
        u1 = SpectralVector(spec, sign * states[0].v.components)
        m_at = m_ats[0]
        d1, _ = reparametrize.psi_initial_derivatives(u0, u1, ms[0])
        direction = int(np.sign(d1))
        directions.add(direction)
        sigma0 = a_half_norm_sq(u0)
        calls = captured_solves(monkeypatch, [reparametrize], lambda: (
            reparametrize.solve_trajectory_system(u0, u1, ms[0], [1e-3], IntegratorConfig())
        ))
        curve = calls[0][0]
        for _ in range(5):
            s_tilde = float(rng.uniform(0.0, 1e-3))
            z, w = rng.standard_normal((2, n))
            den = 2.0 * float(lam @ (z * w))
            coeff = m_at(direction * s_tilde + sigma0)
            expected = np.concatenate([direction * lam * w / den,
                                       -direction * coeff * lam * z / den])
            assert np.array_equal(curve(s_tilde, arg(np.concatenate([z, w]))), expected)
        # psi' = 2 <A^(1/2)z, w> below DEN_FLOOR: the parametrization degenerates
        z[:] = 0.25 * reparametrize.DEN_FLOOR / lam
        w[:] = 1.0 / n
        with pytest.raises(reparametrize.ParametrizationError,
                           match=rf"\|psi'\| = 5\.000e-11 at s = {direction * s_tilde:.6g}$"):
            curve(s_tilde, arg(np.concatenate([z, w])))
    assert directions == {-1, 1}


def test_degenerate_speed_reads_alike_in_both_curve_forms(monkeypatch):
    # the array curve closure (two modes) and the pair closure (one mode)
    # refuse the same speed psi' = 5e-11 at the same shift with one text
    texts = set()
    for spec in (Spectrum([1.0, 2.0]), Spectrum([1.3])):
        u0 = SpectralVector(spec, [0.5] * spec.n)
        u1 = SpectralVector(spec, [1.0] * spec.n)
        calls = captured_solves(monkeypatch, [reparametrize], lambda: (
            reparametrize.solve_trajectory_system(u0, u1, affine(1.0, 1.0), [1e-3],
                                                  IntegratorConfig())
        ))
        curve = calls[0][0]
        z = 0.25 * reparametrize.DEN_FLOOR / spec.lambdas
        y = np.concatenate([z, np.full(spec.n, 1.0 / spec.n)])
        with pytest.raises(reparametrize.ParametrizationError) as info:
            curve(2.5e-4, tuple(y.tolist()) if spec.n == 1 else y)
        texts.add(str(info.value))
    assert texts == {"parametrization degenerates: |psi'| = 5.000e-11 at s = 0.00025"}


@pytest.mark.parametrize("form", ["vector", "ensemble", "curve"])
def test_rhs_identity_cache_is_sound(monkeypatch, form):
    # evolve's closures slice their argument again only when ``y is not``
    # the last one, and the curve's on every call; whatever it is passed, a
    # call must give what a fresh closure gives on the same values.
    # Short-lived views recur at one address, so a cache keyed by id(y)
    # would hand back the halves of a dead view.
    n = 4
    states = [normalized_state(n, seed) for seed in range(3)]
    m = affine(1.0, 1.0)
    cfg = IntegratorConfig()
    module, run = {
        "vector": (dynamics, lambda: dynamics.evolve(states[0], m, cfg, 0.1)),
        "ensemble": (dynamics, lambda: dynamics.evolve(states, [m] * 3, cfg, 0.1)),
        "curve": (reparametrize, lambda: reparametrize.solve_trajectory_system(
            states[0].u, states[0].v, m, [1e-3], cfg)),
    }[form]

    def fresh():
        return captured_solves(monkeypatch, [module], run)[0][0]

    shape = (3, 2 * n) if form == "ensemble" else (2 * n,)
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2,) + shape)
    strided = rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    rows = rng.standard_normal((6,) + shape)
    t = 1e-4
    cached = fresh()

    def check(y):
        assert np.array_equal(cached(t, y), fresh()(t, y.copy()))

    for y in (a, b, a, b, strided, a):
        check(y)
    a[...] = rows[0]  # the last argument with new values, as the solver writes
    check(a)
    # temporaries made and dropped one after another, with nothing else
    # made in between, against values taken first
    wants = [fresh()(t, row.copy()).tolist() for row in rows]
    assert [cached(t, rows[i]).tolist() for i in range(len(rows))] == wants
    assert [cached(t, rows[i].copy()).tolist() for i in range(len(rows))] == wants


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


def oscillator(t, y):
    return np.stack([y[..., 1], -9.0 * y[..., 0] * (1.0 + 0.1 * math.sin(t))], axis=-1)


def squares(t, y):
    return y * y  # finite-time blow-up at t = 1


@pytest.mark.parametrize(
    "rhs, y0, state_cap, status",
    [
        (oscillator, [1.0, 0.0], None, "completed"),
        (squares, [1.0], 1e6, "blow_up"),
        (squares, [1.0], None, "step_underflow"),
    ],
    ids=["completed", "blow_up", "step_underflow"],
)
def test_ensemble_of_one_matches_solo_bit_for_bit(rhs, y0, state_cap, status):
    samples = np.linspace(0.0, 5.0, 101)
    solo = solve_to_samples(rhs, np.array(y0), samples, 1e-11, 1e-11, state_cap=state_cap)
    batch = solve_to_samples(rhs, np.array([y0]), samples, 1e-11, 1e-11,
                             state_cap=state_cap)
    assert solo.status == status
    assert batch.y.shape == (solo.t.size, 1, len(y0))
    assert np.array_equal(batch.t, solo.t)
    assert np.array_equal(batch.y[:, 0], solo.y)
    assert (batch.n_accepted, batch.n_rejected, batch.n_rhs, batch.status,
            batch.message) == (solo.n_accepted, solo.n_rejected, solo.n_rhs,
                               solo.status, solo.message)


@pytest.mark.parametrize("state_cap, status", [(1e6, "blow_up"), (None, "step_underflow")])
def test_ensemble_stops_as_one(state_cap, status):
    # member 0 blows up at t = 1; its stop ends the whole ensemble's record,
    # where the calm members hold their solution up to that sample
    samples = np.linspace(0.0, 2.0, 201)
    y0 = np.array([[1.0], [1.0], [0.5]])
    res = solve_to_samples(squares_first_row, y0, samples, 1e-10, 1e-10,
                           state_cap=state_cap)
    solo = solve_to_samples(lambda t, y: y * y, np.array([1.0]), samples, 1e-10, 1e-10,
                            state_cap=state_cap)
    assert res.status == solo.status == status
    assert 0 < res.t.size < samples.size and res.t[-1] <= 1.0
    assert np.array_equal(res.t, samples[: res.t.size])
    assert res.y.shape == (res.t.size, 3, 1)
    for b, start in ((1, 1.0), (2, 0.5)):
        assert np.max(np.abs(res.y[:, b, 0] - start * np.exp(-res.t))) < 1e-9
    # the message names the member that stopped the run, wherever it sits;
    # a single state's message names none
    assert res.message.startswith("member 0: ") and not solo.message.startswith("member")
    assert res.message.removeprefix("member 0: ").split(" ")[:2] == solo.message.split(" ")[:2]
    flipped = solve_to_samples(lambda t, y: squares_first_row(t, y[::-1])[::-1], y0[::-1],
                               samples, 1e-10, 1e-10, state_cap=state_cap)
    assert flipped.message == res.message.replace("member 0: ", "member 2: ")


def test_nan_derivative_stops_instead_of_spinning():
    # a NaN or infinite first derivative stops the loop at the first sample:
    # it must not retry for ever, and an infinite one must not zero the
    # first step; in an ensemble one member's stops them all, and the
    # message names the first such member
    samples = np.linspace(0.0, 1.0, 11)
    for bad in (math.nan, math.inf):
        solo = solve_to_samples(lambda t, y: y * bad, np.array([1.0]), samples,
                                1e-10, 1e-10)
        assert solo.status == "step_underflow" and solo.t.size == 1

        def rhs(t, y):
            out = -y
            out[1:] *= bad
            return out

        res = solve_to_samples(rhs, np.array([[1.0], [1.0], [1.0]]), samples, 1e-10, 1e-10)
        assert (res.status, res.message) == (solo.status, f"member 1: {solo.message}")
        assert res.t.size == 1 and (res.n_accepted, res.n_rhs) == (0, 1)


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
    assert res.completed
    assert res.n_accepted > 5 * slow_alone.n_accepted
    assert np.max(np.abs(res.y[:, 0, 0] - np.cos(samples))) < 1e-9
    assert np.max(np.abs(res.y[:, 1, 0] - np.cos(40.0 * samples))) < 1e-7


def test_state_of_three_axes_rejected():
    with pytest.raises(ValueError, match="members"):
        solve_to_samples(lambda t, y: y, np.ones((2, 2, 2)), np.array([0.0, 1.0]),
                         1e-8, 1e-8)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"state_cap": math.nan}, "state_cap"),
        ({"state_cap": -1.0}, "state_cap"),
        ({"rel_tol": math.inf}, "tolerances"),
        ({"abs_tol": math.inf}, "tolerances"),
        ({"rel_tol": math.nan}, "tolerances"),
        ({"samples": np.array([math.nan, 1.0])}, "sample times must be finite"),
        ({"samples": np.array([0.0, math.nan])}, "sample times must be finite"),
        ({"samples": np.array([0.0, math.inf])}, "sample times must be finite"),
    ],
    ids=["state_cap_nan", "state_cap_negative", "rel_tol_inf", "abs_tol_inf", "rel_tol_nan",
         "samples_nan_start", "samples_nan_end", "samples_inf_end"],
)
def test_bad_scalars_refused_before_any_rhs_call(kwargs, match):
    calls = []

    def rhs(t, y):
        calls.append(t)
        return y * y

    args = {"samples": np.linspace(0.0, 2.0, 21), "rel_tol": 1e-10, "abs_tol": 1e-10, **kwargs}
    with pytest.raises(ValueError, match=match):
        solve_to_samples(rhs, np.array([1.0]), **args)
    assert calls == []


def test_zero_state_cap_is_accepted():
    res = solve_to_samples(lambda t, y: -y, np.array([1.0]), np.linspace(0.0, 1.0, 11),
                           1e-10, 1e-10, state_cap=0.0)
    assert res.status == "blow_up" and res.t.size == 1


def test_propagating_weights_are_the_last_stage_row():
    # the step loop takes stage 8's argument as the candidate state, which
    # holds because Verner's propagating weights are row 7 of A and a zero
    # weight for the last stage
    assert np.array_equal(integrate._A[7], integrate._B[:8])
    assert integrate._B[8] == 0.0
    assert integrate._C[8] == 1.0


# ---------------------------------------------------------------------------
# golden bytes: the raw (t, u, v) of one run per solver path, pinned by
# sha256.  A change to the step loop or an RHS closure that moves any
# floating-point operation changes these.  The bytes depend on the BLAS
# kernels; the hashes were recorded with numpy 2.4.6 and scipy 1.17.1 on an
# x86-64 Xeon.

SOLVER_PATH_SHA256 = {
    "evolve_affine": "7e3c5d49f8e3d29edbe5cf06dc04afff1bf796d881c904fb409255f970b7b748",
    "evolve_power1": "b2045636f2284b937e6376439d29ba47eab349fb289fb1c31a757c122436bca5",
    "evolve_power2": "8cb6282c4fa0e78de43277605246ed9c10222b7a9f5c105f591de1f3411eaebb",
    "evolve_pohozaev": "de8cc229610952a3d8ce30b0bca70b3948da71cadea86979bd5b80f85bc7b3d5",
    "ensemble_0": "8b5536e8152ce6ddb1347d665e7e0bd431abc06cc2e43b348d37c873f514350c",
    "ensemble_1": "dc96c39c2170c6a14264d1050bf7e91140a2e08ffa3324c2fd6ba0aae44f351f",
    "ensemble_2": "a4e1c9daec922a5d21bef700e575fce1f79bb9283dc7145e1a706cc0c4270795",
    "linear_c_of_t": "148c84ecf9742a939d78638de23cfb8857d0a94f75262de6005779b504bacb5d",
    "curve_direct": "4741faafe08f947840fdfaa6d934fa1cd49becd435d0e4bb2d30ebdd0d673862",
    "curve_bootstrap": "25b94730520d97c6b652868826fb33116b72a7d3f74bf865db9c827f70448d44",
    "evolve_n512": "684009d83ea9f6b3b577accd37dc02a93d5c44eef0f57ce8292e3c52a9fdf412",
    "evolve_table1_loglipschitz": "ffcae94a26e6e9a3656b77bee553f212ef2c7f91ad74947c413d4abec97c4e87",
    "evolve_table3_loglipschitz_cubed": "4a9404ba3708ed63394644a64b4400f04f2bf967a60e51144ba3265046c8ad3f",
    "evolve_table3_loglog": "4d5d1924308f2975309311e025cec7aa77c517d5d6d4afef668a5f1d9c304fab",
    "evolve_table": "037b7200dc7ed1af93abcd94bdaad0a356caa43122a42833aaa45eb7eeb4da58",
    "curve_direct_affine": "b8b927de663b7e95da2332e9c39a4922da61439594108b42452111ffb1e7b6d7",
    "evolve_n1_pohozaev": "630328432d4766a5007ed9f953fd8f34e26da20ef6edc1554b166faca19dbcf8",
    "evolve_n1_table1_loglipschitz": "47427199b0e13f41eff57c435a39fb0bd9ccf9247ffe38946d4b26f33be60f28",
    "evolve_n1_table": "8d45d5b2090238241bd10e3a1d097419fc60bb251ce5810bac6cc55da4dc9e87",
    "curve_direct_modulus": "5b8bacae94631cf59c97effa8e804c8cbfc3d4c7b57d1854972a5c2fd0c67a0e",
}


def raw_sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def sqrt_uniform_curve(u0, u1, m, s_max, cfg):
    """The curve on 1,000 intervals uniform in sqrt(s) from its start to s_max,
    the grid its pins were recorded on; the bootstrap branch starts at the
    handoff of its time leg."""
    d1, d2 = reparametrize.psi_initial_derivatives(u0, u1, m)
    branch, direction = reparametrize.curve_branch(d1, d2)
    s_start = 0.0
    if branch == "bootstrap":
        s_start = reparametrize._bootstrap_leg(u0, u1, m, cfg, direction, abs(d2))[1][-1]
    shifts = np.linspace(math.sqrt(s_start), math.sqrt(s_max), 1001) ** 2
    shifts[0], shifts[-1] = s_start, s_max
    return reparametrize.solve_trajectory_system(u0, u1, m, shifts, cfg)


def solver_path_runs():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10)
    sweep = {"affine": affine(1.0, 1.0), "power1": power(1.0), "power2": power(2.0),
             "pohozaev": pohozaev(1.0, 1.0)}
    for seed, (name, m) in enumerate(sweep.items()):
        yield f"evolve_{name}", dynamics.evolve(normalized_state(32, seed), m, cfg, 10.0)
    members = dynamics.evolve([normalized_state(32, seed) for seed in (4, 5, 6)],
                              [affine(1.0, 1.0), power(2.0), pohozaev(1.0, 1.0)], cfg, 10.0)
    for b, tr in enumerate(members):
        yield f"ensemble_{b}", tr
    yield "linear_c_of_t", solve_to_samples(
        *linear_system(normalized_state(32, 7), lambda t: 1.0 + 0.5 * math.sin(t), 10.0),
        **LINEAR_TOLERANCES)
    spec = Spectrum([1.0])
    u0 = SpectralVector(spec, [1.0])
    for branch, u1 in (("direct", [1.0]), ("bootstrap", [0.0])):
        curve = sqrt_uniform_curve(u0, SpectralVector(spec, u1), constant(1.0), 0.8, cfg)
        assert curve.branch == branch
        yield f"curve_{branch}", curve
    # one mode with a non-constant m and lambda**2 inexact
    spec = Spectrum([1.3])
    curve = sqrt_uniform_curve(
        SpectralVector(spec, [1.0]), SpectralVector(spec, [1.0]), affine(1.0, 1.0), 0.3, cfg)
    assert curve.branch == "direct"
    yield "curve_direct_affine", curve
    yield "evolve_n1_pohozaev", dynamics.evolve(normalized_state(1, 9, spec),
                                                pohozaev(1.0, 1.0), cfg, 10.0)
    yield "evolve_n512", dynamics.evolve(normalized_state(512, 8), affine(1.0, 1.0),
                                         cfg, 0.1)
    # the modulus and table kinds' m, from u0 = 2 e**-k at rest
    spec = power_spectrum(16)
    state = SpectralState(t=0.0, u=SpectralVector(spec, 2.0 * np.exp(-spec.lambdas)),
                          v=SpectralVector(spec, np.zeros(16)))
    for name in ("table1_loglipschitz", "table3_loglipschitz_cubed", "table3_loglog"):
        yield f"evolve_{name}", dynamics.evolve(state, get_preset(name).m, cfg, 10.0)
    yield "evolve_table", dynamics.evolve(
        state, table([0.0, 0.25, 0.5, 1.0], [1.0, 1.5, 1.25, 2.0]), cfg, 10.0)
    # one mode with a modulus-kind m and a table m, sigma swinging from 0 past
    # the modulus knee (e**-1) and over three table segments
    spec = Spectrum([1.3])
    state = SpectralState(t=0.0, u=SpectralVector(spec, [0.6]), v=SpectralVector(spec, [0.0]))
    yield "evolve_n1_table1_loglipschitz", dynamics.evolve(
        state, get_preset("table1_loglipschitz").m, cfg, 10.0)
    yield "evolve_n1_table", dynamics.evolve(
        state, table([0.0, 0.25, 0.5, 1.0], [1.0, 1.5, 1.25, 2.0]), cfg, 10.0)
    # the curve's coefficient m(s + sigma0) on the core of the modulus, below its knee
    curve = sqrt_uniform_curve(
        SpectralVector(spec, [0.3]), SpectralVector(spec, [1.0]), modulus_sigma_log(1.0),
        0.2, cfg)
    assert curve.branch == "direct"
    yield "curve_direct_modulus", curve


@pytest.mark.byte_pin
def test_solver_paths_keep_their_bytes():
    got = {}
    for name, run in solver_path_runs():
        if isinstance(run, reparametrize.SCurve):
            got[name] = raw_sha256(run.s, run.z, run.w)
        elif isinstance(run, IntegrationOutcome):
            assert run.completed
            n = run.y.shape[1] // 2
            got[name] = raw_sha256(run.t, run.y[:, :n], run.y[:, n:])
        else:
            assert run.meta.status == "completed"
            got[name] = raw_sha256(run.t, run.u, run.v)
    assert got == SOLVER_PATH_SHA256, pin_note()
