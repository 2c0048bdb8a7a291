"""Arc reparametrization of the flow by s = |A^(1/2)u(t)|^2 - |A^(1/2)u0|^2.

Where the shift s is invertible in t, the curve (z, w) = (A^(1/2)u, u') can
be followed in the s variable; the pace along the curve then solves the
scalar autonomous problem psi' = F(psi), psi(0) = 0, with F the speed
2<A^(1/2)z, w> read off the sampled curve.  The two half-steps (curve in s,
then pace) are implemented here, together with the consistency check against
a direct time integration.

When psi'(0) = 0 but psi''(0) != 0 the speed vanishes at s = 0 to first
order.  The curve solver then bootstraps: it follows the time dynamics on a
short initial leg until |psi'| clears a handoff threshold, converts the leg
to the s variable, and continues in s; the direct branch starts the s
integration from the datum itself.  A decreasing shift (negative first
derivative) is mirrored onto the increasing branch and flagged with
``direction = -1``.

Both interpolants are small numpy cubics evaluated in v = sqrt(s): the
speed along the curve and the inverse pace use PCHIP (the Fritsch-Butland
slopes with Moler's one-sided end slopes, equal bit for bit to scipy's
``PchipInterpolator``), and the consistency check uses a not-a-knot cubic
spline whose slopes come from one tridiagonal sweep over the stacked (z, w)
table.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .analysis import uniqueness_quantities
from .dynamics import (
    SAMPLE_INTERVALS, IntegratorConfig, SpectralState, Trajectory, evolve, sample_grid,
)
from .errors import ParametrizationError, PreconditionError
from .functions import FunctionSpec, scalar_callable
from .integrate import solve_to_samples
from .spectrum import SpectralVector, Spectrum, a_half_norm_sq, require_shared_spectrum

DEN_FLOOR = 1e-10  # smallest |psi'| the curve system accepts
HP_TOL = 1e-10
HANDOFF_SCALE = 1e-4
CURVE_SAMPLES = 1000  # uniform in sqrt(s)
PACE_INTERVALS = 8192  # trapezoids of the pace quadrature in sqrt(s)


@dataclass(frozen=True)
class HermiteCubic:
    """Piecewise cubic through the knots ``x``, extrapolated from the end pieces.

    ``c`` has shape (4, knots - 1, *value_shape) with the highest power first
    in the local variable x - x[i], the layout of scipy's ``PPoly``; evaluation
    follows its order of operations, c3 + c2*s + c1*s**2 + c0*s**3.
    """

    x: np.ndarray
    c: np.ndarray

    @classmethod
    def from_slopes(cls, x, y, d, h, m) -> HermiteCubic:
        """The cubic Hermite pieces with values y and slopes d at the knots.

        ``h`` are the knot gaps shaped to broadcast against y, and ``m`` the
        secant slopes np.diff(y, axis=0) / h.
        """
        t = (d[:-1] + d[1:] - 2 * m) / h
        return cls(x, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))

    def __call__(self, at) -> np.ndarray:
        at = np.asarray(at, dtype=float)
        i = np.clip(np.searchsorted(self.x, at, side="right") - 1, 0, self.x.size - 2)
        s = (at - self.x[i]).reshape(at.shape + (1,) * (self.c.ndim - 2))
        c = self.c[:, i]
        s2 = s * s
        return c[3] + c[2] * s + c[1] * s2 + c[0] * (s2 * s)


def pchip(x: np.ndarray, y: np.ndarray) -> HermiteCubic:
    """Shape-preserving cubic through 1-D values y at increasing knots x.

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants, or 0 where those differ in sign or vanish (Fritsch and Butland,
    SIAM J. Sci. Comput. 5, 1984); end slopes are the one-sided three-point
    estimate limited to keep the shape (Moler, Numerical Computing with
    MATLAB, 3.6).  Two knots give the line.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = (y[1:] - y[:-1]) / h
    if x.size == 2:
        return HermiteCubic.from_slopes(x, y, np.array([m[0], m[0]]), h, m)
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return HermiteCubic.from_slopes(x, y, d, h, m)


def _pchip_end(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> HermiteCubic:
    """Cubic spline with not-a-knot ends through y of shape (knots, ...).

    The knot slopes solve the tridiagonal system of scipy's ``CubicSpline``
    by one elimination without pivoting: the pivots run on Python floats, and
    the sweeps down and back up the right-hand side run as vectorized
    recurrences over all columns of y at once.  Two knots give the line,
    three the parabola (the two end conditions coincide there).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    h = np.diff(x).reshape((n - 1,) + (1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / h
    if n == 2:
        return HermiteCubic.from_slopes(x, y, np.stack((m[0], m[0])), h, m)
    if n == 3:
        c = (m[1] - m[0]) / (x[2] - x[0])
        d = np.stack((m[0] - c * h[0], m[0] + c * h[0], m[1] + c * h[1]))
        return HermiteCubic.from_slopes(x, y, d, h, m)
    hs = np.diff(x).tolist()
    lower = [None, *hs[1:], float(x[-1] - x[-3])]
    diag = [hs[1], *(2.0 * (a + b) for a, b in zip(hs[:-1], hs[1:])), hs[-2]]
    upper = [float(x[2] - x[0]), *hs[:-1]]
    r = np.empty_like(y)
    r[1:-1] = 3 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    span = x[2] - x[0]
    r[0] = ((h[0] + 2 * span) * h[1] * m[0] + h[0] ** 2 * m[1]) / span
    span = x[-1] - x[-3]
    r[-1] = (h[-1] ** 2 * m[-2] + (2 * span + h[-1]) * h[-2] * m[-1]) / span
    # the pivots and multipliers depend on the knots alone; the sweep down,
    # r_i -= down_i * r_(i-1), and the sweep back up,
    # d_i = r_i / piv_i - up_i * d_(i+1), are first-order recurrences
    piv = [diag[0]]
    down = [0.0]
    for i in range(1, n):
        down.append(lower[i] / piv[-1])
        piv.append(diag[i] - down[-1] * upper[i - 1])
    up = [0.0, *(a / b for a, b in zip(upper[::-1], piv[-2::-1]))]
    _recurrence(-np.array(down), r)
    r /= np.reshape(piv, (n,) + (1,) * (y.ndim - 1))
    _recurrence(-np.array(up), r[::-1])
    return HermiteCubic.from_slopes(x, y, r, h, m)


def _recurrence(a: np.ndarray, b: np.ndarray) -> None:
    """Overwrite b with y, y_0 = b_0 and y_i = b_i + a_i * y_(i-1) along axis 0.

    Recursive doubling: after the pass with shift k each row has folded in
    the 2k - 1 rows before it, so log2(rows) vectorized passes replace one
    numpy update per row (1.5 ms against 3-5 ms for a (1001, 2) table on a
    shared 2-core x86-64).  ``a`` is overwritten; ``a[0]`` is never read.
    """
    a = a.reshape((-1,) + (1,) * (b.ndim - 1))
    shift = 1
    while shift < len(b):
        b[shift:] += a[shift:] * b[:-shift]
        a[shift:] = a[shift:] * a[:-shift]
        shift *= 2


@dataclass(frozen=True)
class PsiTrace:
    """Sampled shift psi(t) and its speed F(psi(t)) = psi'(t)."""

    t: np.ndarray
    psi: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        if self.psi.size and abs(float(self.psi[0])) > 1e-12:
            raise PreconditionError("psi must start at 0")


def psi_trace(tr: Trajectory) -> PsiTrace:
    """psi and F sampled along a trajectory, from the datum it starts at."""
    lam2 = tr.spectrum.lam2
    psi = (tr.u**2 - tr.u[0] ** 2) @ lam2
    f = 2.0 * ((tr.u * tr.v) @ lam2)
    return PsiTrace(t=tr.t.copy(), psi=psi, f=f)


def psi_initial_derivatives(
    u0: SpectralVector, u1: SpectralVector, m: FunctionSpec
) -> tuple[float, float]:
    """(psi'(0), psi''(0)) = (2<A u0, u1>, 2(|A^(1/2)u1|^2 - m(.)|A u0|^2)).

    Shares its arithmetic with ``uniqueness_condition``, so the equivalences
    psi'(0) = 2*as1 and psi''(0) = 2*as2 hold exactly.
    """
    as1, as2 = uniqueness_quantities(u0, u1, m)
    return 2.0 * as1, 2.0 * as2


@dataclass(frozen=True)
class SCurve:
    """The curve (z(s), w(s)) sampled on the mirrored shift variable.

    ``s`` holds direction * psi >= 0, increasing from 0; ``direction`` is the
    sign of the first nonzero initial derivative of psi.
    """

    spectrum: Spectrum
    s: np.ndarray
    z: np.ndarray  # (n_samples, n_modes)
    w: np.ndarray
    direction: int
    branch: str
    psi_prime0: float
    psi_second0: float

    def __post_init__(self):
        if self.s.size < 2 or abs(float(self.s[0])) > 1e-12:
            raise PreconditionError("curve must start at s = 0 with >= 2 samples")
        if np.any(np.diff(self.s) <= 0.0):
            raise PreconditionError("curve samples must be strictly increasing in s")

    def f_values(self) -> np.ndarray:
        """Mirrored speed along the curve, nonnegative on the branch."""
        lam = self.spectrum.lambdas
        return self.direction * 2.0 * ((self.z * self.w) @ lam)


def _monotone_prefix(values: np.ndarray) -> int:
    """Length of the maximal strictly increasing prefix."""
    n = 1
    while n < values.size and values[n] > values[n - 1]:
        n += 1
    return n


def scurve_from_trajectory(tr: Trajectory) -> SCurve:
    """Reparametrize a computed trajectory by its own shift variable."""
    pt = psi_trace(tr)
    nonzero = np.nonzero(np.abs(pt.psi) > 0.0)[0]
    if nonzero.size == 0:
        raise ParametrizationError("shift vanishes identically; curve undefined")
    direction = 1 if pt.psi[nonzero[0]] > 0.0 else -1
    s = direction * pt.psi
    n = _monotone_prefix(s)
    if n < 2:
        raise ParametrizationError("shift is not monotone from the start")
    return SCurve(
        spectrum=tr.spectrum,
        s=s[:n],
        z=tr.u[:n] * tr.spectrum.lambdas,
        w=tr.v[:n].copy(),
        direction=direction,
        branch="from_trajectory",
        psi_prime0=float(pt.f[0]),
        psi_second0=math.nan,
    )


def solve_trajectory_system(
    u0: SpectralVector,
    u1: SpectralVector,
    m: FunctionSpec,
    s_max: float,
    cfg: IntegratorConfig,
) -> SCurve:
    """Integrate the curve system in the shift variable up to |psi| = s_max.

    Requires psi'(0) != 0, or psi'(0) = 0 with psi''(0) != 0 (within
    ``HP_TOL``); both vanishing is refused, matching the limit of the
    two-step uniqueness argument.  In the second branch the solver first
    follows the time dynamics until |psi'| exceeds the handoff threshold
    ``HANDOFF_SCALE * (1 + |psi''(0)|)``, then continues in s.  Requires
    0 < s_max < inf.
    """
    spec = require_shared_spectrum(u0, u1)
    if not 0.0 < s_max < math.inf:  # or NaN
        raise PreconditionError("s_max must be positive and finite")
    d1, d2 = psi_initial_derivatives(u0, u1, m)
    if abs(d1) <= HP_TOL and abs(d2) <= HP_TOL:
        raise PreconditionError(
            "both psi'(0) and psi''(0) vanish; the parametrization argument "
            "does not apply"
        )
    direction = int(np.sign(d1)) if abs(d1) > HP_TOL else int(np.sign(d2))
    sigma0 = a_half_norm_sq(u0)
    lam = spec.lambdas
    n = spec.n
    m_at = scalar_callable(m)
    signed_lam = direction * lam  # exact: direction is +-1
    out = np.empty(2 * n)  # filled and returned by every call
    dz, dw = out[:n], out[n:]
    zw = np.empty(n)
    # den and -direction * coeff reach the ufuncs as 0-d arrays
    den_0d, factor = np.empty(()), np.empty(())
    multiply, divide = np.multiply, np.divide  # positional outputs, as in integrate

    def rhs(s_tilde: float, y: np.ndarray) -> np.ndarray:
        z = y[:n]
        w = y[n:]
        den = 2.0 * float(lam.dot(multiply(z, w, zw)))
        if abs(den) < DEN_FLOOR:
            raise ParametrizationError(
                f"parametrization degenerates: |psi'| = {abs(den):.3e} at "
                f"s = {direction * s_tilde:.6g}"
            )
        coeff = m_at(direction * s_tilde + sigma0)
        den_0d[()] = den
        factor[()] = -direction * coeff
        multiply(signed_lam, w, dz)  # direction * lam * w / den
        divide(dz, den_0d, dz)
        multiply(lam, factor, dw)  # -direction*coeff*lam*z/den
        multiply(dw, z, dw)
        divide(dw, den_0d, dw)
        return out

    # the s integration starts from the last row of a lead-in: the datum
    # itself on the direct branch, the time leg on the bootstrap branch
    if abs(d1) > HP_TOL:
        branch = "direct"
        lead_s, lead_z, lead_w = np.zeros(1), (lam * u0.components)[None], u1.components[None]
    else:
        branch = "bootstrap"
        lead_s, lead_z, lead_w = _bootstrap_leg(u0, u1, m, cfg, direction, abs(d2))
    s_start = float(lead_s[-1])
    if s_start >= s_max:
        raise PreconditionError(
            f"s_max = {s_max:g} lies inside the bootstrap leg "
            f"(handoff at {s_start:g}); increase s_max"
        )

    # sample uniformly in sqrt(s): the curve components are smooth functions
    # of sqrt(s) even when the speed vanishes at s = 0, where they behave
    # like sqrt(s) itself
    v_grid = np.linspace(math.sqrt(s_start), math.sqrt(s_max), CURVE_SAMPLES + 1)
    samples = v_grid**2
    samples[0] = s_start
    samples[-1] = s_max
    y0 = np.concatenate([lead_z[-1], lead_w[-1]])
    res = solve_to_samples(
        rhs, y0, samples, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, max_step=cfg.max_step
    )
    if not res.completed:
        raise ParametrizationError(
            f"curve integration stopped early: {res.message or res.status}"
        )

    return SCurve(
        spectrum=spec,
        s=np.concatenate([lead_s[:-1], res.t]),
        z=np.vstack([lead_z[:-1], res.y[:, :n]]),
        w=np.vstack([lead_w[:-1], res.y[:, n:]]),
        direction=direction,
        branch=branch,
        psi_prime0=d1,
        psi_second0=d2,
    )


def _bootstrap_leg(u0, u1, m, cfg, direction, d2_mag):
    """Time leg from t = 0 until the mirrored speed clears the handoff threshold."""
    lam = u0.spectrum.lambdas
    boot = HANDOFF_SCALE * (1.0 + d2_mag)
    t_guess = 3.0 * boot / max(d2_mag, 1e-8)
    state = SpectralState(t=0.0, u=u0, v=u1)
    for _ in range(8):
        tr = evolve(state, m, dataclasses.replace(cfg, dense_output_dt=t_guess / 128.0), t_guess)
        pt = psi_trace(tr)
        speed = direction * pt.f
        hit = np.nonzero(speed >= boot)[0]
        if hit.size:
            i = int(hit[0])
            s = direction * pt.psi[: i + 1]
            k = _monotone_prefix(s)
            if k >= 2 and k == i + 1:
                return s, tr.u[: i + 1] * lam, tr.v[: i + 1]
        t_guess *= 2.0
    raise ParametrizationError(
        "bootstrap leg never cleared the handoff threshold; the shift may "
        "not be monotone near t = 0"
    )


def solve_parametrization(curve: SCurve, t_end: float, cfg: IntegratorConfig) -> PsiTrace:
    """Recover the pace psi(t) from the curve's speed via psi' = F(psi).

    F is ``curve.f_values()`` against the mirrored shift, interpolated by
    PCHIP in v = sqrt(s), in which the admissible first-order vanishing
    F ~ c*sqrt(s) is a smooth (linear) profile.

    The autonomous scalar equation is integrated by separation of variables:
    t(s) = integral of 1/F from 0 to s, regularized by the substitution
    s = v^2 so that the admissible first-order vanishing of F at s = 0
    (where the trivial branch psi = 0 splits off) becomes a finite
    integrand; the monotone escape branch is then the inverse of t(s).
    Requires F > 0 away from s = 0 on the curve, where a sign change is
    refused, and 0 < t_end < inf.
    """
    if not 0.0 < t_end < math.inf:  # or NaN
        raise PreconditionError("t_end must be positive and finite")
    f = curve.f_values()
    if np.any(f[1:] <= 0.0):
        i = 1 + int(np.argmax(f[1:] <= 0.0))
        raise ParametrizationError(
            f"speed changes sign on the interior at s = {curve.s[i]:.6g}; "
            f"the window contains a turning point"
        )
    f_interp = pchip(np.sqrt(curve.s), f)
    s_hi = float(curve.s[-1])
    v = np.linspace(0.0, math.sqrt(s_hi), PACE_INTERVALS + 1)
    fv = np.asarray(f_interp(v), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 2.0 * v / fv
    if fv[0] > 0.0:
        g[0] = 0.0
    else:
        # first-order vanishing: F ~ c sqrt(s) = c v, so the integrand
        # 2v/F(v) tends to 2/c
        j = max(1, int(0.01 * PACE_INTERVALS))
        c = float(fv[j] / v[j])
        g[0] = 2.0 / c if c > 0.0 else 0.0
    if not np.all(np.isfinite(g)):
        raise ParametrizationError("speed table produced a nonintegrable pace")

    dv = v[1] - v[0]
    t_nodes = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * dv)])
    s_nodes = v**2

    keep = np.concatenate([[True], np.diff(t_nodes) > 0.0])
    inverse = pchip(t_nodes[keep], s_nodes[keep])

    t_max = min(t_end, float(t_nodes[-1]))
    dt = cfg.dense_output_dt if cfg.dense_output_dt is not None else t_end / SAMPLE_INTERVALS
    t_out = sample_grid(0.0, t_max, dt)
    s_out = np.asarray(inverse(t_out), dtype=float)
    s_out[0] = 0.0
    psi = curve.direction * s_out
    v_out = np.sqrt(np.clip(s_out, 0.0, s_hi))
    f_out = curve.direction * np.asarray(f_interp(v_out), dtype=float)
    return PsiTrace(t=t_out, psi=psi, f=f_out)


@dataclass(frozen=True)
class DeviationReport:
    t: np.ndarray
    s: np.ndarray
    deviations: np.ndarray
    max_deviation: float
    worst_t: float
    n_compared: int


def reparametrization_check(tr: Trajectory, curve: SCurve) -> DeviationReport:
    """Compare a time trajectory against a curve at matching shift values.

    Interpolates the curve at s = direction * psi(t_i) and reports
    |z - A^(1/2)u| + |w - u'| per sample.  The shift must be strictly
    monotone over the compared window.
    """
    pt = psi_trace(tr)
    s_t = curve.direction * pt.psi
    inside = s_t <= float(curve.s[-1]) + 1e-15
    idx = np.nonzero(inside)[0]
    if idx.size < 2:
        raise ParametrizationError("fewer than two samples fall inside the curve range")
    if np.any(np.diff(s_t[idx]) <= 0.0):
        raise ParametrizationError("shift is not monotone on the compared window")

    # interpolate against v = sqrt(s), where the curve is smooth even at a
    # first-order vanishing of the speed; z and w share one spline build
    n = curve.z.shape[1]
    spline = not_a_knot_spline(np.sqrt(curve.s), np.hstack([curve.z, curve.w]))
    lam = tr.spectrum.lambdas
    s_cmp = np.clip(s_t[idx], float(curve.s[0]), float(curve.s[-1]))
    zw = spline(np.sqrt(s_cmp))
    dz = zw[:, :n] - tr.u[idx] * lam
    dw = zw[:, n:] - tr.v[idx]
    dev = np.sqrt(np.sum(dz**2, axis=1)) + np.sqrt(np.sum(dw**2, axis=1))
    worst = int(np.argmax(dev))
    return DeviationReport(
        t=tr.t[idx].copy(),
        s=s_cmp,
        deviations=dev,
        max_deviation=float(dev[worst]),
        worst_t=float(tr.t[idx][worst]),
        n_compared=int(idx.size),
    )
