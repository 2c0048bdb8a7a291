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

With one mode the curve runs on a (z, w) pair of Python floats through the
pair loop of ``solve_to_samples``, as ``dynamics.evolve`` does: at n = 1
each operation of its right-hand side is the one IEEE operation the array
closure makes, in the same order, so the curve keeps its bits; with more
modes the dot's BLAS summation order cannot be reproduced.

The speed along the curve and the inverse pace are read through PCHIP, a
small numpy cubic (the Fritsch-Butland slopes with Moler's one-sided end
slopes, equal bit for bit to scipy's ``PchipInterpolator``).  The
consistency check interpolates nothing: it integrates the curve system
again, landing on the time run's shift values.
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

    ``c`` has shape (4, knots - 1) with the highest power first in the local
    variable x - x[i], the layout of scipy's ``PPoly``; evaluation follows
    its order of operations, c3 + c2*s + c1*s**2 + c0*s**3.
    """

    x: np.ndarray
    c: np.ndarray

    @classmethod
    def from_slopes(cls, x, y, d, h, m) -> HermiteCubic:
        """The cubic Hermite pieces with values y and slopes d at the knots.

        ``h`` are the knot gaps and ``m`` the secant slopes np.diff(y) / h.
        """
        t = (d[:-1] + d[1:] - 2 * m) / h
        return cls(x, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))

    def __call__(self, at) -> np.ndarray:
        at = np.asarray(at, dtype=float)
        i = np.clip(np.searchsorted(self.x, at, side="right") - 1, 0, self.x.size - 2)
        s = at - self.x[i]
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
    sign of the first nonzero initial derivative of psi.  The s integration
    starts at row ``start``: the datum on the direct branch, the handoff row
    on the bootstrap branch, after the time leg's rows.
    """

    spectrum: Spectrum
    s: np.ndarray
    z: np.ndarray  # (n_samples, n_modes)
    w: np.ndarray
    start: int
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


def _degenerate(den: float, s: float) -> ParametrizationError:
    """The error for a speed psi' = ``den`` below DEN_FLOOR at shift ``s``."""
    text = f"parametrization degenerates: |psi'| = {abs(den):.3e} at s = {s:.6g}"
    return ParametrizationError(text)


def curve_branch(d1: float, d2: float) -> tuple[str, int]:
    """The curve solver's (branch, direction) for psi'(0) = d1, psi''(0) = d2.

    "direct" with the sign of d1 when |d1| > ``HP_TOL``, else "bootstrap"
    with the sign of d2 when |d2| > ``HP_TOL``; both within ``HP_TOL`` of 0
    is refused, matching the limit of the two-step uniqueness argument.
    """
    if abs(d1) > HP_TOL:
        return "direct", int(np.sign(d1))
    if abs(d2) > HP_TOL:
        return "bootstrap", int(np.sign(d2))
    raise PreconditionError(f"psi'(0) = {d1:.6g} and psi''(0) = {d2:.6g} both vanish within "
                            f"{HP_TOL:g}; the parametrization argument does not apply")


def solve_trajectory_system(
    u0: SpectralVector,
    u1: SpectralVector,
    m: FunctionSpec,
    s_max: float,
    cfg: IntegratorConfig,
) -> SCurve:
    """Integrate the curve system in the shift variable up to |psi| = s_max.

    The branch and direction are ``curve_branch``'s.  On the bootstrap
    branch the solver first follows the time dynamics until |psi'| exceeds
    the handoff threshold ``HANDOFF_SCALE * (1 + |psi''(0)|)``, then
    continues in s.  Requires 0 < s_max < inf.
    """
    spec = require_shared_spectrum(u0, u1)
    if not 0.0 < s_max < math.inf:  # or NaN
        raise PreconditionError("s_max must be positive and finite")
    d1, d2 = psi_initial_derivatives(u0, u1, m)
    branch, direction = curve_branch(d1, d2)
    # the s integration starts from the last row of a lead-in: the datum
    # itself on the direct branch, the time leg on the bootstrap branch
    if branch == "direct":
        lead_s, lead_z = np.zeros(1), (spec.lambdas * u0.components)[None]
        lead_w = u1.components[None]
    else:
        lead_s, lead_z, lead_w = _bootstrap_leg(u0, u1, m, cfg, direction, abs(d2))
    s_start = float(lead_s[-1])
    if s_start >= s_max:
        raise PreconditionError(
            f"s_max = {s_max:g} lies inside the bootstrap leg (handoff at {s_start:g})"
        )

    # sample uniformly in sqrt(s): the curve components are smooth functions
    # of sqrt(s) even when the speed vanishes at s = 0, where they behave
    # like sqrt(s) itself
    v_grid = np.linspace(math.sqrt(s_start), math.sqrt(s_max), CURVE_SAMPLES + 1)
    samples = v_grid**2
    samples[0] = s_start
    samples[-1] = s_max
    y0 = np.concatenate([lead_z[-1], lead_w[-1]])
    z, w = _curve_flow(spec, m, a_half_norm_sq(u0), direction, y0, samples, cfg)
    return SCurve(
        spectrum=spec,
        s=np.concatenate([lead_s[:-1], samples]),
        z=np.vstack([lead_z[:-1], z]),
        w=np.vstack([lead_w[:-1], w]),
        start=lead_s.size - 1,
        direction=direction,
        branch=branch,
        psi_prime0=d1,
        psi_second0=d2,
    )


def _curve_flow(spec, m, sigma0, direction, y0, samples, cfg):
    """(z, w) at each mirrored shift in ``samples``, from y0 = (z, w) at the first.

    The curve system dz/ds = lam w / psi', dw/ds = -m(psi + sigma0) lam z / psi'
    with psi' = 2 <lam z, w>, in the mirrored shift s = direction * psi, at
    the tolerances of ``cfg``.  A run that stops early raises.
    """
    lam, n = spec.lambdas, spec.n
    m_at = scalar_callable(m)

    def rhs(s_tilde: float, y: np.ndarray) -> np.ndarray:
        z, w = y[:n], y[n:]
        den = 2.0 * float(lam.dot(z * w))
        if abs(den) < DEN_FLOOR:
            raise _degenerate(den, direction * s_tilde)
        coeff = m_at(direction * s_tilde + sigma0)
        return np.concatenate([direction * lam * w / den, lam * (-direction * coeff) * z / den])

    lam_0 = float(lam[0])

    def one_mode_rhs(s_tilde: float, y: tuple) -> tuple:
        # rhs on a (z, w) pair of Python floats, the same IEEE operations in
        # the same order, which keeps rhs's bits at n = 1, as in dynamics.evolve
        z, w = y
        den = 2.0 * (lam_0 * (z * w))
        if abs(den) < DEN_FLOOR:
            raise _degenerate(den, direction * s_tilde)
        coeff = m_at(direction * s_tilde + sigma0)
        return (direction * lam_0 * w) / den, ((lam_0 * (-direction * coeff)) * z) / den

    res = solve_to_samples(rhs if n > 1 else one_mode_rhs, y0, samples, rel_tol=cfg.rel_tol,
                           abs_tol=cfg.abs_tol, pair=n == 1)
    if not res.completed:
        raise ParametrizationError(
            f"curve integration stopped early: {res.message or res.status}"
        )
    return res.y[:, :n], res.y[:, n:]


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


def reparametrization_check(
    tr: Trajectory, curve: SCurve, m: FunctionSpec, cfg: IntegratorConfig
) -> DeviationReport:
    """Compare a time trajectory against the curve flow at matching shift values.

    Integrates the curve system of m from the curve's start row, landing on
    s = direction * psi(t_i) for each sample past that row, and reports
    |z - A^(1/2)u| + |w - u'| per sample, over the leading strictly
    increasing run of s that lies inside the curve's range: past a turn of
    the shift the flow no longer follows the curve's branch.
    """
    s_t = curve.direction * psi_trace(tr).psi
    rise = s_t[: _monotone_prefix(s_t)]
    s_start = float(curve.s[curve.start])
    j = int(np.count_nonzero(rise <= s_start))
    k = int(np.count_nonzero(rise <= float(curve.s[-1]) + 1e-15))
    if k <= j:
        raise ParametrizationError("no sample past the curve's start falls inside its range")

    sigma0 = a_half_norm_sq(SpectralVector(tr.spectrum, tr.u[0]))
    y0 = np.concatenate([curve.z[curve.start], curve.w[curve.start]])
    z, w = _curve_flow(tr.spectrum, m, sigma0, curve.direction, y0,
                       np.concatenate([[s_start], rise[j:k]]), cfg)
    dz = z[1:] - tr.u[j:k] * tr.spectrum.lambdas
    dw = w[1:] - tr.v[j:k]
    dev = np.sqrt(np.sum(dz**2, axis=1)) + np.sqrt(np.sum(dw**2, axis=1))
    worst = int(np.argmax(dev))
    return DeviationReport(t=tr.t[j:k].copy(), s=rise[j:k].copy(), deviations=dev,
                           max_deviation=float(dev[worst]), worst_t=float(tr.t[j + worst]),
                           n_compared=k - j)
