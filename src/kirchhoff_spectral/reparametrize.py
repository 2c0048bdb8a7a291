"""Arc reparametrization of the flow by s = |A^(1/2)u(t)|^2 - |A^(1/2)u0|^2.

Where the shift s is invertible in t, the curve (z, w) = (A^(1/2)u, u') can
be followed in the s variable; the pace along the curve then solves the
scalar autonomous problem psi' = F(psi), psi(0) = 0, with F the tabulated
speed 2<A^(1/2)z, w>.  The two half-steps (curve in s, then pace) are
implemented here, together with the consistency check against a direct time
integration.

When psi'(0) = 0 but psi''(0) != 0 the speed vanishes at s = 0 to first
order.  The curve solver then bootstraps: it follows the time dynamics on a
short initial leg until |psi'| clears a handoff threshold, converts the leg
to the s variable, and continues in s.  A decreasing shift (negative first
derivative) is mirrored onto the increasing branch and flagged with
``direction = -1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import uniqueness_quantities
from .dynamics import IntegratorConfig, SpectralState, Trajectory, evolve
from .errors import ParametrizationError, PreconditionError
from .functions import FunctionSpec, scalar_callable
from .integrate import solve_to_samples
from .spectrum import SpectralVector, Spectrum, a_half_norm_sq, require_shared_spectrum

DEFAULT_DEN_FLOOR = 1e-10
DEFAULT_HP_TOL = 1e-10


@dataclass(frozen=True)
class PsiTrace:
    """Sampled shift psi(t) and its speed F(psi(t)) = psi'(t)."""

    t: np.ndarray
    psi: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        if self.psi.size and abs(float(self.psi[0])) > 1e-12:
            raise PreconditionError("psi must start at 0")


def psi_trace(tr: Trajectory, u0: SpectralVector) -> PsiTrace:
    """psi and F sampled along a trajectory starting at the datum u0."""
    if not np.allclose(tr.u[0], u0.components, rtol=1e-12, atol=1e-12):
        raise PreconditionError("trajectory does not start at the given datum")
    lam2 = tr.spectrum.lam2
    psi = (tr.u**2 - u0.components**2) @ lam2
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
    sigma0: float
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


def scurve_from_trajectory(tr: Trajectory, u0: SpectralVector | None = None) -> SCurve:
    """Reparametrize a computed trajectory by its own shift variable."""
    if u0 is None:
        u0 = SpectralVector(tr.spectrum, tr.u[0])
    pt = psi_trace(tr, u0)
    nonzero = np.nonzero(np.abs(pt.psi) > 0.0)[0]
    if nonzero.size == 0:
        raise ParametrizationError("shift vanishes identically; curve undefined")
    direction = 1 if pt.psi[nonzero[0]] > 0.0 else -1
    s = direction * pt.psi
    n = _monotone_prefix(s)
    if n < 2:
        raise ParametrizationError("shift is not monotone from the start")
    lam = tr.spectrum.lambdas
    d1, d2 = pt.f[0], math.nan
    return SCurve(
        spectrum=tr.spectrum,
        s=s[:n],
        z=tr.u[:n] * lam,
        w=tr.v[:n].copy(),
        direction=direction,
        sigma0=a_half_norm_sq(u0),
        branch="from_trajectory",
        psi_prime0=float(d1),
        psi_second0=d2,
    )


def solve_trajectory_system(
    u0: SpectralVector,
    u1: SpectralVector,
    m: FunctionSpec,
    s_max: float,
    cfg: IntegratorConfig,
    n_samples: int = 1000,
    delta_boot: float | None = None,
    delta_den: float = DEFAULT_DEN_FLOOR,
    hp_tol: float = DEFAULT_HP_TOL,
) -> SCurve:
    """Integrate the curve system in the shift variable up to |psi| = s_max.

    Requires psi'(0) != 0, or psi'(0) = 0 with psi''(0) != 0 (within
    ``hp_tol``); both vanishing is refused, matching the limit of the
    two-step uniqueness argument.  In the second branch the solver first
    follows the time dynamics until |psi'| exceeds the handoff threshold
    ``delta_boot`` (default 1e-4 * (1 + |psi''(0)|)), then continues in s.
    """
    spec = require_shared_spectrum(u0, u1)
    if s_max <= 0.0:
        raise PreconditionError("s_max must be positive")
    d1, d2 = psi_initial_derivatives(u0, u1, m)
    if abs(d1) <= hp_tol and abs(d2) <= hp_tol:
        raise PreconditionError(
            "both psi'(0) and psi''(0) vanish; the parametrization argument "
            "does not apply"
        )
    direction = int(np.sign(d1)) if abs(d1) > hp_tol else int(np.sign(d2))
    sigma0 = a_half_norm_sq(u0)
    lam = spec.lambdas
    n = spec.n
    m_at = scalar_callable(m)
    signed_lam = direction * lam  # exact: direction is +-1

    def rhs(s_tilde: float, y: np.ndarray) -> np.ndarray:
        z = y[:n]
        w = y[n:]
        den = 2.0 * float(lam.dot(z * w))
        if abs(den) < delta_den:
            raise ParametrizationError(
                f"parametrization degenerates: |psi'| = {abs(den):.3e} at "
                f"s = {direction * s_tilde:.6g}"
            )
        coeff = m_at(direction * s_tilde + sigma0)
        out = np.empty(2 * n)
        dz = out[:n]
        np.multiply(signed_lam, w, out=dz)  # direction * lam * w / den
        dz /= den
        dw = out[n:]
        np.multiply(lam, -direction * coeff, out=dw)  # -direction*coeff*lam*z/den
        dw *= z
        dw /= den
        return out

    if abs(d1) > hp_tol:
        s_start = 0.0
        z_start = lam * u0.components
        w_start = u1.components.copy()
        lead_s = np.empty((0,))
        lead_z = np.empty((0, n))
        lead_w = np.empty((0, n))
        branch = "direct"
    else:
        boot = delta_boot if delta_boot is not None else 1e-4 * (1.0 + abs(d2))
        leg = _bootstrap_leg(u0, u1, m, cfg, direction, boot, abs(d2))
        lead_s, lead_z, lead_w = leg
        s_start = float(lead_s[-1])
        z_start = lead_z[-1].copy()
        w_start = lead_w[-1].copy()
        lead_s = lead_s[:-1]
        lead_z = lead_z[:-1]
        lead_w = lead_w[:-1]
        branch = "bootstrap"
        if s_start >= s_max:
            raise PreconditionError(
                f"s_max = {s_max:g} lies inside the bootstrap leg "
                f"(handoff at {s_start:g}); increase s_max"
            )

    # sample uniformly in sqrt(s): the curve components are smooth functions
    # of sqrt(s) even when the speed vanishes at s = 0, where they behave
    # like sqrt(s) itself
    v_grid = np.linspace(math.sqrt(s_start), math.sqrt(s_max), max(2, n_samples + 1))
    samples = v_grid**2
    samples[0] = s_start
    samples[-1] = s_max
    y0 = np.concatenate([z_start, w_start])
    res = solve_to_samples(
        rhs, y0, samples, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, max_step=cfg.max_step
    )
    if not res.completed:
        raise ParametrizationError(
            f"curve integration stopped early: {res.message or res.status}"
        )

    s_all = np.concatenate([lead_s, res.t])
    z_all = np.vstack([lead_z, res.y[:, :n]])
    w_all = np.vstack([lead_w, res.y[:, n:]])
    return SCurve(
        spectrum=spec,
        s=s_all,
        z=z_all,
        w=w_all,
        direction=direction,
        sigma0=sigma0,
        branch=branch,
        psi_prime0=d1,
        psi_second0=d2,
    )


def _bootstrap_leg(u0, u1, m, cfg, direction, boot, d2_mag):
    """Time leg from t = 0 until the mirrored speed clears the threshold."""
    spec = u0.spectrum
    lam = spec.lambdas
    t_guess = 3.0 * boot / max(d2_mag, 1e-8)
    for _ in range(8):
        state = SpectralState(t=0.0, u=u0, v=u1)
        cfg_leg = IntegratorConfig(
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
            max_step=cfg.max_step,
            dense_output_dt=t_guess / 128.0,
        )
        tr = evolve(state, m, cfg_leg, t_guess)
        pt = psi_trace(tr, u0)
        speed = direction * pt.f
        hit = np.nonzero(speed >= boot)[0]
        if hit.size:
            i = int(hit[0])
            s = direction * pt.psi[: i + 1]
            k = _monotone_prefix(s)
            if k >= 2 and k == i + 1:
                return s, tr.u[: i + 1] * lam, tr.v[: i + 1].copy()
        t_guess *= 2.0
    raise ParametrizationError(
        "bootstrap leg never cleared the handoff threshold; the shift may "
        "not be monotone near t = 0"
    )


@dataclass(frozen=True)
class TabulatedSpeed:
    """Speed F sampled against the mirrored shift.

    Interpolation runs in the variable v = sqrt(s), in which the admissible
    first-order vanishing F ~ c*sqrt(s) is a smooth (linear) profile.
    """

    s: np.ndarray
    f: np.ndarray
    direction: int

    def interpolator(self):
        """Shape-preserving cubic of F against v = sqrt(s); call with v."""
        from scipy.interpolate import PchipInterpolator

        return PchipInterpolator(np.sqrt(self.s), self.f)


def tabulate_speed(curve: SCurve) -> TabulatedSpeed:
    return TabulatedSpeed(s=curve.s.copy(), f=curve.f_values(), direction=curve.direction)


def solve_parametrization(
    speed: TabulatedSpeed | SCurve,
    t_end: float,
    cfg: IntegratorConfig,
    n_quad: int = 8192,
) -> PsiTrace:
    """Recover the pace psi(t) from the tabulated speed via psi' = F(psi).

    The autonomous scalar equation is integrated by separation of variables:
    t(s) = integral of 1/F from 0 to s, regularized by the substitution
    s = v^2 so that the admissible first-order vanishing of F at s = 0
    (where the trivial branch psi = 0 splits off) becomes a finite
    integrand; the monotone escape branch is then the inverse of t(s).
    Requires F > 0 away from s = 0 on the table; a sign change is refused.
    """
    if isinstance(speed, SCurve):
        speed = tabulate_speed(speed)
    if t_end <= 0.0:
        raise PreconditionError("t_end must be positive")
    if np.any(speed.f[1:] <= 0.0):
        i = 1 + int(np.argmax(speed.f[1:] <= 0.0))
        raise ParametrizationError(
            f"speed changes sign on the interior at s = {speed.s[i]:.6g}; "
            f"the window contains a turning point"
        )
    f_interp = speed.interpolator()
    s_hi = float(speed.s[-1])
    v = np.linspace(0.0, math.sqrt(s_hi), n_quad + 1)
    fv = np.asarray(f_interp(v), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 2.0 * v / fv
    if fv[0] > 0.0:
        g[0] = 0.0
    else:
        # first-order vanishing: F ~ c sqrt(s) = c v, so the integrand
        # 2v/F(v) tends to 2/c
        j = max(1, int(0.01 * n_quad))
        c = float(fv[j] / v[j])
        g[0] = 2.0 / c if c > 0.0 else 0.0
    if not np.all(np.isfinite(g)):
        raise ParametrizationError("speed table produced a nonintegrable pace")

    dv = v[1] - v[0]
    t_nodes = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * dv)])
    s_nodes = v**2

    from scipy.interpolate import PchipInterpolator

    keep = np.concatenate([[True], np.diff(t_nodes) > 0.0])
    inverse = PchipInterpolator(t_nodes[keep], s_nodes[keep])

    t_max = min(t_end, float(t_nodes[-1]))
    dt = cfg.dense_output_dt if cfg.dense_output_dt is not None else t_end / 1000.0
    n_out = max(1, int(round(t_max / dt)))
    t_out = np.linspace(0.0, t_max, n_out + 1)
    s_out = np.asarray(inverse(t_out), dtype=float)
    s_out[0] = 0.0
    psi = speed.direction * s_out
    v_out = np.sqrt(np.clip(s_out, 0.0, s_hi))
    f_out = speed.direction * np.asarray(f_interp(v_out), dtype=float)
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
    tr: Trajectory, curve: SCurve, u0: SpectralVector
) -> DeviationReport:
    """Compare a time trajectory against a curve at matching shift values.

    Interpolates the curve at s = direction * psi(t_i) and reports
    |z - A^(1/2)u| + |w - u'| per sample.  The shift must be strictly
    monotone over the compared window.
    """
    from scipy.interpolate import CubicSpline

    pt = psi_trace(tr, u0)
    s_t = curve.direction * pt.psi
    inside = s_t <= float(curve.s[-1]) + 1e-15
    idx = np.nonzero(inside)[0]
    if idx.size < 2:
        raise ParametrizationError("fewer than two samples fall inside the curve range")
    if np.any(np.diff(s_t[idx]) <= 0.0):
        raise ParametrizationError("shift is not monotone on the compared window")

    # interpolate against v = sqrt(s), where the curve is smooth even at a
    # first-order vanishing of the speed
    v_knots = np.sqrt(curve.s)
    z_spline = CubicSpline(v_knots, curve.z, axis=0)
    w_spline = CubicSpline(v_knots, curve.w, axis=0)
    lam = tr.spectrum.lambdas
    s_cmp = np.clip(s_t[idx], float(curve.s[0]), float(curve.s[-1]))
    v_cmp = np.sqrt(s_cmp)
    dz = z_spline(v_cmp) - tr.u[idx] * lam
    dw = w_spline(v_cmp) - tr.v[idx]
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
