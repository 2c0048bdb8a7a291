"""Arc reparametrization of the flow by s = |A^(1/2)u(t)|^2 - |A^(1/2)u0|^2.

Where the shift s is invertible in t, the curve (z, w) = (A^(1/2)u, u') can
be followed in the s variable; the pace along the curve then solves the
scalar autonomous problem psi' = F(psi), psi(0) = 0, with F the speed
2<A^(1/2)z, w>.  The curve is integrated once, landing on the rows of a
time run's first rise in s up to ``S_MAX_SHARE`` of its top (past the first
turn the flow leaves the curve's branch); the pace is read off those landed
rows, and the consistency check compares them with the time run's rows.

When psi'(0) = 0 but psi''(0) != 0 the speed vanishes at s = 0 to first
order.  The curve then bootstraps on the time run itself: its rows up to the
first one whose |psi'| clears a handoff threshold are the curve's lead-in,
converted to the s variable, and the s integration continues from that row;
the direct branch starts it from the datum, the run's first row.  A
decreasing shift (negative first derivative) is mirrored onto the increasing
branch and flagged with ``direction = -1``.

With one mode the curve runs on a (z, w) pair of Python floats through the
pair loop of ``solve_to_samples``, as ``dynamics.evolve`` does: at n = 1
each operation of its right-hand side is the one IEEE operation the array
closure makes, in the same order, so the curve keeps its bits; with more
modes the dot's BLAS summation order cannot be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import uniqueness_quantities
# benchmarks/tracing.py rebinds reparametrize.evolve, which nothing here calls
from .dynamics import IntegratorConfig, Trajectory, evolve  # noqa: F401
from .errors import NoLandingError, ParametrizationError, PreconditionError
from .functions import FunctionSpec, scalar_callable
from .integrate import solve_to_samples
from .spectrum import SpectralVector, Spectrum, a_half_norm_sq, a_weighted_sum

DEN_FLOOR = 1e-10  # smallest |psi'| the curve system accepts
HP_TOL = 1e-10
HANDOFF_SCALE = 1e-4
S_MAX_SHARE = 0.95  # the curve lands on the shift's first rise up to this share of its top


@dataclass(frozen=True)
class PsiTrace:
    """Sampled shift psi(t) and its speed F(psi(t)) = psi'(t)."""

    t: np.ndarray
    psi: np.ndarray
    f: np.ndarray


def psi_trace(tr: Trajectory) -> PsiTrace:
    """psi and F sampled along a trajectory, from the datum it starts at."""
    psi = a_weighted_sum(tr.spectrum, 2, tr.u**2 - tr.u[0] ** 2)
    f = 2.0 * a_weighted_sum(tr.spectrum, 2, tr.u * tr.v)
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
    sign of the first nonzero initial derivative of psi.  Row i lies at the
    time run's row i: up to row ``start``, reached at time ``t_start``, it is
    that row, and the s integration starts there (the datum at t = 0 on the
    direct branch, the handoff row on the bootstrap branch); past it, the
    curve's flow at that row's shift value.
    """

    spectrum: Spectrum
    s: np.ndarray
    z: np.ndarray  # (n_samples, n_modes)
    w: np.ndarray
    start: int
    t_start: float
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


def solve_trajectory_system(tr: Trajectory, m: FunctionSpec, cfg: IntegratorConfig) -> SCurve:
    """Integrate the curve system of the time run ``tr``, landing on its rows.

    The datum is the run's first row; the branch and direction are
    ``curve_branch``'s.  The curve lands on the rows of the mirrored shift's
    first rise up to ``S_MAX_SHARE`` of its top.  The s integration starts at
    a row of the run: row 0 on the direct branch; on the bootstrap branch the
    first row of the rise whose mirrored speed clears the handoff threshold
    ``HANDOFF_SCALE * (1 + |psi''(0)|)``, after the run's rows before it.
    ``NoLandingError`` refuses a rise with no row past t = 0 at or below that
    share of its top; ``PreconditionError`` a rise that never clears the
    threshold, or whose landing rows end at or before the handoff row.
    """
    spec = tr.spectrum
    u0, u1 = (SpectralVector(spec, x[0]) for x in (tr.u, tr.v))
    d1, d2 = psi_initial_derivatives(u0, u1, m)
    branch, direction = curve_branch(d1, d2)
    pt = psi_trace(tr)
    s_run = direction * pt.psi + 0.0  # + 0.0 makes row 0's -0.0 (direction -1) 0.0
    n_rise = _monotone_prefix(s_run)
    k = int(np.count_nonzero(s_run[:n_rise] <= S_MAX_SHARE * s_run[n_rise - 1] + 1e-15))
    if k < 2:
        raise NoLandingError(f"no sample of the shift's first rise lies past t = 0 and below "
                             f"{S_MAX_SHARE} of its top")
    start = 0
    if branch == "bootstrap":
        boot = HANDOFF_SCALE * (1.0 + abs(d2))
        hit = np.flatnonzero(direction * pt.f[:n_rise] >= boot)
        if not hit.size:
            raise PreconditionError(f"the mirrored speed stays below the handoff threshold "
                                    f"{boot:.3g} on the shift's first rise, up to "
                                    f"t = {tr.t[n_rise - 1]:g}")
        start = int(hit[0])
        if k - 1 <= start:
            raise PreconditionError(f"the landing rows end at s = {s_run[k - 1]:g}, at or "
                                    f"before the curve's start at s = {s_run[start]:g}")

    y0 = np.concatenate([spec.lambdas * tr.u[start], tr.v[start]])
    z, w = _curve_flow(spec, m, a_half_norm_sq(u0), direction, y0, s_run[start:k], cfg)
    return SCurve(
        spectrum=spec,
        s=s_run[:k],
        z=np.vstack([tr.u[:start] * spec.lambdas, z]),
        w=np.vstack([tr.v[:start], w]),
        start=start,
        t_start=float(tr.t[start]),
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


def solve_parametrization(curve: SCurve, m: FunctionSpec) -> PsiTrace:
    """The pace psi(t) at the curve's rows past its start, from psi' = F(psi).

    F is ``curve.f_values()``, the mirrored speed.  The scalar equation
    separates: t(s) = t_start + integral of ds/F from the start row.  The
    integral is the corrected trapezoid on the curve's own rows,
    h/2 (g_i + g_i+1) + h^2/12 (g'_i - g'_i+1), whose second term is the
    Euler-Maclaurin end correction (Davis and Rabinowitz, Methods of
    Numerical Integration, 2.9), with g' in closed form from the curve
    system: dF/ds = psi''/psi' and psi'' = 2 sum lam^2 (w^2 - m(sigma) z^2),
    sigma = |z|^2.  The variable is s on the direct branch and v = sqrt(s)
    on the bootstrap branch, where the integrand 2v/F stays smooth as F
    vanishes like sqrt(s) at s = 0.  Requires F > 0 from the start row on;
    a sign change is refused.
    """
    s = curve.s[curve.start:]
    z = curve.z[curve.start:]
    w = curve.w[curve.start:]
    f = curve.f_values()[curve.start:]
    if np.any(f <= 0.0):
        i = int(np.argmax(f <= 0.0))
        raise ParametrizationError(
            f"speed changes sign at s = {s[i]:.6g}; the window contains a turning point"
        )
    psi2 = 2.0 * a_weighted_sum(curve.spectrum, 2,
                                w * w - m(np.sum(z * z, axis=1))[:, None] * (z * z))
    df = curve.direction * psi2 / f  # dF/ds
    # g = (ds/dx) / F in the variable x, and its derivative in x
    if curve.branch == "bootstrap":
        x = np.sqrt(s)
        g = 2.0 * x / f
        dg = 2.0 / f - g * g * df
    else:
        x = s
        g = 1.0 / f
        dg = -g * g * df
    h = np.diff(x)
    steps = 0.5 * h * (g[:-1] + g[1:]) + h * h / 12.0 * (dg[:-1] - dg[1:])
    return PsiTrace(t=curve.t_start + np.cumsum(steps), psi=curve.direction * s[1:],
                    f=curve.direction * f[1:])


@dataclass(frozen=True)
class DeviationReport:
    t: np.ndarray
    s: np.ndarray
    deviations: np.ndarray
    max_deviation: float
    worst_t: float
    n_compared: int


def reparametrization_check(tr: Trajectory, curve: SCurve) -> DeviationReport:
    """Compare a time run with the curve solved from it, row by row.

    The curve's rows must be the run's rows 0..k-1 in the shift variable,
    s = direction * psi(t_i), as ``solve_trajectory_system`` gives them.
    Reports |z - A^(1/2)u| + |w - u'| per row past the curve's start.
    """
    k = curve.s.size
    if not np.array_equal(curve.s, curve.direction * psi_trace(tr).psi[:k]):
        raise PreconditionError("the curve was not landed on this run's shift values")
    rows = slice(curve.start + 1, k)
    dz = curve.z[rows] - tr.u[rows] * tr.spectrum.lambdas
    dw = curve.w[rows] - tr.v[rows]
    dev = np.sqrt(np.sum(dz**2, axis=1)) + np.sqrt(np.sum(dw**2, axis=1))
    worst = int(np.argmax(dev))
    t = tr.t[rows].copy()
    return DeviationReport(t=t, s=curve.s[rows].copy(), deviations=dev,
                           max_deviation=float(dev[worst]), worst_t=float(t[worst]),
                           n_compared=dev.size)
