"""Diagnostics on top of trajectories: scale-norm traces, degeneracy
classification, uniqueness conditions and the continuous-dependence
experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blocks import BLOCK_VALUES, row_blocks
from .conditions import log_log_slope
from .dynamics import IntegratorConfig, SpectralState, Trajectory, evolve, hamiltonian
from .errors import PreconditionError
from .functions import FunctionSpec, antiderivative, modulus_power, weight_values
# benchmarks/tracing.py rebinds analysis.gevrey_norm, which nothing here calls
from .norms import _norms, gevrey_norm  # noqa: F401
from .spectrum import (
    SpectralVector,
    a_half_norm_sq,
    a_inner,
    a_norm_sq,
    require_shared_spectrum,
)

HP_MAIN_TOL = 1e-10
MU_MIN = 1e-8
DEPENDENCE_GRID_POINTS = 257
DEGENERACY_GRID_POINTS = 513


# ---------------------------------------------------------------------------
# scale-norm traces


@dataclass(frozen=True)
class ScaleTrace:
    t: np.ndarray
    radii: np.ndarray
    u_norms: np.ndarray  # at exponent alpha + 1/2
    v_norms: np.ndarray  # at exponent alpha


def scale_norm_trace(
    tr: Trajectory, phi: FunctionSpec, r0: float, big_r: float, alpha: float
) -> ScaleTrace:
    """Norms of (u, u') along the shrinking scale of spaces r(t) = r0 - R*t.

    The u-norm uses exponent alpha + 1/2 and the u'-norm exponent alpha,
    matching the solution-space pairing.  r0 must be positive, R and alpha
    nonnegative, and the radius must stay positive inside the trajectory
    window.  The weights r*phi(lambda) are formed a row block at a time, and
    every u row goes before any v row, so the first ``NormOverflowError`` is
    the one the whole (samples, modes) table gives.
    """
    if not (r0 > 0.0 and big_r >= 0.0):  # or NaN; _norms checks alpha
        raise PreconditionError("r0 must be positive and R nonnegative")
    radii = r0 - big_r * tr.t
    if np.any(radii <= 0.0):
        i = int(np.argmax(radii <= 0.0))
        raise PreconditionError(
            f"scale radius r0 - R*t = {radii[i]:.6g} <= 0 at t = {tr.t[i]:.6g}"
        )
    lam = tr.spectrum.lambdas
    phi_lam = weight_values(phi, lam)
    u_norms, v_norms = np.empty(tr.n_samples), np.empty(tr.n_samples)
    for x, a, out in ((tr.u, alpha + 0.5, u_norms), (tr.v, alpha, v_norms)):
        for rows in row_blocks(*x.shape, BLOCK_VALUES):
            with np.errstate(over="ignore"):
                weight = radii[rows, None] * phi_lam
            out[rows] = _norms(x[rows], lam, a, weight)
    return ScaleTrace(t=tr.t.copy(), radii=radii, u_norms=u_norms, v_norms=v_norms)


# ---------------------------------------------------------------------------
# degeneracy classification


class Degeneracy(str, Enum):
    STRICTLY_HYPERBOLIC = "strictly_hyperbolic"
    MILDLY_DEGENERATE = "mildly_degenerate"
    REALLY_DEGENERATE = "really_degenerate"


def hamiltonian_reachable_sigma(
    u0: SpectralVector, u1: SpectralVector, m: FunctionSpec
) -> float:
    """Upper bound for |A^(1/2)u|^2 along the flow, from energy conservation.

    Finds sigma with M(sigma) > H(0) by doubling; falls back to a fixed
    multiple of the initial value when M plateaus below the energy level.
    """
    sigma0 = a_half_norm_sq(u0)
    h0 = hamiltonian(SpectralState(t=0.0, u=u0, v=u1), m)
    big_m = antiderivative(m)
    hi = max(1.0, 2.0 * sigma0)
    for _ in range(60):
        if float(big_m(hi)) > h0:
            return hi
        hi *= 2.0
    return max(4.0 * sigma0, 1.0)


def classify_degeneracy(m: FunctionSpec, u0: SpectralVector, u1: SpectralVector) -> Degeneracy:
    """Classify the problem by m's grid infimum and datum value against MU_MIN.

    The grid is DEGENERACY_GRID_POINTS sigmas from 0 up to the
    energy-reachable one (see ``hamiltonian_reachable_sigma``).
    """
    hi = hamiltonian_reachable_sigma(u0, u1, m)
    values = np.asarray(m(np.linspace(0.0, hi, DEGENERACY_GRID_POINTS)), dtype=float)
    if float(np.min(values)) >= MU_MIN:
        return Degeneracy.STRICTLY_HYPERBOLIC
    if abs(float(m(a_half_norm_sq(u0)))) > MU_MIN:
        return Degeneracy.MILDLY_DEGENERATE
    return Degeneracy.REALLY_DEGENERATE


# ---------------------------------------------------------------------------
# uniqueness conditions


@dataclass(frozen=True)
class UniquenessReport:
    """The two scalar quantities deciding local uniqueness.

    ``as1`` is <A u0, u1>; ``as2`` is |A^(1/2)u1|^2 - m(|A^(1/2)u0|^2)|A u0|^2.
    Uniqueness is guaranteed when at least one of them is nonzero.
    """

    as1: float
    as2: float
    hp_main_holds: bool
    tol: float


def uniqueness_quantities(
    u0: SpectralVector, u1: SpectralVector, m: FunctionSpec
) -> tuple[float, float]:
    """The (as1, as2) pair; single source shared with the psi derivatives."""
    require_shared_spectrum(u0, u1)
    as1 = a_inner(u0, u1)
    as2 = a_half_norm_sq(u1) - float(m(a_half_norm_sq(u0))) * a_norm_sq(u0)
    return as1, as2


def uniqueness_condition(
    u0: SpectralVector,
    u1: SpectralVector,
    m: FunctionSpec,
) -> UniquenessReport:
    """``hp_main_holds`` is false when as1 or as2 is not finite."""
    as1, as2 = uniqueness_quantities(u0, u1, m)
    holds = math.isfinite(as1) and math.isfinite(as2) and abs(as1) + abs(as2) > HP_MAIN_TOL
    return UniquenessReport(as1=as1, as2=as2, hp_main_holds=bool(holds), tol=HP_MAIN_TOL)


# ---------------------------------------------------------------------------
# continuous dependence


@dataclass(frozen=True)
class DependenceReport:
    """Per family member, in order: the energy-space distance of its data
    from the limit's, the sup distance of its m from the limit's on the
    sigma grid, and the sup-in-time energy distance of the trajectories.
    ``status`` is the integrator status of the one ensemble that runs the
    limit and the family together."""

    data_distances: np.ndarray
    m_distances: np.ndarray
    deviations: np.ndarray
    continuity_constants: tuple
    fitted_slope_vs_data: float
    status: str


def energy_distance(
    tr_a: Trajectory, tr_b: Trajectory
) -> float:
    """sup over shared samples of the energy-space distance."""
    n = min(tr_a.n_samples, tr_b.n_samples)
    lam2 = tr_a.spectrum.lam2
    du = tr_a.u[:n] - tr_b.u[:n]
    dv = tr_a.v[:n] - tr_b.v[:n]
    dist_sq = du**2 @ lam2 + np.sum(dv**2, axis=1)
    return float(np.sqrt(np.max(dist_sq)))


def continuous_dependence_study(
    problems,
    limit,
    cfg: IntegratorConfig,
    t_end: float,
    omega: FunctionSpec | None = None,
) -> DependenceReport:
    """Integrate a family of perturbed problems against their limit.

    ``problems`` is a sequence of (m_n, u0_n, u1_n); ``limit`` the target
    triple.  Every nonlinearity's omega-continuity constant is estimated on
    one shared grid of DEPENDENCE_GRID_POINTS sigmas up to the reachable one
    (the hypothesis of the compactness statement); the report carries the
    sup-in-time energy distances with the input distances and a log-log rate.
    """
    # looked up per call: benchmarks/tracing.py rebinds conditions.estimate_continuity_constant
    from .conditions import estimate_continuity_constant

    m_lim, u0_lim, u1_lim = limit
    problems = [tuple(p) for p in problems]
    if omega is None:
        omega = modulus_power(1.0)
    hi = hamiltonian_reachable_sigma(u0_lim, u1_lim, m_lim)  # >= 1
    sigma_grid = np.linspace(0.0, hi, DEPENDENCE_GRID_POINTS)

    constants = [estimate_continuity_constant(m_lim, omega, sigma_grid)]
    for m_n, _, _ in problems:
        constants.append(estimate_continuity_constant(m_n, omega, sigma_grid))

    # one ensemble slot per distinct problem, the limit in slot 0: a
    # member's arithmetic depends on its position in the batch, so identical
    # problems are bit-identical only when they share a slot
    slots = [(m_lim, u0_lim, u1_lim)]
    for problem in problems:
        if problem not in slots:
            slots.append(problem)
    slot_of = [slots.index(problem) for problem in problems]
    states = [SpectralState(t=0.0, u=u0, v=u1) for _, u0, u1 in slots]
    try:
        trs = evolve(states, [m for m, _, _ in slots], cfg, t_end)
    except Exception as exc:
        slot = getattr(exc, "member", 0)
        if slot == 0:
            raise
        raise PreconditionError(
            f"integration failed for problem {slot_of.index(slot)}: {exc}"
        ) from exc
    tr_lim = trs[0]
    m_lim_vals = np.asarray(m_lim(sigma_grid), dtype=float)

    data_distances, m_distances, deviations = np.empty((3, len(problems)))
    for i, ((m_n, u0_n, u1_n), slot) in enumerate(zip(problems, slot_of)):
        du = u0_n.components - u0_lim.components
        dv = u1_n.components - u1_lim.components
        data_distances[i] = np.sqrt(u0_n.spectrum.lam2 @ du**2 + np.dot(dv, dv))
        m_distances[i] = np.max(np.abs(np.asarray(m_n(sigma_grid)) - m_lim_vals))
        deviations[i] = energy_distance(trs[slot], tr_lim)

    inputs = np.array([max(d, m) for d, m in zip(data_distances, m_distances)])
    return DependenceReport(
        data_distances=data_distances,
        m_distances=m_distances,
        deviations=deviations,
        continuity_constants=tuple(constants),
        fitted_slope_vs_data=log_log_slope(inputs, deviations),
        status=tr_lim.meta.status,
    )
