"""Galerkin mode dynamics of the nonlinear string equation.

The retained modes obey u_k'' = -m(sum_j lambda_j^2 u_j^2) lambda_k^2 u_k.
For data supported on the retained modes this truncation is the exact
dynamics, because the coupling runs only through the single scalar
sum_j lambda_j^2 u_j^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NegativeNonlinearityError,
    NondegeneracyError,
    PreconditionError,
)
from .functions import FunctionSpec, antiderivative, scalar_callable
from .integrate import METHOD_NAME, solve_to_samples
from .spectrum import SpectralVector, Spectrum, a_weighted_sum, require_shared_spectrum

BLOWUP_CAP = 1e12
DEGENERATE_TOL = 1e-12
MODULUS_WINDOWS = 8  # coefficient_trace windows of 1, 2, 4, ... sample steps
SAMPLE_INTERVALS = 1000  # sample intervals of a run without dense_output_dt


@dataclass(frozen=True)
class SpectralState:
    """Snapshot (t, u, u') of the mode system."""

    t: float
    u: SpectralVector
    v: SpectralVector

    def __post_init__(self):
        require_shared_spectrum(self.u, self.v)
        if not math.isfinite(self.t):
            raise PreconditionError("state time must be finite")

    @property
    def spectrum(self) -> Spectrum:
        return self.u.spectrum


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    dense_output_dt: float | None = None

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise PreconditionError("tolerances must be positive and finite")
        if self.dense_output_dt is not None and not self.dense_output_dt > 0.0:
            raise PreconditionError("dense_output_dt must be positive")


@dataclass(frozen=True)
class IntegratorMeta:
    """Run record attached to every trajectory."""

    method: str
    rel_tol: float
    abs_tol: float
    n_accepted: int
    n_rejected: int
    n_rhs: int
    status: str
    message: str
    lambda_max_span: float
    hamiltonian_drift: float
    degenerate_spans: tuple

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped sample record of one integration.

    ``sigma`` = |A^(1/2)u|^2 and ``coefficient`` = m(sigma), one value a
    sample, are formed once by ``evolve``; the series helpers read them.
    """

    spectrum: Spectrum
    t: np.ndarray
    u: np.ndarray  # (n_samples, n_modes)
    v: np.ndarray
    sigma: np.ndarray  # (n_samples,)
    coefficient: np.ndarray
    meta: IntegratorMeta

    def __post_init__(self):
        if self.t.ndim != 1 or self.u.shape != (self.t.size, self.spectrum.n):
            raise PreconditionError("inconsistent trajectory arrays")
        if self.v.shape != self.u.shape:
            raise PreconditionError("u and v sample arrays must match")
        if self.sigma.shape != self.t.shape or self.coefficient.shape != self.t.shape:
            raise PreconditionError("sigma and coefficient need one value per sample")
        if self.t.size >= 2 and np.any(np.diff(self.t) <= 0.0):
            raise PreconditionError("timestamps must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return int(self.t.size)


def sample_intervals(span: float, dt: float | None) -> int:
    """Intervals of the sample grid over ``span``: round(span / dt), at least one.

    Without ``dt`` the grid has SAMPLE_INTERVALS intervals.
    """
    if dt is None:
        return SAMPLE_INTERVALS
    return max(1, int(round(span / dt)))


def sample_grid(t0: float, t_end: float, dt: float | None) -> np.ndarray:
    """Equispaced sample times from t0 to t_end, about ``dt`` apart."""
    return np.linspace(t0, t_end, sample_intervals(t_end - t0, dt) + 1)


def _degenerate_spans(t: np.ndarray, c: np.ndarray) -> tuple:
    """Contiguous sample spans where the coefficient sits below the floor."""
    # run edges of the padded mask alternate: a start, then one past its end
    edges = np.flatnonzero(np.diff(np.concatenate([[False], c < DEGENERATE_TOL, [False]])))
    return tuple((float(t[i]), float(t[j - 1])) for i, j in zip(edges[::2], edges[1::2]))


def _negative_m(sigma: float, c: float, t: float,
                member: int | None = None) -> NegativeNonlinearityError:
    """The error for m(sigma) = c < 0 at time t, naming an ensemble's member."""
    text = f"m({sigma:.6g}) = {c:.6g} < 0 at t = {t:.6g}"
    if member is not None:
        text += f" in ensemble member {member}"
    return NegativeNonlinearityError(text)


def evolve(
    init: SpectralState | Sequence[SpectralState],
    m: FunctionSpec | Sequence[FunctionSpec],
    cfg: IntegratorConfig,
    t_end: float,
) -> Trajectory | list[Trajectory]:
    """Integrate y = (u, u') from ``init`` to ``t_end`` on the sample grid.

    The nonlinearity is checked on the fly: a negative value aborts with
    ``NegativeNonlinearityError``.  Suspected blow-up (state beyond
    ``BLOWUP_CAP``) and step underflow return the partial trajectory with a
    status marker instead of raising.

    Equal-length sequences of states (on one spectrum, at one start time)
    and of nonlinearities run as one ensemble through one shared step loop
    and give a list with one trajectory per member.  The ensemble is one
    system: one member's blow-up or step underflow stops them all, so every
    member carries the loop's one status, message, sample times and step
    counters, with its own drift and degenerate spans.  An error raised for
    one member, a negative m, an undefined antiderivative or any other
    failure of its m, carries its index as ``member``.  A member's bits
    depend on its batch-mates and its position, so two identical members
    need not match bit for bit; a one-member ensemble matches the solo call
    bit for bit.

    One array closure is the right-hand side of a solo (2n,) vector and of a
    (members, 2n) ensemble: sigma, the velocity copy and the -c * lam2 * u
    tail are written once, and only the m step forks, one float call of m
    on a vector's ddot, or a loop over an ensemble's members that writes
    each -c through a memoryview, no numpy call a member, inside one ``try``
    that tags a failure with its ``member``.  At N = 1 a solo state takes a
    closure on a (u, v) pair of Python floats and the pair step loop of
    ``solve_to_samples``, with the array closure's bits: at n = 1 every
    operation, sigma's one-term dot included, is one IEEE operation in the
    same order.  For n > 1 a BLAS dot sums in an order Python cannot follow,
    so those states, and every ensemble, keep the array closure and loop.
    """
    solo = isinstance(init, SpectralState)
    states = [init] if solo else list(init)
    one_m = isinstance(m, FunctionSpec)
    ms = [m] if one_m else list(m)
    if not states or len(ms) != len(states) or one_m != solo:
        raise PreconditionError(
            "need one nonlinearity per state, a FunctionSpec for a state and a "
            f"sequence for a sequence; got {len(states)} "
            f"{'state' if solo else 'states'} and {len(ms)} nonlinearities"
        )
    first = states[0]
    if any(s.spectrum != first.spectrum or s.t != first.t for s in states):
        raise PreconditionError("ensemble states must share one spectrum and start time")
    if not first.t < t_end < math.inf:  # or NaN
        raise PreconditionError("t_end must be finite and exceed the initial time")
    spec = first.spectrum
    n = spec.n
    y0 = np.array([np.concatenate([s.u.components, s.v.components]) for s in states])
    # sigma's weights: a mode whose data are zero in every member stays zero,
    # so its weight is 0 and an overflowing lambda**2 never meets it (inf * 0)
    with np.errstate(over="ignore"):
        lam2 = np.where(y0.reshape(-1, 2, n).any(axis=(0, 1)), spec.lam2, 0.0)
    # built first: an undefined antiderivative fails before any integration
    m_ats, big_ms = [], []
    for b, m_b in enumerate(ms):
        try:
            m_ats.append(scalar_callable(m_b))
            big_ms.append(antiderivative(m_b))
        except Exception as exc:
            if not solo:
                exc.member = b
            raise
    m_at = m_ats[0]
    # one output, filled and returned by every call (the solver copies it);
    # -c reaches the ufunc as an array, 0-d for one state, a column for more
    out = np.empty((len(states), 2 * n))
    squares = np.empty((len(states), n))
    neg_c = np.empty((len(states), 1))
    neg_cv = memoryview(neg_c).cast("B").cast("d")  # an ensemble's -c, one float a member
    if solo:
        out, squares, neg_c = out[0], squares[0], neg_c.reshape(())
    vel, accel = out[..., :n], out[..., n:]
    multiply = np.multiply  # positional outputs, as in integrate
    # the last argument and its halves, sliced again only for a new object
    # (the solver passes one of two fixed views; see integrate)
    held = u = v = None

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        nonlocal held, u, v
        if y is not held:
            held, u, v = y, y[..., :n], y[..., n:]
        # a ddot for a vector, a row-by-row gemv for an ensemble
        sigma = multiply(u, u, squares).dot(lam2)
        if solo:
            c = m_at(float(sigma))
            if c < 0.0:
                raise _negative_m(sigma, c, t)
            neg_c[()] = -c
        else:
            try:
                for b, (m_at_b, sigma_b) in enumerate(zip(m_ats, sigma.tolist())):
                    c = m_at_b(sigma_b)
                    if c < 0.0:
                        raise _negative_m(sigma_b, c, t, b)
                    neg_cv[b] = -c
            except Exception as exc:
                exc.member = b
                raise
        vel[...] = v
        multiply(lam2, neg_c, accel)  # -c * lam2 * u, in that order
        multiply(accel, u, accel)
        return out

    lam2_0 = float(lam2[0])

    def one_mode_rhs(t: float, y: tuple) -> tuple:
        # rhs on a (u, v) pair of Python floats: at n = 1 sigma's dot is one
        # product, so each operation here is the IEEE operation rhs makes, in
        # the same order, and the bits are rhs's
        u, v = y
        sigma = lam2_0 * (u * u)
        c = m_at(sigma)
        if c < 0.0:
            raise _negative_m(sigma, c, t)
        return v, (lam2_0 * -c) * u

    pair = solo and n == 1
    res = solve_to_samples(
        one_mode_rhs if pair else rhs,
        y0[0] if solo else y0,
        sample_grid(first.t, t_end, cfg.dense_output_dt),
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        state_cap=BLOWUP_CAP,
        pair=pair,
    )
    done = []
    for b, (m_b, big_m) in enumerate(zip(ms, big_ms)):
        y_b = res.y if solo else res.y[:, b]
        u_b, v_b = y_b[:, :n], y_b[:, n:]
        try:
            sigma = u_b**2 @ lam2
            c_series = np.asarray(m_b(sigma), dtype=float)
            drift = relative_drift(hamiltonian_values(sigma, v_b, big_m))
        except Exception as exc:
            if not solo:
                exc.member = b
            raise
        meta = IntegratorMeta(
            method=METHOD_NAME,
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
            n_accepted=res.n_accepted,
            n_rejected=res.n_rejected,
            n_rhs=res.n_rhs,
            status=res.status,
            message=res.message,
            lambda_max_span=spec.lambda_max * (t_end - first.t),
            hamiltonian_drift=drift,
            degenerate_spans=_degenerate_spans(res.t, c_series),
        )
        done.append(Trajectory(spectrum=spec, t=res.t, u=u_b, v=v_b, sigma=sigma,
                               coefficient=c_series, meta=meta))
    return done[0] if solo else done


# ---------------------------------------------------------------------------
# energies and invariants


def hamiltonian(state: SpectralState, m: FunctionSpec) -> float:
    """|u'|^2 + M(|A^(1/2)u|^2) with M the antiderivative, M(0) = 0."""
    sigma = state.u.components[np.newaxis] ** 2 @ state.spectrum.lam2
    v = state.v.components[np.newaxis]
    return float(hamiltonian_values(sigma, v, antiderivative(m))[0])


def hamiltonian_values(sigma: np.ndarray, v: np.ndarray, big_m: Callable) -> np.ndarray:
    """|u'|^2 + M(sigma) per row, for sigma = |A^(1/2)u|^2 and big_m = antiderivative(m)."""
    return np.sum(v**2, axis=1) + np.asarray(big_m(sigma), dtype=float)


def hamiltonian_series(tr: Trajectory, m: FunctionSpec) -> np.ndarray:
    return hamiltonian_values(tr.sigma, tr.v, antiderivative(m))


def higher_order_series(tr: Trajectory) -> np.ndarray:
    """|A^(1/4)u'|^2 + |A^(3/4)u|^2 = sum lambda v^2 + sum lambda^3 u^2, per sample.

    A mode that is zero at every sample adds nothing (see ``a_weighted_sum``).
    """
    return tr.v**2 @ tr.spectrum.lambdas + a_weighted_sum(tr.spectrum, 3, tr.u**2)


def pohozaev_series(tr: Trajectory, a: float, b: float) -> np.ndarray:
    """Second-order invariant of the nonlinearity (a + b*sigma)**-2, per sample.

    With D = a + b*|A^(1/2)u|^2 this is

        D |A^(1/2)u'|^2 + |Au|^2 / D - (b/4) (d/dt |A^(1/2)u|^2)^2,

    where the last factor is 2<A u, u'> (differentiating along the flow
    makes the quantity exactly constant; this fixes the coefficient on the
    cross term).  Requires the nondegeneracy D > 0.  A mode that is zero at
    every sample adds nothing (see ``a_weighted_sum``).
    """
    den = a + b * tr.sigma
    if np.any(den <= 0.0):
        i = int(np.argmax(den <= 0.0))
        raise NondegeneracyError(
            f"a + b*|A^(1/2)u|^2 = {den[i]:.6g} <= 0 at t = {tr.t[i]:.6g}"
        )
    half_v = a_weighted_sum(tr.spectrum, 2, tr.v**2)
    au_sq = a_weighted_sum(tr.spectrum, 4, tr.u**2)
    cross = a_weighted_sum(tr.spectrum, 2, tr.u * tr.v)
    return den * half_v + au_sq / den - b * cross**2


def relative_drift(series: np.ndarray) -> float:
    """max |x_i - x_0| / |x_0|, the drift diagnostic used throughout."""
    series = np.asarray(series, dtype=float)
    ref = abs(float(series[0]))
    span = float(np.max(np.abs(series - series[0])))
    return span / ref if ref > 0.0 else span


# ---------------------------------------------------------------------------
# coefficient trace


@dataclass(frozen=True)
class CoefficientTrace:
    """Modulus profile of the coefficient c(t) = m(|A^(1/2)u(t)|^2)."""

    modulus_deltas: np.ndarray
    modulus_values: np.ndarray


def coefficient_trace(tr: Trajectory) -> CoefficientTrace:
    """Profile of max |c(t) - c(s)| over |t - s| <= delta on ``tr.coefficient``."""
    c = tr.coefficient
    n = tr.n_samples
    deltas = []
    values = []
    if n >= 2:
        dt = float(tr.t[1] - tr.t[0])
        k = 1
        for _ in range(MODULUS_WINDOWS):
            if k >= n:
                break
            window = np.lib.stride_tricks.sliding_window_view(c, k + 1)
            values.append(float(np.max(window.max(axis=1) - window.min(axis=1))))
            deltas.append(k * dt)
            k *= 2
    return CoefficientTrace(modulus_deltas=np.asarray(deltas), modulus_values=np.asarray(values))
