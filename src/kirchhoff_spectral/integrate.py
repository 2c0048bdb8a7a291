"""Adaptive embedded Runge-Kutta core for the oscillatory mode systems.

The propagating method is Verner's "most robust" 6(5) pair: nine stages,
6th-order solution with an embedded 5th-order error estimate, first-same-as-
last so an accepted step costs eight right-hand-side evaluations.  The
higher order buys the accuracy headroom these acceptance tolerances need;
a 5(4) pair at the same tolerances leaves no margin against the 1e-8
component-error budget on [0, 1] (measured, not guessed).

Dense output is realized by capping the step so the solver lands exactly on
every requested sample time.  Samples are therefore full-accuracy step
points, there is no interpolation error term, and rerunning a configuration
reproduces the artifact bytes.  The cap often binds: on the benchmark's
workloads (benchmarks/NOTES.md) the sample grid forces 33% of the accepted
steps on ``sweep``, 5.5% on ``wide`` and 91% on ``scenarios``, counted
against the same integrations with a single sample at the end.

First-same-as-last holds for accepted steps only: an accepted step's last
stage is the derivative at the new point and becomes the next step's first
stage, while a rejected step leaves the first stage alone, so its retry
starts from the derivative at the last accepted point.

The step loop is written against interpreter overhead, not arithmetic:
stage combinations go through ``ndarray.dot`` and in-place ufuncs, the
tableau rows are contiguous arrays and the nodes Python floats.  It issues
the same floating-point operations in the same order as the plain loop kept
as the reference in tests/test_integrate.py, so a change here must keep
trajectories and counters bit-identical; one that changes the step
sequence changes the bundled scenarios' artifact bytes.

The driver never raises for suspected blow-up or step-size underflow: it
returns the partial sample record with a status marker, so escape
experiments can observe the escape.

An ensemble, a (B, d) initial state, runs B members through the same loop
with one shared step.  The stages stay one flat (9, B*d) matrix, so each
stage combination is still one ``dot``.  The error norm is the largest over
the members of each member's RMS norm, so every member meets its own
tolerance, and the first-step guess is the smallest over the members.  A
member that blows up or underflows is frozen with its own partial record
and status while the others go on.  A member's bits depend on its batch-
mates through the shared step and on its column position in the stage
``dot``; an ensemble of one matches the vector call bit for bit.  The
vector (1-D) path is unchanged: same operations, same counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Verner 6(5) extended Butcher tableau.  The step loop reads the nodes as
# Python floats and each row of A as its own contiguous array.
_C = (0.0, 9 / 50, 1 / 6, 1 / 4, 53 / 100, 3 / 5, 4 / 5, 1.0, 1.0)

_A_ROWS = (
    (9 / 50,),
    (29 / 324, 25 / 324),
    (1 / 16, 0.0, 3 / 16),
    (79129 / 250000, 0.0, -261237 / 250000, 19663 / 15625),
    (1336883 / 4909125, 0.0, -25476 / 30875, 194159 / 185250, 8225 / 78546),
    (
        -2459386 / 14727375,
        0.0,
        19504 / 30875,
        2377474 / 13615875,
        -6157250 / 5773131,
        902 / 735,
    ),
    (
        2699 / 7410,
        0.0,
        -252 / 1235,
        -1393253 / 3993990,
        236875 / 72618,
        -135 / 49,
        15 / 22,
    ),
    (11 / 144, 0.0, 0.0, 256 / 693, 0.0, 125 / 504, 125 / 528, 5 / 72),
)

# _A[i - 1] combines stages 0..i-1 into the argument of stage i
_A = tuple(np.array(row) for row in _A_ROWS)

# 6th-order propagating weights; the last stage is evaluated at the new point.
_B = np.array([11 / 144, 0.0, 0.0, 256 / 693, 0.0, 125 / 504, 125 / 528, 5 / 72, 0.0])
# embedded 5th-order weights
_B_HAT = np.array(
    [
        28 / 477,
        0.0,
        0.0,
        212 / 441,
        -312500 / 366177,
        2125 / 1764,
        0.0,
        -2105 / 35532,
        2995 / 17766,
    ]
)
_E = _B - _B_HAT

_ERROR_EXPONENT = -1.0 / 6.0
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

METHOD_NAME = "verner65"


@dataclass
class IntegrationOutcome:
    """Sample record of one adaptive integration.

    An ensemble's outcome carries the shared loop's step counters and
    ``members``, one record per member with its own samples, status and
    message; its own ``t`` and ``y`` are empty and its ``status`` is
    ``"ensemble"``.
    """

    t: np.ndarray
    y: np.ndarray
    n_accepted: int
    n_rejected: int
    n_rhs: int
    status: str  # "completed" | "blow_up" | "step_underflow" | "ensemble"
    message: str = ""
    members: tuple = ()

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def _initial_step(
    rhs: Callable,
    t0: float,
    y0: np.ndarray,
    f0: np.ndarray,
    span: float,
    rel_tol: float,
    abs_tol: float,
    live: np.ndarray | None = None,
) -> tuple[float, int]:
    """Hairer-style first step guess; returns (h0, extra rhs evaluations).

    For an ensemble, ``y0`` and ``f0`` are flat with one row per entry of
    the boolean ``live`` mask.  The trial step and the guess are each the
    smallest over the live members, so one right-hand-side call serves all.
    """
    rows = 1 if live is None else live.size
    members = range(1) if live is None else np.flatnonzero(live)
    scale = abs_tol + rel_tol * np.abs(y0)

    def rms(x):
        x = x.reshape(rows, -1)
        return [math.sqrt(float(np.mean(x[b] ** 2))) for b in members]

    d0 = rms(y0 / scale)
    d1 = rms(f0 / scale)
    # a member whose derivative is NaN sets no step for the others; if every
    # member's is, the guess is NaN, which the step loop stops on
    h0s = [
        1e-6 * span if (a < 1e-5 or b < 1e-5) else 0.01 * a / b
        for a, b in zip(d0, d1)
    ]
    h0 = min((h for h in h0s if not math.isnan(h)), default=math.nan)
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    guesses = []
    for d1_b, d2_b in zip(d1, rms((f1 - f0) / scale)):
        d2_b /= h0
        if max(d1_b, d2_b) <= 1e-15:
            h1 = max(1e-6 * span, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1_b, d2_b)) ** (1.0 / 6.0)
        guesses.append(min(100.0 * h0, h1, span))
    return min(guesses), 1


class _Ensemble:
    """Member bookkeeping of a (B, d) state in the shared step loop.

    The loop works on flat (B*d,) vectors; ``rhs`` hands the user's
    right-hand side the (B, d) view.  A stopped member is frozen: its
    derivative rows read zero, so its state, stages and error stay put
    while the others go on.
    """

    def __init__(self, rhs: Callable, shape: tuple, n_samples: int):
        self.shape = shape
        self.live = np.ones(shape[0], dtype=bool)
        self.status = ["completed"] * shape[0]
        self.message = [""] * shape[0]
        self.reached = [n_samples] * shape[0]
        self.err2 = np.zeros(shape[0])  # each member's squared error sum, last attempt
        self._user_rhs = rhs
        self._all_live = True

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        out = self._user_rhs(t, y.reshape(self.shape))
        if not self._all_live:
            out = np.where(self.live[:, None], out, 0.0)
        return out.reshape(-1)

    def error(self, q: np.ndarray) -> float:
        """Largest member RMS of the squared scaled error ``q``."""
        self.err2 = np.add.reduce(q.reshape(self.shape), axis=1)
        return math.sqrt(float(self.err2.max()) / self.shape[1])

    def over(self, abs_y: np.ndarray, cap: float) -> np.ndarray:
        """The live members with a component beyond ``cap``."""
        return self.live & (abs_y.reshape(self.shape).max(axis=1) > cap)

    def worst(self) -> np.ndarray:
        """The live members with the largest error at the last attempt."""
        err2 = np.where(np.isnan(self.err2), np.inf, self.err2)
        err2 = np.where(self.live, err2, -np.inf)
        return err2 == err2.max()

    def stop(self, which: np.ndarray, status: str, message: str, si: int, f):
        """Freeze the members in ``which``; ``f`` is the flat derivative row."""
        for b in np.flatnonzero(which):
            self.status[b] = status
            self.message[b] = message
            self.reached[b] = si
        self.live &= ~which
        self._all_live = False
        f.reshape(self.shape)[which] = 0.0

    def outcome(self, samples, out, n_accepted, n_rejected, n_rhs):
        rows = out.reshape((samples.size,) + self.shape)
        members = tuple(
            IntegrationOutcome(
                t=samples[:r].copy(),
                y=rows[:r, b].copy(),
                n_accepted=n_accepted,
                n_rejected=n_rejected,
                n_rhs=n_rhs,
                status=self.status[b],
                message=self.message[b],
            )
            for b, r in enumerate(self.reached)
        )
        return IntegrationOutcome(
            t=samples[:0],
            y=rows[:0],
            n_accepted=n_accepted,
            n_rejected=n_rejected,
            n_rhs=n_rhs,
            status="ensemble",
            members=members,
        )


def solve_to_samples(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    samples: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    max_step: float = math.inf,
    state_cap: float | None = None,
) -> IntegrationOutcome:
    """Integrate y' = rhs(t, y) recording the state at each sample time.

    ``samples`` must be strictly increasing, with samples[0] the initial
    time.  Exceptions raised by ``rhs`` propagate to the caller; blow-up
    (when ``state_cap`` is set) and step underflow instead truncate the
    record and set the status marker.

    A (B, d) ``y0`` is an ensemble of B members advanced with one shared
    step; ``rhs`` then maps (B, d) states to (B, d) derivatives.  A member
    that blows up or underflows stops alone, with its own record and
    status in ``members`` of the outcome.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least the initial time and one sample")
    if np.any(np.diff(samples) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be positive")

    y = np.array(y0, dtype=float)
    if y.ndim > 2:
        raise ValueError("the state must be a vector or a (members, d) array")
    ens = None
    dim = y.size
    if y.ndim == 2:
        ens = _Ensemble(rhs, y.shape, samples.size)
        rhs = ens.rhs
        y = y.reshape(-1)
    if y.size == 0:
        raise ValueError("the state needs at least one component")

    times = samples.tolist()
    t = times[0]
    t_end = times[-1]

    f = rhs(t, y)
    n_rhs = 1
    live = None if ens is None else ens.live
    h, extra = _initial_step(rhs, t, y, f, t_end - t, rel_tol, abs_tol, live)
    n_rhs += extra
    h = min(h, max_step)

    k = np.empty((9, y.size))
    k[0] = f
    # (node, row of A, stages it combines, row it fills) for stages 1..8
    stages = [(_C[i], _A[i - 1], k[:i], k[i]) for i in range(1, 9)]
    abs_y = np.abs(y)
    out = np.empty((samples.size, y.size))
    out[0] = y
    si = 1
    n_accepted = 0
    n_rejected = 0
    status = "completed"
    message = ""
    h_floor_scale = 16.0 * np.finfo(float).eps * max(abs(t_end), 1.0)
    grew_after_reject = False

    while si < samples.size:
        target = times[si]
        h_try = min(h, target - t)
        if not h_try >= h_floor_scale:  # or NaN, from a NaN first derivative
            status = "step_underflow"
            message = (
                f"step size {h_try:.3e} underflowed at t = {t:.6g}; "
                f"stiffness or blow-up suspected"
            )
            if ens is None:
                break
            # a collapsed step stops the members whose error set it; a sample
            # gap below the floor, or a NaN step, stops every member alike
            stuck = ens.worst() if h < h_floor_scale else ens.live.copy()
            ens.stop(stuck, status, message, si, k[0])
            if not ens.live.any():
                break
            h, extra = _initial_step(rhs, t, y, k[0], t_end - t, rel_tol, abs_tol, live)
            n_rhs += extra
            h = min(h, max_step)
            grew_after_reject = False
            continue

        # y + h * (a . k), evaluated as (a . k) * h + y: the same roundings
        for c_i, a_i, k_head, k_i in stages:
            stage = a_i.dot(k_head)
            stage *= h_try
            stage += y
            k_i[...] = rhs(t + c_i * h_try, stage)
        n_rhs += 8
        y_new = _B.dot(k)
        y_new *= h_try
        y_new += y
        abs_new = np.abs(y_new)
        scale = np.maximum(abs_y, abs_new)
        scale *= rel_tol
        scale += abs_tol
        q = _E.dot(k)
        q *= h_try
        q /= scale
        q *= q
        if ens is None:
            err = math.sqrt(float(np.add.reduce(q)) / dim)
        else:
            err = ens.error(q)

        if math.isfinite(err) and err <= 1.0:
            t_new = t + h_try
            if t_new >= target - 1e-12 * max(1.0, abs(target)):
                t_new = target
                out[si] = y_new
                si += 1
            t = t_new
            y = y_new
            abs_y = abs_new
            # first-same-as-last: only an accepted step's last stage is the
            # derivative at the new point; a rejected one leaves k[0] as is
            k[0] = k[8]
            n_accepted += 1
            limit_growth = grew_after_reject  # no growth right after a reject
            grew_after_reject = False
            if state_cap is not None and float(abs_y.max()) > state_cap:
                status = "blow_up"
                message = (
                    f"state magnitude exceeded {state_cap:.3e} at t = {t:.6g}; "
                    f"suspected blow-up"
                )
                if ens is None:
                    break
                ens.stop(ens.over(abs_y, state_cap), status, message, si, k[0])
                if not ens.live.any():
                    break
        else:
            n_rejected += 1
            grew_after_reject = True
            limit_growth = True

        if math.isfinite(err) and err > 0.0:
            factor = _SAFETY * err**_ERROR_EXPONENT
        elif err == 0.0:
            factor = _MAX_FACTOR
        else:  # overflowed stages
            factor = _MIN_FACTOR
        factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if limit_growth:
            factor = min(factor, 1.0)
        h = min(h_try * factor, max_step)

    if ens is not None:
        return ens.outcome(samples, out, n_accepted, n_rejected, n_rhs)
    return IntegrationOutcome(
        t=samples[:si].copy(),
        y=out[:si],
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
        status=status,
        message=message,
    )
