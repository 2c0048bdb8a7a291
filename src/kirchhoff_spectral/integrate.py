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
workloads (benchmarks/NOTES.md) the sample grid forces 35.2% of the accepted
steps on ``sweep`` and 5.4% on ``wide`` (traced in BENCH_9.json) and 92.3%
on ``scenarios`` (traced in BENCH_41.json), counted against the same
integrations with a single sample at the end.

First-same-as-last holds for accepted steps only: an accepted step's last
stage is the derivative at the new point and becomes the next step's first
stage, while a rejected step leaves the first stage alone, so its retry
starts from the derivative at the last accepted point.

The array loop is written against interpreter overhead, not arithmetic:
stage combinations go through ``ndarray.dot``, the tableau rows are
contiguous arrays and the nodes Python floats.  It allocates nothing per
step: the stage argument, its magnitude and the error scale live in buffers
made once per solve.  The propagating weights are row 7 of A plus a zero
weight for the last stage, whose node is 1, so stage 8's argument is the
candidate state; an accepted step swaps that buffer with the current state
instead of forming it again.  A non-finite last stage still makes the error
estimate non-finite, since its error weight is not zero, so that step is
rejected.  Every output is passed positionally to a ufunc bound to a local
name once per solve: ``multiply(buf, hs, buf)`` took about 0.7 us on 64
floats where ``buf *= hs`` and ``out=buf`` took 0.85 to 0.95 us (numpy
2.4.6, Xeon).  ``np.maximum`` keeps its ``out`` keyword, because numpy 2.4
deprecates a positional output there.  The step size and the tolerances
reach the ufuncs as 0-d arrays written once per attempt or per solve: a
ufunc converts a Python float operand on every call, which made
``buf *= h`` cost about 1.6 times ``buf *= hs`` on 64 floats, and the
product is the same float64 multiply either way.  The members' largest
error goes through ``np.maximum.reduce``, which skips the Python-level
wrapper of ``ndarray.max`` and propagates NaN the same way; a single
member's error needs no reduction and is read directly.  The blow-up test
reads the state's magnitude at its ``argmax``, which stops at the first NaN
as the reduction would.  The two state buffers' views in the caller's
shape are made once per solve and swap with their buffers, so every stage
call passes one of two fixed objects, overwritten in place.  An RHS may
keep views of its argument, such as its halves, while ``y is`` the object
it sliced them from; it must hold that object, not its ``id``, which a dead
view passes on to the next view made.  Both step loops give the same bits
as the plain loop kept as the reference in tests/test_integrate.py, so a
change here must keep trajectories and counters bit-identical; one that
changes the step sequence changes the bundled scenarios' artifact bytes.

The solver never raises for suspected blow-up, step-size underflow or a
non-finite derivative at the start: it returns the partial sample record
with a status marker, so escape experiments can observe the escape.  Both
loops run under ``np.errstate(over="ignore", invalid="ignore")``, ``rhs``
included: a non-finite stage fails the error test and a non-finite
derivative at the start stops the loop, so numpy's warnings on the way
there would only precede the honest status.

There are two step loops, and ``solve_to_samples`` computes their sample
times and step floor once.  The floor is 16 eps max(|t0|, |t_end|, 1): a
smaller step may give t + h == t on the grid, so a start far from t = 0
stops on ``step_underflow`` instead of stepping in place.  The array loop
takes every state: an ensemble, a (B, d) initial state, runs B members
as one system, and a vector state runs as an ensemble of one.  The stages
are one flat (9, B*d) matrix, so each stage combination is one ``dot``.
The error norm is the largest over the members of each member's RMS norm,
so every member meets its own tolerance, and the first-step guess is the
smallest over the members.  One member's blow-up, step underflow or
non-finite first derivative stops the whole ensemble, with one status,
message and sample count.  With two or more members the message names the
member that stopped it, by its row index in the state: the one holding the
component over the cap, the first with a non-finite derivative, or, for an
underflow after a step attempt, the one with the largest error in the last
attempt.  A member's bits depend on its batch-mates
through the shared step and on its column position in the stage ``dot``;
an ensemble of one matches the vector call bit for bit.

The pair loop (``pair=True``) steps one two-component state on Python
floats: the one-mode systems of ``dynamics.evolve`` and of the
reparametrized curve, where the array loop's cost is dispatch, about 90
numpy calls on two-element arrays a step.  It keeps the stage and error
``dot``s: OpenBLAS sums their terms as fused pairs, fma(a_j, x_j,
a_(j+1) * x_(j+1)), which Python follows only with ``math.fma`` (3.13).
Every other operation is the array loop's IEEE operation in its order,
(a . k) * h + y without a fused multiply-add included, with
``np.maximum``'s NaN rule in the error scale and ``argmax``'s in the
blow-up test.  Sharing the step-size rule, the floor, the landing
tolerance and the stop messages, the loops give the same steps, statuses,
messages and bits.  The pair loop took ``single_mode_cubic``'s evolve from
48 to 27 ms.
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

# 6th-order propagating weights: _A[7] and a zero weight for the last stage,
# which is evaluated at the new point.  The step loop relies on this.
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
_LANDING_TOL = 1e-12  # a step this share of max(1, |sample|) short lands on it

METHOD_NAME = "verner65"

# the stop messages of both step loops
_NONFINITE = "derivative not finite at t = {t:.6g}"
_UNDERFLOW = "step size {h:.3e} underflowed at t = {t:.6g}; stiffness or blow-up suspected"
_BLOW_UP = "state magnitude exceeded {cap:.3e} at t = {t:.6g}; suspected blow-up"
_MEMBER = "member {b}: {message}"  # an ensemble's stop, named by the member that made it


@dataclass
class IntegrationOutcome:
    """Sample record of one adaptive integration.

    ``y`` holds one row per sample in ``t``: a vector state per row, or for
    a (B, d) ensemble a (B, d) state, as a (samples, B, d) view.  An
    ensemble is one system, with one status, message and sample count; for
    B > 1 the message begins with the member that stopped it.
    """

    t: np.ndarray
    y: np.ndarray
    n_accepted: int
    n_rejected: int
    n_rhs: int
    status: str  # "completed" | "blow_up" | "step_underflow"
    message: str = ""

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
) -> float:
    """Hairer-style first step guess h0, from one right-hand-side call.

    ``y0`` and ``f0`` come in the caller's shape, a vector as one member and
    a (members, d) array as one member a row.  The trial step and the guess
    are each the smallest over the members, so one right-hand-side call
    serves all.  ``f0`` must be finite.  A trial step that is NaN, or 0 from
    an overflowed RMS, is returned without the call; a derivative at the
    trial step that is not finite gives a guess of 1e-3 times the trial
    step, for the error test to grow.
    """
    scale = abs_tol + rel_tol * np.abs(y0)

    def rms(x):
        with np.errstate(over="ignore"):  # an overflowed RMS reads inf
            return [math.sqrt(float(np.mean(row**2))) for row in np.atleast_2d(x)]

    d0 = rms(y0 / scale)
    d1 = rms(f0 / scale)
    # np.min: a NaN guess of any member is the NaN the step loop stops on
    h0 = np.min([1e-6 * span if (a < 1e-5 or b < 1e-5) else 0.01 * a / b
                 for a, b in zip(d0, d1)])
    h0 = min(float(h0), span)
    if not h0 > 0.0:
        return h0
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    guesses = []
    for d1_b, d2_b in zip(d1, rms((f1 - f0) / scale)):
        d2_b /= h0
        if not math.isfinite(d2_b):
            h1 = 1e-3 * h0
        elif max(d1_b, d2_b) <= 1e-15:
            h1 = max(1e-6 * span, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1_b, d2_b)) ** (1.0 / 6.0)
        guesses.append(min(100.0 * h0, h1, span))
    return min(guesses)


def _next_step(h_try: float, err: float, limit_growth: bool) -> float:
    """The step after an attempt of ``h_try`` whose error norm was ``err``."""
    if math.isfinite(err) and err > 0.0:
        factor = _SAFETY * err**_ERROR_EXPONENT
    elif err == 0.0:
        factor = _MAX_FACTOR
    else:  # overflowed stages
        factor = _MIN_FACTOR
    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    if limit_growth:
        factor = min(factor, 1.0)
    return h_try * factor


def _maximum(a: float, b: float) -> float:
    """``np.maximum`` of two floats: NaN if either is."""
    return a if a >= b or a != a else b


def solve_to_samples(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    samples: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    state_cap: float | None = None,
    *,
    pair: bool = False,
) -> IntegrationOutcome:
    """Integrate y' = rhs(t, y) recording the state at each sample time.

    ``samples`` must be finite and strictly increasing, with samples[0] the
    initial time.  Exceptions raised by ``rhs`` propagate to the caller; blow-up
    (when ``state_cap`` is set), step underflow and a non-finite derivative
    at the start instead truncate the record and set the status marker
    (``"step_underflow"`` for the last two).  Tolerances that are not
    positive and finite and a NaN or negative ``state_cap`` raise
    ``ValueError`` before any ``rhs`` call.

    A (B, d) ``y0`` is an ensemble of B members advanced as one system;
    ``rhs`` then maps (B, d) states to (B, d) derivatives, and the outcome's
    ``y`` is (samples, B, d).  ``rhs`` always receives the state in
    ``y0``'s shape, in a buffer the loop overwrites at the next stage, so it
    must not keep its argument's values; it may keep views of an argument
    it holds and reuse them while it is passed the same object.  It may
    return the same array on every call: the loop copies the result before
    it calls ``rhs`` again.

    ``pair=True`` takes the pair loop for a ``y0`` of two components:
    ``rhs`` then takes and returns (float, float) tuples, and the record is
    the array loop's for the same values, bit for bit.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least the initial time and one sample")
    if not np.isfinite(samples).all():
        raise ValueError("sample times must be finite")
    if np.any(np.diff(samples) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    if not (0.0 < rel_tol < math.inf and 0.0 < abs_tol < math.inf):
        raise ValueError("tolerances must be positive and finite")
    if state_cap is not None and not state_cap >= 0.0:  # or NaN
        raise ValueError("state_cap must be nonnegative")

    y = np.array(y0, dtype=float)
    if y.ndim > 2:
        raise ValueError("the state must be a vector or a (members, d) array")
    if y.size == 0:
        raise ValueError("the state needs at least one component")
    times = samples.tolist()
    t = times[0]
    t_end = times[-1]
    # the step floor of both loops: below it, t + h may round to t on the grid
    h_floor = 16.0 * np.finfo(float).eps * max(abs(t), abs(t_end), 1.0)
    if pair and y.shape != (2,):
        raise ValueError("a pair state is a vector of two components")
    with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
        if pair:
            return _solve_pair(rhs, y, samples, times, h_floor, rel_tol, abs_tol, state_cap)
        return _solve_array(rhs, y, samples, times, h_floor, rel_tol, abs_tol, state_cap)


def _solve_array(rhs, y, samples, times, h_floor, rel_tol, abs_tol,
                 state_cap) -> IntegrationOutcome:
    """The array loop of ``solve_to_samples``, given its float ``times`` and ``h_floor``."""
    t, t_end = times[0], times[-1]
    # the loop runs every state as an ensemble, a vector as one member, on
    # the flat (B*d,) vector; ``rhs`` sees views in the caller's shape
    shape = y.shape
    n_members, dim = y.reshape(-1, shape[-1]).shape
    y = y.reshape(-1)

    k = np.empty((9, y.size))
    k_in = k.reshape((9,) + shape)
    buf = np.empty(y.size)
    # the state buffers' views in the caller's shape, made once; ``rhs``
    # gets one of these two objects, and they swap with their buffers
    y_in, stage = y.reshape(shape), buf.reshape(shape)
    # (node, row of A, stages it combines, row it fills)
    stages = [(_C[i], _A[i - 1], k[:i], k_in[i]) for i in range(1, 9)]
    q = np.empty(y.size)
    q_rows = q.reshape(n_members, dim)
    # the candidate's magnitude and the error scale; an accepted step swaps
    # the first with abs_y, as it swaps buf, the candidate, with y
    abs_new, scale = np.empty(y.size), np.empty(y.size)
    err2 = np.empty(n_members)  # each member's squared error sum
    # the step and the tolerances reach the ufuncs as 0-d arrays
    hs, rel, tol = np.empty(()), np.array(float(rel_tol)), np.array(float(abs_tol))
    multiply, add, divide, absolute = np.multiply, np.add, np.divide, np.absolute
    n_rhs = 0  # the stages' calls, and those counted here

    def derivative(t: float, y: np.ndarray) -> np.ndarray:
        nonlocal n_rhs
        n_rhs += 1
        return rhs(t, y)

    def named(message: str, member) -> str:
        return message if n_members == 1 else _MEMBER.format(b=int(member), message=message)

    k_in[0] = derivative(t, y_in)
    finite = np.isfinite(k[0]).reshape(n_members, dim).all(axis=1)
    if not finite.all():
        return IntegrationOutcome(samples[:1].copy(), y_in[None], 0, 0, n_rhs, "step_underflow",
                                  named(_NONFINITE.format(t=t), finite.argmin()))
    h = _initial_step(derivative, t, y_in, k_in[0], t_end - t, rel_tol, abs_tol)
    grew_after_reject = False
    abs_y = np.abs(y)
    out = np.empty((samples.size, y.size))
    out[0] = y
    si = 1
    n_accepted = 0
    n_rejected = 0
    status, message = "completed", ""

    while si < samples.size:
        target = times[si]
        h_try = min(h, target - t)
        if not h_try >= h_floor:  # or NaN
            status, message = "step_underflow", _UNDERFLOW.format(h=h_try, t=t)
            if n_accepted + n_rejected:  # err2 holds the last attempt's errors
                message = named(message, err2.argmax())  # argmax stops at a NaN
            break

        # y + h * (a . k), evaluated as (a . k) * h + y: the same roundings;
        # the last stage's argument is the candidate state (see _B)
        hs[()] = h_try
        for c_i, a_i, k_head, k_i in stages:
            a_i.dot(k_head, buf)
            multiply(buf, hs, buf)
            add(buf, y, buf)
            k_i[...] = rhs(t + c_i * h_try, stage)
        n_rhs += 8
        absolute(buf, abs_new)
        np.maximum(abs_y, abs_new, out=scale)
        multiply(scale, rel, scale)
        add(scale, tol, scale)
        _E.dot(k, q)
        multiply(q, hs, q)
        divide(q, scale, q)
        multiply(q, q, q)
        add.reduce(q_rows, axis=1, out=err2)
        # a NaN member's error is NaN
        worst = err2[0] if n_members == 1 else np.maximum.reduce(err2)
        err = math.sqrt(float(worst) / dim)

        if math.isfinite(err) and err <= 1.0:
            y, buf, y_in, stage = buf, y, stage, y_in
            abs_y, abs_new = abs_new, abs_y
            t_new = t + h_try
            if t_new >= target - _LANDING_TOL * max(1.0, abs(target)):
                t_new = target
                out[si] = y
                si += 1
            t = t_new
            # first-same-as-last: only an accepted step's last stage is the
            # derivative at the new point; a rejected one leaves k[0] as is
            k[0] = k[8]
            n_accepted += 1
            limit_growth = grew_after_reject  # no growth right after a reject
            grew_after_reject = False
            if state_cap is not None:
                i = abs_y.argmax()
                if abs_y[i] > state_cap:
                    status = "blow_up"
                    message = named(_BLOW_UP.format(cap=state_cap, t=t), i // dim)
                    break
        else:
            n_rejected += 1
            grew_after_reject = True
            limit_growth = True
        h = _next_step(h_try, err, limit_growth)

    return IntegrationOutcome(samples[:si].copy(), out.reshape((-1,) + shape)[:si],
                              n_accepted, n_rejected, n_rhs, status, message)


def _solve_pair(rhs, y, samples, times, h_floor, rel_tol, abs_tol,
                state_cap) -> IntegrationOutcome:
    """The pair loop of ``solve_to_samples``, given its float ``times`` and ``h_floor``."""
    t, t_end = times[0], times[-1]
    n_rhs = 0  # the stages' calls, and those counted here

    def derivative(t: float, y: np.ndarray) -> np.ndarray:  # the array protocol
        nonlocal n_rhs
        n_rhs += 1
        return np.array(rhs(t, tuple(y.tolist())), dtype=float)

    k, buf, q = np.empty((9, 2)), np.empty(2), np.empty(2)
    k0, k8 = k[0], k[8]
    stages = [(_C[i], _A[i - 1].dot, k[:i], k[i]) for i in range(1, 9)]
    k0[...] = derivative(t, y)
    y0, y1 = y.tolist()
    out = [(y0, y1)]
    status, message, n_accepted, n_rejected = "completed", "", 0, 0
    if not np.isfinite(k0).all():
        return IntegrationOutcome(samples[:1].copy(), y[None], 0, 0, n_rhs, "step_underflow",
                                  _NONFINITE.format(t=t))
    h = _initial_step(derivative, t, y, k0, t_end - t, rel_tol, abs_tol)
    grew_after_reject = False
    ay0, ay1 = abs(y0), abs(y1)

    while len(out) < len(times):
        target = times[len(out)]
        h_try = min(h, target - t)
        if not h_try >= h_floor:  # or NaN
            status, message = "step_underflow", _UNDERFLOW.format(h=h_try, t=t)
            break
        for c_i, a_i_dot, k_head, k_i in stages:
            b0, b1 = a_i_dot(k_head, buf).tolist()
            s0, s1 = b0 * h_try + y0, b1 * h_try + y1  # the last is the candidate
            k_i[...] = rhs(t + c_i * h_try, (s0, s1))
        n_rhs += 8
        q0, q1 = _E.dot(k, q).tolist()
        e0 = q0 * h_try / (_maximum(ay0, abs(s0)) * rel_tol + abs_tol)
        e1 = q1 * h_try / (_maximum(ay1, abs(s1)) * rel_tol + abs_tol)
        err = math.sqrt((e0 * e0 + e1 * e1) / 2)

        if math.isfinite(err) and err <= 1.0:
            y0, y1, ay0, ay1 = s0, s1, abs(s0), abs(s1)
            t += h_try
            if t >= target - _LANDING_TOL * max(1.0, abs(target)):
                t = target
                out.append((y0, y1))
            k0[...] = k8
            n_accepted += 1
            limit_growth, grew_after_reject = grew_after_reject, False
            if state_cap is not None and _maximum(ay0, ay1) > state_cap:
                status, message = "blow_up", _BLOW_UP.format(cap=state_cap, t=t)
                break
        else:
            n_rejected += 1
            grew_after_reject = limit_growth = True
        h = _next_step(h_try, err, limit_growth)

    return IntegrationOutcome(samples[: len(out)].copy(), np.array(out), n_accepted,
                              n_rejected, n_rhs, status, message)
