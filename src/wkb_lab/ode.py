"""Explicit ODE integration: adaptive Dormand-Prince 5(4).

The solver is the workhorse behind samplers, likelihood solves and error
propagation.  It integrates in either time direction (the direction is
taken from the sign of ``t1 - t0``), controls the local error per step
against ``tol + tol * |y|`` and uses a PI controller for the step size.

A problem may also give a stage hook, which learns every time at which the
right-hand side is about to be evaluated before any of those evaluations:
``(t0,)`` before the first one, the initial-step probe's time before the
probe, and before each step attempt from t with signed size h its five
distinct stage times t + c h, c = 1/5, 3/10, 4/5, 8/9, 1 (the last two of
the seven stages share t + h, and the first is the previous step's last).
They are the same floats the right-hand side then receives, so a
right-hand side whose coefficients depend on t alone can compute them for
a whole attempt in one stacked call and look them up by time.  The hook
changes no step or its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFinite, StepUnderflow

Rhs = Callable[[float, np.ndarray], np.ndarray]
StageHook = Callable[[tuple], None]

# Dormand-Prince 5(4) tableau (FSAL: stage 7 equals the next step's stage 1).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)  # floats: stage times stay floats
_C_ATTEMPT = _C[1:6]  # the distinct stage times an attempt evaluates
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: coefficients of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# 4th-order continuous extension (Hairer-Norsett-Wanner I, II.6): over a step
# from y at t with stages k, y(t + theta h) = y + h (k.T @ _P) @ [theta, .., theta^4]
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_POWERS = np.arange(1, 5)  # theta ** _POWERS = [theta, .., theta^4]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
# A state entry beyond this magnitude is a genuine blow-up: with relative
# error control a diverging solution would otherwise be chased indefinitely.
_MAX_NORM = 1e8


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless ``tol`` is positive and finite."""
    if not 0.0 < tol < math.inf:  # also rejects NaN
        raise ValueError(f"{name} must be positive and finite")


@dataclass
class OdeProblem:
    """Initial-value problem ``dy/dt = rhs(t, y)`` from t0 to t1, solved to
    the absolute and relative local-error tolerance ``tol``; ``stage_hook``
    receives the times of the coming evaluations (see the module
    docstring)."""

    rhs: Rhs
    t0: float
    t1: float
    y0: np.ndarray
    tol: float = 1e-5
    max_steps: int = 1_000_000
    stage_hook: StageHook | None = None

    def __post_init__(self):
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        check_tol(self.tol)
        if not np.all(np.isfinite(self.y0)):
            raise NonFinite("initial state is not finite")


class DenseOutput:
    """Continuous extension of an adaptive solve: ``y(t)`` anywhere in its span.

    Holds, per accepted step, its start time ``t_start``, signed size
    ``h``, start state ``y_start`` and interpolation coefficients ``q``
    (``k.T @ _P``); the solve's end state is ``OdeSolution.y_final``.
    """

    def __init__(self, t_start, h, y_start, q):
        self.t_start = np.asarray(t_start, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.y_start = np.asarray(y_start, dtype=float)
        self.q = np.asarray(q, dtype=float)
        # breakpoints in increasing order, whichever way the solve ran
        self._forward = bool(self.h[0] > 0.0)
        self._breaks = self.t_start[1:] if self._forward else self.t_start[:0:-1]

    def at(self, ts) -> np.ndarray:
        """``y`` at each of a sequence of times, stacked (k, len(y)), in one
        pass over the steps the times fall in."""
        ts = np.asarray(ts, dtype=float)
        i = np.searchsorted(self._breaks, ts, side="right")
        if not self._forward:
            i = self.h.size - 1 - i
        h = self.h[i]
        theta = (ts - self.t_start[i]) / h
        poly = np.matmul(self.q[i], (theta[:, None] ** _POWERS)[:, :, None])[:, :, 0]
        return self.y_start[i] + h[:, None] * poly


@dataclass
class OdeSolution:
    """End of a solve.  ``n_steps`` counts step attempts, ``n_rejected``
    those the error control rejected."""

    t_final: float
    y_final: np.ndarray
    n_steps: int
    dense: DenseOutput | None = field(default=None, repr=False)
    n_rejected: int = 0

    @property
    def n_accepted(self) -> int:
        return self.n_steps - self.n_rejected


def _error_norm(err: np.ndarray, abs_old: np.ndarray, abs_new: np.ndarray,
                tol: float) -> float:
    """RMS of err / (tol + tol * max(|y_old|, |y_new|)), in place in one
    scratch array; ``abs_*`` are the states' magnitudes."""
    # a sum, not tol * (1 + |y|): that would round differently in every solve
    r = np.maximum(abs_old, abs_new)
    r *= tol
    r += tol
    np.divide(err, r, out=r)
    r *= r
    return math.sqrt(np.add.reduce(r) / r.size)


def _initial_step(rhs: Rhs, t0: float, y0: np.ndarray, f0: np.ndarray,
                  direction: float, span: float, tol: float,
                  hook: StageHook | None = None) -> float:
    # Hairer-Norsett-Wanner II.4 starting-step heuristic, with one departure:
    # from a state that is zero on the tolerance scale (d0 < 1e-5 <= d1) the
    # 1e-6 * span h0 only probes for d2, and capping the step at 100 h0 would
    # spend several steps growing it 5x at a time; such a start takes h1.
    scale = tol + tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    zero_start = d0 < 1e-5 <= d1
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * direction * f0
    t_probe = t0 + h0 * direction
    if hook is not None:
        hook((t_probe,))
    f1 = np.asarray(rhs(t_probe, y1), dtype=float)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(h1, span) if zero_start else min(100 * h0, h1, span)


def solve_adaptive(problem: OdeProblem, record_trace: bool = False) -> OdeSolution:
    """Integrate with the embedded 5(4) pair and PI step control.

    ``record_trace`` returns the continuous extension over the whole span
    in ``dense``, which also holds every accepted step's start time and
    state; it does not change the steps or their arithmetic.

    Raises
    ------
    NonFinite
        if the right-hand side or the state stops being finite.
    StepUnderflow
        if error control forces a step below ``1e-14 * |t1 - t0|``.
    """
    t0, t1 = float(problem.t0), float(problem.t1)
    y = problem.y0.copy()
    span = abs(t1 - t0)
    if span == 0.0:
        return OdeSolution(t_final=t1, y_final=y, n_steps=0)
    direction = 1.0 if t1 > t0 else -1.0

    rhs, hook = problem.rhs, problem.stage_hook
    t = t0
    if hook is not None:
        hook((t,))
    f = np.asarray(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFinite(f"rhs not finite at t={t}")
    h = _initial_step(rhs, t, y, f, direction, span, problem.tol, hook)
    min_step = 1e-14 * span
    steps: list[tuple[float, float, np.ndarray, np.ndarray]] = []

    k = np.empty((7, y.size))
    k_t = k.T  # stage combinations read the stages as columns
    k[0] = f  # FSAL: an accepted step moves its last stage here
    abs_y = np.abs(y)
    err_prev = 1e-4
    n_steps = n_rejected = 0
    while (t1 - t) * direction > 0.0:
        if n_steps >= problem.max_steps:
            raise StepUnderflow(f"exceeded max_steps={problem.max_steps} at t={t}")
        h = min(h, abs(t1 - t))
        if h < min_step:
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t}")
        hd = h * direction
        if hook is not None:
            hook(tuple(t + c * hd for c in _C_ATTEMPT))
        # ndarray.dot: the same products as @, with less overhead per call
        for i in range(1, 7):
            k[i] = rhs(t + _C[i] * hd, y + k_t[:, :i].dot(_A[i]) * hd)
        y_new = y + k_t.dot(_B5) * hd
        abs_new = np.abs(y_new)
        # one reduction for both checks: a NaN or inf entry makes it NaN or inf
        peak = float(abs_new.max())
        if not peak <= _MAX_NORM:
            if not math.isfinite(peak):
                raise NonFinite(f"state not finite after step at t={t}")
            raise NonFinite(f"state norm exceeded {_MAX_NORM:g} at t={t} "
                            f"(diverging trajectory)")
        err_vec = k_t.dot(_E) * hd
        err = _error_norm(err_vec, abs_y, abs_new, problem.tol)

        if err <= 1.0:
            if record_trace:
                steps.append((t, hd, y, k_t.dot(_P)))
            t = t1 if abs(t1 - (t + hd)) <= min_step else t + hd
            y, abs_y = y_new, abs_new
            k[0] = k[6]
            factor = _SAFETY * (err + 1e-16) ** (-_PI_ALPHA) * (err_prev + 1e-16) ** _PI_BETA
            err_prev = max(err, 1e-10)
        else:
            factor = _SAFETY * (err + 1e-16) ** (-_PI_ALPHA)
            n_rejected += 1
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        n_steps += 1

    dense = DenseOutput(*zip(*steps)) if record_trace else None
    return OdeSolution(t_final=t1, y_final=y, n_steps=n_steps, dense=dense,
                       n_rejected=n_rejected)
