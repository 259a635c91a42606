"""Explicit ODE integration: adaptive Dormand-Prince 5(4) and fixed-grid RK4.

The adaptive solver is the workhorse behind samplers, likelihood solves and
error propagation.  It integrates in either time direction (the direction is
taken from the sign of ``t1 - t0``), controls the local error per step
against ``atol + rtol * |y|`` and uses a PI controller for the step size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFinite, StepUnderflow

Rhs = Callable[[float, np.ndarray], np.ndarray]

# Dormand-Prince 5(4) tableau (FSAL: stage 7 equals the next step's stage 1).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


@dataclass
class OdeProblem:
    """Initial-value problem ``dy/dt = rhs(t, y)`` from t0 to t1.

    ``max_norm`` fails the solve early once the state magnitude shows a
    genuine blow-up; with purely relative error control a diverging
    solution would otherwise be chased indefinitely.
    """

    rhs: Rhs
    t0: float
    t1: float
    y0: np.ndarray
    atol: float = 1e-5
    rtol: float = 1e-5
    max_steps: int = 1_000_000
    max_norm: float = 1e8

    def __post_init__(self):
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if not (self.atol > 0.0 and self.rtol > 0.0):
            raise ValueError("atol and rtol must be positive")
        if not np.all(np.isfinite(self.y0)):
            raise NonFinite("initial state is not finite")


class DenseOutput:
    """Continuous extension of an adaptive solve: ``y(t)`` anywhere in its span.

    Holds, per accepted step, its start time ``t_start``, signed size
    ``h``, start state and interpolation coefficients ``q`` (``k.T @ _P``).
    """

    def __init__(self, t_start, h, y_start, q):
        self.h = np.asarray(h, dtype=float)
        self.y_start = np.asarray(y_start, dtype=float)
        self.q = np.asarray(q, dtype=float)
        t_start = np.asarray(t_start, dtype=float)
        # breakpoints in increasing order, whichever way the solve ran
        self._forward = bool(self.h[0] > 0.0)
        self._t_start = t_start
        self._breaks = t_start[1:] if self._forward else t_start[:0:-1]

    def __call__(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self._breaks, t, side="right"))
        if not self._forward:
            i = self.h.size - 1 - i
        theta = (t - self._t_start[i]) / self.h[i]
        powers = theta ** np.arange(1, 5)
        return self.y_start[i] + self.h[i] * (self.q[i] @ powers)


@dataclass
class OdeSolution:
    t_final: float
    y_final: np.ndarray
    n_steps: int
    dense_trace: list[tuple[float, np.ndarray]] | None = field(default=None, repr=False)
    dense: DenseOutput | None = field(default=None, repr=False)


def _error_norm(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
                atol: float, rtol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(rhs: Rhs, t0: float, y0: np.ndarray, f0: np.ndarray,
                  direction: float, span: float, atol: float, rtol: float) -> float:
    # Hairer-Norsett-Wanner II.4 starting-step heuristic.
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1), dtype=float)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def solve_adaptive(problem: OdeProblem, record_trace: bool = False) -> OdeSolution:
    """Integrate with the embedded 5(4) pair and PI step control.

    ``record_trace`` keeps the state after every accepted step in
    ``dense_trace`` and the continuous extension over the whole span in
    ``dense``; it does not change the steps or their arithmetic.

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
        trace = [(t0, y.copy())] if record_trace else None
        return OdeSolution(t_final=t1, y_final=y, n_steps=0, dense_trace=trace)
    direction = 1.0 if t1 > t0 else -1.0

    rhs = problem.rhs
    t = t0
    f = np.asarray(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFinite(f"rhs not finite at t={t}")
    h = _initial_step(rhs, t, y, f, direction, span, problem.atol, problem.rtol)
    min_step = 1e-14 * span

    trace: list[tuple[float, np.ndarray]] | None = None
    if record_trace:
        trace = [(t, y.copy())]
        steps: list[tuple[float, float, np.ndarray, np.ndarray]] = []

    k = np.empty((7, y.size))
    err_prev = 1e-4
    n_steps = 0
    while (t1 - t) * direction > 0.0:
        if n_steps >= problem.max_steps:
            raise StepUnderflow(f"exceeded max_steps={problem.max_steps} at t={t}")
        h = min(h, abs(t1 - t))
        if h < min_step:
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t}")
        hd = h * direction
        k[0] = f
        for i in range(1, 7):
            yi = y + hd * (k[:i].T @ _A[i])
            k[i] = rhs(t + _C[i] * hd, yi)
        y_new = y + hd * (k.T @ _B5)
        if not np.all(np.isfinite(y_new)):
            raise NonFinite(f"state not finite after step at t={t}")
        if np.max(np.abs(y_new)) > problem.max_norm:
            raise NonFinite(f"state norm exceeded {problem.max_norm:g} at t={t} "
                            f"(diverging trajectory)")
        err_vec = hd * (k.T @ _E)
        err = _error_norm(err_vec, y, y_new, problem.atol, problem.rtol)

        if err <= 1.0:
            if record_trace:
                steps.append((t, hd, y, k.T @ _P))
            t = t1 if abs(t1 - (t + hd)) <= min_step else t + hd
            y = y_new
            f = k[6].copy()  # FSAL; a copy, since a rejected next step rewrites k
            if record_trace:
                trace.append((t, y.copy()))
            factor = _SAFETY * (err + 1e-16) ** (-_PI_ALPHA) * (err_prev + 1e-16) ** _PI_BETA
            err_prev = max(err, 1e-10)
        else:
            factor = _SAFETY * (err + 1e-16) ** (-_PI_ALPHA)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        n_steps += 1

    dense = DenseOutput(*zip(*steps)) if record_trace else None
    return OdeSolution(t_final=t1, y_final=y, n_steps=n_steps, dense_trace=trace,
                       dense=dense)


def solve_fixed_rk4(rhs: Rhs, t0: float, t1: float, y0: np.ndarray,
                    n_steps: int, record_trace: bool = False) -> OdeSolution:
    """Classical RK4 on a uniform grid; deterministic step sequence."""
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    t0, t1 = float(t0), float(t1)
    trace: list[tuple[float, np.ndarray]] | None = None
    if record_trace:
        trace = [(t0, y.copy())]
    if t1 == t0 or n_steps == 0:
        return OdeSolution(t_final=t1, y_final=y, n_steps=0, dense_trace=trace)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    ts = np.linspace(t0, t1, n_steps + 1)
    for i in range(n_steps):
        t, h = ts[i], ts[i + 1] - ts[i]
        k1 = np.asarray(rhs(t, y), dtype=float)
        k2 = np.asarray(rhs(t + h / 2, y + h / 2 * k1), dtype=float)
        k3 = np.asarray(rhs(t + h / 2, y + h / 2 * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NonFinite(f"state not finite after step at t={ts[i + 1]}")
        if record_trace:
            trace.append((ts[i + 1], y.copy()))
    return OdeSolution(t_final=t1, y_final=y, n_steps=n_steps, dense_trace=trace)
