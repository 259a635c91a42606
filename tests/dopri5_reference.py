"""Dormand-Prince 5(4) as ``wkb_lab.ode`` first wrote it: a reference for
the package solver.

The tableau, the step loop, the error norm and the continuous extension are
kept here unchanged, so the tests can check that the package's
``solve_adaptive`` and ``DenseOutput`` reproduce them bit for bit: the same
final state, step count, dense knots, interpolation coefficients and
interpolated values.
"""

import numpy as np

from wkb_lab.errors import NonFinite, StepUnderflow
from wkb_lab.ode import OdeProblem, OdeSolution, Rhs

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
# A state entry beyond this magnitude is a genuine blow-up: with relative
# error control a diverging solution would otherwise be chased indefinitely.
_MAX_NORM = 1e8


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

    def __call__(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self._breaks, t, side="right"))
        if not self._forward:
            i = self.h.size - 1 - i
        theta = (t - self.t_start[i]) / self.h[i]
        powers = theta ** np.arange(1, 5)
        return self.y_start[i] + self.h[i] * (self.q[i] @ powers)


def _error_norm(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
                tol: float) -> float:
    # a sum, not tol * (1 + |y|): that would round differently in every solve
    scale = tol + tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(rhs: Rhs, t0: float, y0: np.ndarray, f0: np.ndarray,
                  direction: float, span: float, tol: float) -> float:
    # Hairer-Norsett-Wanner II.4 starting-step heuristic.
    scale = tol + tol * np.abs(y0)
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

    rhs = problem.rhs
    t = t0
    f = np.asarray(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFinite(f"rhs not finite at t={t}")
    h = _initial_step(rhs, t, y, f, direction, span, problem.tol)
    min_step = 1e-14 * span
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
        if np.max(np.abs(y_new)) > _MAX_NORM:
            raise NonFinite(f"state norm exceeded {_MAX_NORM:g} at t={t} "
                            f"(diverging trajectory)")
        err_vec = hd * (k.T @ _E)
        err = _error_norm(err_vec, y, y_new, problem.tol)

        if err <= 1.0:
            if record_trace:
                steps.append((t, hd, y, k.T @ _P))
            t = t1 if abs(t1 - (t + hd)) <= min_step else t + hd
            y = y_new
            f = k[6].copy()  # FSAL; a copy, since a rejected next step rewrites k
            factor = _SAFETY * (err + 1e-16) ** (-_PI_ALPHA) * (err_prev + 1e-16) ** _PI_BETA
            err_prev = max(err, 1e-10)
        else:
            factor = _SAFETY * (err + 1e-16) ** (-_PI_ALPHA)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        n_steps += 1

    dense = DenseOutput(*zip(*steps)) if record_trace else None
    return OdeSolution(t_final=t1, y_final=y, n_steps=n_steps, dense=dense)
