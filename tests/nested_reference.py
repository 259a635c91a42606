"""The nested-stencil first-order solver, kept as a reference for tests.

It integrates the forward sensitivity system

    dx/dt       = f_pf(x, t)
    d(dx')/dt   = (dx' . grad) f_pf - (g^2/2) [ s - grad log q0_t(x) ]
    d(dlogq)/dt = div of the line above,

with the error bounds alongside, from t_min to t_max; the coefficient is
dx'_T . grad log pi(x_T) + dlogq_T.  Each right-hand side takes grad log q0
and its Laplacian by central differences over five zeroth-order solves (the
star around the moving point, one joint system) from t to t_max.  It costs
one adaptive solve per right-hand side, which ``wkb_lab.likelihood``
replaces with one backward characteristic solve per point that also
carries the coefficient; the two must agree within this solver's
``err_bound``.  Only the ``model`` error scheme is kept.
"""

from typing import NamedTuple

import numpy as np

from wkb_lab.error_est import local_err_model_from_derivs
from wkb_lab.likelihood import logq_pf, logq_pf_batch, prior_grad
from wkb_lab.ode import OdeProblem, solve_adaptive
from wkb_lab.stencil import (gradient, laplacian, score_batch, score_div_derivatives,
                             score_jacobian, star)


class OuterState(NamedTuple):
    """Named views of the sensitivity state [x, dx', dlogq, err1, err2]."""

    x: np.ndarray
    delta_x: np.ndarray
    delta_logq: float
    err1: np.ndarray
    err2: float

    @classmethod
    def of(cls, y: np.ndarray) -> "OuterState":
        d = (y.size - 2) // 3
        return cls(y[:d], y[d: 2 * d], float(y[2 * d]), y[2 * d + 1: 3 * d + 1],
                   float(y[3 * d + 1]))

    @staticmethod
    def initial(x0: np.ndarray) -> np.ndarray:
        return np.concatenate([x0, np.zeros(2 * x0.size + 2)])

    @property
    def correction1(self) -> float:
        return float(self.delta_x @ prior_grad(self.x)) + self.delta_logq

    @property
    def err_bound(self) -> float:
        return float(self.err1 @ np.abs(prior_grad(self.x))) + abs(self.err2)


def nested_first_order_rhs(score, schedule, dx: float, tol_inner: float,
                           logq_err: float):
    d = schedule.dim

    def rhs(t, y):
        state = OuterState.of(y)
        x, delta_x, err1 = state.x, state.delta_x, state.err1
        a = schedule.drift_coef(t)
        gg = schedule.g2(t)

        logq5 = logq_pf_batch(score, schedule, star(x, dx), t, tol_inner)
        grad_logq = gradient(logq5[1:], dx)
        lap_logq = float(laplacian(logq5[0], logq5[1:], dx))

        s = score_batch(score, x[None, :], t)[0]
        jac = score_jacobian(score, x[None, :], t, dx)[0]
        _, div_s, grad_div_s, lap_div_s = (
            o[0] for o in score_div_derivatives(score, x[None, :], t, dx))

        f_x = a * x - 0.5 * gg * s
        drive = s - grad_logq
        delta_f = a * delta_x - 0.5 * gg * (jac @ delta_x) - 0.5 * gg * drive
        div_delta_f = (-0.5 * gg * float(delta_x @ grad_div_s)
                       - 0.5 * gg * (div_s - lap_logq))
        grad_err, lap_err = local_err_model_from_derivs(grad_div_s, lap_div_s, dx, logq_err)
        jac_pf = a * np.eye(d) - 0.5 * gg * jac
        err1_dot = np.abs(jac_pf @ err1) + 0.5 * gg * grad_err
        err2_dot = abs(0.5 * gg * float(err1 @ grad_div_s)) + 0.5 * gg * lap_err
        return np.concatenate([f_x, delta_f, [div_delta_f], err1_dot, [err2_dot]])

    return rhs


def nested_nll_first_order(score, schedule, x0, dx: float = 0.01,
                           tol_outer: float = 1e-3, tol_inner: float = 1e-5) -> OuterState:
    """End state of the nested solver with the ``model`` error scheme."""
    x0 = np.asarray(x0, dtype=float)
    log_q0 = logq_pf(score, schedule, x0, schedule.t_min, tol_inner)
    loose = logq_pf(score, schedule, x0, schedule.t_min, 1.1 * tol_inner)
    rhs = nested_first_order_rhs(score, schedule, dx, tol_inner, abs(loose - log_q0))
    sol = solve_adaptive(OdeProblem(rhs, schedule.t_min, schedule.t_max,
                                    OuterState.initial(x0), tol=tol_outer))
    return OuterState.of(sol.y_final)
