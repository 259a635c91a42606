"""Probability-flow log-likelihood and its first-order noise correction.

The zeroth-order log-likelihood integrates the state and the divergence of
the probability-flow drift from the evaluation time up to t_max and adds
the prior log-density:

    log q0(x) = log pi(x_T) + int_t^{T} div f_pf(x_s, s) ds .

The first-order coefficient in the noise strength h comes from a coupled
sensitivity system along the same flow,

    dx/dt      = f_pf(x, t)
    d(dx')/dt  = (dx' . grad) f_pf - (g^2/2) [ s - grad log q0_t(x) ]
    d(dlogq)/dt= div of the line above,

whose driving term needs grad log q0_t and its Laplacian at the moving
point.  Both come from one backward pass per point: with J_pf = alpha I -
(g^2/2) grad s the flow Jacobian, a = grad log q0_t and H = its Hessian
obey, along the flow, the linear characteristic equations

    da/dt = -J_pf^T a + (g^2/2) grad(div s)
    dH/dt = -J_pf^T H - H J_pf + (g^2/2) [ sum_k a_k hess(s_k) + hess(div s) ]

from a = -x_T, H = -I at t_max (the log-density transport of neural-ODE
adjoints).  One adaptive solve of (x, a, H) from t_max down to t_min, with
DOPRI5's continuous extension between its steps, serves every right-hand
side of the sensitivity system: grad log q0_t(x) = a + H (x - x_ref) and
the Laplacian is tr H.  Alongside the sensitivity system we integrate the
conservative local-error bounds, giving the final err_bound.

All spatial derivatives of the score are central differences at the one
stencil spacing dx (``stencil``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .error_est import (LocalErr, local_err_model_from_derivs,
                        local_err_subtraction_from_values)
from .errors import WkbLabError
from .ode import OdeProblem, solve_adaptive, solve_fixed_rk4
from .schedule import Schedule
from .score import (score_batch, score_div_derivatives, score_jacobian,
                    score_second_derivatives)
from .stencil import divergence, points

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FdStencil:
    """Spacing of the central-difference stencils."""

    dx: float = 0.01

    def __post_init__(self):
        if self.dx <= 0.0:
            raise ValueError("dx must be positive")


@dataclass
class NllReport:
    log_q0: float
    correction1: float
    err_bound: float
    x_T: np.ndarray
    delta_x_T: np.ndarray


def prior_logpdf(x) -> float | np.ndarray:
    """log N(x | 0, I); batched over leading axis for 2-D input."""
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        x = np.atleast_1d(x)
        return float(-0.5 * x.size * _LOG_2PI - 0.5 * float(x @ x))
    return -0.5 * x.shape[1] * _LOG_2PI - 0.5 * np.einsum("ij,ij->i", x, x)


def prior_grad(x) -> np.ndarray:
    """Gradient of log N(x | 0, I), which is -x."""
    return -np.asarray(x, dtype=float)


# -- zeroth order -------------------------------------------------------------

def _pf_with_div_rhs(score, schedule: Schedule, m: int, dx: float):
    """RHS of the joint (state, divergence accumulator) system for m points."""
    d = schedule.dim

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        X = y[: m * d].reshape(m, d)
        a = schedule.drift_coef(t)
        gg = schedule.g2(t)
        pts = np.concatenate([X, points(X, dx).reshape(-1, d)])
        vals = score_batch(score, pts, t)
        s = vals[:m]
        div_s = divergence(vals[m:].reshape(m, 2 * d, d), dx)
        fpf = a * X - 0.5 * gg * s
        dlog = d * a - 0.5 * gg * div_s
        return np.concatenate([fpf.ravel(), dlog])

    return rhs


def _zeroth_order_solve(score, schedule: Schedule, xs: np.ndarray, t_start: float,
                        tol: float, stencil: FdStencil | None):
    """(log q0 at ``t_start``, end states x_T) for a stack of points."""
    stencil = stencil or FdStencil()
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, d = xs.shape
    if d != schedule.dim:
        raise ValueError(f"points are {d}-dimensional, schedule expects {schedule.dim}")
    if not (schedule.t_min <= t_start <= schedule.t_max):
        raise ValueError("t_start outside the schedule window")
    y0 = np.concatenate([xs.ravel(), np.zeros(m)])
    sol = solve_adaptive(OdeProblem(
        rhs=_pf_with_div_rhs(score, schedule, m, stencil.dx),
        t0=t_start, t1=schedule.t_max, y0=y0, atol=tol, rtol=tol))
    x_T = sol.y_final[: m * d].reshape(m, d)
    ell = sol.y_final[m * d:]
    return prior_logpdf(x_T) + ell, x_T


def logq_pf_batch(score, schedule: Schedule, xs: np.ndarray, t_start: float,
                  tol: float = 1e-5, stencil: FdStencil | None = None) -> np.ndarray:
    """Zeroth-order log-likelihood at time ``t_start`` for a stack of points."""
    return _zeroth_order_solve(score, schedule, xs, t_start, tol, stencil)[0]


def logq_pf(score, schedule: Schedule, x: np.ndarray, t_start: float,
            tol: float = 1e-5, stencil: FdStencil | None = None) -> float:
    """Zeroth-order log-likelihood of a single point (see ``logq_pf_batch``)."""
    return float(logq_pf_batch(score, schedule, np.asarray(x)[None, :],
                               t_start, tol, stencil)[0])


# -- grad log q0 and its Hessian along the flow ---------------------------------

def _characteristic_rhs(score, schedule: Schedule, dx: float):
    """RHS of the (x, a, H) system: the flow, a = grad log q0_t(x) and
    H = its Hessian, with J_pf = alpha I - (g^2/2) J the flow Jacobian."""
    d = schedule.dim

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        x, a, hess = z[:d], z[d: 2 * d], z[2 * d:].reshape(d, d)
        alpha = schedule.drift_coef(t)
        gg = schedule.g2(t)
        s, jac, hess_s, grad_div_s, hess_div_s = score_second_derivatives(score, x, t, dx)
        jac_pf = alpha * np.eye(d) - 0.5 * gg * jac
        x_dot = alpha * x - 0.5 * gg * s
        a_dot = -jac_pf.T @ a + 0.5 * gg * grad_div_s
        h_dot = (-jac_pf.T @ hess - hess @ jac_pf
                 + 0.5 * gg * (np.einsum("k,kij->ij", a, hess_s) + hess_div_s))
        return np.concatenate([x_dot, a_dot, h_dot.ravel()])

    return rhs


def _logq_characteristic(score, schedule: Schedule, x_T: np.ndarray, tol: float,
                         stencil: FdStencil):
    """``derivs(t, x) -> (grad log q0_t(x), laplacian log q0_t(x))`` for x
    near the probability-flow trajectory that ends at ``x_T``.

    One adaptive solve at ``tol`` runs the (x, a, H) system from t_max,
    where a = grad log pi(x_T) = -x_T and H = -I, down to t_min; between
    its steps DOPRI5's continuous extension gives x_ref(t), a(t), H(t), and
    the gradient at a nearby x is the first-order expansion a + H (x - x_ref).
    """
    d = schedule.dim
    z_T = np.concatenate([x_T, prior_grad(x_T), -np.eye(d).ravel()])
    dense = solve_adaptive(OdeProblem(
        rhs=_characteristic_rhs(score, schedule, stencil.dx),
        t0=schedule.t_max, t1=schedule.t_min, y0=z_T, atol=tol, rtol=tol),
        record_trace=True).dense

    def derivs(t: float, x: np.ndarray):
        z = dense(t)
        hess = z[2 * d:].reshape(d, d)
        return z[d: 2 * d] + hess @ (x - z[:d]), float(np.trace(hess))

    return derivs


# -- first order ---------------------------------------------------------------

_ERR_SCHEMES = (None, "model", "subtraction")


class OuterState(NamedTuple):
    """Named views of the first-order state [x, dx', dlogq, err1, err2]."""

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


def _first_order_rhs(score, schedule: Schedule, stencil: FdStencil, logq_derivs,
                     err_scheme: str | None, logq_err: float = 0.0,
                     logq_derivs_loose=None):
    """RHS of the outer state; ``logq_derivs`` (and for the subtraction
    scheme ``logq_derivs_loose``) from ``_logq_characteristic``."""
    if err_scheme not in _ERR_SCHEMES:
        raise ValueError(f"unknown error scheme {err_scheme!r}")
    if err_scheme == "subtraction" and logq_derivs_loose is None:
        raise ValueError("the subtraction scheme needs a second characteristic")
    d = schedule.dim
    dx = stencil.dx

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        state = OuterState.of(y)
        x, delta_x, err1 = state.x, state.delta_x, state.err1
        a = schedule.drift_coef(t)
        gg = schedule.g2(t)

        grad_logq, lap_logq = logq_derivs(t, x)

        s = score_batch(score, x[None, :], t)[0]
        jac = score_jacobian(score, x, t, dx)
        div_s, grad_div_s, lap_div_s = score_div_derivatives(score, x, t, dx)

        f_x = a * x - 0.5 * gg * s
        drive = s - grad_logq
        delta_f = a * delta_x - 0.5 * gg * (jac @ delta_x) - 0.5 * gg * drive
        div_delta_f = (-0.5 * gg * float(delta_x @ grad_div_s)
                       - 0.5 * gg * (div_s - lap_logq))

        if err_scheme is None:
            local = LocalErr(grad_err=np.zeros(d), lap_err=0.0)
        elif err_scheme == "model":
            local = local_err_model_from_derivs(grad_div_s, lap_div_s, dx,
                                                logq_err=logq_err)
        else:
            local = local_err_subtraction_from_values((grad_logq, lap_logq),
                                                      logq_derivs_loose(t, x))

        # full flow Jacobian inside one absolute value: the linear drift and
        # the score part nearly cancel near stationarity, and splitting them
        # would inflate the bound by exp(int |a| + |g^2 J/2|) ~ 1e4
        jac_pf = a * np.eye(d) - 0.5 * gg * jac
        err1_dot = np.abs(jac_pf @ err1) + 0.5 * gg * local.grad_err
        err2_dot = abs(0.5 * gg * float(err1 @ grad_div_s)) + 0.5 * gg * local.lap_err
        return np.concatenate([f_x, delta_f, [div_delta_f], err1_dot, [err2_dot]])

    return rhs


def nll_first_order(score, schedule: Schedule, x0: np.ndarray,
                    stencil: FdStencil | None = None,
                    tol_outer: float = 1e-3, tol_inner: float = 1e-5,
                    err_scheme: str | None = "model",
                    fixed_steps: int | None = None) -> NllReport:
    """Zeroth-order log-likelihood plus the first-order noise coefficient.

    Three passes per point.  The zeroth-order solve from t_min to t_max at
    ``tol_inner`` gives log q0 and the end state x_T.  From x_T one backward
    solve at ``tol_inner`` carries grad log q0_t and its Hessian down the
    flow (``_logq_characteristic``).  The coupled (x, sensitivity,
    divergence accumulator, error-bound) system then runs from t_min to
    t_max, adaptive at ``tol_outer`` unless ``fixed_steps`` selects the
    uniform RK4 grid.  ``err_scheme`` picks the local-error estimator
    ("model" from score derivatives, "subtraction" from a second backward
    solve at ``1.1 * tol_inner``, or None to skip and report 0).  The model
    scheme's solver floor is measured once per point as the zeroth-order
    difference between solves at ``tol_inner`` and ``1.1 * tol_inner``.
    """
    stencil = stencil or FdStencil()
    x0 = np.asarray(x0, dtype=float)
    d = schedule.dim
    if x0.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")
    logq, x_T = _zeroth_order_solve(score, schedule, x0[None, :], schedule.t_min,
                                    tol_inner, stencil)
    log_q0 = float(logq[0])
    logq_err = 0.0
    if err_scheme == "model":
        loose = logq_pf(score, schedule, x0, schedule.t_min, 1.1 * tol_inner, stencil)
        logq_err = abs(loose - log_q0)
    logq_derivs = _logq_characteristic(score, schedule, x_T[0], tol_inner, stencil)
    loose_derivs = None
    if err_scheme == "subtraction":
        loose_derivs = _logq_characteristic(score, schedule, x_T[0], 1.1 * tol_inner,
                                            stencil)

    y0 = OuterState.initial(x0)
    rhs = _first_order_rhs(score, schedule, stencil, logq_derivs, err_scheme, logq_err,
                           loose_derivs)
    if fixed_steps is None:
        sol = solve_adaptive(OdeProblem(rhs=rhs, t0=schedule.t_min, t1=schedule.t_max,
                                        y0=y0, atol=tol_outer, rtol=tol_outer))
    else:
        sol = solve_fixed_rk4(rhs, schedule.t_min, schedule.t_max, y0, fixed_steps)
    state = OuterState.of(sol.y_final)
    return NllReport(log_q0=log_q0, correction1=state.correction1,
                     err_bound=state.err_bound, x_T=state.x, delta_x_T=state.delta_x)


# -- dataset aggregation --------------------------------------------------------

@dataclass
class NllSummary:
    """Aggregates over a cloud; ``corr_mean`` averages the pointwise
    log-likelihood coefficient, so the NLL correction (the sign convention
    of the emitted tables) is its negative."""

    n_points: int
    n_failed: int
    nll_mean: float
    nll_stderr: float
    corr_mean: float
    corr_stderr: float
    err_mean: float
    reports: list[NllReport | None]

    @property
    def nll_corr_mean(self) -> float:
        return -self.corr_mean


def _point_job(args):
    score, schedule, x, stencil, tol_outer, tol_inner, err_scheme = args
    try:
        return nll_first_order(score, schedule, x, stencil, tol_outer, tol_inner,
                               err_scheme)
    except Exception:  # one bad point, whatever raised, must not end the run
        return None


def nll_dataset(score, schedule: Schedule, cloud, stencil: FdStencil | None = None,
                tol_outer: float = 1e-3, tol_inner: float = 1e-5,
                err_scheme: str | None = "model", n_points: int | None = None,
                threads: int = 1) -> NllSummary:
    """Per-point first-order reports over a point cloud, aggregated.

    Failed points (solver blow-ups, or anything else a point raises) are
    excluded and counted.  ``threads`` spreads points over worker
    processes; results are independent of the worker count.
    """
    if err_scheme not in _ERR_SCHEMES:
        raise ValueError(f"unknown error scheme {err_scheme!r}")
    pts = np.atleast_2d(np.asarray(getattr(cloud, "points", cloud), dtype=float))
    if n_points is not None:
        pts = pts[:n_points]
    jobs = [(score, schedule, x, stencil, tol_outer, tol_inner, err_scheme)
            for x in pts]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(_point_job, jobs, chunksize=1))
    else:
        reports = [_point_job(job) for job in jobs]

    ok = [r for r in reports if r is not None]
    n_failed = len(reports) - len(ok)
    if not ok:
        raise WkbLabError("every point failed in nll_dataset")

    def mean_stderr(vals):
        vals = np.asarray(vals, dtype=float)
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        return mean, stderr

    nll_mean, nll_stderr = mean_stderr([-r.log_q0 for r in ok])
    corr_mean, corr_stderr = mean_stderr([r.correction1 for r in ok])
    err_mean = float(np.mean([r.err_bound for r in ok]))
    return NllSummary(n_points=len(reports), n_failed=n_failed,
                      nll_mean=nll_mean, nll_stderr=nll_stderr,
                      corr_mean=corr_mean, corr_stderr=corr_stderr,
                      err_mean=err_mean, reports=reports)


def write_nll_table(path, summary: NllSummary, config_echo: dict | None = None) -> None:
    """Per-point table with an aggregate footer (NLL, 1st-corr, errors)."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in (config_echo or {}).items():
            fh.write(f"# {key} = {val}\n")
        fh.write("point\tlog_q0\tcorrection1\terr_bound\tstatus\n")
        for i, rep in enumerate(summary.reports):
            if rep is None:
                fh.write(f"{i}\tnan\tnan\tnan\tfailed\n")
            else:
                fh.write(f"{i}\t{rep.log_q0:.12g}\t{rep.correction1:.12g}"
                         f"\t{rep.err_bound:.12g}\tok\n")
        fh.write(f"# NLL = {summary.nll_mean:.12g} +- {summary.nll_stderr:.12g}\n")
        # table convention: the correction column differentiates the NLL, which
        # flips the sign of the pointwise log-likelihood coefficient
        fh.write(f"# 1st-corr = {-summary.corr_mean:.12g} +- {summary.corr_stderr:.12g}\n")
        fh.write(f"# errors = {summary.err_mean:.12g}\n")
        fh.write(f"# failed = {summary.n_failed} of {summary.n_points}\n")
