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
from .ode import OdeProblem, solve_adaptive
from .schedule import Schedule
from .score import (score_batch, score_div_derivatives, score_divergence, score_jacobian,
                    score_second_derivatives)

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FdStencil:
    """Spacing of the central-difference stencils."""

    dx: float = 0.01

    def __post_init__(self):
        if not self.dx > 0.0:  # also rejects NaN
            raise ValueError("dx must be positive")


@dataclass
class NllReport:
    log_q0: float
    correction1: float
    err_bound: float


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
        half_gg = 0.5 * schedule.g2(t)
        s, div_s = score_divergence(score, X, t, dx)
        out = np.empty(y.size)  # [flow of each point, divergence of each]
        np.subtract(X * a, s * half_gg, out=out[: m * d].reshape(m, d))
        np.subtract(d * a, div_s * half_gg, out=out[m * d:])
        return out

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
        t0=t_start, t1=schedule.t_max, y0=y0, tol=tol))
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
    eye = np.eye(d)

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        x, a, hess = z[:d], z[d: 2 * d], z[2 * d:].reshape(d, d)
        alpha = schedule.drift_coef(t)
        half_gg = 0.5 * schedule.g2(t)
        s, jac, hess_s, grad_div_s, hess_div_s = score_second_derivatives(score, x, t, dx)
        neg_jac_pf_t = jac.T * half_gg  # -J_pf^T
        neg_jac_pf_t -= eye * alpha
        out = np.empty(z.size)  # [x_dot, a_dot, h_dot]
        np.subtract(x * alpha, s * half_gg, out=out[:d])
        np.add(neg_jac_pf_t.dot(a), grad_div_s * half_gg, out=out[d: 2 * d])
        # sum_k a_k hess(s_k), one product over the flattened Hessians
        drive = a.dot(hess_s.reshape(d, d * d))
        drive += hess_div_s.ravel()
        drive *= half_gg
        # -J_pf^T H - H J_pf, with -H J_pf = H (-J_pf^T)^T
        h_dot = out[2 * d:].reshape(d, d)
        neg_jac_pf_t.dot(hess, out=h_dot)
        h_dot += hess.dot(neg_jac_pf_t.T)
        h_dot += drive.reshape(d, d)
        return out

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
        t0=schedule.t_max, t1=schedule.t_min, y0=z_T, tol=tol),
        record_trace=True).dense

    def derivs(t: float, x: np.ndarray):
        z = dense(t)
        hess = z[2 * d:].reshape(d, d)
        return z[d: 2 * d] + hess.dot(x - z[:d]), float(hess.trace())

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
    eye = np.eye(d)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # the OuterState layout, sliced in place
        x, delta_x, err1 = y[:d], y[d: 2 * d], y[2 * d + 1: 3 * d + 1]
        a = schedule.drift_coef(t)
        half_gg = 0.5 * schedule.g2(t)

        grad_logq, lap_logq = logq_derivs(t, x)

        s = score_batch(score, x[None, :], t)[0]
        jac = score_jacobian(score, x, t, dx)
        div_s, grad_div_s, lap_div_s = score_div_derivatives(score, x, t, dx)

        out = np.empty(y.size)  # [f_x, delta_f, div_delta_f, err1_dot, err2_dot]
        np.subtract(x * a, s * half_gg, out=out[:d])
        delta_f = out[d: 2 * d]
        np.subtract(delta_x * a, jac.dot(delta_x) * half_gg, out=delta_f)
        delta_f -= (s - grad_logq) * half_gg
        out[2 * d] = (-half_gg * float(delta_x.dot(grad_div_s))
                      - half_gg * (div_s - lap_logq))

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
        jac_pf = eye * a - jac * half_gg
        err1_dot = out[2 * d + 1: 3 * d + 1]
        np.abs(jac_pf.dot(err1), out=err1_dot)
        err1_dot += local.grad_err * half_gg
        out[3 * d + 1] = (abs(half_gg * float(err1.dot(grad_div_s)))
                          + half_gg * local.lap_err)
        return out

    return rhs


def nll_first_order(score, schedule: Schedule, x0: np.ndarray,
                    stencil: FdStencil | None = None,
                    tol_outer: float = 1e-3, tol_inner: float = 1e-5,
                    err_scheme: str | None = "model") -> NllReport:
    """Zeroth-order log-likelihood plus the first-order noise coefficient.

    Three passes per point.  The zeroth-order solve from t_min to t_max at
    ``tol_inner`` gives log q0 and the end state x_T.  From x_T one backward
    solve at ``tol_inner`` carries grad log q0_t and its Hessian down the
    flow (``_logq_characteristic``).  The coupled (x, sensitivity,
    divergence accumulator, error-bound) system then runs from t_min to
    t_max at ``tol_outer``.  ``err_scheme`` picks the local-error estimator
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
    sol = solve_adaptive(OdeProblem(rhs=rhs, t0=schedule.t_min, t1=schedule.t_max,
                                    y0=y0, tol=tol_outer))
    state = OuterState.of(sol.y_final)
    return NllReport(log_q0=log_q0, correction1=state.correction1,
                     err_bound=state.err_bound)


# -- dataset aggregation --------------------------------------------------------

@dataclass
class NllSummary:
    """Aggregates over a cloud; ``corr_mean`` averages the pointwise
    log-likelihood coefficient and ``corr_median`` is its median, so the NLL
    correction (the sign convention of the emitted tables) is the negative
    of either."""

    n_points: int
    n_failed: int
    nll_mean: float
    nll_stderr: float
    corr_mean: float
    corr_stderr: float
    corr_median: float
    err_mean: float
    reports: list[NllReport | None]

    @property
    def nll_corr_mean(self) -> float:
        return -self.corr_mean

    def table(self) -> tuple[str, list[tuple], dict]:
        """(header, rows, footer) of the per-point table; the footer's
        ``1st-corr`` differentiates the NLL, so it is ``nll_corr_mean``, and
        ``1st-corr-median`` is the median with that sign, which one outlying
        point cannot move far."""
        rows = [(i, "nan", "nan", "nan", "failed") if rep is None
                else (i, rep.log_q0, rep.correction1, rep.err_bound, "ok")
                for i, rep in enumerate(self.reports)]
        footer = {"NLL": f"{self.nll_mean:.12g} +- {self.nll_stderr:.12g}",
                  "1st-corr": f"{self.nll_corr_mean:.12g} +- {self.corr_stderr:.12g}",
                  "1st-corr-median": f"{-self.corr_median:.12g}",
                  "errors": f"{self.err_mean:.12g}",
                  "failed": f"{self.n_failed} of {self.n_points}"}
        return "point\tlog_q0\tcorrection1\terr_bound\tstatus", rows, footer


def _point_job(args):
    score, schedule, x, stencil, tol_outer, tol_inner, err_scheme = args
    try:
        return nll_first_order(score, schedule, x, stencil, tol_outer, tol_inner,
                               err_scheme)
    except Exception:  # one bad point, whatever raised, must not end the run
        return None


def nll_dataset(score, schedule: Schedule, cloud, stencil: FdStencil | None = None,
                tol_outer: float = 1e-3, tol_inner: float = 1e-5,
                err_scheme: str | None = "model", threads: int = 1) -> NllSummary:
    """Per-point first-order reports over a point cloud, aggregated.

    Failed points (solver blow-ups, or anything else a point raises) are
    excluded and counted.  ``threads`` spreads points over worker
    processes; results are independent of the worker count.
    """
    if err_scheme not in _ERR_SCHEMES:
        raise ValueError(f"unknown error scheme {err_scheme!r}")
    pts = np.atleast_2d(np.asarray(getattr(cloud, "points", cloud), dtype=float))
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
    corrs = [r.correction1 for r in ok]
    corr_mean, corr_stderr = mean_stderr(corrs)
    err_mean = float(np.mean([r.err_bound for r in ok]))
    return NllSummary(n_points=len(reports), n_failed=n_failed,
                      nll_mean=nll_mean, nll_stderr=nll_stderr,
                      corr_mean=corr_mean, corr_stderr=corr_stderr,
                      corr_median=float(np.median(corrs)),
                      err_mean=err_mean, reports=reports)
