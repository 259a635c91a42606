"""Probability-flow log-likelihood and its first-order noise correction.

The zeroth-order log-likelihood integrates the state and the divergence of
the probability-flow drift from the evaluation time up to t_max and adds
the prior log-density:

    log q0(x) = log pi(x_T) + int_t^{T} div f_pf(x_s, s) ds .

The first-order coefficient in the noise strength h perturbs the drift by
-(g^2/2) [ s - grad log q0_t ].  By the adjoint identity of neural-ODE
log-densities it is one integral along the flow,

    correction1 = - int_t^{T} (g^2/2) [ a . (s - a) + div s - tr H ] ds ,

of a = grad log q0_t and H = its Hessian at the moving point.  With
J_pf = alpha I - (g^2/2) grad s the flow Jacobian, a and H obey the linear
characteristic equations

    da/dt = -J_pf^T a + (g^2/2) grad(div s)
    dH/dt = -J_pf^T H - H J_pf + (g^2/2) [ sum_k a_k hess(s_k) + hess(div s) ]

from a = -x_T, H = -I at t_max.  One adaptive solve of (x, a, H, c) from
t_max down to t_min, with c(t) the integral above from t to T (so
dc/dt = -(g^2/2) [...] and c(T) = 0), gives correction1 = -c(t_min).  A
last pass integrates the conservative local-error bounds along that
solve's trajectory (DOPRI5's continuous extension between its steps),
giving the final err_bound.

The spatial derivatives of the score are central differences at the one
stencil spacing dx (``stencil``), except for the linear analytic score,
whose derivatives the ``score`` helpers return in closed form.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .error_est import local_err_model_from_derivs, local_err_subtraction_from_values
from .errors import WkbLabError
from .ode import DenseOutput, OdeProblem, OdeSolution, solve_adaptive
from .schedule import Schedule
from .score import (score_div_derivatives, score_divergence, score_jacobian,
                    score_second_derivatives)

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FdStencil:
    """Spacing of the central-difference stencils."""

    dx: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.dx < np.inf:  # also rejects NaN
            raise ValueError("dx must be positive and finite")


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


# -- grad log q0, its Hessian and the first-order coefficient along the flow ----

def _characteristic_rhs(score, schedule: Schedule, dx: float):
    """RHS of the (x, a, H, c) system: the flow, a = grad log q0_t(x),
    H = its Hessian and the first-order accumulator c, with
    J_pf = alpha I - (g^2/2) J the flow Jacobian."""
    d = schedule.dim
    eye = np.eye(d)

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        x, a, hess = z[:d], z[d: 2 * d], z[2 * d: -1].reshape(d, d)
        alpha = schedule.drift_coef(t)
        half_gg = 0.5 * schedule.g2(t)
        s, jac, hess_s, grad_div_s, hess_div_s = score_second_derivatives(score, x, t, dx)
        neg_jac_pf_t = jac.T * half_gg  # -J_pf^T
        neg_jac_pf_t -= eye * alpha
        out = np.empty(z.size)  # [x_dot, a_dot, h_dot, c_dot]
        np.subtract(x * alpha, s * half_gg, out=out[:d])
        np.add(neg_jac_pf_t.dot(a), grad_div_s * half_gg, out=out[d: 2 * d])
        # sum_k a_k hess(s_k), one product over the flattened Hessians
        drive = a.dot(hess_s.reshape(d, d * d))
        drive += hess_div_s.ravel()
        drive *= half_gg
        # -J_pf^T H - H J_pf, with -H J_pf = H (-J_pf^T)^T
        h_dot = out[2 * d: -1].reshape(d, d)
        neg_jac_pf_t.dot(hess, out=h_dot)
        h_dot += hess.dot(neg_jac_pf_t.T)
        h_dot += drive.reshape(d, d)
        # the first-order integrand, with div s = tr J and lap log q0 = tr H
        out[-1] = -half_gg * (float(a.dot(s - a)) + float(jac.trace())
                              - float(hess.trace()))
        return out

    return rhs


def _characteristic_solve(score, schedule: Schedule, x_T: np.ndarray, tol: float,
                          stencil: FdStencil) -> OdeSolution:
    """One adaptive solve at ``tol`` of the (x, a, H, c) system from t_max,
    where a = grad log pi(x_T) = -x_T, H = -I and c = 0, down to t_min.

    ``y_final[-1]`` is -correction1, and the continuous extension ``dense``
    gives x_ref(t), a(t) and H(t) between the steps.
    """
    d = schedule.dim
    z_T = np.concatenate([x_T, prior_grad(x_T), -np.eye(d).ravel(), [0.0]])
    return solve_adaptive(OdeProblem(
        rhs=_characteristic_rhs(score, schedule, stencil.dx),
        t0=schedule.t_max, t1=schedule.t_min, y0=z_T, tol=tol), record_trace=True)


def _logq_derivs(dense: DenseOutput, d: int):
    """``derivs(t, x) -> (grad log q0_t(x), laplacian log q0_t(x))`` for x
    near the trajectory of a characteristic solve's ``dense`` output: the
    first-order expansion a + H (x - x_ref), and tr H."""

    def derivs(t: float, x: np.ndarray):
        z = dense(t)
        hess = z[2 * d: -1].reshape(d, d)
        return z[d: 2 * d] + hess.dot(x - z[:d]), float(hess.trace())

    return derivs


# -- first order ---------------------------------------------------------------

_ERR_SCHEMES = ("model", "subtraction")


class OuterState(NamedTuple):
    """Named views of the error-bar state [err1, err2]."""

    err1: np.ndarray
    err2: float

    @classmethod
    def of(cls, y: np.ndarray) -> "OuterState":
        return cls(y[:-1], float(y[-1]))

    def err_bound(self, x_T: np.ndarray) -> float:
        return float(self.err1 @ np.abs(prior_grad(x_T))) + abs(self.err2)


def _error_bar_rhs(score, schedule: Schedule, stencil: FdStencil, dense: DenseOutput,
                   err_scheme: str, logq_err: float = 0.0,
                   loose: DenseOutput | None = None):
    """RHS of the error-bar state along x_ref(t), the trajectory of the
    characteristic solve whose continuous extension is ``dense``; the
    ``subtraction`` scheme also takes ``loose``, that of the solve at the
    stretched tolerance."""
    if err_scheme == "subtraction" and loose is None:
        raise ValueError("the subtraction scheme needs a second characteristic")
    d = schedule.dim
    dx = stencil.dx
    eye = np.eye(d)
    loose_derivs = _logq_derivs(loose, d) if loose is not None else None

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        err1 = y[:d]
        z = dense(t)
        x = z[:d]
        a = schedule.drift_coef(t)
        half_gg = 0.5 * schedule.g2(t)

        jac = score_jacobian(score, x, t, dx)
        _, grad_div_s, lap_div_s = score_div_derivatives(score, x, t, dx)
        if err_scheme == "model":
            local = local_err_model_from_derivs(grad_div_s, lap_div_s, dx,
                                                logq_err=logq_err)
        else:
            tight = z[d: 2 * d], float(z[2 * d: -1].reshape(d, d).trace())
            local = local_err_subtraction_from_values(tight, loose_derivs(t, x))

        # full flow Jacobian inside one absolute value: the linear drift and
        # the score part nearly cancel near stationarity, and splitting them
        # would inflate the bound by exp(int |a| + |g^2 J/2|) ~ 1e4
        jac_pf = eye * a - jac * half_gg
        out = np.empty(y.size)  # [err1_dot, err2_dot]
        err1_dot = out[:d]
        np.abs(jac_pf.dot(err1), out=err1_dot)
        err1_dot += local.grad_err * half_gg
        out[d] = abs(half_gg * float(err1.dot(grad_div_s))) + half_gg * local.lap_err
        return out

    return rhs


def nll_first_order(score, schedule: Schedule, x0: np.ndarray,
                    stencil: FdStencil | None = None,
                    tol_outer: float = 1e-3, tol_inner: float = 1e-5,
                    err_scheme: str = "model") -> NllReport:
    """Zeroth-order log-likelihood plus the first-order noise coefficient.

    Three passes per point.  The zeroth-order solve from t_min to t_max at
    ``tol_inner`` gives log q0 and the end state x_T.  From x_T one backward
    solve at ``tol_inner`` carries grad log q0_t, its Hessian and the
    first-order coefficient down the flow (``_characteristic_solve``).  The
    error bar then runs from t_min to t_max at ``tol_outer`` along that
    solve's trajectory (``_error_bar_rhs``).  ``err_scheme`` picks the
    local-error estimator: "model" from score derivatives, or "subtraction"
    from a second backward solve at ``1.1 * tol_inner``.  The model
    scheme's solver floor is measured once per point as the zeroth-order
    difference between solves at ``tol_inner`` and ``1.1 * tol_inner``.
    """
    if err_scheme not in _ERR_SCHEMES:
        raise ValueError(f"unknown error scheme {err_scheme!r}")
    stencil = stencil or FdStencil()
    x0 = np.asarray(x0, dtype=float)
    d = schedule.dim
    if x0.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")
    logq, x_T = _zeroth_order_solve(score, schedule, x0[None, :], schedule.t_min,
                                    tol_inner, stencil)
    log_q0, x_T = float(logq[0]), x_T[0]
    logq_err = 0.0
    if err_scheme == "model":
        loose = logq_pf(score, schedule, x0, schedule.t_min, 1.1 * tol_inner, stencil)
        logq_err = abs(loose - log_q0)
    back = _characteristic_solve(score, schedule, x_T, tol_inner, stencil)
    loose_dense = None
    if err_scheme == "subtraction":
        loose_dense = _characteristic_solve(score, schedule, x_T, 1.1 * tol_inner,
                                            stencil).dense

    rhs = _error_bar_rhs(score, schedule, stencil, back.dense, err_scheme, logq_err,
                         loose_dense)
    bar = solve_adaptive(OdeProblem(rhs=rhs, t0=schedule.t_min, t1=schedule.t_max,
                                    y0=np.zeros(d + 1), tol=tol_outer))
    return NllReport(log_q0=log_q0, correction1=-float(back.y_final[-1]),
                     err_bound=OuterState.of(bar.y_final).err_bound(x_T))


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
                err_scheme: str = "model", threads: int = 1) -> NllSummary:
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
