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

from a = -x_T, H = -I at t_max.  The zeroth-order solve records its
trajectory x(t) (DOPRI5's continuous extension between its steps), and one
adaptive solve of (a, H, c) along it from t_max down to t_min, with c(t)
the integral above from t to T (so dc/dt = -(g^2/2) [...] and c(T) = 0),
gives correction1 = -c(t_min); that solve keeps only its end state
(``_characteristic``).  A last pass integrates the conservative local-error
bounds along the same x(t) and returns the final err_bound (``_error_bar``).

Neither later pass has x in its state, so the score derivatives they need
depend on t alone.  The solver announces each step attempt's stage times
before the stages run (``OdeProblem.stage_hook``); each pass then scores
its derivatives at all of them in one stacked call and folds them into
per-stage linear coefficients, and a stage is one small matrix product.

The spatial derivatives of the score are central differences at the one
stencil spacing dx, except for the linear analytic score, whose derivatives
are exact in closed form; the ``stencil`` helpers return both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .error_est import local_err_model_from_derivs
from .errors import WkbLabError
from .ode import OdeProblem, check_tol, solve_adaptive
from .schedule import Schedule
from .stencil import score_div_derivatives, score_divergence, score_second_derivatives
from .workers import map_jobs

# Nothing here calls these two: perfbench/tracing.py wraps them under these
# names, and ROADMAP item 1, which re-points the tracer, drops them.
from .error_est import local_err_subtraction_from_values  # noqa: F401
from .stencil import score_jacobian  # noqa: F401

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


def prior_logpdf(x) -> np.ndarray:
    """log N(x | 0, I) of each row of an (m, d) stack."""
    x = np.asarray(x, dtype=float)
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
        half_gg = -a  # variance preserving: g^2 / 2 = -a, bit for bit
        s, div_s = score_divergence(score, X, t, dx)
        out = np.empty(y.size)  # [flow of each point, divergence of each]
        np.subtract(X * a, s * half_gg, out=out[: m * d].reshape(m, d))
        np.subtract(d * a, div_s * half_gg, out=out[m * d:])
        return out

    return rhs


def _zeroth_order_solve(score, schedule: Schedule, xs: np.ndarray, t_start: float,
                        tol: float, dx: float, record_trace: bool = False):
    """(log q0 at ``t_start``, the solve) for a stack of points.  The
    solve's state is the m points, then their divergence integrals; with
    ``record_trace`` its ``dense`` gives the points' trajectory."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, d = xs.shape
    if d != schedule.dim:
        raise ValueError(f"points are {d}-dimensional, schedule expects {schedule.dim}")
    if not (schedule.t_min <= t_start <= schedule.t_max):
        raise ValueError("t_start outside the schedule window")
    y0 = np.concatenate([xs.ravel(), np.zeros(m)])
    sol = solve_adaptive(OdeProblem(
        rhs=_pf_with_div_rhs(score, schedule, m, dx),
        t0=t_start, t1=schedule.t_max, y0=y0, tol=tol), record_trace=record_trace)
    x_T = sol.y_final[: m * d].reshape(m, d)
    return prior_logpdf(x_T) + sol.y_final[m * d:], sol


def logq_pf_batch(score, schedule: Schedule, xs: np.ndarray, t_start: float,
                  tol: float = 1e-5, stencil: FdStencil | None = None) -> np.ndarray:
    """Zeroth-order log-likelihood at time ``t_start`` for a stack of points."""
    dx = (stencil or FdStencil()).dx
    return _zeroth_order_solve(score, schedule, xs, t_start, tol, dx)[0]


def logq_pf(score, schedule: Schedule, x: np.ndarray, t_start: float,
            tol: float = 1e-5, stencil: FdStencil | None = None) -> float:
    """Zeroth-order log-likelihood of a single point (see ``logq_pf_batch``)."""
    return float(logq_pf_batch(score, schedule, np.asarray(x)[None, :],
                               t_start, tol, stencil)[0])


class _StageTable:
    """A right-hand side's coefficients at the stage times of one attempt.

    ``make(ts)`` computes them in one stacked evaluation at an array of
    times and yields one entry per time.  The solver's stage hook (this
    object called with the times) fills the table once per attempt, and
    the right-hand side reads its time's entry with ``at``; a time that the
    latest announcement did not hold raises KeyError.
    """

    def __init__(self, make):
        self._make = make
        self._rows: dict = {}

    def __call__(self, times: tuple) -> None:
        self._rows = dict(zip(times, self._make(np.array(times))))

    def at(self, t: float):
        return self._rows[t]


# -- grad log q0, its Hessian and the first-order coefficient along the flow ----

def _characteristic_form(u: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """The (a, H, c) right-hand side over g^2/2, without the a . a term of
    c, as a form bilinear in u = [1, a, H, c] and v = [1, s, J, hess s,
    grad(div s), hess(div s)]: each term multiplies one entry of each,
    which is 1 where the formula has no factor from that side.

    Every schedule is variance preserving, alpha = -g^2/2, so the flow
    Jacobian J_pf = alpha I - (g^2/2) J has -J_pf^T = (g^2/2)(J^T + I).
    """
    u0, a, hess = u[0], u[1: 1 + d], u[1 + d: 1 + d + d * d].reshape(d, d)
    # v holds the outputs of ``score_second_derivatives``, flattened in order
    parts = np.split(v, np.cumsum([1, d, d * d, d ** 3, d]))
    v0, s, grad_div = parts[0][0], parts[1], parts[4]
    jac, hess_s, hess_div = (parts[2].reshape(d, d), parts[3].reshape(d, d, d),
                             parts[5].reshape(d, d))
    a_dot = jac.T.dot(a) + v0 * a + u0 * grad_div
    h_dot = (jac.T.dot(hess) + hess.dot(jac) + 2.0 * v0 * hess
             + np.einsum("k,kij->ij", a, hess_s) + u0 * hess_div)
    c_dot = -a.dot(s) - u0 * np.trace(jac) + v0 * np.trace(hess)
    return np.concatenate([a_dot, h_dot.ravel(), [c_dot]])


@functools.lru_cache(maxsize=8)
def _characteristic_operator(d: int) -> np.ndarray:
    """``_characteristic_form`` as one array: entry [o, i, j] is output o's
    coefficient of u_i v_j, probed with unit vectors.  Returned as
    (outputs * len(u), len(v)), cached and read-only."""
    n_u, n_v = 2 + d + d * d, 1 + 2 * d + 2 * d * d + d ** 3
    op = np.empty((n_u - 1, n_u, n_v))
    u, v = np.zeros(n_u), np.zeros(n_v)
    for i in range(n_u):
        u[i] = 1.0
        for j in range(n_v):
            v[j] = 1.0
            op[:, i, j] = _characteristic_form(u, v, d)
            v[j] = 0.0
        u[i] = 0.0
    op = op.reshape(-1, n_v)
    op.flags.writeable = False
    return op


def _characteristic_rhs(score, schedule: Schedule, dx: float, path):
    """(rhs, stage table) of the (a, H, c) system along x(t) = ``path``:
    a = grad log q0_t(x), H = its Hessian and the first-order accumulator c.

    Per attempt, the table scores the derivatives at the stage points in
    one stacked call and folds v = (g^2/2)[1, derivatives] at each stage
    time into the bilinear operator, in one product; a stage is then one
    matrix-vector product with u = [1, a, H, c], plus the (g^2/2) a . a
    term of c.
    """
    d = schedule.dim
    operator = _characteristic_operator(d)
    n_u = 2 + d + d * d

    def make(ts):
        k = ts.size
        half_gg = -schedule.drift_coef(ts)
        derivs = score_second_derivatives(score, path(ts), ts, dx)
        v = np.hstack([np.ones((k, 1))] + [o.reshape(k, -1) for o in derivs])
        v *= half_gg[:, None]
        ops = v.dot(operator.T).reshape(k, -1, n_u)
        return zip(ops, half_gg.tolist())

    table = _StageTable(make)
    u = np.ones(n_u)  # u[0] stays 1

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        op, half_gg = table.at(t)
        u[1:] = z
        out = op.dot(u)
        a = z[:d]
        out[-1] += half_gg * float(a.dot(a))
        return out

    return rhs, table


class _Characteristic(NamedTuple):
    """The first two passes of one point at one tolerance: log q0(x0), the
    end state x_T and the trajectory x(t) of the zeroth-order solve, and
    the first-order coefficient from the backward solve along it."""

    log_q0: float
    x_T: np.ndarray
    path: Callable
    correction1: float


def _characteristic(score, schedule: Schedule, x0: np.ndarray, tol: float,
                    dx: float) -> _Characteristic:
    """The zeroth-order solve from x0 at t_min to t_max, recording its
    trajectory, and the characteristic solve back along it, both at ``tol``.

    The backward solve carries a = grad log pi(x_T) = -x_T, H = -I and c = 0
    from t_max down to t_min, where c is -correction1.  It keeps no dense
    output: only its end state is read.
    """
    d = schedule.dim
    logq, flow = _zeroth_order_solve(score, schedule, x0[None, :], schedule.t_min, tol,
                                     dx, record_trace=True)

    def path(ts) -> np.ndarray:  # x at each of k times, (k, d)
        return flow.dense.at(ts)[:, :d]

    x_T = flow.y_final[:d]
    z_T = np.concatenate([prior_grad(x_T), -np.eye(d).ravel(), [0.0]])
    rhs, table = _characteristic_rhs(score, schedule, dx, path)
    back = solve_adaptive(OdeProblem(
        rhs=rhs, t0=schedule.t_max, t1=schedule.t_min, y0=z_T, tol=tol,
        stage_hook=table))
    return _Characteristic(float(logq[0]), x_T, path, -float(back.y_final[-1]))


# -- first order ---------------------------------------------------------------


def _error_bar_rhs(score, schedule: Schedule, dx: float, path, logq_err: float):
    """(rhs, stage table) of the error-bar state along x_ref(t) = ``path``,
    the trajectory of the zeroth-order solve, with ``logq_err`` the solver
    floor of log q0.

    Per attempt, the table takes J and the divergence derivatives at the
    stage points from one stacked sweep, and the model local errors from
    them; a stage is then |L err1| + b with that time's L and b.
    """
    d = schedule.dim
    eye = np.eye(d)

    def make(ts):
        k = ts.size
        xs = path(ts)
        alpha = schedule.drift_coef(ts)
        half_gg = -alpha
        jac, _, grad_div_s, lap_div_s = score_div_derivatives(score, xs, ts, dx)
        grad_err, lap_err = local_err_model_from_derivs(grad_div_s, lap_div_s, dx, logq_err)
        # full flow Jacobian inside one absolute value: the linear drift and
        # the score part nearly cancel near stationarity, and splitting them
        # would inflate the bound by exp(int |a| + |g^2 J/2|) ~ 1e4
        lin = np.empty((k, d + 1, d))  # rows: J_pf, then (g^2/2) grad(div s)
        lin[:, :d] = alpha[:, None, None] * eye - half_gg[:, None, None] * jac
        lin[:, d] = half_gg[:, None] * grad_div_s
        const = np.empty((k, d + 1))
        const[:, :d] = half_gg[:, None] * grad_err
        const[:, d] = half_gg * lap_err
        return zip(lin, const)

    table = _StageTable(make)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        lin, const = table.at(t)
        out = np.abs(lin.dot(y[:d]))  # [err1_dot, err2_dot]
        out += const
        return out

    return rhs, table


def _err_bound(y: np.ndarray, x_T: np.ndarray) -> float:
    """err1 . |grad log pi(x_T)| + |err2| of the end state y = [err1, err2].
    err1 starts at 0 and grows at nonnegative rates; a negative end value
    is rounding from DOPRI5's negative weight, so it counts as 0."""
    return float(np.maximum(y[:-1], 0.0) @ np.abs(prior_grad(x_T))) + abs(float(y[-1]))


def _error_bar(score, schedule: Schedule, dx: float, tight: _Characteristic,
               logq_err: float, tol: float) -> float:
    """The error bound of one point: the bar's state [err1, err2] solved
    from 0 at t_min to t_max at ``tol``, along the trajectory of ``tight``
    with ``logq_err`` the solver floor of log q0."""
    rhs, table = _error_bar_rhs(score, schedule, dx, tight.path, logq_err)
    bar = solve_adaptive(OdeProblem(rhs=rhs, t0=schedule.t_min, t1=schedule.t_max,
                                    y0=np.zeros(schedule.dim + 1), tol=tol,
                                    stage_hook=table))
    return _err_bound(bar.y_final, tight.x_T)


def nll_first_order(score, schedule: Schedule, x0: np.ndarray,
                    stencil: FdStencil | None = None,
                    tol_outer: float = 1e-3, tol_inner: float = 1e-5,
                    err_scheme: str = "model") -> NllReport:
    """Zeroth-order log-likelihood plus the first-order noise coefficient.

    Three passes per point.  The zeroth-order solve from t_min to t_max at
    ``tol_inner`` gives log q0 and records the trajectory x(t).  Along it,
    one backward solve at ``tol_inner`` carries grad log q0_t, its Hessian
    and the first-order coefficient from t_max down to t_min
    (``_characteristic``).  The error bar then runs from t_min to t_max at
    ``tol_outer`` along the same x(t) (``_error_bar``).  Both later
    passes score the derivatives once per step attempt, at all its stage
    times in one stacked call, and not once per stage.  The bar's local
    errors are the ``error_est`` model's, and its solver floor is measured
    once per point as the zeroth-order difference between solves at
    ``tol_inner`` and ``1.1 * tol_inner``.  ``err_scheme`` accepts only
    "model"; the name stays for callers that still pass it.
    """
    if err_scheme != "model":
        raise ValueError(f"unknown error scheme {err_scheme!r}")
    check_tol(tol_outer, "tol_outer")
    check_tol(tol_inner, "tol_inner")
    stencil = stencil or FdStencil()
    dx = stencil.dx
    x0 = np.asarray(x0, dtype=float)
    d = schedule.dim
    if x0.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")
    tight = _characteristic(score, schedule, x0, tol_inner, dx)
    loose = logq_pf(score, schedule, x0, schedule.t_min, 1.1 * tol_inner, stencil)
    err_bound = _error_bar(score, schedule, dx, tight, abs(loose - tight.log_q0), tol_outer)
    return NllReport(log_q0=tight.log_q0, correction1=tight.correction1,
                     err_bound=err_bound)


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
    score, schedule, x, stencil, tol_outer, tol_inner = args
    try:
        return nll_first_order(score, schedule, x, stencil, tol_outer, tol_inner)
    except Exception:  # one bad point, whatever raised, must not end the run
        return None


def nll_dataset(score, schedule: Schedule, cloud, stencil: FdStencil | None = None,
                tol_outer: float = 1e-3, tol_inner: float = 1e-5,
                threads: int = 1) -> NllSummary:
    """Per-point first-order reports over a point cloud, aggregated.

    Failed points (solver blow-ups, or anything else a point raises) are
    excluded and counted.  ``threads`` spreads points over spawned worker
    processes, each with single-threaded BLAS; results are independent of
    the worker count.  With ``threads`` > 1, a calling script must guard
    its entry point with ``if __name__ == "__main__":`` and the score must
    be picklable by reference, its class defined in an importable module
    or the script file (``workers.map_jobs``).
    """
    check_tol(tol_outer, "tol_outer")
    check_tol(tol_inner, "tol_inner")
    pts = np.atleast_2d(np.asarray(getattr(cloud, "points", cloud), dtype=float))
    jobs = [(score, schedule, x, stencil, tol_outer, tol_inner) for x in pts]
    reports = map_jobs(_point_job, jobs, threads)

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
