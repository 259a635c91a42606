"""Self-contained oracle and property checks behind ``wkb-lab verify``.

``CHECKS`` maps each check's name, in run order, to a function returning
``(value, bound)``; the tests that state a check call its entry.  A check
passes when its value is finite and below its bound, and one that raises
fails.  All randomness is seeded, so repeated runs print identical values.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .data import make_25gaussian, make_swiss_roll, pooled_std
from .gaussian_oracle import GaussianModel, flow_identity_residual_grid
from .likelihood import FdStencil, logq_pf, nll_first_order, prior_logpdf
from .ode import OdeProblem, solve_adaptive
from .pathaction import DiscretePath, DiscretizationScheme, forward_action
from .sampler import SamplerConfig, sample_sde
from .schedule import Schedule, ScheduleKind
from .score import MlpScore
from . import data, stencil
from .wasserstein import w2_exact

_ALL_SCHEDULES = (
    Schedule(kind=ScheduleKind.SIMPLE, beta=20.0),
    Schedule(kind=ScheduleKind.COSINE, t_max=0.999),
    Schedule(kind=ScheduleKind.CONST_BETA, beta=1.0, t_max=3.0),
)


def flow_identity_residual_grid_max():
    grid = flow_identity_residual_grid(GaussianModel(beta=1.0, v0=2.0, T=3.0))
    return max(r for _, _, r in grid), 1e-6


def vprime_closed_form_vs_ode():
    """The closed-form model variance against its defining ODE, six models;
    h = 0.25, eps = -0.2 makes (1+h)(1+eps) exactly 1 in floats, the closed
    form's removable singularity."""
    worst = 0.0
    for beta, v0, eps, T, h in [(1.0, 2.0, 0.3, 3.0, 0.0),
                                (2.0, 0.5, -0.2, 2.0, 1.0),
                                (1.0, 3.0, 0.1, 4.0, 0.5),
                                (1.0, 2.0, -0.2, 3.0, 1.0),
                                (1.0, 2.0, -0.2, 3.0, 0.25),
                                (1.0, 2.0, 0.1, 3.0, 0.5)]:
        model = GaussianModel(beta=beta, v0=v0, epsilon=eps, T=T)
        k = (1.0 + h) * (1.0 + eps)
        rhs = lambda t, y: model.beta * (k / model.v_t(t) - 1.0) * y - h * model.beta
        tgrid = np.linspace(T, 0.0, 13)
        y = np.array([model.v_t(T)])
        for t0, t1 in zip(tgrid[:-1], tgrid[1:]):
            y = solve_adaptive(OdeProblem(rhs, t0, t1, y, tol=1e-12)).y_final
            worst = max(worst, abs(float(y[0]) - model.vprime_t(h, t1)))
    return worst, 1e-8


def one_step_action_identity():
    """Ito action + Gaussian normalization == -log N(x1 | x0 + a x0 dt, g2 dt I)
    on 34 random steps per schedule, dt from 1% to 10% of its window."""
    rng = data.stream(2024)
    worst = 0.0
    for schedule in _ALL_SCHEDULES:
        for _ in range(34):
            t0 = rng.uniform(schedule.t_min, 0.8 * schedule.t_max)
            dt = rng.uniform(0.01, 0.1) * (schedule.t_max - schedule.t_min)
            x0 = rng.standard_normal(schedule.dim)
            x1 = x0 + rng.standard_normal(schedule.dim) * 0.3
            path = DiscretePath(times=[t0, t0 + dt], states=[x0, x1],
                                scheme=DiscretizationScheme.ITO)
            var = schedule.g2(t0) * dt
            norm = 0.5 * schedule.dim * np.log(2 * np.pi * var)
            mean = x0 + schedule.drift_coef(t0) * x0 * dt
            neg_logpdf = norm + np.sum((x1 - mean) ** 2) / (2 * var)
            worst = max(worst, abs(forward_action(path, schedule) + norm - neg_logpdf))
    return worst, 1e-10


def stencil_quadratic_exactness():
    pts = stencil.star(np.array([1.0, 0.0]), 0.01)
    vals = pts[:, 0] ** 2 + pts[:, 1] ** 2
    g = stencil.gradient(vals[1:], 0.01)
    lap = stencil.laplacian(vals[0], vals[1:], 0.01)
    return max(abs(g[0] - 2.0), abs(g[1]), abs(lap - 4.0)), 1e-10


def w2_exact_vs_bruteforce():
    """Exact assignment against brute force over all matchings, 50 clouds of 6."""
    worst = 0.0
    for trial in range(50):
        rng = data.stream(100 + trial)
        a, b = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        best = min(np.sum((a - b[list(p)]) ** 2) for p in permutations(range(6)))
        worst = max(worst, abs(w2_exact(a, b).distance - np.sqrt(best / 6)))
    return worst, 1e-12


def _schedule_grid_max(residual) -> float:
    """max |residual(schedule, ts)| over 200 times in each schedule's window."""
    worst = 0.0
    for s in _ALL_SCHEDULES:
        ts = np.linspace(s.t_min, min(s.t_max, 0.99), 200)
        worst = max(worst, float(np.max(np.abs(residual(s, ts)))))
    return worst


def variance_preserving_identity():
    return _schedule_grid_max(lambda s, ts: s.alpha(ts) ** 2 + s.sigma2(ts) - 1.0), 1e-12


def g2_equals_minus_2a():
    return _schedule_grid_max(lambda s, ts: s.g2(ts) + 2.0 * s.drift_coef(ts)), 1e-10


def _curve(quantity, epsilon) -> np.ndarray:
    """``quantity`` (``GaussianModel.nll`` or ``.w2``) at 101 h values in [0, 1]."""
    model = GaussianModel(beta=1.0, v0=2.0, epsilon=epsilon, T=3.0)
    return np.array([quantity(model, h) for h in np.linspace(0.0, 1.0, 101)])


def gaussian_nll_monotone():
    return float(np.max(np.diff(_curve(GaussianModel.nll, 0.3)))), 1e-12


def gaussian_w2_monotone():
    return float(np.max(np.diff(_curve(GaussianModel.w2, 0.3)))), 1e-12


def gaussian_flat_at_eps0():
    nll = _curve(GaussianModel.nll, 0.0)
    return float(max(np.max(np.abs(nll - nll[0])),
                     np.max(np.abs(_curve(GaussianModel.w2, 0.0))))), 1e-12


def stationary_logq_equals_prior():
    """v0 = 1 with the exact score makes the flow the identity, two models."""
    worst = 0.0
    for beta, T, x in [(1.0, 3.0, (0.7, -0.4)), (4.0, 4.0, (0.9, 0.2))]:
        model = GaussianModel(beta=beta, v0=1.0, epsilon=0.0, T=T)
        schedule, x = model.to_schedule(dim=2, t_min=0.01), np.array(x)
        lq = logq_pf(model.to_score(dim=2), schedule, x, schedule.t_min, tol=1e-8)
        worst = max(worst, abs(lq - prior_logpdf(x[None, :])[0]))
    return worst, 1e-6


def sampler_determinism():
    score = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0).to_score(dim=2)
    cfg = SamplerConfig(h=1.0, n_steps=64, seed=5)
    sched = Schedule(kind=ScheduleKind.CONST_BETA, beta=1.0, t_max=3.0, dim=2)
    c1, _ = sample_sde(score, sched, cfg, 200)
    c2, _ = sample_sde(score, sched, cfg, 200)
    return int(np.count_nonzero(c1.points != c2.points)), 1  # entries that differ


def sampler_single_precision_gap():
    """The sampler's float32 network against its float64 evaluation."""
    net = MlpScore.create(2, seed=0)
    cfg = SamplerConfig(h=1.0, n_steps=200, seed=0)
    sched = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2)
    single, _ = sample_sde(net, sched, cfg, 64)
    double, _ = sample_sde(lambda x, t: net(x, t), sched, cfg, 64)
    return float(np.max(np.abs(single.points - double.points))), 1e-4


def swiss_roll_pooled_std():
    return abs(pooled_std(make_swiss_roll(3000, seed=3).points) - 1.0), 1e-6


def grid_mixture_pooled_std():
    return abs(pooled_std(make_25gaussian(25_000, seed=3).points) - 1.0), 0.01


def ode_reversibility():
    """Forward then backward on y' = -y returns to the start within 100 tol."""
    tol, y0 = 1e-8, np.array([1.0, -0.5])
    fwd = solve_adaptive(OdeProblem(lambda t, y: -y, 0.0, 1.0, y0, tol=tol))
    back = solve_adaptive(OdeProblem(lambda t, y: -y, 1.0, 0.0, fwd.y_final, tol=tol))
    return float(np.max(np.abs(back.y_final - y0))), 100 * tol


# The likelihood oracle, shared with the tests.  beta*T = 16 makes the
# unit-variance prior indistinguishable from the forward-process endpoint
# (v_T - 1 ~ 1e-7), so closed forms with boundary v'_T = v_T match the
# numerical pipeline.
ORACLE_T_MIN = 0.01


def oracle_model(epsilon: float) -> GaussianModel:
    return GaussianModel(beta=4.0, v0=2.0, epsilon=epsilon, T=4.0)


def _oracle(epsilon):
    """The oracle model, its schedule and its score on both derivative
    paths: the analytic score, whose derivatives are closed-form, and the
    same score as a plain callable, which the stencil differentiates as it
    does a trained score."""
    model = oracle_model(epsilon)
    score = model.to_score(dim=2)
    return (model, model.to_schedule(dim=2, t_min=ORACLE_T_MIN),
            (score, lambda x, t: score(x, t)))


def logq0_vs_closed_form():
    """The zeroth-order log-likelihood against the closed form at eps = 0.3,
    20 points."""
    model, schedule, paths = _oracle(0.3)
    t = schedule.t_min
    xs = data.stream(301).standard_normal((20, 2)) * np.sqrt(model.vprime_t(0.0, t))
    return max(abs(logq_pf(s, schedule, x, t, tol=1e-5) - model.logq0(x, h=0.0, t=t))
               for x in xs for s in paths), 1e-3


def _correction1(score, schedule, x) -> float:
    return nll_first_order(score, schedule, x, FdStencil(0.05),
                           tol_outer=1e-6, tol_inner=1e-7).correction1


# the two first-order checks take the first and the last ten of these draws
_FIRST_ORDER_DRAWS = data.stream(401).standard_normal((20, 2))


def first_order_vs_closed_form():
    """The first-order coefficient against the closed-form d log q0 / dh at
    eps = 0.3, relative, 10 points."""
    model, schedule, paths = _oracle(0.3)
    t, worst = schedule.t_min, 0.0
    for x in _FIRST_ORDER_DRAWS[:10] * np.sqrt(model.vprime_t(0.0, t)):
        exact = model.dlogq0_dh_at0(x, t=t)
        for s in paths:
            worst = max(worst, abs(_correction1(s, schedule, x) - exact) / abs(exact))
    return worst, 1e-4


def first_order_zero_at_exact_score():
    """The first-order coefficient of the exact score (eps = 0) is 0, 10 points."""
    model, schedule, paths = _oracle(0.0)
    return max(abs(_correction1(s, schedule, x))
               for x in _FIRST_ORDER_DRAWS[10:] * np.sqrt(model.v0) for s in paths), 1e-4


CHECKS = {check.__name__: check for check in (
    flow_identity_residual_grid_max, vprime_closed_form_vs_ode, one_step_action_identity,
    stencil_quadratic_exactness, w2_exact_vs_bruteforce, variance_preserving_identity,
    g2_equals_minus_2a, gaussian_nll_monotone, gaussian_w2_monotone, gaussian_flat_at_eps0,
    stationary_logq_equals_prior, sampler_determinism, sampler_single_precision_gap,
    swiss_roll_pooled_std, grid_mixture_pooled_std, ode_reversibility,
    logq0_vs_closed_form, first_order_vs_closed_form, first_order_zero_at_exact_score)}


def run_verification(stream) -> list[str]:
    """Print one line per check and a summary; return the failed names."""
    failures: list[str] = []
    for name, check in CHECKS.items():
        try:
            value, bound = check()
        except Exception as exc:  # a check that raises fails; the rest still run
            failures.append(name)
            stream.write(f"FAIL {name}: error={type(exc).__name__}\n")
            continue
        ok = np.isfinite(value) and value < bound
        if not ok:
            failures.append(name)
        stream.write(f"{'ok  ' if ok else 'FAIL'} {name}: value={value:.17g} "
                     f"bound={bound:g}\n")
    stream.write(f"{'FAILED' if failures else 'PASSED'} "
                 f"({len(failures)} failures)\n")
    return failures
