"""Self-contained oracle and property checks behind ``wkb-lab verify``.

Each check prints one line with the computed value and its bound; the
function returns the list of failed check names.  All randomness is seeded,
so repeated runs print identical values.
"""

from __future__ import annotations

import numpy as np

from .data import make_25gaussian, make_swiss_roll, pooled_std
from .gaussian_oracle import GaussianModel, flow_identity_residual_grid
from .likelihood import logq_pf, prior_logpdf
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


def _gauss_logpdf(x, mean, var):
    x = np.asarray(x, dtype=float)
    d = x.size
    return float(-0.5 * d * np.log(2 * np.pi * var) - np.sum((x - mean) ** 2) / (2 * var))


def run_verification(stream) -> list[str]:
    failures: list[str] = []

    def check(name: str, value: float, bound: float):
        ok = np.isfinite(value) and value < bound
        if not ok:
            failures.append(name)
        stream.write(f"{'ok  ' if ok else 'FAIL'} {name}: value={value:.17g} "
                     f"bound={bound:g}\n")

    # flow-identity residuals over the (h, eps) grid
    base = GaussianModel(beta=1.0, v0=2.0, T=3.0)
    grid = flow_identity_residual_grid(base, [0.0, 0.25, 0.5, 1.0], [-0.2, 0.0, 0.3])
    check("flow_identity_residual_grid_max", max(r for _, _, r in grid), 1e-6)

    # closed-form model variance vs its defining ODE, three parameter sets
    worst = 0.0
    for beta, v0, eps, T, h in [(1.0, 2.0, 0.3, 3.0, 0.0),
                                (2.0, 0.5, -0.2, 2.0, 1.0),
                                (1.0, 3.0, 0.1, 4.0, 0.5)]:
        model = GaussianModel(beta=beta, v0=v0, epsilon=eps, T=T)
        k = (1.0 + h) * (1.0 + eps)

        def rhs(t, y, model=model, k=k, h=h):
            return model.beta * (k / model.v_t(t) - 1.0) * y - h * model.beta

        tgrid = np.linspace(T, 0.0, 13)
        y = np.array([model.v_t(T)])
        for t0, t1 in zip(tgrid[:-1], tgrid[1:]):
            y = solve_adaptive(OdeProblem(rhs, t0, t1, y, tol=1e-12)).y_final
            worst = max(worst, abs(float(y[0]) - model.vprime_t(h, t1)))
    check("vprime_closed_form_vs_ode", worst, 1e-8)

    # one-step transition-density identity for the Ito action, all schedules
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
            act = forward_action(path, schedule)
            g2, a = schedule.g2(t0), schedule.drift_coef(t0)
            norm = 0.5 * schedule.dim * np.log(2 * np.pi * g2 * dt)
            ref = -_gauss_logpdf(x1, x0 + a * x0 * dt, g2 * dt)
            worst = max(worst, abs(act + norm - ref))
    check("one_step_action_identity", worst, 1e-10)

    # stencils are exact on quadratics
    quad = lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2
    vals = quad(stencil.star(np.array([1.0, 0.0]), 0.01))
    g = stencil.gradient(vals[1:], 0.01)
    lap = stencil.laplacian(vals[0], vals[1:], 0.01)
    check("stencil_quadratic_exactness",
          max(abs(g[0] - 2.0), abs(g[1]), abs(lap - 4.0)), 1e-9)

    # exact assignment equals brute force on N=6 clouds
    from itertools import permutations
    worst = 0.0
    for trial in range(10):
        rng2 = data.stream(100 + trial)
        a = rng2.standard_normal((6, 2))
        b = rng2.standard_normal((6, 2))
        best = min(np.sum((a - b[list(p)]) ** 2) for p in permutations(range(6)))
        worst = max(worst, abs(w2_exact(a, b).distance - np.sqrt(best / 6)))
    check("w2_exact_vs_bruteforce", worst, 1e-12)

    # schedule identities on a dense grid
    worst_vp, worst_g = 0.0, 0.0
    for schedule in _ALL_SCHEDULES:
        ts = np.linspace(schedule.t_min, min(schedule.t_max, 0.99), 200)
        al, s2 = schedule.alpha(ts), schedule.sigma2(ts)
        worst_vp = max(worst_vp, float(np.max(np.abs(al ** 2 + s2 - 1.0))))
        worst_g = max(worst_g, float(np.max(np.abs(
            schedule.g2(ts) + 2.0 * schedule.drift_coef(ts)))))
    check("variance_preserving_identity", worst_vp, 1e-12)
    check("g2_equals_minus_2a", worst_g, 1e-10)

    # closed-form NLL and W2 monotone nonincreasing in h (and flat at eps=0)
    hs = np.linspace(0.0, 1.0, 41)
    m_eps = GaussianModel(beta=1.0, v0=2.0, epsilon=0.3, T=3.0)
    nll = np.array([m_eps.nll(h) for h in hs])
    w2v = np.array([m_eps.w2(h) for h in hs])
    check("gaussian_nll_monotone", float(np.max(np.diff(nll))), 1e-12)
    check("gaussian_w2_monotone", float(np.max(np.diff(w2v))), 1e-12)
    m_flat = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0)
    check("gaussian_flat_at_eps0",
          max(abs(m_flat.nll(1.0) - m_flat.nll(0.0)), m_flat.w2(1.0)), 1e-12)

    # stationary zeroth-order likelihood equals the prior exactly
    model = GaussianModel(beta=1.0, v0=1.0, epsilon=0.0, T=3.0)
    schedule = model.to_schedule(dim=2, t_min=0.01)
    x = np.array([0.7, -0.4])
    lq = logq_pf(model.to_score(dim=2), schedule, x, schedule.t_min, tol=1e-8)
    check("stationary_logq_equals_prior", abs(lq - prior_logpdf(x)), 1e-6)

    # sampler determinism: identical clouds for identical seeds
    score = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0).to_score(dim=2)
    cfg = SamplerConfig(h=1.0, n_steps=64, seed=5)
    sched = Schedule(kind=ScheduleKind.CONST_BETA, beta=1.0, t_max=3.0, dim=2)
    c1, _ = sample_sde(score, sched, cfg, 128)
    c2, _ = sample_sde(score, sched, cfg, 128)
    check("sampler_determinism", float(np.max(np.abs(c1.points - c2.points))), 1e-15)

    # the sampler's float32 network against its float64 evaluation
    net = MlpScore.create(2, seed=0)
    cfg = SamplerConfig(h=1.0, n_steps=200, seed=0)
    sched = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2)
    single, _ = sample_sde(net, sched, cfg, 64)
    double, _ = sample_sde(lambda x, t: net(x, t), sched, cfg, 64)
    check("sampler_single_precision_gap",
          float(np.max(np.abs(single.points - double.points))), 1e-4)

    # dataset normalization
    sr = make_swiss_roll(2000, seed=3)
    check("swiss_roll_pooled_std", abs(pooled_std(sr.points) - 1.0), 1e-6)
    gm = make_25gaussian(20000, seed=3)
    check("grid_mixture_pooled_std", abs(pooled_std(gm.points) - 1.0), 0.01)

    # ODE reversibility on the linear test problem
    lin = lambda t, y: -y
    fwd = solve_adaptive(OdeProblem(lin, 0.0, 1.0, np.array([1.0]), tol=1e-8))
    back = solve_adaptive(OdeProblem(lin, 1.0, 0.0, fwd.y_final, tol=1e-8))
    check("ode_reversibility", abs(float(back.y_final[0]) - 1.0), 100 * 2e-8)

    stream.write(f"{'FAILED' if failures else 'PASSED'} "
                 f"({len(failures)} failures)\n")
    return failures
