"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -v -s`` or in captured
output) carrying the measured value against its bound; a failing assertion
marks the criterion FAIL.  The desk-scale trained models are built once per
session by the ``trained_zoo`` fixture and shared between criteria 9 and 11.
"""

import io
import time
from itertools import permutations

import numpy as np
import pytest

from conftest import (ORACLE_T_MIN, VALIDATION_SEED, characteristic, make_dataset,
                      oracle_model)
from wkb_lab.gaussian_oracle import GaussianModel, flow_identity_residual_grid
from wkb_lab.likelihood import FdStencil, logq_pf, nll_dataset, nll_first_order
from wkb_lab.ode import OdeProblem, solve_adaptive
from wkb_lab.pathaction import (DiscretePath, DiscretizationScheme,
                                forward_action, reverse_action)
from wkb_lab.sampler import SamplerConfig, sample_sde
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import MlpScore, dsm_loss
from wkb_lab.verify import run_verification
from wkb_lab.wasserstein import w2_exact, w2_gaussian_1d

pytestmark = pytest.mark.acceptance


def _report(criterion: int, detail: str, elapsed: float):
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}  [{elapsed:.2f}s]")


def test_criterion_01_flow_identity_grid():
    t0 = time.time()
    grid = flow_identity_residual_grid(GaussianModel(beta=1.0, v0=2.0, T=3.0),
                               [0.0, 0.25, 0.5, 1.0], [-0.2, 0.0, 0.3])
    worst = max(r for _, _, r in grid)
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 1.0
    _report(1, f"max residual {worst:.3e} < 1e-6 over 12 grid points", elapsed)


def test_criterion_02_vprime_closed_form_vs_ode():
    t0 = time.time()
    worst = 0.0
    for beta, v0, eps, T, h in [(1.0, 2.0, 0.3, 3.0, 0.0),
                                (2.0, 0.5, -0.2, 2.0, 1.0),
                                (1.0, 3.0, 0.1, 4.0, 0.5)]:
        model = GaussianModel(beta=beta, v0=v0, epsilon=eps, T=T)
        k = (1.0 + h) * (1.0 + eps)
        rhs = lambda t, y: model.beta * (k / model.v_t(t) - 1.0) * y - h * model.beta
        tgrid = np.linspace(T, 0.0, 13)
        y = np.array([model.v_t(T)])
        for ta, tb in zip(tgrid[:-1], tgrid[1:]):
            y = solve_adaptive(OdeProblem(rhs, ta, tb, y,
                                          tol=1e-12)).y_final
            worst = max(worst, abs(float(y[0]) - model.vprime_t(h, tb)))
    elapsed = time.time() - t0
    assert worst < 1e-8
    _report(2, f"max |closed form - ODE| {worst:.3e} < 1e-8 over 3 parameter sets",
            elapsed)


def test_criterion_03_zeroth_order_likelihood_oracle():
    t0 = time.time()
    model = oracle_model(0.3)
    sched = model.to_schedule(dim=2, t_min=ORACLE_T_MIN)
    score = model.to_score(dim=2)
    vp = model.vprime_t(0.0, sched.t_min)
    rng = np.random.default_rng(301)
    worst = 0.0
    for x in rng.standard_normal((20, 2)) * np.sqrt(vp):
        got = logq_pf(score, sched, x, sched.t_min, tol=1e-5)
        worst = max(worst, abs(got - model.logq0(x, h=0.0, t=sched.t_min)))
    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 10.0
    _report(3, f"max |logq_pf - closed form| {worst:.3e} < 1e-3 over 20 points",
            elapsed)


def test_criterion_04_first_order_wkb_oracle():
    # each point with the analytic score, whose derivatives are closed-form,
    # and with the same score as a plain callable, which the stencil
    # differentiates as it does a trained score
    t0 = time.time()
    stencil = FdStencil(dx=0.05)
    model = oracle_model(0.3)
    sched = model.to_schedule(dim=2, t_min=ORACLE_T_MIN)
    score = model.to_score(dim=2)
    vp = model.vprime_t(0.0, sched.t_min)
    rng = np.random.default_rng(401)
    worst_rel = 0.0
    for x in rng.standard_normal((10, 2)) * np.sqrt(vp):
        oracle = model.dlogq0_dh_at0(x, t=sched.t_min)
        for s in (score, lambda y, t: score(y, t)):
            rep = nll_first_order(s, sched, x, stencil,
                                  tol_outer=1e-6, tol_inner=1e-7)
            worst_rel = max(worst_rel, abs(rep.correction1 - oracle) / abs(oracle))

    flat = oracle_model(0.0)
    fsched = flat.to_schedule(dim=2, t_min=ORACLE_T_MIN)
    fscore = flat.to_score(dim=2)
    worst_abs = 0.0
    for x in rng.standard_normal((10, 2)) * np.sqrt(flat.v0):
        for s in (fscore, lambda y, t: fscore(y, t)):
            rep = nll_first_order(s, fsched, x, stencil,
                                  tol_outer=1e-6, tol_inner=1e-7)
            worst_abs = max(worst_abs, abs(rep.correction1))
    elapsed = time.time() - t0
    assert worst_rel < 1e-4
    assert worst_abs < 1e-4
    assert elapsed < 120.0
    _report(4, f"worst relative {worst_rel:.2e} < 1e-4; exact-score worst "
               f"|corr| {worst_abs:.2e} < 1e-4 (closed-form and stencil "
               f"derivatives)", elapsed)


def test_criterion_05_action_identities():
    t0 = time.time()
    schedules = (Schedule(kind=ScheduleKind.SIMPLE, beta=20.0),
                 Schedule(kind=ScheduleKind.COSINE, t_max=0.999),
                 Schedule(kind=ScheduleKind.CONST_BETA, beta=1.0, t_max=3.0))
    rng = np.random.default_rng(501)
    worst = 0.0
    for sched in schedules:
        for _ in range(34):
            ta = rng.uniform(sched.t_min, 0.8 * sched.t_max)
            dt = rng.uniform(0.02, 0.1) * (sched.t_max - sched.t_min)
            x0 = rng.standard_normal(2)
            x1 = x0 + 0.3 * rng.standard_normal(2)
            path = DiscretePath(times=[ta, ta + dt], states=[x0, x1],
                                scheme=DiscretizationScheme.ITO)
            g2 = sched.g2(ta)
            mean = x0 + sched.drift_coef(ta) * x0 * dt
            ref = np.sum((x1 - mean) ** 2) / (2 * g2 * dt)
            worst = max(worst, abs(forward_action(path, sched) - ref))
    assert worst < 1e-10

    model = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0)
    sched = Schedule(kind=ScheduleKind.CONST_BETA, beta=1.0, t_max=3.0, dim=1)
    score = model.to_score(dim=1)
    logp = lambda x, t: (-0.5 * np.log(2 * np.pi * model.v_t(t))
                         - x * x / (2 * model.v_t(t)))
    rng = np.random.default_rng(502)
    n_fine, factors, n_paths = 2048, (16, 8, 4, 2, 1), 20
    residuals = np.zeros(len(factors))
    for _ in range(n_paths):
        ts = np.linspace(0.0, model.T, n_fine + 1)
        xs = np.empty((n_fine + 1, 1))
        xs[0, 0] = rng.normal(0.0, np.sqrt(model.v0))
        decay = np.exp(-0.5 * model.beta * (ts[1] - ts[0]))
        sig = np.sqrt(1 - decay ** 2)
        for i in range(n_fine):
            xs[i + 1, 0] = decay * xs[i, 0] + sig * rng.normal()
        for i, k in enumerate(factors):
            path = DiscretePath(times=ts[::k], states=xs[::k],
                                scheme=DiscretizationScheme.STRATONOVICH)
            lhs = -logp(xs[0, 0], 0.0) + forward_action(path, sched)
            rhs = -logp(xs[-1, 0], model.T) + reverse_action(path, sched, score)
            residuals[i] += abs(lhs - rhs) / n_paths
    dts = model.T * np.asarray(factors, dtype=float) / n_fine
    slope = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
    elapsed = time.time() - t0
    assert slope >= 0.9
    _report(5, f"one-step identity worst {worst:.2e} < 1e-10 (100 steps); "
               f"forward/reverse identity order {slope:.3f} >= 0.9", elapsed)


def test_criterion_06_gradient_correctness():
    t0 = time.time()
    sched = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2)
    cloud = make_dataset("swiss-roll", 128)
    worst = 0.0
    for seed in (0, 1, 2):
        model = MlpScore.create(dim=2, seed=seed)
        out = dsm_loss(model, cloud.points, sched, rng_seed=seed + 50)
        params, grads = model.views(model.params), model.views(out.grads)
        rng = np.random.default_rng(600 + seed)
        for j in range(20):
            k = j % len(params)  # cycle weights and biases of every layer
            idx = tuple(int(rng.integers(0, s)) for s in params[k].shape)
            h, old = 1e-6, params[k][idx]
            params[k][idx] = old + h
            lp = dsm_loss(model, cloud.points, sched, rng_seed=seed + 50).loss
            params[k][idx] = old - h
            lm = dsm_loss(model, cloud.points, sched, rng_seed=seed + 50).loss
            params[k][idx] = old
            fd = (lp - lm) / (2 * h)
            bp = grads[k][idx]
            worst = max(worst, abs(bp - fd) / max(abs(fd), abs(bp), 1e-10))
    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 10.0
    _report(6, f"worst gradient rel. error {worst:.2e} < 1e-4 "
               f"(3 seeds x 20 parameters)", elapsed)


def test_criterion_07_sampler_statistics():
    t0 = time.time()
    model = GaussianModel(beta=2.0, v0=2.0, epsilon=0.0, T=6.0)
    sched = model.to_schedule(dim=2, t_min=1e-4)
    score = model.to_score(dim=2)
    n = 10_000
    cloud, _ = sample_sde(score, sched, SamplerConfig(h=1.0, n_steps=2000, seed=77), n)
    var = float(cloud.points.var(axis=0).mean())
    se = model.v0 * np.sqrt(2.0 / n)
    elapsed = time.time() - t0
    assert abs(var - model.v0) < 4 * se
    assert elapsed < 30.0
    _report(7, f"sample variance {var:.4f} within 4 SE ({4 * se:.4f}) of v0 = 2",
            elapsed)


def test_criterion_08_wasserstein_exactness():
    t0 = time.time()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(800 + trial)
        a, b = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        best = min(np.sum((a - b[list(p)]) ** 2) for p in permutations(range(6)))
        worst = max(worst, abs(w2_exact(a, b).distance - np.sqrt(best / 6)))
    assert worst < 1e-12

    rng = np.random.default_rng(850)
    a = rng.normal(0.0, 2.0, size=(5000, 1))
    b = rng.normal(0.0, 1.0, size=(5000, 1))
    gap = abs(w2_exact(a, b).distance - w2_gaussian_1d(4.0, 1.0))
    elapsed = time.time() - t0
    assert gap < 0.05
    assert elapsed < 30.0
    _report(8, f"assignment exact to {worst:.1e} on 50 brute-forced instances; "
               f"Gaussian sampling gap {gap:.4f} < 0.05", elapsed)


@pytest.mark.slow
def test_criterion_09_table_sign_reproduction(trained_zoo):
    t0 = time.time()
    corr = {}
    for ds_name in ("swiss-roll", "25-gaussian"):
        for kind in (ScheduleKind.SIMPLE, ScheduleKind.COSINE):
            model, sched, _ = trained_zoo.get(ds_name, kind)
            val = make_dataset(ds_name, 200, seed=VALIDATION_SEED)
            summary = nll_dataset(model, sched, val.points[:64],
                                  stencil=FdStencil(0.01), tol_outer=1e-3,
                                  tol_inner=1e-5, threads=2)
            # cosine runs can lose a point or two to diverging trajectories
            assert summary.n_points - summary.n_failed >= 50
            corr[(ds_name, kind)] = summary.nll_corr_mean
    elapsed = time.time() - t0
    for key, val in corr.items():
        assert val < 0.0, f"NLL correction for {key} is {val:+.3f}, expected < 0"
    assert abs(corr[("25-gaussian", ScheduleKind.COSINE)]) > \
        abs(corr[("25-gaussian", ScheduleKind.SIMPLE)])
    detail = ", ".join(f"{d}/{k.value}: {v:+.2f}" for (d, k), v in corr.items())
    _report(9, f"NLL corrections all negative ({detail}); grid-mixture "
               f"cosine magnitude exceeds simple", elapsed)


def test_criterion_10_closed_form_curve_shapes():
    t0 = time.time()
    hs = np.linspace(0.0, 1.0, 101)
    tilted = GaussianModel(beta=1.0, v0=2.0, epsilon=0.3, T=3.0)
    nll = np.array([tilted.nll(h) for h in hs])
    w2 = np.array([tilted.w2(h) for h in hs])
    assert np.all(np.diff(nll) <= 1e-12)
    assert np.all(np.diff(w2) <= 1e-12)
    flat = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0)
    fn = np.array([flat.nll(h) for h in hs])
    fw = np.array([flat.w2(h) for h in hs])
    elapsed = time.time() - t0
    assert np.max(np.abs(fn - fn[0])) < 1e-12
    assert np.max(np.abs(fw)) < 1e-12
    assert elapsed < 1.0
    _report(10, "nll(h), w2(h) monotone nonincreasing at eps=0.3 and flat at eps=0",
            elapsed)


@pytest.mark.slow
def test_criterion_11_error_machinery(trained_zoo):
    t0 = time.time()
    model, sched, _ = trained_zoo.get("swiss-roll", ScheduleKind.SIMPLE)
    val = make_dataset("swiss-roll", 40, seed=VALIDATION_SEED)
    bounds = []
    for x in val.points[:12]:
        rep = nll_first_order(model, sched, x, FdStencil(0.01),
                              tol_outer=1e-3, tol_inner=1e-5, err_scheme="model")
        assert rep.err_bound >= 0.0
        bounds.append(rep.err_bound)
    mean_bound = float(np.mean(bounds))

    # injecting larger local errors never decreases the bound
    from wkb_lab.likelihood import OuterState, _error_bar_rhs
    tight = characteristic(model, sched, val.points[0], 0.01, 1e-5)
    grown = []
    for floor in (1e-6, 1e-4):
        rhs, table = _error_bar_rhs(model, sched, FdStencil(0.01), tight.path, floor)
        sol = solve_adaptive(OdeProblem(rhs, sched.t_min, sched.t_max, np.zeros(3),
                                        tol=1e-3, stage_hook=table))
        grown.append(OuterState.of(sol.y_final).err_bound(tight.x_T))
    elapsed = time.time() - t0
    assert grown[0] <= grown[1]
    assert 0.013 <= mean_bound <= 1.3, f"mean err bound {mean_bound:.3f}"
    assert elapsed < 600.0
    _report(11, f"mean bound {mean_bound:.3f} is order 0.1; bound grows "
                f"{grown[0]:.3f} -> {grown[1]:.3f} under injected local error",
            elapsed)


def test_criterion_12_verify_determinism():
    t0 = time.time()
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        failures = run_verification(buf)
        assert not failures
        outputs.append(buf.getvalue())
    elapsed = time.time() - t0
    assert outputs[0] == outputs[1]  # byte-identical, stronger than 1e-12
    for a, b in zip(outputs[0].splitlines(), outputs[1].splitlines()):
        va = [float(tok.split("=")[1]) for tok in a.split() if tok.startswith("value=")]
        vb = [float(tok.split("=")[1]) for tok in b.split() if tok.startswith("value=")]
        assert all(abs(x - y) <= 1e-12 for x, y in zip(va, vb))
    _report(12, "verify outputs identical across reruns", elapsed)
