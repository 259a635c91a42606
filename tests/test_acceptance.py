"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -v -s`` or in captured
output) carrying the measured value against its bound; a failing assertion
marks the criterion FAIL.  A criterion that is also a ``wkb-lab verify``
check runs that check's entry of ``verify.CHECKS``, so the check is stated
once: criteria 1, 2, 3, 4 and 10 wholly, with their timing bounds,
criterion 5 its one-step identity and criterion 8 its brute-force
comparison; criterion 12 runs the whole table.  The desk-scale trained
models are built once per session by the ``trained_zoo`` fixture and
shared between criteria 9 and 11.
"""

import io
import time

import numpy as np
import pytest

from conftest import VALIDATION_SEED, make_dataset
from wkb_lab.gaussian_oracle import GaussianModel
from wkb_lab.likelihood import (FdStencil, _characteristic, _error_bar, nll_dataset,
                                nll_first_order)
from wkb_lab.pathaction import (DiscretePath, DiscretizationScheme,
                                forward_action, reverse_action)
from wkb_lab.sampler import SamplerConfig, sample_sde
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import MlpScore, dsm_loss
from wkb_lab.verify import CHECKS, run_verification
from wkb_lab.wasserstein import w2_exact, w2_gaussian_1d

pytestmark = pytest.mark.acceptance


def _report(criterion: int, detail: str, elapsed: float):
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}  [{elapsed:.2f}s]")


def test_criterion_01_flow_identity_grid():
    t0 = time.time()
    worst, bound = CHECKS["flow_identity_residual_grid_max"]()
    elapsed = time.time() - t0
    assert worst < bound
    assert elapsed < 1.0
    _report(1, f"max residual {worst:.3e} < {bound:g} over 12 grid points", elapsed)


def test_criterion_02_vprime_closed_form_vs_ode():
    t0 = time.time()
    worst, bound = CHECKS["vprime_closed_form_vs_ode"]()
    elapsed = time.time() - t0
    assert worst < bound
    _report(2, f"max |closed form - ODE| {worst:.3e} < {bound:g} over 6 parameter "
               f"sets", elapsed)


def test_criterion_03_zeroth_order_likelihood_oracle():
    t0 = time.time()
    worst, bound = CHECKS["logq0_vs_closed_form"]()
    elapsed = time.time() - t0
    assert worst < bound
    assert elapsed < 10.0
    _report(3, f"max |logq_pf - closed form| {worst:.3e} < {bound:g} over 20 points "
               f"(closed-form and stencil derivatives)", elapsed)


def test_criterion_04_first_order_wkb_oracle():
    t0 = time.time()
    worst_rel, rel_bound = CHECKS["first_order_vs_closed_form"]()
    worst_abs, abs_bound = CHECKS["first_order_zero_at_exact_score"]()
    elapsed = time.time() - t0
    assert worst_rel < rel_bound
    assert worst_abs < abs_bound
    assert elapsed < 120.0
    _report(4, f"worst relative {worst_rel:.2e} < {rel_bound:g}; exact-score worst "
               f"|corr| {worst_abs:.2e} < {abs_bound:g} (closed-form and stencil "
               f"derivatives)", elapsed)


def test_criterion_05_action_identities():
    t0 = time.time()
    worst, bound = CHECKS["one_step_action_identity"]()
    assert worst < bound

    # P = p0 exp(-A_fwd) = exp(-A_rev) p_T, checked pathwise on the exact
    # Gaussian; the midpoint scheme makes the discrete residual O(dt)
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
    ratio = residuals[0] / residuals[-2]  # dt ratio 8, so 8 at first order
    elapsed = time.time() - t0
    assert np.all(np.diff(residuals) < 0.0)  # refinement shrinks the residual
    assert ratio == pytest.approx(8.0, rel=0.6)
    assert slope >= 0.9
    _report(5, f"one-step identity worst {worst:.2e} < {bound:g} (102 steps); "
               f"forward/reverse identity order {slope:.3f} >= 0.9, residual "
               f"ratio {ratio:.2f} over an 8x dt refinement", elapsed)


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
    worst, bound = CHECKS["w2_exact_vs_bruteforce"]()
    assert worst < bound

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
    for name in ("gaussian_nll_monotone", "gaussian_w2_monotone",
                 "gaussian_flat_at_eps0"):
        value, bound = CHECKS[name]()
        assert value < bound, name
    elapsed = time.time() - t0
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
    tight = _characteristic(model, sched, val.points[0], 1e-5, 0.01)
    grown = [_error_bar(model, sched, 0.01, tight, floor, 1e-3) for floor in (1e-6, 1e-4)]
    elapsed = time.time() - t0
    assert grown[0] <= grown[1]
    assert 0.013 <= mean_bound <= 1.3, f"mean err bound {mean_bound:.3f}"
    assert elapsed < 600.0
    _report(11, f"mean bound {mean_bound:.3f} is order 0.1; bound grows "
                f"{grown[0]:.3f} -> {grown[1]:.3f} under injected local error",
            elapsed)


def test_criterion_12_verify_determinism():
    # verify holds fast checks only (1-2 s a run); trained-model gates stay tests
    t0 = time.time()
    outputs, times = [], []
    for _ in range(2):
        buf = io.StringIO()
        t_run = time.time()
        failures = run_verification(buf)
        times.append(time.time() - t_run)
        assert not failures
        outputs.append(buf.getvalue())
    elapsed = time.time() - t0
    assert outputs[0] == outputs[1]  # byte-identical
    assert max(times) < 8.0
    _report(12, f"verify outputs identical across reruns, each run under 8 s "
                f"({times[0]:.2f}s, {times[1]:.2f}s)", elapsed)
