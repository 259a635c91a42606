import dataclasses
import os

import numpy as np
import pytest

from conftest import ORACLE_T_MIN, logq_characteristic, oracle_model
from nested_reference import nested_nll_first_order
import stencil_reference
import wkb_lab.likelihood as likelihood
from wkb_lab import stencil
from wkb_lab.data import make_swiss_roll, write_table
from wkb_lab.likelihood import (FdStencil, OuterState, _characteristic_rhs,
                                _pf_with_div_rhs, logq_pf, logq_pf_batch, nll_dataset,
                                nll_first_order, prior_grad, prior_logpdf)
from wkb_lab.ode import OdeProblem, solve_adaptive
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import AnalyticGaussianScore, MlpScore
from wkb_lab.stencil import score_second_derivatives
from wkb_lab.train import TrainConfig, train


def pipeline(eps: float, t_min: float = ORACLE_T_MIN):
    model = oracle_model(eps)
    return model, model.to_schedule(dim=2, t_min=t_min), model.to_score(dim=2)


def stencil_path(score):
    """The same score as a plain callable, which the derivative helpers
    differentiate by stencil sweeps rather than in closed form."""
    return lambda x, t: score(x, t)


def both_paths(score):
    """(name, score) for the closed-form and the stencil derivatives."""
    return (("closed form", score), ("stencil", stencil_path(score)))


def test_prior_values():
    assert prior_logpdf(np.zeros(2)) == pytest.approx(-np.log(2 * np.pi))
    np.testing.assert_array_equal(prior_grad(np.zeros(3)), np.zeros(3))
    np.testing.assert_array_equal(prior_grad(np.array([1.0, 2.0])), [-1.0, -2.0])


def test_logq_at_terminal_time_is_prior():
    _, sched, score = pipeline(0.3)
    x = np.array([0.3, -1.1])
    got = logq_pf(score, sched, x, t_start=sched.t_max)
    assert got == pytest.approx(prior_logpdf(x), abs=1e-12)


def test_logq_stationary_case_equals_prior():
    model, sched, score = pipeline(0.0)
    model1 = oracle_model(0.0)
    # v0 = 1 makes the flow the identity
    from wkb_lab.gaussian_oracle import GaussianModel
    m = GaussianModel(beta=4.0, v0=1.0, epsilon=0.0, T=4.0)
    sched, score = m.to_schedule(dim=2, t_min=0.01), m.to_score(dim=2)
    x = np.array([0.9, 0.2])
    assert logq_pf(score, sched, x, sched.t_min, tol=1e-7) == pytest.approx(
        prior_logpdf(x), abs=1e-6)


def test_logq_matches_closed_form():
    model, sched, score = pipeline(0.3)
    vp = model.vprime_t(0.0, sched.t_min)
    rng = np.random.default_rng(1)
    for x in rng.standard_normal((5, 2)) * np.sqrt(vp):
        for name, path in both_paths(score):
            got = logq_pf(path, sched, x, sched.t_min, tol=1e-5)
            assert abs(got - model.logq0(x, h=0.0, t=sched.t_min)) < 1e-3, name


def test_logq_self_consistent_under_tol_tightening():
    _, sched, score = pipeline(0.3)
    x = np.array([0.2, -0.1])
    loose = logq_pf(score, sched, x, sched.t_min, tol=1e-4)
    tight = logq_pf(score, sched, x, sched.t_min, tol=1e-5)
    assert abs(loose - tight) < 1e-4


def test_fd_grad_logq_stationary_gaussian():
    from wkb_lab.gaussian_oracle import GaussianModel
    m = GaussianModel(beta=4.0, v0=1.0, epsilon=0.0, T=4.0)
    sched, score = m.to_schedule(dim=2, t_min=0.01), m.to_score(dim=2)
    x = np.array([0.5, -0.3])
    logq = logq_pf_batch(score, sched, stencil.star(x, 0.01), sched.t_min, tol=1e-7,
                         stencil=FdStencil(0.01))
    np.testing.assert_allclose(stencil.gradient(logq[1:], 0.01), -x, atol=1e-4)
    lap = stencil.laplacian(logq[0], logq[1:], 0.01)
    assert lap == pytest.approx(-2.0, abs=1e-2)


# The oracle tests below run each point twice: with the analytic score,
# whose derivatives are closed-form, and with the same score as a plain
# callable, whose derivatives come from the stencil sweeps a trained score
# takes.  Both must meet the same bound against the exact answer.

def test_first_order_vanishes_at_exact_score():
    _, sched, score = pipeline(0.0)
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((2, 2)):
        for name, path in both_paths(score):
            rep = nll_first_order(path, sched, x, FdStencil(0.05),
                                  tol_outer=1e-6, tol_inner=1e-7)
            assert abs(rep.correction1) < 1e-4, name


def test_first_order_matches_closed_form_h_derivative():
    model, sched, score = pipeline(0.3)
    vp = model.vprime_t(0.0, sched.t_min)
    rng = np.random.default_rng(9)
    for x in rng.standard_normal((2, 2)) * np.sqrt(vp):
        oracle = model.dlogq0_dh_at0(x, t=sched.t_min)
        for name, path in both_paths(score):
            rep = nll_first_order(path, sched, x, FdStencil(0.05),
                                  tol_outer=1e-6, tol_inner=1e-7)
            assert abs(rep.correction1 - oracle) / abs(oracle) < 1e-4, name


def test_first_order_matches_closed_form_at_the_cli_defaults():
    # the nll command's dx and tolerances, on points drawn like the data
    model, sched, score = pipeline(0.3)
    vp = model.vprime_t(0.0, sched.t_min)
    xs = np.random.default_rng(1).standard_normal((40, 2)) * np.sqrt(vp)
    for name, path in both_paths(score):
        worst = 0.0
        for x in xs:
            rep = nll_first_order(path, sched, x, FdStencil(0.01),
                                  tol_outer=1e-3, tol_inner=1e-5)
            oracle = model.dlogq0_dh_at0(x, t=sched.t_min)
            worst = max(worst, abs(rep.correction1 - oracle) / abs(oracle))
        assert worst < 1e-4, name


def test_first_order_stable_under_stencil_halving():
    # the closed-form derivatives take no dx, so only the stencil path varies
    model, sched, score = pipeline(0.3)
    score = stencil_path(score)
    x = np.array([0.15, -0.08])
    reps = [nll_first_order(score, sched, x, FdStencil(dx),
                            tol_outer=1e-6, tol_inner=1e-7).correction1
            for dx in (0.02, 0.01)]
    assert abs(reps[0] - reps[1]) / abs(reps[1]) < 0.02


def test_one_ulp_does_not_move_the_oracle_result():
    # the oracle's derivatives are exact, so no stencil rounding noise
    # steers the backward pass's step sizes: a one-ulp move of x0 moves
    # correction1 by rounding only (2.1e-12 measured with x(t) read from
    # the zeroth-order solve, 1.4e-13 when the backward pass integrated x;
    # stencil derivatives gave 3.6e-9 here)
    _, sched, score = pipeline(0.3)
    worst = 0.0
    for x in np.random.default_rng(3).standard_normal((30, 2)) * 0.9:
        a, b = (nll_first_order(score, sched, x0, FdStencil(0.01), tol_outer=1e-3,
                                tol_inner=1e-5).correction1
                for x0 in (x, np.nextafter(x, np.inf)))
        worst = max(worst, abs(a - b) / abs(a))
    assert worst <= 1e-11


def test_batch_solver_matches_single_solves():
    _, sched, score = pipeline(0.3)
    xs = np.array([[0.1, 0.2], [-0.3, 0.05], [0.0, -0.1]])
    batch = logq_pf_batch(score, sched, xs, sched.t_min, tol=1e-7)
    singles = [logq_pf(score, sched, x, sched.t_min, tol=1e-7) for x in xs]
    np.testing.assert_allclose(batch, singles, atol=1e-5)


def test_dataset_single_point_has_zero_stderr():
    _, sched, score = pipeline(0.3)
    summary = nll_dataset(score, sched, np.array([[0.1, 0.0]]),
                          stencil=FdStencil(0.05), tol_outer=1e-4, tol_inner=1e-6)
    assert summary.nll_stderr == 0.0
    assert summary.corr_stderr == 0.0
    assert summary.n_failed == 0


def test_dataset_aggregation_permutation_invariant():
    _, sched, score = pipeline(0.3)
    pts = np.array([[0.1, 0.0], [-0.2, 0.1], [0.05, -0.15]])
    a = nll_dataset(score, sched, pts, stencil=FdStencil(0.05),
                    tol_outer=1e-4, tol_inner=1e-6)
    b = nll_dataset(score, sched, pts[::-1], stencil=FdStencil(0.05),
                    tol_outer=1e-4, tol_inner=1e-6)
    assert a.nll_mean == pytest.approx(b.nll_mean, rel=1e-12)
    assert a.corr_mean == pytest.approx(b.corr_mean, rel=1e-12)


def test_dataset_parallel_matches_serial():
    _, sched, score = pipeline(0.3)
    pts = np.array([[0.1, 0.0], [-0.2, 0.1]])
    kw = dict(stencil=FdStencil(0.05), tol_outer=1e-4, tol_inner=1e-6)
    a = nll_dataset(score, sched, pts, threads=1, **kw)
    b = nll_dataset(score, sched, pts, threads=2, **kw)
    assert a.nll_mean == b.nll_mean
    assert a.corr_mean == b.corr_mean


def test_table_writer_layout(tmp_path):
    _, sched, score = pipeline(0.3)
    summary = nll_dataset(score, sched, np.array([[0.1, 0.0], [0.0, 0.2]]),
                          stencil=FdStencil(0.05), tol_outer=1e-4, tol_inner=1e-6)
    path = tmp_path / "table.tsv"
    write_table(path, *summary.table(), echo={"schedule.kind": "const-beta"})
    text = path.read_text()
    assert text.startswith("# schedule.kind = const-beta\n")
    assert "point\tlog_q0\tcorrection1\terr_bound\tstatus" in text
    assert "# NLL = " in text and "# 1st-corr = " in text and "# errors = " in text
    # table reports the NLL-derivative convention
    assert f"{-summary.corr_mean:.12g}" in text
    corrs = [rep.correction1 for rep in summary.reports]
    assert f"# 1st-corr-median = {-np.median(corrs):.12g}\n" in text


@pytest.mark.parametrize("dx", [0.0, -0.01, float("nan"), float("inf")])
def test_stencil_spacing_must_be_positive(dx):
    with pytest.raises(ValueError, match="dx"):
        FdStencil(dx=dx)


def test_rejects_out_of_window_start():
    _, sched, score = pipeline(0.3)
    with pytest.raises(ValueError):
        logq_pf(score, sched, np.zeros(2), t_start=sched.t_max + 1.0)
    with pytest.raises(ValueError):
        nll_first_order(score, sched, np.zeros(3))


def test_characteristic_matches_oracle_along_the_flow():
    # log q0_t is Gaussian with variance v'_t, so grad log q0_t(x) = -x / v'_t
    # and its Laplacian is -d / v'_t, anywhere near the trajectory
    model, sched, score = pipeline(0.3)
    x0 = np.array([0.12, -0.07])
    logq_derivs = logq_characteristic(score, sched, x0, 0.05, 1e-8)
    flow = solve_adaptive(OdeProblem(_pf_with_div_rhs(score, sched, 1, 0.05), sched.t_min,
                                     sched.t_max, np.append(x0, 0.0), tol=1e-10),
                          record_trace=True).dense
    for t in np.linspace(sched.t_min, sched.t_max, 25):
        vp = model.vprime_t(0.0, t)
        x_t = flow.at([t])[0, :2]
        for x in (x_t, x_t + np.array([0.01, -0.02])):
            grad, lap = (o[0] for o in logq_derivs(np.array([t]), x[None, :]))
            np.testing.assert_allclose(grad, -x / vp, rtol=1e-5, atol=1e-8)
            assert lap == pytest.approx(-2.0 / vp, rel=1e-5)


def test_outer_state_names_the_layout():
    y = np.arange(3.0)
    state = OuterState.of(y)
    np.testing.assert_array_equal(state.err1, [0.0, 1.0])
    assert state.err2 == 2.0
    assert state.err_bound(np.array([3.0, -4.0])) == pytest.approx(0 * 3 + 1 * 4 + 2.0)


def test_err_bound_counts_a_rounded_negative_err1_as_zero():
    # err1 starts at 0 and grows at nonnegative rates, but DOPRI5's negative
    # weight -2187/6784 can end a tiny component just below 0; the bound
    # must not go negative with it
    state = OuterState.of(np.array([-3.7e-7, 2e-9, 0.0]))
    assert state.err_bound(np.array([1.0, -4.0])) == 4 * 2e-9


def test_stage_table_answers_only_the_announced_times():
    # a right-hand side reads only the times its solver's hook announced;
    # any other time is a broken contract, not a time to score on the spot
    table = likelihood._StageTable(lambda ts: (2.0 * ts).tolist())
    table((0.1, 0.3))
    assert table.at(0.3) == 0.6
    with pytest.raises(KeyError):
        table.at(0.2)
    table((0.2,))  # the next attempt's times replace the last
    assert table.at(0.2) == 0.4
    with pytest.raises(KeyError):
        table.at(0.1)


def _assert_within_nested_bound(score, sched, points):
    for x in points:
        new = nll_first_order(score, sched, x, FdStencil(0.01))
        ref = nested_nll_first_order(score, sched, x)
        assert abs(new.correction1 - ref.correction1) <= ref.err_bound, \
            f"{x}: {new.correction1} vs nested {ref.correction1} +- {ref.err_bound}"


def test_agrees_with_nested_reference_on_oracle_points():
    model, sched, score = pipeline(0.3)
    vp = model.vprime_t(0.0, sched.t_min)
    rng = np.random.default_rng(17)
    _assert_within_nested_bound(score, sched, rng.standard_normal((4, 2)) * np.sqrt(vp))


@pytest.mark.slow
def test_agrees_with_nested_reference_on_trained_model():
    sched = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, t_min=0.01, t_max=1.0, dim=2)
    model = train(TrainConfig(epochs=200, batch_size=256, seed=3),
                  make_swiss_roll(1000, seed=4), sched).model
    _assert_within_nested_bound(model, sched, make_swiss_roll(4, seed=5).points)


class _FailsNear:
    """The oracle score, raising ValueError on points near ``bad``."""

    def __init__(self, score, bad):
        self.score, self.bad = score, np.asarray(bad)

    def __call__(self, x, t):
        if np.any(np.linalg.norm(np.atleast_2d(x) - self.bad, axis=1) < 0.2):
            raise ValueError("score undefined here")
        return self.score(x, t)


@pytest.mark.parametrize("threads", [1, 2])
def test_dataset_contains_any_exception_of_one_point(threads):
    _, sched, score = pipeline(0.3)
    pts = np.array([[0.1, 0.0], [0.0, 0.5], [-0.1, 0.05]])
    summary = nll_dataset(_FailsNear(score, pts[1]), sched, pts, stencil=FdStencil(0.05),
                          tol_outer=1e-4, tol_inner=1e-6, threads=threads)
    assert summary.n_failed == 1 and summary.reports[1] is None
    assert summary.reports[0] is not None and summary.reports[2] is not None


class _NeedsOneBlasThread:
    """The oracle score where BLAS is pinned to one thread, NaN elsewhere."""

    def __init__(self, score):
        self.score = score

    def __call__(self, x, t):
        s = self.score(x, t)
        pinned = all(os.environ.get(key) == "1" for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
        return s if pinned else np.full_like(s, np.nan)


def test_dataset_workers_run_blas_on_one_thread(monkeypatch):
    # the worker processes already share out the cores; a BLAS thread pool
    # in each would oversubscribe them.  The caller's environment stays.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _, sched, score = pipeline(0.3)
    summary = nll_dataset(_NeedsOneBlasThread(score), sched,
                          np.array([[0.1, 0.0], [0.0, 0.5], [-0.1, 0.05]]),
                          stencil=FdStencil(0.05), tol_outer=1e-4, tol_inner=1e-6, threads=2)
    assert summary.n_failed == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4" and "MKL_NUM_THREADS" not in os.environ


# (keyword arguments, the name the error gives): each is rejected on entry
_BAD_TOLS = [pytest.param({name: value}, name, id=f"{name}={value!r}")
             for name in ("tol_outer", "tol_inner") for value in (float("nan"), 0.0, -1e-3)]
# nll_first_order keeps err_scheme, whose one accepted value is "model"
_BAD_SCHEMES = [pytest.param({"err_scheme": "nonsense"}, "scheme", id="scheme"),
                pytest.param({"err_scheme": "subtraction"}, "scheme", id="scheme=subtraction")]


@pytest.mark.parametrize("kwargs, match", _BAD_TOLS)
def test_dataset_rejects_unknown_scheme_before_any_point(kwargs, match):
    _, sched, exact = pipeline(0.3)
    calls = []

    def score(x, t):
        calls.append(t)
        return exact(x, t)

    with pytest.raises(ValueError, match=match):
        nll_dataset(score, sched, np.zeros((2, 2)), **kwargs)
    assert calls == []


@pytest.mark.parametrize("kwargs, match", _BAD_SCHEMES + _BAD_TOLS)
def test_first_order_rejects_unknown_scheme_before_any_solve(kwargs, match):
    _, sched, exact = pipeline(0.3)
    calls = []

    def score(x, t):
        calls.append(t)
        return exact(x, t)

    with pytest.raises(ValueError, match=match):
        nll_first_order(score, sched, np.array([0.1, 0.0]), **kwargs)
    assert calls == []


def test_score_rows_per_right_hand_side_are_pinned(monkeypatch):
    # a timing-free cost guard.  A wrapped callable takes the stencil
    # sweeps: each zeroth-order right-hand side scores its star (5 rows).
    # The backward and error-bar stages score nothing; their stage tables
    # make one stacked call per step attempt, at its 5 distinct stage times
    # (21 and 13 rows per time), and one single-time call each before the
    # first evaluation and before the initial-step probe.  The analytic
    # score has closed-form derivatives and makes no score call at all.
    _, sched, exact = pipeline(0.3)
    rows = []
    analytic_call = AnalyticGaussianScore.__call__

    def counted_call(self, x, t):
        rows.append(np.atleast_2d(x).shape[0])
        return analytic_call(self, x, t)

    def score(x, t):
        return exact(x, t)

    monkeypatch.setattr(AnalyticGaussianScore, "__call__", counted_call)
    per_rhs, per_hook, attempts = {}, {}, {}

    def counting_solve(problem, **kwargs):
        rhs, hook = problem.rhs, problem.stage_hook
        name = rhs.__qualname__.split(".")[0]

        def counted(t, y):
            start = len(rows)
            out = rhs(t, y)
            per_rhs.setdefault(name, set()).add(tuple(rows[start:]))
            return out

        def counted_hook(times):
            start = len(rows)
            hook(times)
            per_hook.setdefault(name, []).append((len(times), tuple(rows[start:])))

        sol = solve_adaptive(dataclasses.replace(
            problem, rhs=counted, stage_hook=counted_hook if hook else None), **kwargs)
        attempts.setdefault(name, []).append(sol.n_steps)
        return sol

    monkeypatch.setattr(likelihood, "solve_adaptive", counting_solve)
    nll_first_order(score, sched, np.array([0.3, -0.2]), FdStencil(0.01),
                    tol_outer=1e-2, tol_inner=1e-3)
    assert per_rhs == {"_pf_with_div_rhs": {(5,)},   # zeroth order, tight and loose
                       "_characteristic_rhs": {()},  # backward
                       "_error_bar_rhs": {()}}       # error bar
    assert set(per_hook) == {"_characteristic_rhs", "_error_bar_rhs"}
    for name, per_time in (("_characteristic_rhs", 21), ("_error_bar_rhs", 13)):
        calls, (n_steps,) = per_hook[name], attempts[name]
        assert n_steps > 1 and len(calls) == 2 + n_steps
        assert calls[:2] == [(1, (per_time,))] * 2
        assert set(calls[2:]) == {(5, (5 * per_time,))}
    per_rhs.clear()
    per_hook.clear()
    rows.clear()
    nll_first_order(exact, sched, np.array([0.3, -0.2]), FdStencil(0.01),
                    tol_outer=1e-2, tol_inner=1e-3)
    assert per_rhs == {"_pf_with_div_rhs": {()}, "_characteristic_rhs": {()},
                       "_error_bar_rhs": {()}}
    assert {made for calls in per_hook.values() for _, made in calls} == {()}
    assert rows == []


def _scores(d):
    sched = Schedule(kind=ScheduleKind.COSINE, beta=20.0, t_min=0.01, t_max=0.99, dim=d)
    return sched, {"mlp": MlpScore.create(dim=d, seed=d),
                   "analytic": AnalyticGaussianScore(beta=1.3, v0=2.0, epsilon=0.3, dim=d)}


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("kind", ["mlp", "analytic"])
def test_zeroth_order_rhs_matches_the_stencil_formula(kind, m):
    # the flow and the divergence term from the score on every stencil row,
    # with the divergence taken by the stencil formula
    d, dx = 2, 0.01
    sched, scores = _scores(d)
    score = scores[kind]
    rhs = _pf_with_div_rhs(score, sched, m, dx)
    rng = np.random.default_rng(m)
    for t in (0.01, 0.4, 0.97):
        y = rng.standard_normal(m * d + m)
        s, div_s = stencil_reference.score_divergence(score, y[: m * d].reshape(m, d), t, dx)
        a, half_gg = sched.drift_coef(t), 0.5 * sched.g2(t)
        want = np.concatenate([(a * y[: m * d].reshape(m, d) - half_gg * s).ravel(),
                               d * a - half_gg * div_s])
        got = rhs(t, y)
        assert got.shape == want.shape
        # the flow is exact; the divergence rounds as a sum of dx-scaled terms
        assert got[: m * d].tobytes() == want[: m * d].tobytes()
        scale = half_gg * np.max(np.abs(s)) / dx
        assert np.max(np.abs(got[m * d:] - want[m * d:])) <= 1e-14 * scale


def _characteristic_rhs_einsum(schedule, derivatives):
    """The backward right-hand side as first written, with the einsum, on
    the score derivatives ``derivatives(t, x)``."""
    d = schedule.dim
    eye = np.eye(d)

    def rhs(t, z):
        x, a, hess = z[:d], z[d: 2 * d], z[2 * d: 2 * d + d * d].reshape(d, d)
        alpha = schedule.drift_coef(t)
        gg = schedule.g2(t)
        s, jac, hess_s, grad_div_s, hess_div_s = derivatives(t, x)
        jac_pf = alpha * eye - 0.5 * gg * jac
        x_dot = alpha * x - 0.5 * gg * s
        a_dot = -jac_pf.T @ a + 0.5 * gg * grad_div_s
        h_dot = (-jac_pf.T @ hess - hess @ jac_pf
                 + 0.5 * gg * (np.einsum("k,kij->ij", a, hess_s) + hess_div_s))
        c_dot = -0.5 * gg * (a @ (s - a) + np.trace(jac) - np.trace(hess))
        return np.concatenate([x_dot, a_dot, h_dot.ravel(), [c_dot]])

    return rhs


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["mlp", "analytic"])
def test_characteristic_rhs_matches_the_einsum_formula(kind, d):
    # the operator form of the (a, H, c) part, with x(t) read from the
    # path, against the formula on the same derivatives: once from the stage
    # table of one stacked call at all three times, and once from a table
    # filled per call.  (A stacked network call rounds its rows apart from
    # single-point calls, and stencils amplify that, so each form is
    # compared with the formula on the derivatives it read.)
    sched, scores = _scores(d)
    score = scores[kind]
    rng = np.random.default_rng(d)
    times = (0.01, 0.4, 0.97)
    states = {t: rng.standard_normal(2 * d + d * d + 1) for t in times}

    def path(ts):
        return np.array([states[t][:d] for t in ts])

    stacked_derivs = score_second_derivatives(score, path(times), np.array(times), 0.01)
    forms = []
    rhs, table = _characteristic_rhs(score, sched, 0.01, path)
    table(times)
    forms.append((rhs, lambda t, x: [o[times.index(t)] for o in stacked_derivs]))
    rhs, table = _characteristic_rhs(score, sched, 0.01, path)

    def per_call(t, z, rhs=rhs, table=table):  # announces each time itself
        table((t,))
        return rhs(t, z)

    forms.append((per_call, lambda t, x: [
        o[0] for o in score_second_derivatives(score, x[None, :], t, 0.01)]))
    for rhs, derivatives in forms:
        ref = _characteristic_rhs_einsum(sched, derivatives)
        for t, z in states.items():
            got, want = rhs(t, z[d:]), ref(t, z)[d:]
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
