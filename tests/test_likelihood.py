import numpy as np
import pytest

from conftest import ORACLE_T_MIN, logq_characteristic, oracle_model
from nested_reference import nested_nll_first_order
from wkb_lab import stencil
from wkb_lab.data import make_swiss_roll
from wkb_lab.likelihood import (FdStencil, OuterState, _pf_with_div_rhs, logq_pf,
                                logq_pf_batch, nll_dataset, nll_first_order, prior_grad,
                                prior_logpdf, write_nll_table)
from wkb_lab.ode import OdeProblem, solve_adaptive
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.train import TrainConfig, train


def pipeline(eps: float, t_min: float = ORACLE_T_MIN):
    model = oracle_model(eps)
    return model, model.to_schedule(dim=2, t_min=t_min), model.to_score(dim=2)


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
        got = logq_pf(score, sched, x, sched.t_min, tol=1e-5)
        assert abs(got - model.logq0(x, h=0.0, t=sched.t_min)) < 1e-3


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


def test_first_order_vanishes_at_exact_score():
    _, sched, score = pipeline(0.0)
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((2, 2)):
        rep = nll_first_order(score, sched, x, FdStencil(0.05),
                              tol_outer=1e-6, tol_inner=1e-7)
        assert abs(rep.correction1) < 1e-4


def test_first_order_matches_closed_form_h_derivative():
    model, sched, score = pipeline(0.3)
    vp = model.vprime_t(0.0, sched.t_min)
    rng = np.random.default_rng(9)
    for x in rng.standard_normal((2, 2)) * np.sqrt(vp):
        rep = nll_first_order(score, sched, x, FdStencil(0.05),
                              tol_outer=1e-6, tol_inner=1e-7)
        oracle = model.dlogq0_dh_at0(x, t=sched.t_min)
        assert abs(rep.correction1 - oracle) / abs(oracle) < 0.05


def test_first_order_stable_under_stencil_halving():
    model, sched, score = pipeline(0.3)
    x = np.array([0.15, -0.08])
    reps = [nll_first_order(score, sched, x, FdStencil(dx),
                            tol_outer=1e-6, tol_inner=1e-7).correction1
            for dx in (0.02, 0.01)]
    assert abs(reps[0] - reps[1]) / abs(reps[1]) < 0.02


def test_first_order_fixed_step_agrees_with_adaptive():
    model, sched, score = pipeline(0.3)
    x = np.array([0.1, 0.05])
    ad = nll_first_order(score, sched, x, FdStencil(0.05),
                         tol_outer=1e-6, tol_inner=1e-7)
    fx = nll_first_order(score, sched, x, FdStencil(0.05),
                         tol_inner=1e-7, fixed_steps=400)
    assert abs(ad.correction1 - fx.correction1) / abs(ad.correction1) < 0.01
    assert abs(ad.log_q0 - fx.log_q0) < 1e-5


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
    write_nll_table(path, summary, {"schedule.kind": "const-beta"})
    text = path.read_text()
    assert text.startswith("# schedule.kind = const-beta\n")
    assert "point\tlog_q0\tcorrection1\terr_bound\tstatus" in text
    assert "# NLL = " in text and "# 1st-corr = " in text and "# errors = " in text
    # table reports the NLL-derivative convention
    assert f"{-summary.corr_mean:.12g}" in text


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
                                     sched.t_max, np.append(x0, 0.0), atol=1e-10,
                                     rtol=1e-10), record_trace=True).dense
    for t in np.linspace(sched.t_min, sched.t_max, 25):
        vp = model.vprime_t(0.0, t)
        x_t = flow(t)[:2]
        for x in (x_t, x_t + np.array([0.01, -0.02])):
            grad, lap = logq_derivs(t, x)
            np.testing.assert_allclose(grad, -x / vp, rtol=1e-5, atol=1e-8)
            assert lap == pytest.approx(-2.0 / vp, rel=1e-5)


def test_outer_state_names_the_layout():
    y = np.arange(8.0)
    state = OuterState.of(y)
    np.testing.assert_array_equal(state.x, [0.0, 1.0])
    np.testing.assert_array_equal(state.delta_x, [2.0, 3.0])
    assert state.delta_logq == 4.0
    np.testing.assert_array_equal(state.err1, [5.0, 6.0])
    assert state.err2 == 7.0
    assert state.correction1 == pytest.approx(-(0 * 2 + 1 * 3) + 4.0)
    assert state.err_bound == pytest.approx(5 * 0 + 6 * 1 + 7.0)
    np.testing.assert_array_equal(OuterState.initial(np.array([1.5, -2.0])),
                                  [1.5, -2.0, 0, 0, 0, 0, 0, 0])


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


def test_dataset_rejects_unknown_scheme_before_any_point():
    _, sched, score = pipeline(0.3)
    with pytest.raises(ValueError):
        nll_dataset(score, sched, np.zeros((2, 2)), err_scheme="nonsense")
