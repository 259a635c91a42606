import numpy as np
import pytest

from conftest import ORACLE_T_MIN, oracle_model
import wkb_lab.likelihood as likelihood
from wkb_lab.error_est import local_err_model_from_derivs, local_err_subtraction_from_values
from wkb_lab.errors import NonFinite
from wkb_lab.likelihood import (FdStencil, _characteristic, _error_bar, _error_bar_rhs,
                                nll_dataset, nll_first_order)
from wkb_lab.ode import OdeProblem, solve_adaptive
from wkb_lab.stencil import score_div_derivatives


def pipeline(eps: float):
    model = oracle_model(eps)
    return model, model.to_schedule(dim=2, t_min=ORACLE_T_MIN), model.to_score(dim=2)


def test_subtraction_zero_when_values_agree():
    vals = (np.array([[20.0, 10.0]]), np.array([-3.0]))  # (gradient, Laplacian)
    grad_err, lap_err = local_err_subtraction_from_values(vals, vals)
    np.testing.assert_array_equal(grad_err, 0.0)
    assert lap_err == 0.0


def test_model_floor_arithmetic():
    grad_err, lap_err = local_err_model_from_derivs(np.zeros((1, 2)), np.zeros(1), dx=0.01,
                                                    logq_err=1e-5)
    np.testing.assert_allclose(grad_err, 1e-3)
    assert lap_err == pytest.approx(1e-1)


def test_model_scaling_with_dx():
    grad_div, lap_div = np.array([[2.0, -1.0]]), np.array([3.0])
    (grad_small, lap_small), (grad_big, lap_big) = (
        local_err_model_from_derivs(grad_div, lap_div, dx=dx, logq_err=1e-5)
        for dx in (0.01, 0.02))
    # dx^2 terms quadruple, the 1/dx^2 floor quarters
    np.testing.assert_allclose(grad_big - 1e-5 / 0.02, 4 * (grad_small - 1e-5 / 0.01))
    assert lap_big - 1e-5 / 0.02 ** 2 == pytest.approx(4 * (lap_small - 1e-5 / 0.01 ** 2))


def test_model_scheme_on_linear_score_reduces_to_floor():
    # the analytic score is linear in x, so its divergence derivatives vanish
    _, sched, score = pipeline(0.3)
    _, _, grad_div_s, lap_div_s = (
        o[0] for o in score_div_derivatives(score, np.array([[0.2, -0.1]]), 0.5, dx=0.01))
    grad_err, lap_err = local_err_model_from_derivs(grad_div_s, lap_div_s, 0.01, 1e-5)
    np.testing.assert_allclose(grad_err, 1e-3, rtol=1e-6)
    assert lap_err == pytest.approx(1e-1, rel=1e-6)


def test_nan_local_error_fails_the_point(monkeypatch):
    # the estimators do not check their bounds: a NaN makes the bar's
    # right-hand side non-finite, its solve raises NonFinite, and a dataset
    # run counts the point as failed
    _, sched, score = pipeline(0.3)
    real, calls = likelihood.local_err_model_from_derivs, []

    def nan_in_first_call(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        grad_err, lap_err = calls[-1]
        return grad_err, lap_err if len(calls) > 1 else np.nan * lap_err

    monkeypatch.setattr(likelihood, "local_err_model_from_derivs", nan_in_first_call)
    with pytest.raises(NonFinite, match="rhs not finite"):
        nll_first_order(score, sched, np.array([0.1, -0.05]))
    calls.clear()
    summary = nll_dataset(score, sched, np.array([[0.1, -0.05], [0.2, 0.1]]))
    assert summary.n_failed == 1 and summary.reports[0] is None


def test_zero_local_errors_give_zero_bound():
    # the analytic score is linear in x, so grad(div s) and lap(div s) are
    # exactly 0; with no solver floor the model local errors are exactly 0
    _, sched, score = pipeline(0.3)
    tight = _characteristic(score, sched, np.array([0.1, 0.0]), 1e-6, 0.05)
    assert _error_bar(score, sched, 0.05, tight, logq_err=0.0, tol=1e-4) == 0.0
    rep_bound = nll_first_order(score, sched, np.array([0.1, 0.0]), FdStencil(0.05),
                                tol_outer=1e-4, tol_inner=1e-6,
                                err_scheme="model").err_bound
    assert rep_bound >= 0.0


def test_error_components_nondecreasing_along_integration():
    _, sched, score = pipeline(0.3)
    path = _characteristic(score, sched, np.array([0.1, -0.05]), 1e-6, 0.05).path
    rhs, table = _error_bar_rhs(score, sched, 0.05, path, logq_err=1e-6)
    sol = solve_adaptive(OdeProblem(rhs, sched.t_min, sched.t_max, np.zeros(3),
                                    tol=1e-4, stage_hook=table), record_trace=True)
    errs = np.vstack([sol.dense.y_start, sol.y_final])
    assert np.all(np.diff(errs, axis=0) >= -1e-15)


def test_bound_monotone_in_injected_local_error():
    _, sched, score = pipeline(0.3)
    tight = _characteristic(score, sched, np.array([0.1, -0.05]), 1e-6, 0.05)
    bounds = [_error_bar(score, sched, 0.05, tight, logq_err=floor, tol=1e-5)
              for floor in (1e-6, 1e-5, 1e-4)]
    assert bounds[0] < bounds[1] < bounds[2]
