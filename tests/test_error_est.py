import numpy as np
import pytest

from conftest import ORACLE_T_MIN, characteristic, oracle_model
from wkb_lab.error_est import (LocalErr, local_err_model_from_derivs,
                               local_err_subtraction_from_values)
from wkb_lab.likelihood import FdStencil, OuterState, _error_bar_rhs, nll_first_order
from wkb_lab.ode import OdeProblem, solve_adaptive
from wkb_lab.stencil import score_div_derivatives


def pipeline(eps: float):
    model = oracle_model(eps)
    return model, model.to_schedule(dim=2, t_min=ORACLE_T_MIN), model.to_score(dim=2)


def test_subtraction_zero_when_values_agree():
    vals = (np.array([[20.0, 10.0]]), np.array([-3.0]))  # (gradient, Laplacian)
    err = local_err_subtraction_from_values(vals, vals)
    np.testing.assert_array_equal(err.grad_err, 0.0)
    assert err.lap_err == 0.0


def test_model_floor_arithmetic():
    err = local_err_model_from_derivs(np.zeros((1, 2)), np.zeros(1), dx=0.01, logq_err=1e-5)
    np.testing.assert_allclose(err.grad_err, 1e-3)
    assert err.lap_err == pytest.approx(1e-1)


def test_model_scaling_with_dx():
    grad_div, lap_div = np.array([[2.0, -1.0]]), np.array([3.0])
    small = local_err_model_from_derivs(grad_div, lap_div, dx=0.01, logq_err=1e-5)
    big = local_err_model_from_derivs(grad_div, lap_div, dx=0.02, logq_err=1e-5)
    # dx^2 terms quadruple, the 1/dx^2 floor quarters
    np.testing.assert_allclose(big.grad_err - 1e-5 / 0.02,
                               4 * (small.grad_err - 1e-5 / 0.01))
    assert big.lap_err - 1e-5 / 0.02 ** 2 == pytest.approx(
        4 * (small.lap_err - 1e-5 / 0.01 ** 2))


def test_model_scheme_on_linear_score_reduces_to_floor():
    # the analytic score is linear in x, so its divergence derivatives vanish
    _, sched, score = pipeline(0.3)
    _, _, grad_div_s, lap_div_s = (
        o[0] for o in score_div_derivatives(score, np.array([[0.2, -0.1]]), 0.5, dx=0.01))
    err = local_err_model_from_derivs(grad_div_s, lap_div_s, dx=0.01, logq_err=1e-5)
    np.testing.assert_allclose(err.grad_err, 1e-3, rtol=1e-6)
    assert err.lap_err == pytest.approx(1e-1, rel=1e-6)


def test_local_err_rejects_negative():
    with pytest.raises(ValueError):
        LocalErr(grad_err=np.array([[-1.0, 0.0]]), lap_err=np.zeros(1))


def test_zero_local_errors_give_zero_bound():
    # the analytic score is linear in x, so grad(div s) and lap(div s) are
    # exactly 0; with no solver floor the model local errors are exactly 0
    _, sched, score = pipeline(0.3)
    tight = characteristic(score, sched, np.array([0.1, 0.0]), 0.05, 1e-6)
    rhs, table = _error_bar_rhs(score, sched, FdStencil(0.05), tight.path, logq_err=0.0)
    sol = solve_adaptive(OdeProblem(rhs, sched.t_min, sched.t_max, np.zeros(3), tol=1e-4,
                                    stage_hook=table))
    assert OuterState.of(sol.y_final).err_bound(tight.x_T) == 0.0
    rep_bound = nll_first_order(score, sched, np.array([0.1, 0.0]), FdStencil(0.05),
                                tol_outer=1e-4, tol_inner=1e-6,
                                err_scheme="model").err_bound
    assert rep_bound >= 0.0


def test_error_components_nondecreasing_along_integration():
    _, sched, score = pipeline(0.3)
    path = characteristic(score, sched, np.array([0.1, -0.05]), 0.05, 1e-6).path
    rhs, table = _error_bar_rhs(score, sched, FdStencil(0.05), path, logq_err=1e-6)
    sol = solve_adaptive(OdeProblem(rhs, sched.t_min, sched.t_max, np.zeros(3),
                                    tol=1e-4, stage_hook=table), record_trace=True)
    errs = np.vstack([sol.dense.y_start, sol.y_final])
    assert np.all(np.diff(errs, axis=0) >= -1e-15)


def test_bound_monotone_in_injected_local_error():
    _, sched, score = pipeline(0.3)
    tight = characteristic(score, sched, np.array([0.1, -0.05]), 0.05, 1e-6)
    bounds = []
    for floor in (1e-6, 1e-5, 1e-4):
        rhs, table = _error_bar_rhs(score, sched, FdStencil(0.05), tight.path,
                                    logq_err=floor)
        sol = solve_adaptive(OdeProblem(rhs, sched.t_min, sched.t_max, np.zeros(3),
                                        tol=1e-5, stage_hook=table))
        bounds.append(OuterState.of(sol.y_final).err_bound(tight.x_T))
    assert bounds[0] < bounds[1] < bounds[2]
