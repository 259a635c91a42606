import numpy as np
import pytest

from conftest import ORACLE_T_MIN, characteristic, logq_characteristic, oracle_model
from wkb_lab.error_est import (LocalErr, local_err_model_from_derivs,
                               local_err_subtraction_from_values)
from wkb_lab.likelihood import FdStencil, OuterState, _error_bar_rhs, nll_first_order
from wkb_lab.ode import OdeProblem, solve_adaptive
from wkb_lab.score import score_div_derivatives


def pipeline(eps: float):
    model = oracle_model(eps)
    return model, model.to_schedule(dim=2, t_min=ORACLE_T_MIN), model.to_score(dim=2)


def test_subtraction_zero_when_values_agree():
    vals = (np.array([20.0, 10.0]), -3.0)  # (gradient, Laplacian)
    err = local_err_subtraction_from_values(vals, vals)
    np.testing.assert_array_equal(err.grad_err, 0.0)
    assert err.lap_err == 0.0


def test_model_floor_arithmetic():
    err = local_err_model_from_derivs(np.zeros(2), 0.0, dx=0.01, logq_err=1e-5)
    np.testing.assert_allclose(err.grad_err, 1e-3)
    assert err.lap_err == pytest.approx(1e-1)


def test_model_scaling_with_dx():
    grad_div, lap_div = np.array([2.0, -1.0]), 3.0
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
    _, grad_div_s, lap_div_s = score_div_derivatives(score, np.array([0.2, -0.1]),
                                                     0.5, dx=0.01)
    err = local_err_model_from_derivs(grad_div_s, lap_div_s, dx=0.01, logq_err=1e-5)
    np.testing.assert_allclose(err.grad_err, 1e-3, rtol=1e-6)
    assert err.lap_err == pytest.approx(1e-1, rel=1e-6)


def test_subtraction_scheme_bounds_small_on_analytic_case():
    _, sched, score = pipeline(0.3)
    x = np.array([0.1, 0.0])
    tight, loose = (logq_characteristic(score, sched, x, 0.01, tol)(sched.t_min, x)
                    for tol in (1e-5, 1.1 * 1e-5))
    err = local_err_subtraction_from_values(tight, loose)
    assert np.all(err.grad_err < 1e-2)
    assert err.lap_err < 1e-2


def test_local_err_rejects_negative():
    with pytest.raises(ValueError):
        LocalErr(grad_err=np.array([-1.0, 0.0]), lap_err=0.0)


def test_zero_local_errors_give_zero_bound():
    # the subtraction scheme against its own characteristic has zero local error
    _, sched, score = pipeline(0.3)
    back, x_T = characteristic(score, sched, np.array([0.1, 0.0]), 0.05, 1e-6)
    rhs = _error_bar_rhs(score, sched, FdStencil(0.05), back.dense, "subtraction",
                         loose=back.dense)
    sol = solve_adaptive(OdeProblem(rhs, sched.t_min, sched.t_max, np.zeros(3), tol=1e-4))
    assert OuterState.of(sol.y_final).err_bound(x_T) == 0.0
    rep_bound = nll_first_order(score, sched, np.array([0.1, 0.0]), FdStencil(0.05),
                                tol_outer=1e-4, tol_inner=1e-6,
                                err_scheme="model").err_bound
    assert rep_bound >= 0.0


def test_error_components_nondecreasing_along_integration():
    _, sched, score = pipeline(0.3)
    back, _ = characteristic(score, sched, np.array([0.1, -0.05]), 0.05, 1e-6)
    rhs = _error_bar_rhs(score, sched, FdStencil(0.05), back.dense, err_scheme="model",
                         logq_err=1e-6)
    sol = solve_adaptive(OdeProblem(rhs, sched.t_min, sched.t_max, np.zeros(3),
                                    tol=1e-4), record_trace=True)
    errs = np.vstack([sol.dense.y_start, sol.y_final])
    assert np.all(np.diff(errs, axis=0) >= -1e-15)


def test_bound_monotone_in_injected_local_error():
    _, sched, score = pipeline(0.3)
    back, x_T = characteristic(score, sched, np.array([0.1, -0.05]), 0.05, 1e-6)
    bounds = []
    for floor in (1e-6, 1e-5, 1e-4):
        rhs = _error_bar_rhs(score, sched, FdStencil(0.05), back.dense,
                             err_scheme="model", logq_err=floor)
        sol = solve_adaptive(OdeProblem(rhs, sched.t_min, sched.t_max, np.zeros(3),
                                        tol=1e-5))
        bounds.append(OuterState.of(sol.y_final).err_bound(x_T))
    assert bounds[0] < bounds[1] < bounds[2]


def test_schemes_agree_on_analytic_case_order_of_magnitude():
    # sanity cross-check, not a strict bound: both schemes should report
    # small bounds of broadly comparable size here
    _, sched, score = pipeline(0.3)
    x = np.array([0.12, -0.03])
    kw = dict(tol_outer=1e-4, tol_inner=1e-6)
    b_model, b_sub = (nll_first_order(score, sched, x, FdStencil(0.01), err_scheme=scheme,
                                      **kw).err_bound
                      for scheme in ("model", "subtraction"))
    assert b_model < 1e-1 and b_sub < 1e-1
