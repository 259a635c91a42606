import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from wkb_lab.errors import NonFinite, StepUnderflow
from wkb_lab.ode import OdeProblem, solve_adaptive, solve_fixed_rk4


def test_constant_rhs_zero_is_exact():
    sol = solve_adaptive(OdeProblem(lambda t, y: 0.0 * y, 0.0, 3.7,
                                    np.array([2.5, -1.0])))
    np.testing.assert_array_equal(sol.y_final, [2.5, -1.0])


def test_linear_decay_matches_closed_form():
    sol = solve_adaptive(OdeProblem(lambda t, y: -y, 0.0, 1.0, np.array([1.0]),
                                    atol=1e-8, rtol=1e-8))
    assert abs(sol.y_final[0] - np.exp(-1.0)) < 1e-7


def test_harmonic_oscillator_energy_drift():
    rhs = lambda t, y: np.array([y[1], -y[0]])
    sol = solve_adaptive(OdeProblem(rhs, 0.0, 2 * np.pi, np.array([1.0, 0.0]),
                                    atol=1e-8, rtol=1e-8))
    energy = 0.5 * (sol.y_final[0] ** 2 + sol.y_final[1] ** 2)
    assert abs(energy - 0.5) < 1e-6


def test_backward_integration():
    sol = solve_adaptive(OdeProblem(lambda t, y: -y, 1.0, 0.0,
                                    np.array([np.exp(-1.0)]), atol=1e-9, rtol=1e-9))
    assert abs(sol.y_final[0] - 1.0) < 1e-7


def test_reversibility_linear_problem():
    tol = 1e-8
    y0 = np.array([1.0, -0.5])
    fwd = solve_adaptive(OdeProblem(lambda t, y: -y, 0.0, 1.0, y0, atol=tol, rtol=tol))
    back = solve_adaptive(OdeProblem(lambda t, y: -y, 1.0, 0.0, fwd.y_final,
                                     atol=tol, rtol=tol))
    assert np.max(np.abs(back.y_final - y0)) < 100 * tol


def test_adaptive_agrees_with_fixed_rk4():
    rhs = lambda t, y: np.array([np.sin(t) * y[0] - 0.2 * y[1], y[0] * 0.3])
    y0 = np.array([1.0, 0.5])
    atol = rtol = 1e-5
    ad = solve_adaptive(OdeProblem(rhs, 0.0, 2.0, y0, atol=atol, rtol=rtol))
    fx = solve_fixed_rk4(rhs, 0.0, 2.0, y0, n_steps=2000)
    bound = 10 * (atol + rtol * np.abs(fx.y_final))
    assert np.all(np.abs(ad.y_final - fx.y_final) < bound)


def test_rk4_constant_slope_exact():
    sol = solve_fixed_rk4(lambda t, y: np.ones_like(y), 0.0, 1.0, np.array([0.0]), 7)
    assert sol.y_final[0] == pytest.approx(1.0, abs=1e-15)


def test_rk4_fourth_order_convergence():
    exact = np.exp(-2.0)
    errs = []
    for n in (40, 80):
        sol = solve_fixed_rk4(lambda t, y: -y, 0.0, 2.0, np.array([1.0]), n)
        errs.append(abs(sol.y_final[0] - exact))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 22.0  # halving the step cuts the error ~16x


def test_rk4_zero_span_returns_initial_state():
    sol = solve_fixed_rk4(lambda t, y: y * 100, 1.0, 1.0, np.array([3.0]), 10)
    assert sol.y_final[0] == 3.0
    assert sol.n_steps == 0


def test_nonfinite_rhs_raises():
    def rhs(t, y):
        return y * y  # blows up in finite time from y0 = 2 on [0, 1]

    with pytest.raises((NonFinite, StepUnderflow)):
        solve_adaptive(OdeProblem(rhs, 0.0, 1.0, np.array([2.0])))


def test_step_budget_exhaustion_raises():
    rhs = lambda t, y: np.array([np.cos(50 * t) * y[0]])
    with pytest.raises(StepUnderflow):
        solve_adaptive(OdeProblem(rhs, 0.0, 10.0, np.array([1.0]),
                                  atol=1e-12, rtol=1e-12, max_steps=5))


def test_invalid_tolerances_rejected():
    with pytest.raises(ValueError):
        OdeProblem(lambda t, y: y, 0.0, 1.0, np.array([1.0]), atol=0.0)


def test_trace_recording():
    sol = solve_adaptive(OdeProblem(lambda t, y: -y, 0.0, 1.0, np.array([1.0])),
                         record_trace=True)
    ts = [t for t, _ in sol.dense_trace]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_retry_after_rejection_restarts_from_the_accepted_state():
    # a narrow pulse in the decay rate forces rejected steps; a retry that
    # started from the rejected trial's last stage missed by 12x the tolerance
    w = 0.02
    rhs = lambda t, y: -y * (1 + 100 * np.exp(-((t - 0.5) / w) ** 2))
    exact = np.exp(-1.0 - 100 * w * np.sqrt(np.pi) / 2 * (erf(0.5 / w) + erf(0.5 / w)))
    for tol in (1e-6, 1e-8):
        sol = solve_adaptive(OdeProblem(rhs, 0.0, 1.0, np.array([1.0]), atol=tol, rtol=tol))
        assert abs(sol.y_final[0] - exact) < tol


def test_recording_leaves_the_steps_unchanged():
    problem = OdeProblem(_oscillator, 0.0, 7.0, np.array([1.0, 0.0]), atol=1e-7, rtol=1e-7)
    plain = solve_adaptive(problem)
    traced = solve_adaptive(problem, record_trace=True)
    np.testing.assert_array_equal(plain.y_final, traced.y_final)
    assert plain.n_steps == traced.n_steps
    assert plain.dense is None and traced.dense is not None


@pytest.mark.parametrize("t0, t1", [(0.0, 3.0), (3.0, 0.0)])
def test_dense_output_matches_every_accepted_state(t0, t1):
    y0 = np.array([1.0, 0.0])
    sol = solve_adaptive(OdeProblem(_oscillator, t0, t1, y0, atol=1e-6, rtol=1e-6),
                         record_trace=True)
    ts = [t for t, _ in sol.dense_trace]
    for (t_prev, _), (t, y) in zip(sol.dense_trace, sol.dense_trace[1:]):
        # at the step end from inside the step (theta -> 1) and at the
        # next step's start (theta = 0)
        np.testing.assert_allclose(sol.dense(np.nextafter(t, t_prev)), y,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sol.dense(t), y, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(sol.dense(ts[0]), y0)


@settings(max_examples=40, deadline=None)
@given(st.floats(-9.0, -4.0), st.floats(0.2, 3.0), st.floats(0.5, 3.0), st.booleans())
def test_dense_output_tracks_the_solution_between_steps(log_tol, rate, omega, backward):
    tol = 10.0 ** log_tol
    t0, t1 = (4.0, 0.0) if backward else (0.0, 4.0)
    # decay at ``rate`` and a harmonic oscillator at ``omega``, each with
    # its exact flow map: between steps the interpolant must stay within the
    # tolerance's order of the exact solution through the step's start state
    rot = lambda tau: np.array([[np.cos(omega * tau), np.sin(omega * tau) / omega],
                                [-omega * np.sin(omega * tau), np.cos(omega * tau)]])
    problems = ((lambda t, y: -rate * y, lambda tau, y: np.exp(-rate * tau) * y),
                (lambda t, y: np.array([y[1], -omega ** 2 * y[0]]),
                 lambda tau, y: rot(tau) @ y))
    for rhs, flow in problems:
        y0 = np.array([1.0]) if rhs is problems[0][0] else np.array([1.0, 0.0])
        sol = solve_adaptive(OdeProblem(rhs, t0, t1, y0, atol=tol, rtol=tol),
                             record_trace=True)
        for (ta, ya), (tb, _) in zip(sol.dense_trace, sol.dense_trace[1:]):
            for t in np.linspace(ta, tb, 7)[1:-1]:
                want = flow(t - ta, ya)
                scale = tol * (1.0 + np.max(np.abs(want)))
                assert np.max(np.abs(sol.dense(t) - want)) < 2 * scale
