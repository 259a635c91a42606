import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import dopri5_reference
from wkb_lab.errors import NonFinite, StepUnderflow
from rk4_reference import solve_fixed_rk4
from wkb_lab import likelihood
from wkb_lab.ode import _MAX_NORM, OdeProblem, solve_adaptive
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import MlpScore


def test_constant_rhs_zero_is_exact():
    sol = solve_adaptive(OdeProblem(lambda t, y: 0.0 * y, 0.0, 3.7,
                                    np.array([2.5, -1.0])))
    np.testing.assert_array_equal(sol.y_final, [2.5, -1.0])


def test_linear_decay_matches_closed_form():
    sol = solve_adaptive(OdeProblem(lambda t, y: -y, 0.0, 1.0, np.array([1.0]),
                                    tol=1e-8))
    assert abs(sol.y_final[0] - np.exp(-1.0)) < 1e-7


def test_harmonic_oscillator_energy_drift():
    rhs = lambda t, y: np.array([y[1], -y[0]])
    sol = solve_adaptive(OdeProblem(rhs, 0.0, 2 * np.pi, np.array([1.0, 0.0]),
                                    tol=1e-8))
    energy = 0.5 * (sol.y_final[0] ** 2 + sol.y_final[1] ** 2)
    assert abs(energy - 0.5) < 1e-6


def test_backward_integration():
    sol = solve_adaptive(OdeProblem(lambda t, y: -y, 1.0, 0.0,
                                    np.array([np.exp(-1.0)]), tol=1e-9))
    assert abs(sol.y_final[0] - 1.0) < 1e-7


def test_adaptive_agrees_with_fixed_rk4():
    rhs = lambda t, y: np.array([np.sin(t) * y[0] - 0.2 * y[1], y[0] * 0.3])
    y0 = np.array([1.0, 0.5])
    tol = 1e-5
    ad = solve_adaptive(OdeProblem(rhs, 0.0, 2.0, y0, tol=tol))
    fx = solve_fixed_rk4(rhs, 0.0, 2.0, y0, n_steps=2000)
    bound = 10 * (tol + tol * np.abs(fx.y_final))
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


def test_nan_from_the_rhs_mid_solve_is_a_nonfinite_state():
    # finite at the start and for the first steps, NaN from t = 0.5 on
    rhs = lambda t, y: -y if t < 0.5 else np.full_like(y, np.nan)
    with pytest.raises(NonFinite, match="state not finite"):
        solve_adaptive(OdeProblem(rhs, 0.0, 1.0, np.array([1.0, 2.0])))


def test_finite_growth_past_the_norm_cap_raises():
    # e^t stays finite on [0, 30] but passes the cap near t = 18.4
    with pytest.raises(NonFinite, match="norm exceeded"):
        solve_adaptive(OdeProblem(lambda t, y: y, 0.0, 30.0, np.array([1.0])))
    assert np.exp(30.0) > _MAX_NORM


def test_step_budget_exhaustion_raises():
    rhs = lambda t, y: np.array([np.cos(50 * t) * y[0]])
    with pytest.raises(StepUnderflow):
        solve_adaptive(OdeProblem(rhs, 0.0, 10.0, np.array([1.0]),
                                  tol=1e-12, max_steps=5))


def test_invalid_tolerances_rejected():
    for tol in (0.0, -1e-5, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            OdeProblem(lambda t, y: y, 0.0, 1.0, np.array([1.0]), tol=tol)


def _knots(sol):
    """(time, state) at every accepted step's start and at the end."""
    return (list(zip(sol.dense.t_start, sol.dense.y_start))
            + [(sol.t_final, sol.y_final)])


def test_trace_recording():
    sol = solve_adaptive(OdeProblem(lambda t, y: -y, 0.0, 1.0, np.array([1.0])),
                         record_trace=True)
    ts = [t for t, _ in _knots(sol)]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))
    np.testing.assert_allclose(sol.dense.t_start + sol.dense.h, ts[1:], rtol=0,
                               atol=1e-14)


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_retry_after_rejection_restarts_from_the_accepted_state():
    # a narrow pulse in the decay rate forces rejected steps; a retry that
    # started from the rejected trial's last stage missed by 12x the tolerance
    w = 0.02
    rhs = lambda t, y: -y * (1 + 100 * np.exp(-((t - 0.5) / w) ** 2))
    exact = np.exp(-1.0 - 100 * w * np.sqrt(np.pi) / 2 * (erf(0.5 / w) + erf(0.5 / w)))
    for tol in (1e-6, 1e-8):
        sol = solve_adaptive(OdeProblem(rhs, 0.0, 1.0, np.array([1.0]), tol=tol))
        assert abs(sol.y_final[0] - exact) < tol


def test_recording_leaves_the_steps_unchanged():
    problem = OdeProblem(_oscillator, 0.0, 7.0, np.array([1.0, 0.0]), tol=1e-7)
    plain = solve_adaptive(problem)
    traced = solve_adaptive(problem, record_trace=True)
    np.testing.assert_array_equal(plain.y_final, traced.y_final)
    assert plain.n_steps == traced.n_steps
    assert plain.dense is None and traced.dense is not None


@pytest.mark.parametrize("t0, t1", [(0.0, 3.0), (3.0, 0.0)])
def test_dense_output_matches_every_accepted_state(t0, t1):
    y0 = np.array([1.0, 0.0])
    sol = solve_adaptive(OdeProblem(_oscillator, t0, t1, y0, tol=1e-6),
                         record_trace=True)
    knots = _knots(sol)
    ts = [t for t, _ in knots]
    for (t_prev, _), (t, y) in zip(knots, knots[1:]):
        # at the step end from inside the step (theta -> 1) and at the
        # next step's start (theta = 0)
        np.testing.assert_allclose(sol.dense.at([np.nextafter(t, t_prev)])[0], y,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sol.dense.at([t])[0], y, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(sol.dense.at([ts[0]])[0], y0)


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
        sol = solve_adaptive(OdeProblem(rhs, t0, t1, y0, tol=tol),
                             record_trace=True)
        knots = _knots(sol)
        for (ta, ya), (tb, _) in zip(knots, knots[1:]):
            for t in np.linspace(ta, tb, 7)[1:-1]:
                want = flow(t - ta, ya)
                scale = tol * (1.0 + np.max(np.abs(want)))
                assert np.max(np.abs(sol.dense.at([t])[0] - want)) < 2 * scale


def _pulse(t, y):
    # a narrow pulse in the decay rate: the controller rejects steps there
    return -y * (1 + 100 * np.exp(-((t - 0.5) / 0.02) ** 2))


def _characteristic_problem():
    # the likelihood's backward (a, H, c) pass on an untrained network, along
    # a fixed curve x(t); the reference solver calls no stage hook, so the
    # right-hand side announces each stage's time to its table itself
    sched = Schedule(kind=ScheduleKind.COSINE, beta=20.0, t_min=0.01, t_max=0.99, dim=2)
    path = lambda ts: np.outer(1.0 - 0.5 * np.asarray(ts), [0.4, -0.3])
    rhs, table = likelihood._characteristic_rhs(MlpScore.create(dim=2, seed=3), sched,
                                                0.01, path)

    def announced(t, z):
        table((t,))
        return rhs(t, z)

    z = np.concatenate([[-0.4, 0.3], -np.eye(2).ravel(), [0.0]])
    return OdeProblem(announced, sched.t_max, sched.t_min, z, tol=1e-5)


_REFERENCE_PROBLEMS = {
    "pulse-forward": lambda: OdeProblem(_pulse, 0.0, 1.0, np.array([1.0, -2.0]), tol=1e-7),
    "pulse-backward": lambda: OdeProblem(_pulse, 1.0, 0.0, np.array([1.0, 0.5]), tol=1e-6),
    "oscillator-backward": lambda: OdeProblem(_oscillator, 5.0, -1.0,
                                              np.array([0.3, 1.0]), tol=1e-8),
    "characteristic": _characteristic_problem,
}


@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("name", sorted(_REFERENCE_PROBLEMS))
def test_solver_reproduces_the_reference_bit_for_bit(name, record_trace):
    problem = _REFERENCE_PROBLEMS[name]()
    got = solve_adaptive(problem, record_trace=record_trace)
    want = dopri5_reference.solve_adaptive(problem, record_trace=True)
    assert got.y_final.tobytes() == want.y_final.tobytes()
    assert got.n_steps == want.n_steps and got.t_final == want.t_final
    accepted = want.dense.t_start.size
    if name.startswith("pulse"):
        assert want.n_steps > accepted  # the problem exercises rejections
    if not record_trace:
        assert got.dense is None
        return
    for field in ("t_start", "h", "y_start", "q"):
        assert getattr(got.dense, field).tobytes() == getattr(want.dense, field).tobytes()
    # the interpolant at the knots, just inside them and at interior times,
    # all at once, against the reference's call per time
    ts = [t for t0, h in zip(want.dense.t_start, want.dense.h)
          for t in (t0, np.nextafter(t0 + h, t0), t0 + 0.3 * h, t0 + 0.71 * h)]
    for t, row in zip(ts, got.dense.at(ts)):
        assert row.tobytes() == want.dense(t).tobytes()


@pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-7])
def test_a_solve_from_zero_starts_at_the_heuristic_step(tol):
    # from y0 = 0 the first step is h1, not 100x the 1e-6-of-the-span probe,
    # so the solve skips the reference's ramp-up steps and stays accurate
    problem = OdeProblem(lambda t, y: np.array([np.cos(t), 1.0 - y[1]]), 0.0, 3.0,
                         np.zeros(2), tol=tol)
    got = solve_adaptive(problem)
    assert got.n_steps < dopri5_reference.solve_adaptive(problem).n_steps
    exact = np.array([np.sin(3.0), -np.expm1(-3.0)])
    assert np.max(np.abs(got.y_final - exact)) <= tol


def test_solution_counts_accepted_and_rejected_steps():
    problem = _REFERENCE_PROBLEMS["pulse-forward"]()
    got = solve_adaptive(problem)
    want = dopri5_reference.solve_adaptive(problem, record_trace=True)
    accepted = want.dense.t_start.size
    assert got.n_accepted == accepted
    assert got.n_rejected == want.n_steps - accepted > 0
    assert got.n_steps == got.n_accepted + got.n_rejected


def _pulse_rate(t):
    return 1.0 + math.cos(7.0 * t) + 100.0 * math.exp(-((t - 0.5) / 0.02) ** 2)


@pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0)])
def test_stage_hook_announces_every_time_the_rhs_then_sees(t0, t1):
    # coefficients computed for each announcement and looked up by time
    # give the steps and end state of a right-hand side that computes them
    # itself, bit for bit; a time not in the latest announcement would
    # raise KeyError
    table, announced = {}, []

    def hook(times):
        announced.append(times)
        table.clear()
        table.update((t, _pulse_rate(t)) for t in times)

    y0 = np.array([1.0, -2.0])
    got = solve_adaptive(OdeProblem(lambda t, y: -table[t] * y, t0, t1, y0, tol=1e-7,
                                    stage_hook=hook), record_trace=True)
    want = solve_adaptive(OdeProblem(lambda t, y: -_pulse_rate(t) * y, t0, t1, y0,
                                     tol=1e-7), record_trace=True)
    assert got.y_final.tobytes() == want.y_final.tobytes()
    assert (got.n_steps, got.n_rejected) == (want.n_steps, want.n_rejected)
    assert got.n_rejected > 0
    for field in ("t_start", "h", "q"):
        assert getattr(got.dense, field).tobytes() == getattr(want.dense, field).tobytes()
    # t0, the initial-step probe, then the five distinct times of each attempt
    assert len(announced) == 2 + got.n_steps
    assert announced[0] == (t0,) and len(announced[1]) == 1
    assert all(len(times) == len(set(times)) == 5 for times in announced[2:])
