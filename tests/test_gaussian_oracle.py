import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkb_lab.gaussian_oracle import GaussianModel, gaussian_curves
from wkb_lab.ode import OdeProblem, solve_adaptive

BASE = GaussianModel(beta=1.0, v0=2.0, epsilon=0.3, T=3.0)


def test_v_t_values():
    assert BASE.v_t(0.0) == pytest.approx(2.0)
    assert BASE.v_t(60.0) == pytest.approx(1.0, abs=1e-12)
    assert BASE.v_t(1.0) == pytest.approx(1.0 + np.exp(-1.0))


@pytest.mark.parametrize("kwargs", [{"beta": np.nan}, {"v0": 0.0}, {"T": -1.0},
                                    {"epsilon": np.nan}, {"epsilon": np.inf},
                                    {"epsilon": -np.inf}, {"beta": np.inf},
                                    {"v0": np.inf}, {"T": np.inf}])
def test_model_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        GaussianModel(**{"beta": 1.0, "v0": 2.0, "epsilon": 0.3, "T": 3.0, **kwargs})


def test_vprime_reduces_to_v_when_score_exact():
    model = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0)
    for h in (0.0, 0.3, 1.0):
        ts = np.linspace(0.0, model.T, 7)
        np.testing.assert_allclose(model.vprime_t(h, ts), model.v_t(ts), rtol=1e-14)


def test_vprime_boundary_condition():
    for h in (0.0, 0.25, 1.0):
        for eps in (-0.2, 0.3):
            model = GaussianModel(beta=1.0, v0=2.0, epsilon=eps, T=3.0)
            assert model.vprime_t(h, model.T) == pytest.approx(model.v_t(model.T),
                                                               rel=1e-14)


def _vprime_by_ode(model: GaussianModel, h: float, t_eval):
    k = (1.0 + h) * (1.0 + model.epsilon)

    def rhs(t, y):
        return model.beta * (k / model.v_t(t) - 1.0) * y - h * model.beta

    out = []
    y = np.array([model.v_t(model.T)])
    t_prev = model.T
    for t in sorted(t_eval, reverse=True):
        y = solve_adaptive(OdeProblem(rhs, t_prev, t, y, tol=1e-12)).y_final
        out.append((t, float(y[0])))
        t_prev = t
    return dict(out)


def test_vprime_continuous_in_epsilon_at_zero():
    for h in (0.0, 0.5, 1.0):
        ref = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0).vprime_t(h, 0.7)
        for eps in (1e-8, -1e-8):
            val = GaussianModel(beta=1.0, v0=2.0, epsilon=eps, T=3.0).vprime_t(h, 0.7)
            assert abs(val - ref) < 1e-6


def test_singular_denominator_grid_point():
    # (1+h)(1+eps) rounds to exactly 1.0 in floating point here
    model = GaussianModel(beta=1.0, v0=2.0, epsilon=-0.2, T=3.0)
    assert (1.0 + 0.25) * (1.0 + model.epsilon) == 1.0
    val = model.vprime_t(0.25, 0.0)
    assert np.isfinite(val) and val > 0.0
    by_ode = _vprime_by_ode(model, 0.25, [0.0])
    assert abs(by_ode[0.0] - val) < 1e-8


def test_nll_and_w2_at_exact_score():
    model = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0)
    want = 0.5 * (np.log(2 * np.pi * model.v0) + 1.0)
    for h in (0.0, 0.5, 1.0):
        assert model.nll(h) == pytest.approx(want, rel=1e-12)
        assert model.w2(h) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.5),
       st.floats(min_value=-0.3, max_value=0.5))
def test_w2_nonnegative(h, eps):
    model = GaussianModel(beta=1.0, v0=2.0, epsilon=eps, T=3.0)
    assert model.w2(h) >= 0.0


def test_flow_identity_residual_tracks_quadrature_tolerance():
    tight = BASE.verify_flow_identity(0.7, quad_tol=1e-12)
    loose = BASE.verify_flow_identity(0.7, quad_tol=1e-4)
    assert tight < 1e-9
    assert loose < 1e-3


def test_flow_identity_exact_score_residual():
    model = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0)
    assert model.verify_flow_identity(0.8) < 1e-10


def test_dnll_dh_flat_at_exact_score():
    model = GaussianModel(beta=1.0, v0=2.0, epsilon=0.0, T=3.0)
    assert abs(model.dnll_dh_at0()) < 1e-12


def _richardson_dh(f, step):
    """Richardson-extrapolated central difference of f at h = 0."""
    central = lambda d: (f(d) - f(-d)) / (2.0 * d)
    return (4.0 * central(step / 2) - central(step)) / 3.0


def test_dnll_dh_sign_and_step_stability():
    exact = BASE.dnll_dh_at0()
    assert exact < 0.0  # matches the observed decreasing nll(h)
    for step in (1e-3, 1e-4):
        assert abs(_richardson_dh(BASE.nll, step) - exact) < 1e-9


def test_dlogq0_dh_matches_richardson_difference():
    model = GaussianModel(beta=4.0, v0=2.0, epsilon=0.3, T=4.0)
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((20, 2)) * np.sqrt(model.v0):
        for t in (0.0, 0.01, 1.0):
            ref = _richardson_dh(lambda h: model.logq0(x, h=h, t=t), 1e-5)
            got = model.dlogq0_dh_at0(x, t=t)
            assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))


def test_curve_emitter_shapes():
    rows = gaussian_curves(BASE, [0.0, 0.5, 1.0])
    assert len(rows) == 3
    assert rows[0][1] == pytest.approx(BASE.nll(0.0))
