import numpy as np
import pytest
from scipy.integrate import quad

from wkb_lab.schedule import Schedule, ScheduleKind

SIMPLE = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0)
COSINE = Schedule(kind=ScheduleKind.COSINE, t_max=0.999)
CONST = Schedule(kind=ScheduleKind.CONST_BETA, beta=1.0, t_max=3.0)
ALL = (SIMPLE, COSINE, CONST)


def test_drift_coef_values():
    assert Schedule(kind=ScheduleKind.SIMPLE, beta=20.0).drift_coef(0.5) == pytest.approx(-5.0)
    assert COSINE.drift_coef(1e-12) == pytest.approx(0.0, abs=1e-10)
    assert CONST.drift_coef(0.3) == pytest.approx(-0.5)
    assert CONST.drift_coef(0.9) == pytest.approx(-0.5)


def test_g2_values():
    assert SIMPLE.g2(0.5) == pytest.approx(10.0)
    assert SIMPLE.g2(1e-300) == pytest.approx(0.0)
    assert CONST.g2(0.5) == pytest.approx(1.0)


def test_alpha_values():
    assert SIMPLE.alpha(0.0) == 1.0
    assert SIMPLE.alpha(1.0) == pytest.approx(np.exp(-5.0))
    assert COSINE.alpha(1.0) == pytest.approx(0.0, abs=1e-12)


def test_sigma2_values():
    assert SIMPLE.sigma2(0.0) == 0.0
    assert COSINE.sigma2(0.5) == pytest.approx(0.5)
    assert SIMPLE.sigma2(1.0) == pytest.approx(1.0 - np.exp(-10.0))


def test_alpha_sigma2_match_defining_integrals():
    # alpha = exp(int a); sigma^2 = alpha^2 int g^2 / alpha^2
    for sched in ALL:
        for t in np.linspace(sched.t_min, min(sched.t_max, 0.95), 9):
            ia, _ = quad(lambda s: sched.drift_coef(s), 0.0, t,
                         epsabs=1e-12, epsrel=1e-12)
            alpha_q = np.exp(ia)
            ig, _ = quad(lambda s: sched.g2(s) / np.exp(2 * quad(
                lambda u: sched.drift_coef(u), 0.0, s, epsabs=1e-12, epsrel=1e-12)[0]),
                0.0, t, epsabs=1e-11, epsrel=1e-11, limit=200)
            sigma2_q = alpha_q ** 2 * ig
            assert abs(alpha_q - sched.alpha(t)) < 1e-8
            assert abs(sigma2_q - sched.sigma2(t)) < 1e-8


def test_half_g2_is_minus_the_drift_coefficient_bit_for_bit():
    # every kind is variance preserving and halving is exact, so the
    # likelihood's right-hand sides take g^2/2 as -drift_coef(t) and make
    # one schedule call where they made two
    pole = 1.0 - 1e-9
    ts = np.concatenate([np.linspace(0.0, 0.999, 201), 1.0 - np.geomspace(1e-3, 2e-9, 40),
                         [np.nextafter(pole, 0.0)]])
    for sched in ALL:
        assert (0.5 * sched.g2(ts)).tobytes() == (-sched.drift_coef(ts)).tobytes()
        for t in ts.tolist():
            assert np.float64(0.5 * sched.g2(t)).tobytes() == \
                np.float64(-sched.drift_coef(t)).tobytes()


def test_alpha_strictly_decreasing_on_window():
    for sched in ALL:
        ts = np.linspace(sched.t_min, sched.t_max - 1e-6, 100)
        assert np.all(np.diff(sched.alpha(ts)) < 0.0)
        assert 0.0 < sched.alpha(sched.t_min) <= 1.0


def test_cosine_pole_rejected():
    with pytest.raises(ValueError):
        COSINE.drift_coef(1.0)
    with pytest.raises(ValueError):
        COSINE.g2(1.0 - 1e-12)
    with pytest.raises(ValueError):
        Schedule(kind=ScheduleKind.COSINE, t_max=1.0)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Schedule(kind=ScheduleKind.SIMPLE, beta=-1.0)
    with pytest.raises(ValueError):
        Schedule(kind=ScheduleKind.SIMPLE, t_min=0.0)
    with pytest.raises(ValueError):
        Schedule(kind=ScheduleKind.SIMPLE, t_min=0.5, t_max=0.2)
    with pytest.raises(ValueError):
        Schedule(kind=ScheduleKind.SIMPLE, beta=np.inf)
    with pytest.raises(ValueError):
        Schedule(kind=ScheduleKind.SIMPLE, t_max=np.inf)


def test_vectorized_evaluation():
    ts = np.array([0.1, 0.2, 0.4])
    out = SIMPLE.drift_coef(ts)
    assert out.shape == ts.shape
    np.testing.assert_allclose(out, -10.0 * ts)


def test_scalar_and_array_times_give_the_same_bits():
    # a float time takes a path without arrays; it must agree bit for bit
    # with the array path, up to the cosine pole and at a NaN time
    pole = 1.0 - 1e-9
    ts = np.concatenate([np.linspace(0.0, 0.999, 201), 1.0 - np.geomspace(1e-3, 2e-9, 40),
                         [np.nextafter(pole, 0.0), np.nan]])
    for sched in ALL:
        for method in (sched.drift_coef, sched.g2):
            arr = method(ts)
            assert all(type(method(float(t))) is float for t in ts)
            for as_time in (float, np.float64, np.array):
                assert np.array([method(as_time(t)) for t in ts]).tobytes() == arr.tobytes()
    for t in (pole, 1.0, np.float64(pole)):
        for method in (COSINE.drift_coef, COSINE.g2):
            with pytest.raises(ValueError):
                method(t)
            with pytest.raises(ValueError):
                method(np.array([0.5, t]))
    assert np.isnan(SIMPLE.drift_coef(np.nan)) and np.isnan(COSINE.g2(np.nan))
    assert CONST.drift_coef(np.nan) == -0.5 and CONST.g2(np.nan) == 1.0
