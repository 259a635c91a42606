import numpy as np
import pytest

from wkb_lab.pathaction import (DiscretePath, DiscretizationScheme,
                                forward_action, reverse_action)
from wkb_lab.schedule import Schedule, ScheduleKind

SCHEMES = list(DiscretizationScheme)

SIMPLE = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0)


class DriftFree:
    """Test schedule with zero drift and constant diffusion."""

    dim = 2

    def drift_coef(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def g2(self, t):
        return np.full_like(np.asarray(t, dtype=float), 0.8)


def test_constant_path_zero_drift_gives_zero_action():
    path_states = np.tile([0.4, -1.0], (11, 1))
    for scheme in SCHEMES:
        path = DiscretePath(times=np.linspace(0.1, 0.9, 11), states=path_states,
                            scheme=scheme)
        assert forward_action(path, DriftFree()) == pytest.approx(0.0, abs=1e-15)


def test_scheme_jacobians_on_smooth_path():
    # On a smooth path the kinetic parts of the schemes coincide up to
    # O(dt^2) per step, so scheme differences approach the Jacobian terms.
    ts = np.linspace(0.1, 0.9, 400)
    xs = np.stack([np.sin(ts), np.cos(ts)], axis=1)
    acts = {s: forward_action(DiscretePath(ts, xs, s), SIMPLE) for s in SCHEMES}
    dt = np.diff(ts)
    a_mid = 0.5 * (SIMPLE.drift_coef(ts[:-1]) + SIMPLE.drift_coef(ts[1:]))
    j_strat = 0.5 * float(np.sum(2 * a_mid * dt))
    j_rev = float(np.sum(2 * SIMPLE.drift_coef(ts[1:]) * dt))
    assert acts[DiscretizationScheme.STRATONOVICH] - acts[DiscretizationScheme.ITO] \
        == pytest.approx(j_strat, abs=5e-3)
    assert acts[DiscretizationScheme.REVERSE_ITO] - acts[DiscretizationScheme.ITO] \
        == pytest.approx(j_rev, abs=5e-3)


def test_reverse_action_with_zero_score_equals_forward_on_drift_free():
    rng = np.random.default_rng(3)
    ts = np.linspace(0.0, 1.0, 33)
    xs = np.cumsum(rng.standard_normal((33, 2)) * 0.1, axis=0)
    zero_score = lambda x, t: np.zeros_like(np.atleast_2d(x))
    sched = DriftFree()
    for scheme in SCHEMES:
        path = DiscretePath(times=ts, states=xs, scheme=scheme)
        fwd = forward_action(path, sched)
        rev = reverse_action(path, sched, zero_score)
        assert rev == pytest.approx(fwd, rel=1e-12)


def test_path_validation():
    with pytest.raises(ValueError):
        DiscretePath(times=[0.0], states=[[1.0]])
    with pytest.raises(ValueError):
        DiscretePath(times=[0.0, 0.0], states=[[1.0], [2.0]])
    with pytest.raises(ValueError):
        DiscretePath(times=[0.0, 1.0], states=[[np.nan], [0.0]])


def test_zero_g_rejected():
    path = DiscretePath(times=[0.0, 0.5], states=[[1.0], [0.5]],
                        scheme=DiscretizationScheme.ITO)
    sched = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=1)
    with pytest.raises(ValueError):
        forward_action(path, sched)  # g(0) = 0 at the left endpoint
