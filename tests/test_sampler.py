import numpy as np
import pytest

from wkb_lab.data import stream, write_table
from wkb_lab.gaussian_oracle import GaussianModel
from wkb_lab.likelihood import _pf_with_div_rhs
from wkb_lab.pathaction import DiscretizationScheme, _per_interval
from wkb_lab.sampler import (SamplerConfig, Trajectory, draw_latents, em_sweep,
                             reverse_drift, sample_ode, sample_sde)
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import MlpScore
from wkb_lab.stencil import score_divergence
from wkb_lab.wasserstein import w2_exact


class DriftFree:
    dim = 2
    t_min = 0.01
    t_max = 1.0

    def drift_coef(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def g2(self, t):
        return np.full_like(np.asarray(t, dtype=float), 0.5)


def oracle(eps=0.0, v0=2.0, beta=2.0, T=6.0):
    model = GaussianModel(beta=beta, v0=v0, epsilon=eps, T=T)
    return model, model.to_schedule(dim=2, t_min=1e-4), model.to_score(dim=2)


def test_latents_shared_between_sde_and_ode():
    # one seed starts both samplers from the same latents
    _, sched, score = oracle()
    em, _ = sample_sde(score, sched, SamplerConfig(h=0.0, n_steps=4000, seed=9), 32)
    od = sample_ode(score, sched, 32, tol=1e-10, seed=9)
    coarse, _ = sample_sde(score, sched, SamplerConfig(h=0.0, n_steps=1000, seed=9), 32)
    fine_err = np.max(np.abs(em.points - od.points))
    coarse_err = np.max(np.abs(coarse.points - od.points))
    assert fine_err < 2e-3
    assert fine_err < coarse_err  # first-order shrink of the drift-only error


def test_zero_score_zero_drift_returns_latents():
    zero_score = lambda x, t: np.zeros_like(np.atleast_2d(x))
    sched = DriftFree()
    out = sample_ode(zero_score, sched, 16, tol=1e-8, seed=1)
    np.testing.assert_array_equal(out.points, draw_latents(1, 16, 2))


def test_stationary_unit_variance_flow_is_identity():
    # v0 = 1 with an exact score makes the probability-flow drift vanish
    _, sched, score = oracle(eps=0.0, v0=1.0, beta=1.0, T=3.0)
    out = sample_ode(score, sched, 64, tol=1e-8, seed=2)
    np.testing.assert_allclose(out.points, draw_latents(2, 64, 2), atol=1e-12)


def test_ode_sample_variance_matches_model_variance():
    model, sched, score = oracle(eps=0.0, v0=2.0)
    n = 4000
    cloud = sample_ode(score, sched, n, tol=1e-6, seed=3)
    var = float(cloud.points.var(axis=0).mean())
    se = model.v0 * np.sqrt(2.0 / n)
    assert abs(var - model.v0) < 4 * se


def test_matched_noise_refinement_shrinks_endpoint_gap():
    # strong convergence: halving the step with the same Brownian path
    # moves the endpoints toward each other
    _, sched, score = oracle(eps=0.3)
    n, d, fine = 256, 2, 512
    rng = np.random.default_rng(15)
    ts_fine = np.linspace(sched.t_max, sched.t_min, fine + 1)
    dw = rng.standard_normal((n, fine, d))  # unit normals per fine step

    def endpoint(factor: int) -> np.ndarray:
        ts = ts_fine[::factor]
        # sum fine increments within each coarse step, renormalize to unit
        grouped = dw.reshape(n, fine // factor, factor, d).sum(axis=2) / np.sqrt(factor)
        x0 = draw_latents(15, n, d)
        out, _ = em_sweep(score, sched, 1.0, ts, x0, grouped)
        return out

    gaps = [np.sqrt(np.mean((endpoint(k) - endpoint(k // 2)) ** 2))
            for k in (8, 4, 2)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_trajectory_recording_and_dump(tmp_path):
    _, sched, score = oracle()
    cloud, trajs = sample_sde(score, sched, SamplerConfig(h=0.5, n_steps=20, seed=6),
                              8, n_record=3)
    assert len(trajs) == 3
    assert trajs[0].times[0] == sched.t_max and trajs[0].times[-1] == sched.t_min
    np.testing.assert_array_equal(trajs[0].states[-1], cloud.points[0])
    path = tmp_path / "traj.tsv"
    # the layout `sample --record` writes
    write_table(path, "# trajectory\tt\tx...", [(j, t, *x) for j, traj in enumerate(trajs)
                                              for t, x in zip(traj.times, traj.states)],
                digits=17)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 21


def test_trajectories_stay_finite_across_h_values():
    _, sched, score = oracle(eps=0.3)
    for h in (0.0, 0.2, 0.5, 1.0):
        cloud, _ = sample_sde(score, sched, SamplerConfig(h=h, n_steps=400, seed=8), 64)
        assert np.all(np.isfinite(cloud.points))


def float64_view(model):
    """The same network as a plain callable, which the sampler evaluates in
    float64."""
    return lambda x, t: model(x, t)


@pytest.mark.parametrize("h", [0.0, 1.0])
def test_network_sweep_runs_in_float32_close_to_float64(monkeypatch, h):
    model = MlpScore.create(2, seed=0)
    sched = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2)
    cfg = SamplerConfig(h=h, n_steps=200, seed=0)
    seen = []
    forward = MlpScore._forward

    def spy(self, x, t, keep_cache=False):
        seen.append(self.params.dtype)
        return forward(self, x, t, keep_cache)

    monkeypatch.setattr(MlpScore, "_forward", spy)
    single, _ = sample_sde(model, sched, cfg, 64)
    assert set(seen) == {np.dtype(np.float32)} and len(seen) == 200
    seen.clear()
    double, _ = sample_sde(float64_view(model), sched, cfg, 64)
    assert set(seen) == {np.dtype(np.float64)}
    # measured 1.2e-5 (h=0) and 2.8e-5 (h=1); float32 rounding, not the Euler error
    gap = np.max(np.abs(single.points - double.points))
    assert 0.0 < gap <= 1e-4
    ref = np.random.default_rng(64).standard_normal((64, 2))
    w2_gap = abs(w2_exact(single, ref).distance - w2_exact(double, ref).distance)
    assert w2_gap <= 5e-5  # measured 1.0e-6 and 5.4e-6


def test_single_copy_leaves_the_model_untouched():
    model = MlpScore.create(2, seed=3)
    params = model.params.copy()
    x = np.random.default_rng(3).standard_normal((16, 2))
    before = model(x, 0.4)
    single = model.single()
    assert single.params.dtype == np.float32
    np.testing.assert_array_equal(single.params, params.astype(np.float32))
    assert single(x, 0.4).dtype == np.float32
    sched = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2)
    sample_sde(model, sched, SamplerConfig(h=1.0, n_steps=20, seed=1), 16)
    assert model.params.dtype == np.float64
    np.testing.assert_array_equal(model.params, params)
    np.testing.assert_array_equal(model(x, 0.4), before)


@pytest.mark.parametrize("h", [0.0, 1.0])
def test_seeded_latents_are_the_first_draws_of_each_stream(monkeypatch, h):
    # with or without noise, and in chunks of any size: trajectory i starts
    # from the first draw of stream(4, i) and takes its step noise from the
    # draws after it
    _, sched, score = oracle()
    cfg = SamplerConfig(h=h, n_steps=30, seed=4)
    draws = np.stack([stream(4, i).standard_normal((31, 2)) for i in range(40)])
    ts = np.linspace(sched.t_max, sched.t_min, 31)
    want, _ = em_sweep(score, sched, h, ts, draws[:, 0], draws[:, 1:])
    for chunk in (1024, 16):
        monkeypatch.setattr("wkb_lab.sampler._CHUNK", chunk)
        seeded, _ = sample_sde(score, sched, cfg, 40)
        np.testing.assert_array_equal(seeded.points, want)


@pytest.mark.slow
@pytest.mark.parametrize("h", [0.0, 1.0])
def test_trained_model_float32_sweep_matches_float64(trained_zoo, h):
    model, sched, _ = trained_zoo.get("swiss-roll", ScheduleKind.SIMPLE)
    cfg = SamplerConfig(h=h, n_steps=1000, seed=5)
    single, _ = sample_sde(model, sched, cfg, 512)
    double, _ = sample_sde(float64_view(model), sched, cfg, 512)
    assert np.max(np.abs(single.points - double.points)) <= 1e-5


@pytest.mark.slow
def test_trained_model_sde_matches_ode_at_zero_noise(trained_zoo):
    model, sched, _ = trained_zoo.get("swiss-roll", ScheduleKind.SIMPLE)
    # seed 21 starts both from the same latents; the drift-only Euler scheme
    # is first order, and 16k steps puts its error well inside the 1e-3
    # agreement bound (measured gap halves per doubling)
    em, _ = sample_sde(model, sched, SamplerConfig(h=0.0, n_steps=16_000, seed=21), 24)
    od = sample_ode(model, sched, 24, tol=1e-9, seed=21)
    assert np.max(np.abs(em.points - od.points)) < 1e-3


@pytest.mark.slow
def test_trained_model_trajectories_finite_across_h(trained_zoo):
    model, sched, _ = trained_zoo.get("swiss-roll", ScheduleKind.SIMPLE)
    for h in (0.0, 0.2, 0.5, 1.0):
        cloud, _ = sample_sde(model, sched, SamplerConfig(h=h, n_steps=1000, seed=3),
                              128)
        assert np.all(np.isfinite(cloud.points))


def test_config_validation():
    for h in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            SamplerConfig(h=h)
    with pytest.raises(ValueError):
        SamplerConfig(n_steps=0)
    with pytest.raises(ValueError, match="integer"):
        SamplerConfig(n_steps=2.5)
    assert SamplerConfig(n_steps=np.int64(3)).n_steps == 3
    with pytest.raises(ValueError):
        Trajectory(times=np.array([1.0, 0.5]), states=np.zeros((3, 2)))


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("draw", [
    lambda score, sched, n: sample_sde(score, sched, SamplerConfig(n_steps=5), n),
    lambda score, sched, n: sample_ode(score, sched, n),
], ids=["sde", "ode"])
def test_sample_count_below_one_is_rejected(draw, n):
    _, sched, score = oracle()
    with pytest.raises(ValueError, match="n must be >= 1"):
        draw(score, sched, n)


KINDS = (Schedule(kind=ScheduleKind.SIMPLE, beta=20.0),
         Schedule(kind=ScheduleKind.COSINE, t_max=0.99),
         Schedule(kind=ScheduleKind.CONST_BETA, beta=1.0, t_max=3.0))


@pytest.mark.parametrize("sched", KINDS, ids=lambda s: s.kind.value)
def test_every_copy_of_the_noise_h_drift_is_reverse_drift_bit_for_bit(sched):
    # b_h = a x - ((1+h)/2) g^2 s is written once, in reverse_drift; the
    # likelihood's allocation-free flow keeps its own form and must agree
    x = np.random.default_rng(5).standard_normal((6, 2))
    t, dt = 0.37, 0.25  # t - dt is exact, so the sweep's step is dt
    a, g2 = sched.drift_coef(t), sched.g2(t)
    network = MlpScore.create(2, seed=2)
    for score in (network, oracle(eps=0.3)[2]):
        s, _ = score_divergence(score, x, t, 0.01)
        y = np.concatenate([x.ravel(), np.zeros(len(x))])
        flow = _pf_with_div_rhs(score, sched, len(x), 0.01)(t, y)[: x.size]
        assert flow.tobytes() == reverse_drift(a, g2, x, s, 0.0).ravel().tobytes()
    for score in (lambda x, t: network(x, t), oracle(eps=0.3)[2]):
        stepped, _ = em_sweep(score, sched, 0.5, [t, t - dt], x, None)
        want = x - dt * reverse_drift(a, g2, x, np.asarray(score(x, t)), 0.5)
        assert stepped.tobytes() == want.tobytes()
    nodes = np.random.default_rng(6).standard_normal((9, 2))
    left, right = nodes[:-1], nodes[1:]
    for scheme, want in ((DiscretizationScheme.ITO, left),
                         (DiscretizationScheme.STRATONOVICH, 0.5 * (left + right)),
                         (DiscretizationScheme.REVERSE_ITO, right)):
        assert _per_interval(nodes, scheme).tobytes() == want.tobytes()
