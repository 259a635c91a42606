import warnings

import numpy as np
import pytest
from mlp_reference import backprop_expit, forward_expit

from wkb_lab import stencil
from wkb_lab.data import make_swiss_roll
from wkb_lab.errors import ArchitectureMismatch, CorruptFile, VersionMismatch
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import (AdamState, AnalyticGaussianScore, MlpScore, adam_step,
                           checkpoint_load, checkpoint_save, draw_dsm_noise,
                           dsm_loss, score_div_derivatives, score_jacobian,
                           score_second_derivatives)

SCHED = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2)


def zero_model(dim=2):
    model = MlpScore.create(dim=dim, seed=0)
    model.params[:] = 0.0
    return model


def test_zero_parameter_network_outputs_zero():
    model = zero_model()
    out = model(np.array([[0.3, -1.2], [5.0, 2.0]]), 0.5)
    np.testing.assert_array_equal(out, 0.0)


def test_analytic_score_values():
    score = AnalyticGaussianScore(beta=1.0, v0=2.0, epsilon=0.0, dim=2)
    out = score(np.array([1.0, 0.0]), 0.0)  # v_0 = 2
    np.testing.assert_allclose(out, [[-0.5, 0.0]])
    tilted = AnalyticGaussianScore(beta=1.0, v0=2.0, epsilon=0.5, dim=2)
    np.testing.assert_allclose(tilted(np.array([1.0, 0.0]), 0.0), 1.5 * out)


def test_analytic_score_is_gaussian_gradient():
    score = AnalyticGaussianScore(beta=1.3, v0=0.5, epsilon=0.0, dim=1)
    t, x, h = 0.7, 0.9, 1e-6
    vt = score.v_t(t)
    logn = lambda z: -0.5 * np.log(2 * np.pi * vt) - z * z / (2 * vt)
    want = (logn(x + h) - logn(x - h)) / (2 * h)
    assert score(np.array([x]), t)[0, 0] == pytest.approx(want, rel=1e-8)


def test_swish_forward_is_smooth_at_origin():
    model = MlpScore.create(dim=1, seed=3)
    t = 0.5
    f = lambda x: model(np.array([[x]]), t)[0, 0]
    h = 1e-5
    left = (f(0.0) - f(-h)) / h
    right = (f(h) - f(0.0)) / h
    assert abs(left - right) < 1e-3  # derivative continuous across 0


@pytest.mark.parametrize("scale", [1.0, 10.0])
@pytest.mark.parametrize("rows", [1, 45, 512])
def test_swish_matches_expit_reference(rows, scale):
    # at scale 10 the pre-activations pass -709, where exp(-z) overflows;
    # the "error" filter fails the test on any warning that escapes
    model = MlpScore.create(dim=2, seed=5)
    model.params *= scale
    rng = np.random.default_rng(rows)
    x = 10.0 * rng.standard_normal((rows, 2))
    t = rng.uniform(0.01, 1.0, size=rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, cache = model._forward(x, t, keep_cache=True)
        plain, _ = model._forward(x, t)
        grad_out = rng.standard_normal(out.shape)
        grads = model.views(model.backprop(cache, grad_out))
    ref, ref_cache = forward_expit(model, x, t)
    ref_grads = model.views(backprop_expit(model, ref_cache, grad_out))
    if scale > 1.0:
        zs = np.concatenate([z.ravel() for _, z, _ in cache[:-1]])
        assert zs.min() < -800.0 and zs.max() > 800.0
    np.testing.assert_array_equal(plain, out)  # the cached arrays stay intact
    assert np.max(np.abs(out - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    for g, g_ref in zip(grads, ref_grads):  # relative per weight and bias tensor
        assert np.max(np.abs(g - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))


def test_dsm_loss_zero_at_exact_conditional_score():
    # freeze the model at the per-item conditional score -(x_t - a x0)/s^2,
    # reproduced from the same seeded noise draw; every residual vanishes
    cloud = make_swiss_roll(64, seed=2)
    seed = 99
    ts, zs = draw_dsm_noise(64, 2, SCHED, seed)
    cond = -zs / np.sqrt(np.asarray(SCHED.sigma2(ts)))[:, None]
    out = dsm_loss(lambda x, t: cond, cloud.points, SCHED, seed)
    assert out.loss == pytest.approx(0.0, abs=1e-24)


def test_dsm_loss_zero_network_matches_direct_sum():
    cloud = make_swiss_roll(128, seed=5)
    seed = 123
    out = dsm_loss(zero_model(), cloud.points, SCHED, seed)
    ts, zs = draw_dsm_noise(128, 2, SCHED, seed)
    g2 = np.asarray(SCHED.g2(ts))
    sig2 = np.asarray(SCHED.sigma2(ts))
    want = np.mean(0.5 * g2 * np.sum((zs / np.sqrt(sig2)[:, None]) ** 2, axis=1))
    assert out.loss == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_dsm_gradient_matches_finite_differences(seed):
    cloud = make_swiss_roll(96, seed=8)
    model = MlpScore.create(dim=2, seed=seed)
    out = dsm_loss(model, cloud.points, SCHED, rng_seed=seed + 50)
    params, grads = model.views(model.params), model.views(out.grads)
    rng = np.random.default_rng(seed)
    for k in range(len(params)):  # one entry per weight/bias tensor
        idx = tuple(int(rng.integers(0, s)) for s in params[k].shape)
        h, old = 1e-6, params[k][idx]
        params[k][idx] = old + h
        lp = dsm_loss(model, cloud.points, SCHED, rng_seed=seed + 50).loss
        params[k][idx] = old - h
        lm = dsm_loss(model, cloud.points, SCHED, rng_seed=seed + 50).loss
        params[k][idx] = old
        fd = (lp - lm) / (2 * h)
        bp = grads[k][idx]
        assert abs(bp - fd) / max(abs(fd), abs(bp), 1e-10) < 1e-4


def test_dsm_rejects_empty_batch():
    with pytest.raises(ValueError):
        dsm_loss(zero_model(), np.empty((0, 2)), SCHED, 0)


def test_adam_zero_gradient_keeps_parameters():
    p = np.array([1.0, -2.0])
    state = AdamState.init(p)
    adam_step(state, p, np.zeros(2))
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adam_single_step_closed_form():
    for g in (3.0, -0.25):
        p = np.array([0.0])
        state = AdamState.init(p, lr=1e-3)
        adam_step(state, p, np.array([g]))
        assert p[0] == pytest.approx(-1e-3 * np.sign(g), rel=1e-6)


def test_adam_deterministic():
    def run():
        model = MlpScore.create(dim=2, seed=4)
        state = AdamState.init(model.params)
        cloud = make_swiss_roll(64, seed=9)
        for step in range(5):
            out = dsm_loss(model, cloud.points, SCHED, rng_seed=step)
            adam_step(state, model.params, out.grads)
        return model.params

    np.testing.assert_array_equal(run(), run())


def test_stencil_derivatives_exact_on_linear_score():
    score = AnalyticGaussianScore(beta=1.0, v0=2.0, epsilon=0.3, dim=2)
    t, x = 0.4, np.array([0.7, -0.2])
    coef = -(1.3) / score.v_t(t)
    div = stencil.divergence(score(stencil.points(x, 0.05), t), 0.05)
    assert div == pytest.approx(2 * coef, rel=1e-12)
    np.testing.assert_allclose(score_jacobian(score, x, t, dx=0.05),
                               coef * np.eye(2), atol=1e-12)
    div, grad_div, lap_div = score_div_derivatives(score, x, t, dx=0.05)
    assert div == pytest.approx(2 * coef, rel=1e-12)
    np.testing.assert_allclose(grad_div, 0.0, atol=1e-10)
    assert lap_div == pytest.approx(0.0, abs=1e-8)


class _QuadraticScore:
    """s_k(x) = x.A_k.x / 2 + B_k.x + c_k: every stencil derivative is exact."""

    def __init__(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d, d))
        self.a = a + a.transpose(0, 2, 1)
        self.b, self.c = rng.normal(size=(d, d)), rng.normal(size=d)
        self.rows = []

    def __call__(self, x, t):
        x = np.atleast_2d(x)
        self.rows.append(x.shape[0])
        return 0.5 * np.einsum("ni,kij,nj->nk", x, self.a, x) + x @ self.b.T + self.c


@pytest.mark.parametrize("d", [1, 2, 3])
def test_second_derivatives_exact_on_quadratic_score(d):
    score = _QuadraticScore(d, seed=d)
    x = np.linspace(-0.5, 0.7, d)
    s, jac, hess_s, grad_div, hess_div = score_second_derivatives(score, x, 0.3, dx=0.05)
    assert score.rows == [(2 * d * d + 1) * (2 * d + 1)]  # one call, 45 rows in 2-D
    np.testing.assert_allclose(s, score(x, 0.3)[0], atol=1e-12)
    np.testing.assert_allclose(jac, score.a @ x + score.b, atol=1e-10)
    np.testing.assert_allclose(hess_s, score.a, atol=1e-8)
    # div s = sum_k (A_k x + B_k)_k is affine, with gradient sum_k A_k[k, :]
    np.testing.assert_allclose(grad_div, np.einsum("kkj->j", score.a), atol=1e-8)
    np.testing.assert_allclose(hess_div, 0.0, atol=1e-5)
    # the first-derivative values agree with the per-call helpers
    np.testing.assert_allclose(jac, score_jacobian(score, x, 0.3, dx=0.05), atol=1e-12)
    np.testing.assert_allclose(grad_div, score_div_derivatives(score, x, 0.3, dx=0.05)[1],
                               atol=1e-8)


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model = MlpScore.create(dim=2, seed=12)
    path = tmp_path / "model.ckpt"
    checkpoint_save(model, path, SCHED, train_meta={"epochs": 3, "lr": 1e-3,
                                                    "batch_size": 64})
    loaded, meta = checkpoint_load(path)
    np.testing.assert_array_equal(model.params, loaded.params)
    assert loaded.shapes == model.shapes
    assert meta["schedule_kind"] is ScheduleKind.SIMPLE
    assert meta["epochs"] == 3
    assert meta["seed"] == 12


def test_checkpoint_dimension_mismatch(tmp_path):
    model = MlpScore.create(dim=2, seed=1)
    path = tmp_path / "model.ckpt"
    checkpoint_save(model, path, SCHED)
    with pytest.raises(ArchitectureMismatch):
        checkpoint_load(path, dim=3)


def test_checkpoint_truncation_detected(tmp_path):
    model = MlpScore.create(dim=2, seed=1)
    path = tmp_path / "model.ckpt"
    checkpoint_save(model, path, SCHED)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CorruptFile):
        checkpoint_load(path)


def test_checkpoint_version_guard(tmp_path):
    import struct
    import zlib

    model = MlpScore.create(dim=2, seed=1)
    path = tmp_path / "model.ckpt"
    checkpoint_save(model, path, SCHED)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)  # bump the version field
    body = bytes(raw[:-4])
    raw[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        checkpoint_load(path)


def test_checkpoint_bitflip_detected(tmp_path):
    model = MlpScore.create(dim=2, seed=1)
    path = tmp_path / "model.ckpt"
    checkpoint_save(model, path, SCHED)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile):
        checkpoint_load(path)


def test_checkpoint_unknown_schedule_tag_is_corrupt(tmp_path):
    import struct
    import zlib

    model = MlpScore.create(dim=2, seed=1)
    path = tmp_path / "model.ckpt"
    checkpoint_save(model, path, SCHED)
    raw = bytearray(path.read_bytes())
    raw[6] = 255  # the schedule-kind tag, with a valid checksum
    body = bytes(raw[:-4])
    raw[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile):
        checkpoint_load(path)
