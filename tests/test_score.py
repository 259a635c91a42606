import warnings

import numpy as np
import pytest
import stencil_reference
import train_reference
from mlp_reference import backprop_expit, forward_expit

from wkb_lab import stencil
from wkb_lab.data import make_swiss_roll
from wkb_lab.errors import ArchitectureMismatch, CorruptFile, NonFinite, VersionMismatch
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import (AdamState, AnalyticGaussianScore, MlpScore, adam_step,
                           checkpoint_load, checkpoint_save, draw_dsm_noise,
                           dsm_loss)
from wkb_lab.stencil import (score_div_derivatives, score_divergence, score_jacobian,
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


@pytest.mark.parametrize("beta, v0, eps", [(np.nan, 2.0, 0.0), (1.0, np.nan, 0.0),
                                           (0.0, 2.0, 0.0), (1.0, -1.0, 0.0),
                                           (np.inf, 2.0, 0.0), (1.0, np.inf, 0.0),
                                           (1.0, 2.0, np.nan), (1.0, 2.0, np.inf)])
def test_analytic_score_rejects_bad_parameters(beta, v0, eps):
    with pytest.raises(ValueError):
        AnalyticGaussianScore(beta=beta, v0=v0, epsilon=eps, dim=2)


@pytest.mark.parametrize("rows", [1, 45, 512])
def test_scalar_and_array_times_give_the_same_bits(rows):
    # a float time takes the analytic score's scalar path, and fills the
    # MLP's time column; one time per row must give the same bits
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, 2))
    for score in (AnalyticGaussianScore(beta=1.3, v0=2.0, epsilon=0.3, dim=2),
                  MlpScore.create(dim=2, seed=rows)):
        for t in (0.01, 0.37, 1.0):
            scalar = score(x, t)
            assert scalar.tobytes() == score(x, np.full(rows, t)).tobytes()
            assert scalar.tobytes() == score(x, np.float64(t)).tobytes()
            assert scalar.tobytes() == score(x, np.array(t)).tobytes()


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


@pytest.mark.parametrize("x", [1e39, -1e39, np.inf])
def test_single_forward_beyond_float32_range_is_non_finite(x):
    # the input cast overflows to inf; the output check reports it, and the
    # "error" filter fails the test on any warning that escapes
    single = MlpScore.create(dim=2, seed=0).single()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            single(np.array([[x, 0.0]]), 0.5)


def test_single_sigmoid_is_exactly_zero_far_below_zero():
    # exp(-z) overflows float32 for z < -88.72, which gives the limit 0
    model = MlpScore.create(dim=2, seed=5)
    model.params *= 10.0
    x = 10.0 * np.random.default_rng(2).standard_normal((256, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, cache = model.single()._forward(x, 0.5, keep_cache=True)
    assert out.dtype == np.float32 and np.isfinite(out).all()
    zs = np.concatenate([z.ravel() for _, z, _ in cache[:-1]])
    ss = np.concatenate([s.ravel() for _, _, s in cache[:-1]])
    assert zs.dtype == np.float32 and zs.min() < -800.0
    assert np.all(ss[zs < -89.0] == 0.0)


def test_single_backprop_runs_in_float32_for_a_float64_upstream():
    # dsm_loss forms grad_out in float64; a float32 copy must not promote
    # its products to float64 and round the result back
    single = MlpScore.create(2, seed=0).single()
    rng = np.random.default_rng(4)
    x, t = rng.standard_normal((64, 2)), rng.uniform(0.01, 1.0, size=64)
    out, cache = single._forward(x, t, keep_cache=True)
    g64 = rng.standard_normal(out.shape)
    grads = single.backprop(cache, g64)
    assert grads.dtype == np.float32
    np.testing.assert_array_equal(grads, single.backprop(cache, g64.astype(np.float32)))


def test_dsm_loss_on_a_float32_copy_is_float64_and_close():
    cloud = make_swiss_roll(512, seed=3)
    model = MlpScore.create(dim=2, seed=0)
    ref = dsm_loss(model, cloud.points, SCHED, 5)
    out = dsm_loss(model.single(), cloud.points, SCHED, 5)
    assert isinstance(out.loss, float) and out.grads.dtype == np.float32
    assert out.loss == pytest.approx(ref.loss, rel=1e-6)
    # measured 2.6e-7 relative in norm
    assert np.linalg.norm(out.grads - ref.grads) <= 2e-6 * np.linalg.norm(ref.grads)


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


@pytest.mark.parametrize("grad_dtype", [np.float64, np.float32])
def test_adam_matches_reference_bit_for_bit(grad_dtype):
    # the reference is the out-of-place update, fed the upcast gradient
    rng = np.random.default_rng(6)
    p = rng.standard_normal(33666)
    p_ref = p.copy()
    state, state_ref = AdamState.init(p, lr=3e-3), AdamState.init(p_ref, lr=3e-3)
    for _ in range(50):
        g = (rng.standard_normal(p.size) * 10.0 ** rng.uniform(-6, 1)).astype(grad_dtype)
        adam_step(state, p, g)
        train_reference.adam_step(state_ref, p_ref, g.astype(np.float64))
    assert state.step == state_ref.step == 50
    np.testing.assert_array_equal(p, p_ref)
    np.testing.assert_array_equal(state.m, state_ref.m)
    np.testing.assert_array_equal(state.v, state_ref.v)


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


def _at(helper, score, x, t, dx):
    """``helper`` at the one point x, as a stack of one with each output
    indexed [0]; ``score_divergence``'s outputs stay a stack of one."""
    out = helper(score, x[None, :], t, dx)
    if helper is score_divergence:
        return out
    return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]


def test_stencil_derivatives_exact_on_linear_score():
    score = AnalyticGaussianScore(beta=1.0, v0=2.0, epsilon=0.3, dim=2)
    t, x = 0.4, np.array([0.7, -0.2])
    coef = -(1.3) / score.v_t(t)
    div = stencil.divergence(score(stencil.points(x, 0.05), t), 0.05)
    assert div == pytest.approx(2 * coef, rel=1e-12)
    np.testing.assert_allclose(_at(score_jacobian, score, x, t, 0.05),
                               coef * np.eye(2), atol=1e-12)
    _, div, grad_div, lap_div = _at(score_div_derivatives, score, x, t, 0.05)
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
    s, jac, hess_s, grad_div, hess_div = _at(score_second_derivatives, score, x, 0.3, 0.05)
    # one call on the distinct points of the (2d^2 + 1)(2d + 1) stencil rows
    assert score.rows == [{1: 5, 2: 21, 3: 57}[d]]
    np.testing.assert_allclose(s, score(x, 0.3)[0], atol=1e-12)
    np.testing.assert_allclose(jac, score.a @ x + score.b, atol=1e-10)
    np.testing.assert_allclose(hess_s, score.a, atol=1e-8)
    # div s = sum_k (A_k x + B_k)_k is affine, with gradient sum_k A_k[k, :]
    np.testing.assert_allclose(grad_div, np.einsum("kkj->j", score.a), atol=1e-8)
    np.testing.assert_allclose(hess_div, 0.0, atol=1e-5)
    # the first-derivative values agree with the per-call helpers, which
    # also score each distinct point of their sweeps once
    np.testing.assert_allclose(jac, _at(score_jacobian, score, x, 0.3, 0.05), atol=1e-12)
    np.testing.assert_allclose(grad_div, _at(score_div_derivatives, score, x, 0.3, 0.05)[2],
                               atol=1e-8)
    assert score.rows[-2:] == [2 * d, 2 * d * d + 2 * d + 1]
    # the star: 2d + 1 rows per point, for one point and for a stack
    s_star, div = _at(score_divergence, score, x, 0.3, 0.05)
    np.testing.assert_allclose(s_star[0], s, atol=1e-12)
    np.testing.assert_allclose(div, np.trace(jac), atol=1e-10)
    score_divergence(score, np.stack([x, x + 0.1, x - 0.2]), 0.3, dx=0.05)
    assert score.rows[-2:] == [2 * d + 1, 3 * (2 * d + 1)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_helpers_score_their_points_in_the_order_they_read_them(d):
    # each distinct point where the helper's first row on it is read: the
    # points, and so the operator and its rounding, of a sweep over only
    # those rows (the star; the axis offsets; the axis offsets of each star
    # centre; every centre, then each centre's axis offsets)
    x, dx, zero = np.linspace(-0.5, 0.7, d), 0.05, np.zeros(d)
    star = stencil.star(zero, dx)
    centres = np.vstack([star, stencil.diagonal_points(zero, dx)])
    sweeps = {score_divergence: star, score_jacobian: stencil.points(zero, dx),
              score_div_derivatives: stencil.points(star, dx).reshape(-1, d),
              score_second_derivatives: np.vstack(
                  [centres, stencil.points(centres, dx).reshape(-1, d)])}
    for helper, rows in sweeps.items():
        seen = []
        helper(lambda y, t: seen.append(y) or y, x[None, :], 0.3, dx)
        offsets = np.array(list(dict.fromkeys(map(tuple, rows.tolist()))))
        np.testing.assert_array_equal(seen[0], x + offsets)


# (order of each output: the number of dx it is divided by)
_HELPERS = [(score_divergence, stencil_reference.score_divergence, (0, 1)),
            (score_jacobian, stencil_reference.score_jacobian, (1,)),
            (score_div_derivatives, stencil_reference.score_div_derivatives, (1, 1, 2, 3)),
            (score_second_derivatives, stencil_reference.score_second_derivatives,
             (0, 1, 2, 2, 3))]


@pytest.mark.parametrize("dx", [0.05, 0.01])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["quadratic", "analytic", "mlp"])
def test_derivative_helpers_match_the_reference_assembly(kind, d, dx):
    # the helpers evaluate each distinct stencil point once and apply one
    # operator (for the analytic score they return its exact derivatives);
    # the reference evaluates every row and applies the stencil formulas.
    # Each output of order k is compared on its own scale, the score's size
    # over dx^k; the worst ratio seen was 1.2e-15.
    score = {"quadratic": _QuadraticScore(d, seed=d),
             "analytic": AnalyticGaussianScore(beta=1.3, v0=2.0, epsilon=0.3, dim=d),
             "mlp": MlpScore.create(dim=d, seed=d)}[kind]
    x, t = np.linspace(-0.5, 0.7, d), 0.3
    size = max(1.0, np.max(np.abs(score(x + 2 * dx * np.eye(d), t))))
    for fast, ref, orders in _HELPERS:
        got, want = _at(fast, score, x, t, dx), ref(score, x, t, dx)
        if not isinstance(want, tuple):
            got, want = (got,), (want,)
        assert len(got) == len(want) == len(orders)
        for g, w, k in zip(got, want, orders):
            assert type(g) is type(w) and np.shape(g) == np.shape(w)
            assert np.max(np.abs(np.subtract(g, w))) <= 1e-9 * size / dx ** k


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


def _parts(out):
    return out if isinstance(out, tuple) else (out,)


def _assert_same_types_and_shapes(got, want):
    assert type(got) is type(want) and len(_parts(got)) == len(_parts(want))
    for g, w in zip(_parts(got), _parts(want)):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert np.asarray(g).dtype == np.asarray(w).dtype


@pytest.mark.parametrize("d", [1, 2, 3])
def test_linear_score_derivatives_are_closed_form(d, monkeypatch):
    # s = slope(t) x: J = slope I, div s = d slope and every higher
    # derivative is exactly 0, with no score call; each helper returns the
    # types and shapes of its stencil path, which a wrapped callable takes
    score = AnalyticGaussianScore(beta=1.3, v0=2.0, epsilon=0.3, dim=d)
    x, t, dx = np.linspace(-0.5, 0.7, d), 0.3, 0.01
    slope, s = score.slope(t), score(x, t)
    helpers = [fast for fast, _, _ in _HELPERS]
    stencil_path = [_at(helper, lambda y, tt: score(y, tt), x, t, dx) for helper in helpers]
    calls = []
    monkeypatch.setattr(AnalyticGaussianScore, "__call__",
                        lambda self, y, tt: calls.append(y))
    got = [_at(helper, score, x, t, dx) for helper in helpers]
    assert calls == []
    for g, w in zip(got, stencil_path):
        _assert_same_types_and_shapes(g, w)
    (s_star, div), jac, (jac_d, div_n, grad_div, lap_div), second = got
    s_c, jac_c, hess_s, grad_div_c, hess_div = second
    assert s_star.tobytes() == s.tobytes() and s_c.tobytes() == s[0].tobytes()
    for j in (jac, jac_d, jac_c):
        assert np.array_equal(j, slope * np.eye(d))
    assert div.tolist() == [d * slope] and div_n == d * slope
    assert lap_div == 0.0
    for zero in (grad_div, hess_s, grad_div_c, hess_div):
        assert not zero.any()


def test_linear_score_divergence_of_a_stack_is_closed_form():
    # one time for every point, or one per point (the path action's use)
    score = AnalyticGaussianScore(beta=1.3, v0=2.0, epsilon=0.3, dim=2)
    xs, dx = np.random.default_rng(5).standard_normal((5, 2)), 0.01
    for t in (0.3, np.linspace(0.1, 0.9, 5)):
        s, div = score_divergence(score, xs, t, dx)
        assert s.tobytes() == score(xs, t).tobytes()
        assert np.array_equal(div, np.broadcast_to(2 * np.ravel(score.slope(t)), (5,)))
        # the stencil path scores each point's star at that point's time
        ref = score_divergence(lambda y, tt: score(y, tt), xs, t, dx)
        _assert_same_types_and_shapes((s, div), ref)
        np.testing.assert_allclose(ref[0], s, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ref[1], div, rtol=1e-12)


def test_divergence_with_one_time_per_point_matches_single_points():
    model, dx = MlpScore.create(dim=2, seed=4), 0.01
    xs = np.random.default_rng(6).standard_normal((4, 2))
    ts = np.linspace(0.1, 0.9, 4)
    s, div = score_divergence(model, xs, ts, dx)
    for k in range(4):
        s_k, div_k = score_divergence(model, xs[k:k + 1], float(ts[k]), dx)
        np.testing.assert_allclose(s[k], s_k[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(div[k], div_k[0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["quadratic", "analytic", "mlp"])
def test_helpers_on_a_stack_match_each_point_at_its_own_time(kind, d):
    # three points, each at its own time: one score call on every point of
    # the three sweeps, and per point the outputs of a single-point call
    # (to rounding: a network call rounds a stack's rows apart from a
    # single point's, and the stencils amplify that)
    dx = 0.05
    model = {"quadratic": _QuadraticScore(d, seed=d),
             "analytic": AnalyticGaussianScore(beta=1.3, v0=2.0, epsilon=0.3, dim=d),
             "mlp": MlpScore.create(dim=d, seed=d)}[kind]
    rows = []

    def counted(x, t):
        rows.append(np.shape(x)[0])
        return model(x, t)

    score = model if kind == "analytic" else counted
    xs = np.linspace(-0.5, 0.7, 3 * d).reshape(3, d)
    ts = np.array([0.1, 0.3, 0.8])
    size = max(1.0, np.max(np.abs(model(xs + 2 * dx, 0.3))))
    n_div = 2 * d * d + 2 * d + 1
    # (helper, distinct points per sweep, order of each output)
    for helper, n_points, orders in (
            (score_divergence, 2 * d + 1, (0, 1)),
            (score_jacobian, 2 * d, (1,)),
            (score_div_derivatives, n_div, (1, 1, 2, 3)),
            (score_second_derivatives, {1: 5, 2: 21, 3: 57}[d], (0, 1, 2, 2, 3))):
        rows.clear()
        stacked = helper(score, xs, ts, dx)
        assert rows == ([] if kind == "analytic" else [3 * n_points])
        stacked = stacked if isinstance(stacked, tuple) else (stacked,)
        assert len(stacked) == len(orders)
        for i, (x, t) in enumerate(zip(xs, ts.tolist())):
            single = helper(score, x[None, :], t, dx)  # a stack of one
            single = single if isinstance(single, tuple) else (single,)
            single = tuple(o[0] for o in single)
            for g, w, k in zip(stacked, single, orders):
                assert np.shape(g[i]) == np.shape(w)
                assert np.max(np.abs(g[i] - w)) <= 1e-9 * size / dx ** k
