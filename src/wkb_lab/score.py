"""Score functions: trainable MLP with hand-rolled reverse mode, and the
analytic Gaussian score, plus denoising score matching loss, Adam and
checkpoints.

The network is fixed to four dense layers (d+1 -> 128 -> 128 -> 128 -> d)
with swish activations after the first three, the scalar time concatenated
to the state at the input.  The backward pass is specialised to this
architecture and is verified against central finite differences in the test
suite.  The scores' spatial derivatives are taken in ``stencil``, never by
differentiating the network.

The MLP and the analytic score take the time as a float (one time for every
row) or as one time per row, and both forms give the same bits; the
analytic score builds no time array for a float.

The MLP's parameters are float64, and so are checkpoints, Adam's moments
and the loss.  The float32 copy that ``MlpScore.single`` returns serves
two callers: the Euler-Maruyama sampler, and each training step's forward
and backward pass, whose float32 gradient ``adam_step`` applies to the
float64 parameters.  The forward pass, ``backprop`` and ``dsm_loss`` run
in the dtype of the parameters they are given; every other function here
computes in float64.
"""

from __future__ import annotations

import copy
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .data import PointCloud, stream
from .errors import ArchitectureMismatch, CorruptFile, NonFinite, VersionMismatch
from .schedule import Schedule, ScheduleKind

_HIDDEN = 128
_N_HIDDEN = 3
_TIME_GRID_DEFAULT = 1000


def _sigmoid(z):
    """1 / (1 + exp(-z)) in one new array, each step in place on it.  exp
    overflows to inf for z < -709 (z < -88.7 in float32), which gives the
    limit 0; callers silence that warning."""
    s = np.negative(z)
    np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _swish_grad(delta, z, s):
    """delta *= d/dz [z * sigmoid(z)] = s * (1 + z * (1 - s)), in place."""
    g = np.subtract(1.0, s)
    g *= z
    g += 1.0
    g *= s
    delta *= g


class MlpScore:
    """Four-layer dense score network with seeded Glorot-uniform init.

    All parameters live in one float64 buffer ``params`` in checkpoint
    order (W0 row-major, b0, W1, b1, ...); ``weights`` and ``biases`` are
    views into it, so an in-place update of ``params`` is what the next
    forward pass uses.  ``shapes`` lists each layer's (fan_in, fan_out).
    ``single()`` returns a float32 copy for sampling and training steps; a
    forward or backward pass runs in the dtype of the parameters it is
    called on.
    """

    def __init__(self, params: np.ndarray, shapes: list[tuple[int, int]],
                 dim: int, seed: int = 0):
        self.shapes = [(int(fi), int(fo)) for fi, fo in shapes]
        self.dim = int(dim)
        self.seed = int(seed)
        if len(self.shapes) != _N_HIDDEN + 1:
            raise ArchitectureMismatch(f"expected {_N_HIDDEN + 1} layers, "
                                       f"got {len(self.shapes)}")
        chain = [self.dim + 1] + [fo for _, fo in self.shapes]
        for i, shape in enumerate(self.shapes):
            if shape[0] != chain[i]:
                raise ArchitectureMismatch(f"layer {i} has shape {shape}")
        if chain[-1] != self.dim:
            raise ArchitectureMismatch("output width must equal the state dimension")
        params = np.array(params, dtype=float)
        want = sum(fi * fo + fo for fi, fo in self.shapes)
        if params.shape != (want,):
            raise ArchitectureMismatch(f"{params.size} parameters, expected {want}")
        self._bind(params)

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        views = self.views(params)
        self.weights, self.biases = views[0::2], views[1::2]

    @classmethod
    def create(cls, dim: int, seed: int = 0) -> "MlpScore":
        widths = [dim + 1] + [_HIDDEN] * _N_HIDDEN + [dim]
        shapes = list(zip(widths[:-1], widths[1:]))
        parts = []
        for i, (fan_in, fan_out) in enumerate(shapes):
            rng = stream(seed, i)
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            parts += [rng.uniform(-bound, bound, size=fan_in * fan_out), np.zeros(fan_out)]
        return cls(np.concatenate(parts), shapes, dim=dim, seed=seed)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-layer views [W0, b0, W1, b1, ...] of a buffer laid out like
        ``params`` (the parameters themselves, or a gradient)."""
        out, pos = [], 0
        for fi, fo in self.shapes:
            out.append(flat[pos:pos + fi * fo].reshape(fi, fo))
            out.append(flat[pos + fi * fo:pos + fi * fo + fo])
            pos += fi * fo + fo
        return out

    def single(self) -> "MlpScore":
        """A float32 copy, taken from the current ``params``.  It does not
        follow later updates of ``params`` (``train`` refreshes its copy
        with ``np.copyto`` before each step), and its outputs and gradients
        are float32."""
        out = copy.copy(self)
        out._bind(self.params.astype(np.float32))
        return out

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: np.ndarray, t) -> np.ndarray:
        return self._forward(x, t)[0]

    def _forward(self, x, t, keep_cache: bool = False):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        cache = [] if keep_cache else None
        # an input beyond the range of the dtype becomes inf, and inf * 0 in a
        # swish is NaN: both reach the output, whose check reports them; for
        # the other overflow see ``_sigmoid``
        with np.errstate(over="ignore", invalid="ignore"):
            # the state, then the time in the last column, in the parameters' dtype
            h = np.empty((n, d + 1), dtype=self.params.dtype)
            h[:, :d] = x
            h[:, d] = np.ravel(t)  # one time for every row, or one per row
            for i in range(_N_HIDDEN):
                z = h @ self.weights[i]
                z += self.biases[i]
                s = _sigmoid(z)
                if keep_cache:
                    cache.append((h, z, s))
                    h = z * s
                else:
                    z *= s
                    h = z
        out = h @ self.weights[-1]
        out += self.biases[-1]
        if keep_cache:
            cache.append((h, None, None))
        if not np.isfinite(out).all():
            raise NonFinite("score network produced a non-finite output")
        return out, cache

    def backprop(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Flat parameter gradient, laid out like ``params``, for an
        upstream dL/d(output), in the parameters' dtype: a float64
        ``grad_out`` on a float32 copy is cast first, so that every product
        runs in float32."""
        grad_out = np.asarray(grad_out, dtype=self.params.dtype)
        flat = np.empty_like(self.params)
        grads = self.views(flat)
        h_last = cache[-1][0]
        grads[-2][...] = h_last.T @ grad_out
        grads[-1][...] = grad_out.sum(axis=0)
        delta = grad_out @ self.weights[-1].T
        for i in range(_N_HIDDEN - 1, -1, -1):
            h, z, s = cache[i]
            _swish_grad(delta, z, s)
            grads[2 * i][...] = h.T @ delta
            grads[2 * i + 1][...] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
        return flat


@dataclass
class AnalyticGaussianScore:
    """Closed-form score s(x, t) = -(x / v_t)(1 + epsilon) of the constant-rate
    Gaussian model, with v_t = 1 + exp(-beta t)(v0 - 1).

    ``epsilon`` dials in a controlled mis-estimation; epsilon = 0 is exact.
    """

    beta: float
    v0: float
    epsilon: float = 0.0
    dim: int = 1

    def __post_init__(self):
        if not (0.0 < self.beta < math.inf and 0.0 < self.v0 < math.inf):  # and NaN
            raise ValueError("beta and v0 must be positive and finite")
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")

    def v_t(self, t):
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        return 1.0 + np.exp(-self.beta * t) * (self.v0 - 1.0)

    def slope(self, t):
        """The factor in s = slope(t) x, -(1 + epsilon) / v_t: a float for a
        float time, else a column of one slope per row (or one for all)."""
        vt = self.v_t(t)
        if not isinstance(t, float):
            vt = np.reshape(vt, (-1, 1))
        return -(1.0 + self.epsilon) / vt

    def __call__(self, x: np.ndarray, t) -> np.ndarray:
        return self.slope(t) * np.atleast_2d(np.asarray(x, dtype=float))


# -- denoising score matching loss -------------------------------------------

@dataclass
class DsmLoss:
    loss: float
    grads: np.ndarray | None  # flat, laid out like MlpScore.params


def _as_points(batch) -> np.ndarray:
    pts = batch.points if isinstance(batch, PointCloud) else batch
    return np.atleast_2d(np.asarray(pts, dtype=float))


def draw_dsm_noise(n: int, dim: int, schedule: Schedule, rng_seed,
                   time_grid_size: int = _TIME_GRID_DEFAULT):
    """Per-item times off the discretized grid and unit normal draws."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else stream(rng_seed)
    grid = np.linspace(schedule.t_min, schedule.t_max, time_grid_size)
    ts = grid[rng.integers(0, time_grid_size, size=n)]
    zs = rng.standard_normal((n, dim))
    return ts, zs


def dsm_loss(model, batch, schedule: Schedule, rng_seed,
             time_grid_size: int = _TIME_GRID_DEFAULT) -> DsmLoss:
    """Monte Carlo denoising loss and (for MLP models) its parameter gradient.

    Each batch item draws a time t_i uniformly from the discretized grid and
    a perturbation x_{i,t} = alpha(t_i) x_i + sigma(t_i) z_i; the per-item
    term is (g(t_i)^2 / 2) || (x_{i,t} - alpha x_i) / sigma^2 + s(x_{i,t}, t_i) ||^2
    and the loss is the batch mean.

    The network runs in the dtype of its parameters; its output is upcast
    before the residual, so the loss and dL/d(output) are float64 on a
    float32 model too, and ``backprop`` returns a gradient in the model's
    dtype.
    """
    x0 = _as_points(batch)
    n, dim = x0.shape
    if n == 0:
        raise ValueError("batch must be nonempty")
    ts, zs = draw_dsm_noise(n, dim, schedule, rng_seed, time_grid_size)
    sig2 = np.asarray(schedule.sigma2(ts), dtype=float)
    if np.any(sig2 <= 0.0):
        raise ValueError("sigma^2 vanished inside the training window")
    alpha = np.asarray(schedule.alpha(ts), dtype=float)
    g2 = np.asarray(schedule.g2(ts), dtype=float)
    xt = alpha[:, None] * x0 + np.sqrt(sig2)[:, None] * zs
    target = zs / np.sqrt(sig2)[:, None]  # (x_t - alpha x_0) / sigma^2

    want_grads = isinstance(model, MlpScore)
    if want_grads:
        s, cache = model._forward(xt, ts, keep_cache=True)
    else:
        s = np.asarray(model(xt, ts), dtype=float)
    resid = target + s  # float64 whatever the network's dtype
    per_item = 0.5 * g2 * np.einsum("ij,ij->i", resid, resid)
    loss = float(per_item.mean())
    if not np.isfinite(loss):
        raise NonFinite("dsm loss is not finite")
    grads = None
    if want_grads:
        grad_out = (g2[:, None] * resid) / n
        grads = model.backprop(cache, grad_out)
    return DsmLoss(loss=loss, grads=grads)


# -- Adam ---------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment accumulators shaped like the flat parameters,
    plus scratch rows for ``adam_step`` (made at its first call)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    work: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def init(cls, params: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update of the flat ``params``, in place.

    ``grads`` is upcast once to the parameters' dtype (a float32 gradient
    of a training step lands on float64 parameters), and every term is
    formed in the state's scratch rows in the order of

        m = beta1 m + (1 - beta1) g
        v = beta2 v + (1 - beta2) (g g)
        params -= lr (m / bc1) / (sqrt(v / bc2) + eps)

    so the update is bit-identical to evaluating those expressions.
    """
    if params.shape != state.m.shape or grads.shape != params.shape:
        raise ValueError("parameter / gradient / state shapes disagree")
    if state.work is None:
        state.work = np.empty((3,) + params.shape, dtype=params.dtype)
    g, a, b = state.work
    np.copyto(g, grads)
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    state.m *= state.beta1
    np.multiply(g, 1.0 - state.beta1, out=a)
    state.m += a
    state.v *= state.beta2
    np.multiply(g, g, out=a)
    a *= 1.0 - state.beta2
    state.v += a
    np.divide(state.m, bc1, out=a)
    a *= state.lr
    np.divide(state.v, bc2, out=b)
    np.sqrt(b, out=b)
    b += state.eps
    a /= b
    params -= a


# -- checkpoint format --------------------------------------------------------
#
# Little-endian layout:
#   magic "WKBL" | u16 version | u8 schedule kind | u8 pad | i64 seed
#   f64 beta, t_min, t_max | u32 epochs, batch, time_grid | f64 lr
#   u32 dim | u8 n_layers | 3x u8 pad | n_layers x (u32 fan_in, u32 fan_out)
#   payload: per layer W (row-major) then b, f64
#   u32 crc32 of everything above

_MAGIC = b"WKBL"
_VERSION = 1
_KIND_TAGS = {ScheduleKind.SIMPLE: 0, ScheduleKind.COSINE: 1, ScheduleKind.CONST_BETA: 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}
_HEAD = struct.Struct("<4sHBBq3d3IdIB3x")


def checkpoint_save(model: MlpScore, path, schedule: Schedule,
                    train_meta: dict | None = None) -> None:
    meta = dict(train_meta or {})
    head = _HEAD.pack(
        _MAGIC, _VERSION, _KIND_TAGS[schedule.kind], 0, int(model.seed),
        float(schedule.beta), float(schedule.t_min), float(schedule.t_max),
        int(meta.get("epochs", 0)), int(meta.get("batch_size", 0)),
        int(meta.get("time_grid_size", _TIME_GRID_DEFAULT)),
        float(meta.get("lr", 0.0)),
        int(model.dim), len(model.shapes),
    )
    dims = b"".join(struct.pack("<II", *shape) for shape in model.shapes)
    payload = np.ascontiguousarray(model.params, dtype="<f8").tobytes()
    body = head + dims + payload
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def checkpoint_load(path, dim: int | None = None) -> tuple[MlpScore, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEAD.size + 4:
        raise CorruptFile("checkpoint truncated before header")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CorruptFile("checkpoint checksum mismatch")
    (magic, version, kind_tag, _, seed, beta, t_min, t_max,
     epochs, batch, time_grid, lr, file_dim, n_layers) = _HEAD.unpack_from(body, 0)
    if magic != _MAGIC:
        raise CorruptFile("bad magic bytes")
    if version != _VERSION:
        raise VersionMismatch(f"checkpoint version {version}, expected {_VERSION}")
    if kind_tag not in _TAG_KINDS:
        raise CorruptFile(f"unknown schedule tag {kind_tag}")
    off = _HEAD.size
    shapes = []
    for _ in range(n_layers):
        shapes.append(struct.unpack_from("<II", body, off))
        off += 8
    want = sum(fi * fo + fo for fi, fo in shapes)
    payload = np.frombuffer(body, dtype="<f8", offset=off)
    if payload.size != want:
        raise CorruptFile(f"payload holds {payload.size} floats, expected {want}")
    if dim is not None and file_dim != dim:
        raise ArchitectureMismatch(f"checkpoint is {file_dim}-dimensional, expected {dim}")
    try:
        model = MlpScore(payload, shapes, dim=file_dim, seed=seed)
    except ArchitectureMismatch as exc:
        raise CorruptFile(f"inconsistent layer widths: {exc}") from exc
    meta = {
        "schedule_kind": _TAG_KINDS[kind_tag],
        "beta": beta, "t_min": t_min, "t_max": t_max,
        "epochs": epochs, "batch_size": batch,
        "time_grid_size": time_grid, "lr": lr, "seed": seed,
    }
    return model, meta
