"""Generative sampling: noise-interpolated reverse SDE and probability-flow ODE.

The reverse process runs from t_max down to t_min.  With noise strength h,
Euler-Maruyama updates on a uniform grid read

    x_{t-dt} = x_t - dt [ f(x_t, t) - ((1+h)/2) g(t)^2 s(x_t, t) ]
               + sqrt(h dt) g(t) z,   z ~ N(0, I),

so h = 0 degenerates to the deterministic probability-flow drift
f - (g^2/2) s and h = 1 to the standard reverse SDE; ``reverse_drift`` is
that drift.  Each trajectory draws its latent and then its per-step noise
from one stream, ``stream(seed, index)``, so results do not depend on
chunking or thread count.  Latents
come only from these streams: ``sample_ode(seed=s)`` starts from the
latents of ``sample_sde`` with seed s, which makes the h = 0 and h = 1
samplers and the ODE start from the same points.

The Euler-Maruyama sweep evaluates an ``MlpScore`` in float32, on a copy
taken when the sweep starts, and upcasts each output to float64 before the
update; the state, the noise and the schedule arithmetic stay float64.
Analytic scores and plain callables are evaluated as they are, so
``lambda x, t: model(x, t)`` gives the float64 sweep of a network.  The
probability-flow ODE sampler always evaluates in float64.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import PointCloud, stream
from .errors import NonFinite
from .ode import OdeProblem, solve_adaptive
from .schedule import Schedule
from .score import MlpScore

_CHUNK = 1024


@dataclass
class SamplerConfig:
    h: float = 0.0
    n_steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.h < np.inf:  # also rejects NaN
            raise ValueError(f"h must be finite and nonnegative, got {self.h}")
        try:
            operator.index(self.n_steps)
        except TypeError:
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}") from None
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


@dataclass
class Trajectory:
    """Times descending from t_max to t_min with matching states."""

    times: np.ndarray
    states: np.ndarray  # (len(times), d)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")


def _normals(seed: int, lo: int, hi: int, n_draws: int, dim: int) -> np.ndarray:
    """(hi-lo, n_draws, d) unit normals of trajectories lo..hi-1, one
    generator each: draw 0 is the latent x_{t_max}, draw k the noise of
    step k."""
    out = np.empty((hi - lo, n_draws, dim))
    for i in range(lo, hi):
        out[i - lo] = stream(seed, i).standard_normal((n_draws, dim))
    return out


def draw_latents(seed: int, n: int, dim: int) -> np.ndarray:
    """Standard-normal initial latents x_{t_max}, one per trajectory stream."""
    return _normals(seed, 0, n, 1, dim)[:, 0]


def reverse_drift(a, g2, x: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """b_h = a x - ((1+h)/2) g^2 s, the one drift of the noise-h reverse
    process, from a(t), g(t)^2 and the score values s."""
    return a * x - 0.5 * (1.0 + h) * g2 * s


def em_sweep(score, schedule: Schedule, h: float, ts: np.ndarray, x0: np.ndarray,
             noise: np.ndarray | None, keep_history: int = 0
             ) -> tuple[np.ndarray, np.ndarray | None]:
    """Euler-Maruyama over a descending time grid for a batch of states.

    ``noise`` has shape (batch, len(ts)-1, d) of unit normals, or None for a
    purely deterministic sweep (h is still applied to the drift).  Passing
    the same increments at a coarsened grid (summed and renormalized) gives
    matched-noise refinement experiments.  An ``MlpScore`` is evaluated in
    float32 (see the module docstring).
    """
    if isinstance(score, MlpScore):
        score = score.single()
    ts = np.asarray(ts, dtype=float)
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    n_steps = ts.size - 1
    hist = None
    if keep_history:
        hist = np.empty((keep_history, ts.size, x.shape[1]))
        hist[:, 0] = x[:keep_history]
    a_grid = np.asarray(schedule.drift_coef(ts[:-1]))
    g2_grid = np.asarray(schedule.g2(ts[:-1]))
    for k in range(n_steps):
        t, dt = ts[k], ts[k] - ts[k + 1]
        s = np.asarray(score(x, t), dtype=float)  # a network's float32, upcast
        x = x - dt * reverse_drift(a_grid[k], g2_grid[k], x, s, h)
        if noise is not None and h > 0.0:
            x = x + np.sqrt(h * dt * g2_grid[k]) * noise[:, k]
        if not np.all(np.isfinite(x)):
            raise NonFinite(f"sampler state not finite at step {k} (t={t:.6g})")
        if keep_history:
            hist[:, k + 1] = x[:keep_history]
    return x, hist


def sample_sde(score, schedule: Schedule, config: SamplerConfig, n: int,
               n_record: int = 0) -> tuple[PointCloud, list[Trajectory]]:
    """Draw n samples by Euler-Maruyama on a uniform reverse-time grid.

    The first ``n_record`` trajectories are returned alongside the cloud.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = schedule.dim
    ts = np.linspace(schedule.t_max, schedule.t_min, config.n_steps + 1)
    n_draws = 1 + config.n_steps if config.h > 0.0 else 1
    out = np.empty((n, d))
    recorded: list[Trajectory] = []

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        draws = _normals(config.seed, lo, hi, n_draws, d)
        noise = draws[:, 1:] if config.h > 0.0 else None
        rec = max(0, min(n_record - lo, hi - lo))
        x, hist = em_sweep(score, schedule, config.h, ts, draws[:, 0], noise,
                           keep_history=rec)
        out[lo:hi] = x
        for j in range(rec):
            recorded.append(Trajectory(times=ts.copy(), states=hist[j]))
    cloud = PointCloud(points=out, name=f"sde-h{config.h:g}", seed=config.seed)
    return cloud, recorded


def sample_ode(score, schedule: Schedule, n: int, tol: float = 1e-5,
               seed: int = 0) -> PointCloud:
    """Deterministic samples: integrate the probability-flow ODE backward from
    ``draw_latents(seed, n, d)``, the latents ``sample_sde`` starts from
    with the same seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = schedule.dim
    latents = draw_latents(seed, n, d)

    def rhs(t, y):
        x = y.reshape(-1, d)
        return reverse_drift(schedule.drift_coef(t), schedule.g2(t), x,
                             np.asarray(score(x, t)), 0.0).ravel()

    sol = solve_adaptive(OdeProblem(rhs=rhs, t0=schedule.t_max, t1=schedule.t_min,
                                    y0=latents.ravel(), tol=tol))
    return PointCloud(points=sol.y_final.reshape(-1, d), name="pf-ode", seed=seed)
