"""The float64 training loop and Adam step as ``wkb_lab.train`` and
``wkb_lab.score`` first wrote them: a reference for the package's
mixed-precision training.

``adam_step`` is kept here unchanged, so the tests can check that the
package's in-place version reproduces it bit for bit.  ``train`` runs every
step's forward and backward pass in float64 on the parameters themselves;
the tests bound how far the package's float32 steps move the loss trace
and the parameters from it.
"""

import numpy as np

from wkb_lab.data import PointCloud
from wkb_lab.errors import NonFinite
from wkb_lab.schedule import Schedule
from wkb_lab.score import AdamState, MlpScore, dsm_loss
from wkb_lab.train import TrainConfig, TrainResult


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update of the flat ``params``, in place."""
    if params.shape != state.m.shape or grads.shape != params.shape:
        raise ValueError("parameter / gradient / state shapes disagree")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grads
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * (grads * grads)
    params -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + state.eps)


def train(config: TrainConfig, dataset: PointCloud, schedule: Schedule) -> TrainResult:
    n = len(dataset)
    if config.batch_size > n:
        raise ValueError("batch_size exceeds the dataset size")
    model = MlpScore.create(dim=dataset.dim, seed=config.seed)
    adam = AdamState.init(model.params, lr=config.lr)
    batch_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0xBA7C,))))
    steps_per_epoch = -(-n // config.batch_size)

    trace = np.empty(config.epochs)
    step = 0
    for epoch in range(config.epochs):
        epoch_losses = np.empty(steps_per_epoch)
        for k in range(steps_per_epoch):
            idx = batch_rng.integers(0, n, size=config.batch_size)
            noise_rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(0xD5, step))))
            try:
                out = dsm_loss(model, dataset.points[idx], schedule, noise_rng,
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
