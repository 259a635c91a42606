"""Shared fixtures: analytic reference models and cached training."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

import wkb_lab
from wkb_lab.data import DATASETS
from wkb_lab.gaussian_oracle import GaussianModel
from wkb_lab.likelihood import FdStencil, _characteristic
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import checkpoint_load, checkpoint_save
from wkb_lab.train import TrainConfig, train

# Long-horizon model: beta*T = 16 makes the unit-variance prior
# indistinguishable from the forward-process endpoint (v_T - 1 ~ 1e-7),
# so closed forms with boundary v'_T = v_T match the numerical pipeline.
ORACLE_KW = dict(beta=4.0, v0=2.0, T=4.0)
ORACLE_T_MIN = 0.01

DESK_EPOCHS = 2000
DATA_SEED = 7
TRAIN_SEED = 11
VALIDATION_SEED = 1234


def oracle_model(epsilon: float) -> GaussianModel:
    return GaussianModel(epsilon=epsilon, **ORACLE_KW)


def characteristic(score, schedule: Schedule, x0, dx: float, tol: float):
    """The zeroth-order and backward characteristic solves of the flow from
    x0 at t_min, as ``nll_first_order`` builds them: ``.x_T`` is the end
    state, ``.path`` the trajectory x(t) and ``.back`` the backward solve."""
    return _characteristic(score, schedule, np.asarray(x0, dtype=float), tol,
                           FdStencil(dx))


def logq_characteristic(score, schedule: Schedule, x0, dx: float, tol: float):
    """grad log q0_t and its Laplacian along the flow from x0 at t_min:
    ``derivs(ts, xs)`` at k times and points (k, d) near the trajectory
    x_ref(t), from the backward solve's continuous extension: the
    first-order expansion a + H (x - x_ref), and tr H, stacked (k, d) and
    (k,)."""
    c = characteristic(score, schedule, x0, dx, tol)
    d = c.x_T.size

    def derivs(ts, xs):
        z = c.back.dense.at(ts)
        hess = z[:, d: d + d * d].reshape(-1, d, d)
        grad = z[:, :d] + np.einsum("kij,kj->ki", hess, xs - c.path(ts))
        return grad, np.trace(hess, axis1=1, axis2=2)

    return derivs


def make_dataset(name: str, n: int, seed: int = DATA_SEED):
    return DATASETS[name](n, seed=seed)


def make_train_schedule(kind: ScheduleKind) -> Schedule:
    t_max = 0.99 if kind is ScheduleKind.COSINE else 1.0
    return Schedule(kind=kind, beta=20.0, t_min=0.01, t_max=t_max, dim=2)


# The package modules that training executes; editing any of them retrains.
_TRAIN_SOURCES = ("data.py", "errors.py", "schedule.py", "score.py", "train.py")


def _train_sources_digest() -> str:
    root = Path(wkb_lab.__file__).parent
    h = hashlib.sha256()
    for name in _TRAIN_SOURCES:
        h.update(name.encode())
        h.update((root / name).read_bytes())
    return h.hexdigest()


class _TrainedZoo:
    """Trains each (dataset, schedule) combo once, and keeps the model and
    its loss trace in ``cache_dir`` (if given) across sessions, keyed by the
    dataset, the training config and schedule, the seeds and a digest of
    the training sources."""

    def __init__(self, cache_dir: Path | None = None):
        self._cache = {}
        self._dir = cache_dir
        self._sources = _train_sources_digest() if cache_dir is not None else ""

    def get(self, dataset_name: str, kind: ScheduleKind, epochs: int = DESK_EPOCHS):
        key = (dataset_name, kind, epochs)
        if key not in self._cache:
            schedule = make_train_schedule(kind)
            config = TrainConfig(epochs=epochs, seed=TRAIN_SEED)
            spec = repr((dataset_name, 3000, DATA_SEED, config, schedule, self._sources))
            stem = hashlib.sha256(spec.encode()).hexdigest()[:24]
            model, trace = self._load(stem)
            if model is None:
                result = train(config, make_dataset(dataset_name, 3000), schedule)
                model, trace = result.model, result.loss_trace
                self._store(stem, model, schedule, trace)
            self._cache[key] = (model, schedule, trace)
        return self._cache[key]

    def _load(self, stem: str):
        if self._dir is None or not (self._dir / f"{stem}.npy").exists():
            return None, None
        model, _ = checkpoint_load(self._dir / f"{stem}.ckpt")
        return model, np.load(self._dir / f"{stem}.npy")

    def _store(self, stem: str, model, schedule, trace) -> None:
        if self._dir is None:
            return
        # the trace is written last and renamed into place: its presence
        # marks a complete entry
        checkpoint_save(model, self._dir / f"{stem}.ckpt", schedule)
        tmp = self._dir / f"{stem}.tmp.npy"
        np.save(tmp, trace)
        os.replace(tmp, self._dir / f"{stem}.npy")


@pytest.fixture(scope="session")
def trained_zoo(pytestconfig):
    cache = getattr(pytestconfig, "cache", None)  # absent under -p no:cacheprovider
    return _TrainedZoo(cache.mkdir("trained_zoo") if cache is not None else None)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240831)
