import warnings

import numpy as np
import pytest
import train_reference

from wkb_lab.data import make_swiss_roll, write_table
from wkb_lab.errors import NonFinite
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import MlpScore
from wkb_lab.train import TrainConfig, train

SCHED = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2)


def test_zero_epochs_returns_initialization():
    cloud = make_swiss_roll(600, seed=1)
    res = train(TrainConfig(epochs=0, seed=13), cloud, SCHED)
    init = MlpScore.create(dim=2, seed=13)
    np.testing.assert_array_equal(res.model.params, init.params)
    assert res.loss_trace.size == 0


def test_training_is_deterministic():
    cloud = make_swiss_roll(600, seed=1)
    a = train(TrainConfig(epochs=8, batch_size=128, seed=21), cloud, SCHED)
    b = train(TrainConfig(epochs=8, batch_size=128, seed=21), cloud, SCHED)
    np.testing.assert_array_equal(a.loss_trace, b.loss_trace)
    np.testing.assert_array_equal(a.model.params, b.model.params)


def test_loss_trends_downward():
    cloud = make_swiss_roll(1000, seed=2)
    res = train(TrainConfig(epochs=60, batch_size=256, seed=3), cloud, SCHED)
    assert np.all(np.isfinite(res.loss_trace))
    assert res.loss_trace[-20:].mean() < res.loss_trace[:20].mean()


def test_divergence_reports_epoch_batch_and_param_norm():
    cloud = make_swiss_roll(256, seed=1)
    # the first Adam step moves every parameter by ~lr; the norm stays finite
    finite_norm = r"epoch 0, batch 1 \(param norm \d\.\d{3}e\+\d+\)"
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite, match=finite_norm) as info:
        train(TrainConfig(epochs=3, batch_size=64, lr=1e200), cloud, SCHED)
    assert isinstance(info.value.__cause__, NonFinite)


def test_divergence_beyond_float32_range_warns_nothing():
    # after one step at lr = 1e200 the float32 copy of the parameters is
    # inf; the cast must stay silent and the forward pass report it
    cloud = make_swiss_roll(256, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"epoch 0, batch 1 \(param norm \d\.\d{3}e\+\d+\)"):
            train(TrainConfig(epochs=3, batch_size=64, lr=1e200), cloud, SCHED)


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
def test_learning_rate_must_be_positive(lr):
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=lr)


@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("batch_size", 64.0),
                                          ("time_grid_size", 10.0)])
def test_counts_must_be_integers(field, value):
    # a float count ended in a TypeError from numpy inside train
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrainConfig(**{field: value})


def test_time_grid_needs_a_point():
    # time_grid_size = 0 ended in "ValueError: high <= 0" from the first draw
    with pytest.raises(ValueError, match="time_grid_size must be >= 1"):
        TrainConfig(time_grid_size=0)


def test_counts_accept_numpy_integers():
    cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(64), time_grid_size=np.int64(10))
    assert cfg.epochs == 3 and cfg.batch_size == 64


@pytest.mark.parametrize("seed", [0, 1])
def test_mixed_precision_tracks_float64_training(seed):
    # float32 forward and backward on float64 parameters, against the float64
    # loop; measured at most 1.2e-8 relative on the loss trace and 3.4e-8 on
    # the parameters over seeds 0-3
    cloud = make_swiss_roll(600, seed=1)
    cfg = TrainConfig(epochs=20, batch_size=128, seed=seed)
    res = train(cfg, cloud, SCHED)
    ref = train_reference.train(cfg, cloud, SCHED)
    assert res.model.params.dtype == np.float64
    rel = np.abs(res.loss_trace - ref.loss_trace) / np.abs(ref.loss_trace)
    assert rel.max() <= 1e-7
    assert np.max(np.abs(res.model.params - ref.model.params)) <= 1e-6


def test_training_steps_run_on_float32_parameters(monkeypatch):
    seen = []
    forward, backprop = MlpScore._forward, MlpScore.backprop

    def spy_forward(self, *args, **kwargs):
        seen.append(("forward", self.params.dtype))
        return forward(self, *args, **kwargs)

    def spy_backprop(self, *args, **kwargs):
        seen.append(("backprop", self.params.dtype))
        return backprop(self, *args, **kwargs)

    monkeypatch.setattr(MlpScore, "_forward", spy_forward)
    monkeypatch.setattr(MlpScore, "backprop", spy_backprop)
    res = train(TrainConfig(epochs=2, batch_size=128, seed=0), make_swiss_roll(600, seed=1),
                SCHED)
    steps = 2 * 5  # ceil(600 / 128) steps per epoch
    assert seen == [("forward", np.float32), ("backprop", np.float32)] * steps
    assert res.model.params.dtype == np.float64


def test_batch_size_must_fit_dataset():
    cloud = make_swiss_roll(100, seed=1)
    with pytest.raises(ValueError):
        train(TrainConfig(epochs=1, batch_size=512), cloud, SCHED)


@pytest.mark.slow
def test_desk_scale_training_trends_down(trained_zoo):
    from wkb_lab.schedule import ScheduleKind

    _, _, trace = trained_zoo.get("swiss-roll", ScheduleKind.SIMPLE)
    assert trace[-100:].mean() < trace[:100].mean()


@pytest.mark.slow
def test_loss_traces_finite_on_all_combos(trained_zoo):
    from wkb_lab.schedule import ScheduleKind

    for ds in ("swiss-roll", "25-gaussian"):
        for kind in (ScheduleKind.SIMPLE, ScheduleKind.COSINE):
            _, _, trace = trained_zoo.get(ds, kind)
            assert np.all(np.isfinite(trace))


def test_loss_trace_roundtrip(tmp_path):
    trace = np.array([3.0, 2.5, 2.25])
    path = tmp_path / "loss.tsv"
    write_table(path, "# epoch\tloss", enumerate(trace))  # the layout `train` writes
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert [float(l.split("\t")[1]) for l in lines[1:]] == [3.0, 2.5, 2.25]
