import numpy as np
import pytest

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


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan")])
def test_learning_rate_must_be_positive(lr):
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=lr)


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
