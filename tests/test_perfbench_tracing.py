"""The traced benchmark wraps package functions by name from outside the
package (perfbench/tracing.py).  Renaming or moving a wrapped function, or
calling it past the name the tracer patches, breaks the trace; this guard
makes that a test failure."""

from pathlib import Path

import numpy as np
import pytest

import wkb_lab.likelihood as likelihood
import wkb_lab.sampler as sampler
from conftest import ORACLE_T_MIN, oracle_model
from wkb_lab.data import make_swiss_roll
from wkb_lab.likelihood import FdStencil, logq_pf, nll_first_order
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import MlpScore
from wkb_lab.train import TrainConfig, train
from wkb_lab.wasserstein import w2_exact

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (resolves every name the workloads import)

    return tracing


def test_patched_enters_and_restores(tracing):
    before = (MlpScore.__dict__["_forward"], likelihood.logq_pf_batch,
              likelihood.score_jacobian)
    with tracing.patched(tracing.Tracer()):
        assert likelihood.logq_pf_batch is not before[1]
    after = (MlpScore.__dict__["_forward"], likelihood.logq_pf_batch,
             likelihood.score_jacobian)
    assert after == before


def test_traced_layers_are_on_the_call_path(tracing):
    model = oracle_model(0.3)
    sched, score = model.to_schedule(dim=2, t_min=ORACLE_T_MIN), model.to_score(dim=2)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        with tracer.span(tracing.POINT):
            rep = nll_first_order(score, sched, np.array([0.1, -0.05]), FdStencil(0.05),
                                  tol_outer=1e-2, tol_inner=1e-3)
        # the benchmark warm-up's zeroth-order solve: no point reaches LOGQ
        logq_pf(score, sched, np.zeros(2), sched.t_min, 1e-3, FdStencil(0.05))
        train(TrainConfig(epochs=1, batch_size=64, seed=0), make_swiss_roll(128, seed=1),
              Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2))
        x, _ = sampler.em_sweep(score, sched, 0.5,
                                np.linspace(sched.t_max, sched.t_min, 3),
                                np.zeros((3, 2)), None)
        w2 = w2_exact(x, np.eye(3, 2))
    assert np.isfinite(rep.correction1) and np.isfinite(w2.distance)
    table = tracing.SpanTable(tracer)
    for name in (tracing.SCORE, tracing.STENCIL, tracing.LOGQ, tracing.SOLVE, tracing.RHS,
                 tracing.ERR_EST, tracing.DSM, tracing.BACKPROP, tracing.ADAM,
                 tracing.EM, tracing.ASSIGN):
        assert table.mask(name).any(), f"no {name} span recorded"
    metrics = tracing.layer_metrics(table)
    assert metrics["likelihood.inner_solves_per_point"] == 0
    assert metrics["likelihood.outer_rhs_per_point"] > 0
    assert metrics["train.steps"] == 2


def test_network_sweep_records_score_spans(tracing):
    # the sampler evaluates a float32 copy of the network, which must still
    # pass through the traced forward pass
    sched = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, dim=2)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        sampler.em_sweep(MlpScore.create(2, seed=0), sched, 0.5,
                         np.linspace(sched.t_max, sched.t_min, 4), np.zeros((3, 2)), None)
    table = tracing.SpanTable(tracer)
    under_sweep = table.parent_is(table.mask(tracing.SCORE), tracing.EM)
    assert under_sweep.sum() == 3  # one network span per step
