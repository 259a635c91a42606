"""In-memory span tracing of the wkb_lab layers, applied from outside.

Nothing in the package is edited.  ``patched(tracer)`` replaces each traced
function at the name its caller looks it up under (for instance
``wkb_lab.likelihood.logq_pf_batch``, which both ``logq_pf`` and the
first-order RHS resolve through the ``likelihood`` module globals) with a
wrapper that records a span, and restores every original on exit.

A span is (name, start, end, parent, operation id, value, status); the value
carries a count that belongs to the span, such as the rows of a score call
or the steps of an ODE solve.  Spans live in flat arrays until the run
ends.  A span's self time is its duration minus the durations of its direct
children; calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import copy
from array import array
from time import perf_counter

import numpy as np

import wkb_lab.likelihood as likelihood
import wkb_lab.sampler as sampler
import wkb_lab.train as train_mod
import wkb_lab.wasserstein as wasserstein
from wkb_lab.schedule import Schedule
from wkb_lab.score import AnalyticGaussianScore, MlpScore

SMALL_ROWS = 32  # score calls of at most this many rows count as small

# span names
POINT = "likelihood.point"
LOGQ = "likelihood.logq_pf_batch"
SOLVE = "ode.solve"
RHS = "ode.rhs"
SCORE = "score.net"
STENCIL = "score.stencil"
ERR_EST = "error_est"
TRAIN_RUN = "train.run"
DSM = "score.dsm_loss"
BACKPROP = "score.backprop"
ADAM = "score.adam"
SAMPLE = "sampler.sample_sde"
EM = "sampler.em_sweep"
W2 = "wasserstein.w2_exact"
ASSIGN = "wasserstein.assign"

# values of POINT spans: which model the point evaluates
TRAINED_POINT = 1
ORACLE_POINT = 2


class Tracer:
    """Span store plus the operation id that new spans are tagged with."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self.status = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.schedule_calls = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.value.append(0)
        self.status.append(0)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int, failed: bool = False) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        if failed:
            self.status[i] = 1

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield i
        except BaseException:
            self.close(i, failed=True)
            raise
        self.close(i)

    def wrap(self, name: str, fn, value_of=None):
        """``fn`` recorded as a span; ``value_of(args, result)`` fills the value."""
        nid = self.name_id(name)
        open_, close, value = self.open, self.close, self.value

        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                close(i, failed=True)
                raise
            close(i)
            if value_of is not None:
                value[i] = value_of(args, out)
            return out

        return wrapper

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
            "status": np.frombuffer(self.status, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _rows(args, _out) -> int:
    x = args[1]  # args[0] is the score object
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _steps(_args, sol) -> int:
    return sol.n_steps


def _traced_solve(tracer: Tracer, solve):
    """solve_adaptive as a span whose problem's RHS is a child span."""
    rhs_id = tracer.name_id(RHS)
    open_, close = tracer.open, tracer.close

    def with_rhs_spans(problem, *args, **kwargs):
        inner = problem.rhs

        def rhs(t, y):
            i = open_(rhs_id)
            try:
                out = inner(t, y)
            except BaseException:
                close(i, failed=True)
                raise
            close(i)
            return out

        problem = copy.copy(problem)
        problem.rhs = rhs
        return solve(problem, *args, **kwargs)

    return tracer.wrap(SOLVE, with_rhs_spans, _steps)


def _counted(tracer: Tracer, fn):
    # schedule methods take a few microseconds; a span would time the wrapper
    def wrapper(*args, **kwargs):
        tracer.schedule_calls += 1
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers; restore the originals on exit."""
    targets = [
        (MlpScore, "_forward", lambda f: tracer.wrap(SCORE, f, _rows)),
        (AnalyticGaussianScore, "__call__", lambda f: tracer.wrap(SCORE, f, _rows)),
        (likelihood, "score_jacobian", lambda f: tracer.wrap(STENCIL, f)),
        (likelihood, "score_div_derivatives", lambda f: tracer.wrap(STENCIL, f)),
        (likelihood, "logq_pf_batch", lambda f: tracer.wrap(LOGQ, f)),
        (likelihood, "solve_adaptive", lambda f: _traced_solve(tracer, f)),
        (likelihood, "local_err_model_from_derivs", lambda f: tracer.wrap(ERR_EST, f)),
        (likelihood, "local_err_subtraction_from_values",
         lambda f: tracer.wrap(ERR_EST, f)),
        (train_mod, "dsm_loss", lambda f: tracer.wrap(DSM, f)),
        (MlpScore, "backprop", lambda f: tracer.wrap(BACKPROP, f)),
        (train_mod, "adam_step", lambda f: tracer.wrap(ADAM, f)),
        (sampler, "em_sweep", lambda f: tracer.wrap(EM, f)),
        (wasserstein, "linear_sum_assignment", lambda f: tracer.wrap(ASSIGN, f)),
    ] + [(Schedule, m, lambda f: _counted(tracer, f))
         for m in ("drift_coef", "g2", "alpha", "sigma2")]
    saved = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics from the span arrays ------------------------------------

class SpanTable:
    """Vectorised view of a tracer's spans: durations, self times, roles."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent, self.op = a["name"], a["parent"], a["op"]
        self.value, self.status = a["value"], a["status"]
        self.dur = a["end"] - a["start"]
        n = self.dur.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self.self_time = self.dur - child
        self.schedule_calls = tracer.schedule_calls

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(name)

    def parent_is(self, m: np.ndarray, name: str) -> np.ndarray:
        """Restrict mask ``m`` to spans whose parent has the given name."""
        par = self.parent
        ok = np.zeros_like(m)
        sel = m & (par >= 0)
        ok[sel] = self.mask(name)[par[sel]]
        return ok

    def roles(self) -> dict[str, np.ndarray]:
        """Masks for the nested likelihood: outer and inner solves and RHS."""
        solve, rhs = self.mask(SOLVE), self.mask(RHS)
        outer_solve = self.parent_is(solve, POINT)
        inner_solve = self.parent_is(solve, LOGQ)
        par = np.where(self.parent >= 0, self.parent, 0)
        outer_rhs = rhs & (self.parent >= 0) & outer_solve[par]
        inner_rhs = rhs & (self.parent >= 0) & inner_solve[par]
        logq = self.mask(LOGQ)
        return {"outer_rhs": outer_rhs, "inner_rhs": inner_rhs,
                "nested_logq": self.parent_is(logq, RHS)}

    def counts_by_op(self, n_ops: int) -> dict[str, np.ndarray]:
        """Deterministic counts per operation; they must repeat exactly."""
        roles = self.roles()
        op = np.where(self.op >= 0, self.op, n_ops)

        def per_op(m, weights=None):
            w = None if weights is None else weights[m].astype(float)
            return np.bincount(op[m], weights=w, minlength=n_ops + 1)[:n_ops].astype(np.int64)

        score, solve = self.mask(SCORE), self.mask(SOLVE)
        return {
            "score.calls": per_op(score),
            "score.rows": per_op(score, self.value),
            "ode.solves": per_op(solve),
            "ode.steps": per_op(solve, self.value),
            "ode.rhs_calls": per_op(self.mask(RHS)),
            "likelihood.inner_solves": per_op(roles["nested_logq"]),
            "likelihood.outer_rhs": per_op(roles["outer_rhs"]),
        }

    def self_negative_min(self) -> float:
        return float(self.self_time.min()) if self.dur.size else 0.0


def layer_metrics(t: SpanTable) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json that spans determine."""
    def count(m):
        return int(np.sum(m))

    def total(m, arr=None):
        return float((t.dur if arr is None else arr)[m].sum())

    def mean_dur(m):
        return float(t.dur[m].mean()) if m.any() else 0.0

    score = t.mask(SCORE)
    rows = int(t.value[score].sum())
    small = score & (t.value <= SMALL_ROWS)
    solve = t.mask(SOLVE)
    steps = int(t.value[solve].sum())
    points = t.mask(POINT)
    n_points = count(points)
    roles = t.roles()
    point_dur = t.dur[points]
    in_points = np.isin(t.op, np.unique(t.op[points])) if n_points else \
        np.zeros_like(score)
    m = {
        "score.calls": count(score),
        "score.rows": rows,
        "score.busy_s": total(score),
        "score.us_per_row": 1e6 * total(score) / rows if rows else 0.0,
        "score.small_calls": count(small),
        "score.small_us_per_call": 1e6 * total(small) / count(small) if count(small) else 0.0,
        "score.stencil_calls": count(t.mask(STENCIL)),
        "score.stencil_s": total(t.mask(STENCIL)),
        "score.dsm_loss_s": total(t.mask(DSM), t.self_time),
        "score.backprop_s": total(t.mask(BACKPROP)),
        "score.adam_s": total(t.mask(ADAM)),
        "ode.solves": count(solve),
        "ode.steps": steps,
        "ode.rhs_calls": count(t.mask(RHS)),
        "ode.self_s": total(solve, t.self_time),
        "ode.self_us_per_step": 1e6 * total(solve, t.self_time) / steps if steps else 0.0,
        "ode.failed": count(solve & (t.status == 1)),
        "likelihood.points": n_points,
        "likelihood.inner_solves_per_point":
            count(roles["nested_logq"]) / n_points if n_points else 0.0,
        "likelihood.outer_rhs_per_point":
            count(roles["outer_rhs"]) / n_points if n_points else 0.0,
        "likelihood.score_rows_per_point":
            float(t.value[score & in_points].sum()) / n_points if n_points else 0.0,
        "likelihood.inner_self_s": total(roles["inner_rhs"], t.self_time),
        "likelihood.outer_self_s": total(roles["outer_rhs"], t.self_time),
        "likelihood.point_s_p50": float(np.median(point_dur)) if n_points else 0.0,
        "likelihood.point_s_max": float(point_dur.max()) if n_points else 0.0,
        "likelihood.point_s_trained": mean_dur(points & (t.value == TRAINED_POINT)),
        "likelihood.point_s_oracle": mean_dur(points & (t.value == ORACLE_POINT)),
        "error_est.calls": count(t.mask(ERR_EST)),
        "error_est.busy_s": total(t.mask(ERR_EST)),
        "schedule.calls": t.schedule_calls,
        "train.steps": count(t.mask(ADAM)),
        "train.self_s": total(t.mask(TRAIN_RUN), t.self_time),
        "sampler.em_sweep_s": total(t.mask(EM), t.self_time),
        "sampler.self_s": total(t.mask(SAMPLE), t.self_time),
        "wasserstein.calls": count(t.mask(W2)),
        "wasserstein.assign_s": total(t.mask(ASSIGN)),
        "wasserstein.self_s": total(t.mask(W2), t.self_time),
    }
    return m
