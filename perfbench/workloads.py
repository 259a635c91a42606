"""The four benchmark workloads, driven through the package's public API.

Each workload has three phases:

* ``prepare`` builds cached inputs that users make once (the trained
  checkpoint); it is not timed.
* ``setup`` loads and warms up; the runner repeats it and reports the median
  as ``setup_s``.
* ``op(i)`` is one measured operation (an NLL point, a training run or a
  sweep cell).  It returns the output values that are checked and digested.

Every input comes from the benchmark seed; a fixed seed gives the same
inputs, the same outputs and the same deterministic counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from wkb_lab.data import GRID_NORM, make_25gaussian, make_swiss_roll
from wkb_lab.gaussian_oracle import GaussianModel
from wkb_lab.likelihood import FdStencil, logq_pf, nll_first_order
from wkb_lab.sampler import SamplerConfig, em_sweep, sample_ode, sample_sde
from wkb_lab.schedule import Schedule, ScheduleKind
from wkb_lab.score import MlpScore, checkpoint_load, checkpoint_save, dsm_loss
from wkb_lab.train import TrainConfig, train
from wkb_lab.wasserstein import w2_exact

import tracing

# The trained checkpoint: the repo's 25-gaussian/cosine config, trained with
# a fixed seed so every benchmark seed evaluates the same model.
CKPT_DATA_SEED = 7
CKPT_TRAIN_SEED = 11
N_COMPONENTS = 25
# grid components visited with stride 7 mod 25, so each prefix spans the grid
COMPONENT_ORDER = (7 * np.arange(N_COMPONENTS)) % N_COMPONENTS

# Richardson extrapolation of the oracle's h-derivative.
REF_STEP = 1e-5
REF_HALVING_MAX = 1e-8


@dataclass(frozen=True)
class Sizes:
    ckpt_epochs: int = 400
    dx: float = 0.01            # the CLI defaults of `nll`
    tol_outer: float = 1e-3
    tol_inner: float = 1e-5
    train_n: int = 3000
    train_batch: int = 512
    train_epochs: int = 50      # epochs per training run (one operation)
    sweep_n: int = 512
    sweep_steps: int = 1000
    w2_max: float = 0.75        # the trained model lands near 0.4 (h=0) and 0.5 (h=1)
    ode_gap_max: float = 0.03   # h=0 Euler vs ODE: 0.0064 at most over 48 trajectories


FULL = Sizes()
SMOKE = Sizes(ckpt_epochs=2, dx=0.05, tol_outer=1e-2, tol_inner=1e-3,
              train_n=600, train_batch=128, train_epochs=3,
              sweep_n=48, sweep_steps=40, w2_max=100.0, ode_gap_max=100.0)


def sub_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a stream key."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def ensure_checkpoint(cache_dir: str, epochs: int) -> str:
    """Train the 25-gaussian/cosine checkpoint once and cache it."""
    path = os.path.join(cache_dir, f"ckpt_25-gaussian_cosine_e{epochs}"
                                   f"_s{CKPT_TRAIN_SEED}.ckpt")
    if os.path.exists(path):
        return path
    cloud = make_25gaussian(3000, seed=CKPT_DATA_SEED)
    schedule = Schedule(kind=ScheduleKind.COSINE, beta=20.0, t_min=0.01, t_max=0.99,
                        dim=cloud.dim)
    cfg = TrainConfig(epochs=epochs, batch_size=512, lr=1e-3, seed=CKPT_TRAIN_SEED)
    result = train(cfg, cloud, schedule)
    tmp = f"{path}.{os.getpid()}.tmp"
    checkpoint_save(result.model, tmp, schedule,
                    train_meta={"epochs": cfg.epochs, "batch_size": cfg.batch_size,
                                "lr": cfg.lr, "time_grid_size": cfg.time_grid_size})
    os.replace(tmp, path)
    return path


def load_checkpoint(path):
    model, meta = checkpoint_load(path)
    schedule = Schedule(kind=meta["schedule_kind"], beta=meta["beta"],
                        t_min=meta["t_min"], t_max=meta["t_max"], dim=model.dim)
    return model, schedule


class Workload:
    name = ""
    item = ""            # what one unit of throughput is
    items_per_op = 1.0
    ops_per_group = 1    # the run stops only after a whole group of ops

    def __init__(self, seed: int, sizes: Sizes, cache_dir: str):
        self.seed, self.sizes, self.cache_dir = seed, sizes, cache_dir
        self.inputs: dict[str, str] = {}
        self.data_gen_s = 0.0

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, tracer=None) -> np.ndarray:
        raise NotImplementedError

    def check(self, i: int, out: np.ndarray) -> str | None:
        """None if the output of operation i is correct, else the reason."""
        raise NotImplementedError

    def summary(self) -> dict:
        """Workload-specific accuracy figures (zero where not applicable)."""
        return {}

    def _span(self, tracer, name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class _NllBase(Workload):
    kind = 0  # tags the point's span with the model it evaluates

    def _nll(self, x, tracer):
        s = self.sizes
        with self._span(tracer, tracing.POINT) as span:
            rep = nll_first_order(self.score, self.schedule, x, FdStencil(dx=s.dx),
                                  tol_outer=s.tol_outer, tol_inner=s.tol_inner,
                                  err_scheme="model")
        if tracer is not None:
            tracer.value[span] = self.kind
        return np.array([rep.log_q0, rep.correction1, rep.err_bound])

    def _warm_up(self):
        # one zeroth-order solve at a fixed point, so set-up cost is seed-free
        logq_pf(self.score, self.schedule, np.zeros(self.schedule.dim),
                self.schedule.t_min, self.sizes.tol_inner, FdStencil(dx=self.sizes.dx))

    def check(self, i, out):
        if not np.all(np.isfinite(out)):
            return "non-finite log_q0, correction1 or err_bound"
        if out[2] < 0.0:
            return "negative err_bound"
        return None


class NllTrained(_NllBase):
    """First-order NLL on validation points of the trained checkpoint.

    Points are stratified over the 25 mixture components, whose costs differ
    by 2x: pass r takes one seeded validation point per component, visited
    in a fixed order that steps across the grid, so that a run that stops
    part-way through a pass still sees every seed's mix of easy and hard
    regions alike.
    """

    kind = tracing.TRAINED_POINT

    def prepare(self):
        self.ckpt = ensure_checkpoint(self.cache_dir, self.sizes.ckpt_epochs)
        self.inputs["checkpoint_sha256"] = file_digest(self.ckpt)
        self.inputs["points_pass0_sha256"] = digest(self._pass(0))

    def _pass(self, r: int) -> np.ndarray:
        pool = make_25gaussian(40 * N_COMPONENTS, seed=sub_seed(self.seed, 0x7A11, r)).points
        grid = np.clip(np.rint(pool * GRID_NORM / 2.0) + 2, 0, 4).astype(int)
        comp = grid[:, 1] * 5 + grid[:, 0]
        first = np.array([np.flatnonzero(comp == c)[0] for c in range(N_COMPONENTS)])
        return pool[first[COMPONENT_ORDER]]

    def setup(self):
        self.score, self.schedule = load_checkpoint(self.ckpt)
        t0 = perf_counter()
        self.passes = {0: self._pass(0)}
        self.data_gen_s = perf_counter() - t0
        self._warm_up()

    def point(self, i: int) -> np.ndarray:
        r, k = divmod(i, N_COMPONENTS)
        if r not in self.passes:
            self.passes[r] = self._pass(r)
        return self.passes[r][k]

    def op(self, i, tracer=None):
        return self._nll(self.point(i), tracer)


class NllOracle(_NllBase):
    """The same pipeline on the analytic Gaussian score, with exact answers.

    The reference for the first-order coefficient is a Richardson-
    extrapolated central difference in h of the closed-form log-density,
    checked for stability by halving its step.
    """

    kind = tracing.ORACLE_POINT
    CHUNK = 64

    def prepare(self):
        self.model = GaussianModel(beta=4.0, v0=2.0, epsilon=0.3, T=4.0)
        self.inputs["points_chunk0_sha256"] = digest(self._chunk(0))
        self.results: dict[int, tuple] = {}

    def _chunk(self, c: int) -> np.ndarray:
        sched = self.model.to_schedule(dim=2, t_min=0.01)
        sd = np.sqrt(self.model.vprime_t(0.0, sched.t_min))
        rng = np.random.default_rng(sub_seed(self.seed, 0x0AC1, c))
        return sd * rng.standard_normal((self.CHUNK, 2))

    def setup(self):
        self.schedule = self.model.to_schedule(dim=2, t_min=0.01)
        self.score = self.model.to_score(dim=2)
        t0 = perf_counter()
        self.chunks = {0: self._chunk(0)}
        self.data_gen_s = perf_counter() - t0
        self._warm_up()

    def point(self, i):
        c, k = divmod(i, self.CHUNK)
        if c not in self.chunks:
            self.chunks[c] = self._chunk(c)
        return self.chunks[c][k]

    def op(self, i, tracer=None):
        return self._nll(self.point(i), tracer)

    def reference(self, x, step):
        """Richardson extrapolation of the central difference d/dh log q0."""
        t = self.schedule.t_min

        def central(d):
            return (self.model.logq0(x, h=d, t=t) - self.model.logq0(x, h=-d, t=t)) / (2 * d)

        return (4.0 * central(step / 2) - central(step)) / 3.0

    def check(self, i, out):
        bad = super().check(i, out)
        if bad:
            return bad
        x = self.point(i)
        ref = self.reference(x, REF_STEP)
        halving = abs(self.reference(x, REF_STEP / 2) - ref) / max(abs(ref), 1.0)
        exact_logq = self.model.logq0(x, h=0.0, t=self.schedule.t_min)
        self.results[i] = (out[1], ref, halving, out[2])
        if halving > REF_HALVING_MAX:
            return f"reference unstable under step halving ({halving:.2e})"
        if abs(out[0] - exact_logq) > 1e-3:
            return f"log_q0 off the closed form by {abs(out[0] - exact_logq):.2e}"
        # the pipeline lands within 4e-4 relative at the defaults; the floor
        # covers points where the exact coefficient crosses zero
        if abs(out[1] - ref) > 1e-3 * abs(ref) + 1e-2:
            return f"correction1 {out[1]:.8g} vs exact {ref:.8g}"
        return None

    def summary(self):
        if not self.results:
            return {}
        corr, ref, halving, bound = (np.array(v) for v in zip(*self.results.values()))
        err = np.abs(corr - ref)
        return {
            "likelihood.oracle_corr_relerr_max": float(np.max(err / np.abs(ref))),
            "likelihood.oracle_ref_halving_max": float(np.max(halving)),
            "likelihood.oracle_bound_covered_frac": float(np.mean(err <= bound)),
        }


class Train(Workload):
    """DSM training runs on swiss-roll data; one operation is one run."""

    def prepare(self):
        self.inputs["dataset_sha256"] = digest(self._data().points)

    def _data(self):
        return make_swiss_roll(self.sizes.train_n, seed=sub_seed(self.seed, 0xDA7A))

    def setup(self):
        t0 = perf_counter()
        self.cloud = self._data()
        self.data_gen_s = perf_counter() - t0
        self.schedule = Schedule(kind=ScheduleKind.SIMPLE, beta=20.0, t_min=0.01,
                                 t_max=1.0, dim=self.cloud.dim)
        # warm-up: one loss-and-gradient evaluation of a fresh network
        warm = MlpScore.create(dim=self.cloud.dim, seed=0)
        dsm_loss(warm, self.cloud.points[: self.sizes.train_batch], self.schedule, 0)

    def op(self, i, tracer=None):
        s = self.sizes
        cfg = TrainConfig(epochs=s.train_epochs, batch_size=s.train_batch,
                          seed=sub_seed(self.seed, 0x7EA1, i))
        with self._span(tracer, tracing.TRAIN_RUN):
            return train(cfg, self.cloud, self.schedule).loss_trace

    def check(self, i, out):
        if not np.all(np.isfinite(out)):
            return "non-finite loss trace"
        k = max(1, out.size // 5)
        if not out[-k:].mean() < out[:k].mean():
            return "loss did not decrease over the run"
        return None


class W2Sweep(Workload):
    """Cells of the W2 sweep at h=0 and h=1 on the trained checkpoint.

    A cell samples n trajectories over the configured steps and computes
    one exact W2 distance against n fresh data points.  Cells alternate
    h=0 and h=1.
    """

    H_VALUES = (0.0, 1.0)
    ODE_CHECK = 16       # trajectories of each h=0 cell checked against the ODE

    def prepare(self):
        self.ckpt = ensure_checkpoint(self.cache_dir, self.sizes.ckpt_epochs)
        self.inputs["checkpoint_sha256"] = file_digest(self.ckpt)
        self.inputs["cell0_data_sha256"] = digest(self._data(0))
        self.clouds: dict[int, np.ndarray] = {}

    def _data(self, i):
        return make_25gaussian(self.sizes.sweep_n, seed=sub_seed(self.seed, 0x7E57, i)).points

    def setup(self):
        self.score, self.schedule = load_checkpoint(self.ckpt)
        # warm-up: a short fixed sweep and a small assignment
        x = np.zeros((4, self.schedule.dim))
        ts = np.linspace(self.schedule.t_max, self.schedule.t_min, 11)
        em_sweep(self.score, self.schedule, 0.0, ts, x, None)
        w2_exact(np.eye(4, 2), np.eye(4, 2)[::-1])

    def op(self, i, tracer=None):
        h = self.H_VALUES[i % 2]
        data = self._data(i)
        cfg = SamplerConfig(h=h, n_steps=self.sizes.sweep_steps,
                            seed=sub_seed(self.seed, 0x5A3, i))
        with self._span(tracer, tracing.SAMPLE):
            samples, _ = sample_sde(self.score, self.schedule, cfg, self.sizes.sweep_n)
        with self._span(tracer, tracing.W2):
            res = w2_exact(data, samples)
        self.clouds[i] = (data, samples.points, res.assignment, cfg)
        return np.array([res.distance])

    def check(self, i, out):
        data, samples, perm, cfg = self.clouds.pop(i)
        if cfg.h == 0.0:
            # h=0 is Euler on the probability flow: the adaptive ODE solve from
            # the same latents must agree to the Euler error (~1e-2)
            ode = sample_ode(self.score, self.schedule, self.ODE_CHECK, seed=cfg.seed,
                             tol=1e-6)
            gap = float(np.max(np.abs(samples[: self.ODE_CHECK] - ode.points)))
            if gap > self.sizes.ode_gap_max:
                return f"h=0 samples differ from the ODE solve by {gap:.3g}"
        n = data.shape[0]
        if not np.array_equal(np.sort(perm), np.arange(n)):
            return "assignment is not a permutation"
        matched = float(np.sqrt(np.mean(np.sum((data - samples[perm]) ** 2, axis=1))))
        if abs(matched - out[0]) > 1e-9 * max(1.0, matched):
            return "distance disagrees with its own assignment"
        identity = float(np.sqrt(np.mean(np.sum((data - samples) ** 2, axis=1))))
        if out[0] > identity + 1e-12:
            return "assignment costs more than the identity matching"
        if not 0.0 < out[0] < self.sizes.w2_max:
            return f"W2 {out[0]:.4f} outside (0, {self.sizes.w2_max})"
        return None


class Rounds(Workload):
    """A workload whose operations cycle through other workloads' operations.

    One round runs ``n`` operations of each member in turn; a round is the
    unit of throughput.  Members that share a round share the run's time
    budget, so that each run lasts long enough to average out the host's
    speed drift (see NOTES.md).
    """

    item = "round"
    members: tuple = ()  # (workload class, operations per round)

    def __init__(self, seed, sizes, cache_dir):
        super().__init__(seed, sizes, cache_dir)
        self.parts = [(cls(seed, sizes, cache_dir), n) for cls, n in self.members]
        self.ops_per_group = sum(n for _, n in self.parts)
        self.items_per_op = 1.0 / self.ops_per_group

    def _part(self, i):
        r, k = divmod(i, self.ops_per_group)
        for part, n in self.parts:
            if k < n:
                return part, r * n + k
            k -= n

    def prepare(self):
        for part, _ in self.parts:
            part.prepare()
            self.inputs.update(part.inputs)

    def setup(self):
        for part, _ in self.parts:
            part.setup()
        self.data_gen_s = sum(part.data_gen_s for part, _ in self.parts)

    def op(self, i, tracer=None):
        part, j = self._part(i)
        return part.op(j, tracer)

    def check(self, i, out):
        part, j = self._part(i)
        return part.check(j, out)

    def summary(self):
        out = {}
        for part, _ in self.parts:
            out.update(part.summary())
        return out


class Nll(Rounds):
    """One trained-model point, then four oracle points: about equal time."""

    name = "nll"
    members = ((NllTrained, 1), (NllOracle, 4))


class TrainSweep(Rounds):
    """One training run, then a sweep cell at h=0 and one at h=1."""

    name = "train-sweep"
    members = ((Train, 1), (W2Sweep, 2))


WORKLOADS = {w.name: w for w in (Nll, TrainSweep)}
