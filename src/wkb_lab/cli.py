"""Command-line surface: reproducible runs driven by an INI config file.

Commands
--------
gen-data    write the configured dataset to disk
train       train a score model, write checkpoint + loss trace
sample      draw samples from a checkpoint at a given noise strength
nll         per-point likelihood table with first-order corrections
w2-sweep    2-Wasserstein distance vs noise strength
gaussian    closed-form curves and identity-residual grid of the oracle
verify      self-contained oracle/property checks; nonzero exit on failure

Settings resolve once per command: the defaults, the INI file, the flags
that set a config key (``train --epochs``, ``nll --dx/--tol-outer/--tol-inner``,
``sample --n`` for ``sweep.n_samples``), a loaded checkpoint's schedule, then
WKB_LAB_SEED for all seeds.  In ``nll``, ``tol_inner`` sets the tolerance of the
solves that give ``log_q0`` and ``correction1``, and ``tol_outer`` that of the
error-bar pass alone, which gives ``err_bound``.  The ``nll``, ``w2-sweep``
and ``gaussian`` tables start with a ``#``-prefixed echo of those settings,
flag overrides and the checkpoint's schedule included; rerunning a command
with the same settings reproduces every output file byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import ConfigError, WkbLabError
from .gaussian_oracle import GaussianModel, gaussian_curves, flow_identity_residual_grid
from .likelihood import FdStencil, nll_dataset
from .ode import check_tol
from .sampler import SamplerConfig, sample_sde
from .schedule import Schedule
from .score import checkpoint_load, checkpoint_save
from .train import TrainConfig, train
from .wasserstein import _MAX_POINTS as _W2_MAX_POINTS, w2_exact
from .workers import map_jobs

_ENV_SEED = "WKB_LAB_SEED"

# Every config key with its default; a value read from a file takes the
# default's type.
_DEFAULTS = {
    "dataset": {"name": "swiss-roll", "n": 3000, "seed": 7},
    "schedule": {"kind": "simple", "beta": 20.0, "t_min": 0.01, "t_max": 1.0},
    "train": {"epochs": 2000, "batch": 512, "lr": 1e-3, "seed": 11},
    "nll": {"dx": 0.01, "tol_outer": 1e-3, "tol_inner": 1e-5, "n_points": 50},
    "sweep": {"h_values": "0,0.2,0.5,1", "trials": 10, "n_samples": 2000},
}


@dataclass
class RunConfig:
    dataset: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    nll: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    def echo(self) -> dict:
        out = {}
        for section in _DEFAULTS:
            for key, val in getattr(self, section).items():
                out[f"{section}.{key}"] = val
        return out

    def make_schedule(self, dim: int) -> Schedule:
        sc = self.schedule
        return Schedule(kind=sc["kind"], beta=sc["beta"],
                        t_min=sc["t_min"], t_max=sc["t_max"], dim=dim)

    def make_train(self) -> TrainConfig:
        tr = self.train
        return TrainConfig(epochs=tr["epochs"], batch_size=tr["batch"], lr=tr["lr"],
                           seed=tr["seed"])


@contextmanager
def _range_rules(what: str):
    """Report a range rule's ValueError from building a library object as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def load_config(path: str | None, *overrides: dict) -> RunConfig:
    """Resolve and validate one run config: the defaults, the INI file at
    ``path`` (unknown sections or keys reject), each of ``overrides`` in
    turn (``{"nll.dx": 0.02}``; a None value is a flag not passed), then
    WKB_LAB_SEED."""
    sections = {name: dict(defaults) for name, defaults in _DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _DEFAULTS[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                try:
                    sections[section][key] = type(_DEFAULTS[section][key])(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    for override in overrides:
        for name, val in override.items():
            if val is not None:
                section, key = name.split(".")
                sections[section][key] = val
    seed_env = os.environ.get(_ENV_SEED)
    if seed_env is not None:
        try:
            seed = int(seed_env)
        except ValueError as exc:
            raise ConfigError(f"{_ENV_SEED} must be an integer") from exc
        sections["dataset"]["seed"] = sections["train"]["seed"] = seed
    cfg = RunConfig(**sections)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Build the library objects that own a key's range rule; check the rest."""
    ds, nl, sw = cfg.dataset, cfg.nll, cfg.sweep
    if ds["name"] not in data_mod.DATASETS:
        raise ConfigError(f"unknown dataset {ds['name']!r}")
    if ds["n"] < 1:
        raise ConfigError("dataset.n must be >= 1")
    if ds["seed"] < 0 or cfg.train["seed"] < 0:
        raise ConfigError(f"bad seed: dataset.seed and train.seed must be >= 0 "
                          f"({_ENV_SEED} sets both)")
    with _range_rules("schedule"):
        cfg.make_schedule(dim=2)
    with _range_rules("train"):
        cfg.make_train()
    with _range_rules("nll"):
        FdStencil(dx=nl["dx"])
        check_tol(nl["tol_outer"], "tol_outer")
        check_tol(nl["tol_inner"], "tol_inner")
    if nl["n_points"] < 1:
        raise ConfigError("bad nll: n_points must be >= 1")
    with _range_rules("sweep"):
        h_values = _parse_h_values(sw["h_values"])
        if not h_values:
            raise ValueError(f"h_values {sw['h_values']!r} lists no noise strength")
        for h in h_values:
            SamplerConfig(h=h)
    if sw["trials"] < 1 or sw["n_samples"] < 1:
        raise ConfigError("bad sweep: trials and n_samples must be >= 1")


def _parse_h_values(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep.h_values: {raw!r}") from exc


def _make_dataset(cfg: RunConfig) -> data_mod.PointCloud:
    ds = cfg.dataset
    return data_mod.DATASETS[ds["name"]](ds["n"], seed=ds["seed"])


def _threads(args) -> int:
    """The ``--threads`` worker count, at least one."""
    if args.threads < 1:
        raise ConfigError(f"bad threads: --threads must be >= 1, got {args.threads}")
    return args.threads


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands -----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    cloud = _make_dataset(cfg)
    out = _out_dir(args)
    data_mod.save_cloud(cloud, out / f"{cloud.name}.tsv")
    print(f"wrote {out / (cloud.name + '.tsv')} ({len(cloud)} points)")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, {"train.epochs": args.epochs})
    if cfg.train["batch"] > cfg.dataset["n"]:
        raise ConfigError(f"bad train: batch {cfg.train['batch']} exceeds "
                          f"dataset.n {cfg.dataset['n']}")
    cloud = _make_dataset(cfg)
    schedule = cfg.make_schedule(cloud.dim)
    tc = cfg.make_train()
    result = train(tc, cloud, schedule)
    out = _out_dir(args)
    stem = f"{cloud.name}_{schedule.kind.value}"
    ckpt = out / f"{stem}.ckpt"
    checkpoint_save(result.model, ckpt, schedule,
                    train_meta={"epochs": tc.epochs, "batch_size": tc.batch_size,
                                "lr": tc.lr, "time_grid_size": tc.time_grid_size})
    data_mod.write_table(out / f"{stem}_loss.tsv", "# epoch\tloss",
                         enumerate(result.loss_trace))
    final = result.loss_trace[-1] if len(result.loss_trace) else float("nan")
    print(f"wrote {ckpt} (final epoch loss {final:.6g})")
    return 0


def _load_checkpoint(args):
    """The model and, as config overrides, the schedule it was trained with."""
    if args.checkpoint is None:
        raise ConfigError("--checkpoint is required for this command")
    model, meta = checkpoint_load(args.checkpoint)
    return model, {"schedule.kind": meta["schedule_kind"].value,
                   "schedule.beta": meta["beta"], "schedule.t_min": meta["t_min"],
                   "schedule.t_max": meta["t_max"]}


def cmd_sample(args) -> int:
    if args.record < 0:
        raise ConfigError(f"bad sample: --record must be >= 0, got {args.record}")
    model, trained_schedule = _load_checkpoint(args)
    cfg = load_config(args.config, {"sweep.n_samples": args.n}, trained_schedule)
    if args.record > cfg.sweep["n_samples"]:
        raise ConfigError(f"bad sample: --record {args.record} exceeds the "
                          f"{cfg.sweep['n_samples']} samples")
    with _range_rules("sample"):
        sampler = SamplerConfig(h=args.h, n_steps=args.n_steps, seed=cfg.dataset["seed"])
    cloud, trajs = sample_sde(model, cfg.make_schedule(model.dim), sampler,
                              cfg.sweep["n_samples"], n_record=args.record)
    out = _out_dir(args)
    cloud.name = f"samples_h{args.h:g}"
    data_mod.save_cloud(cloud, out / f"{cloud.name}.tsv")
    if trajs:
        data_mod.write_table(out / f"trajectories_h{args.h:g}.tsv", "# trajectory\tt\tx...",
                             [(j, t, *x) for j, traj in enumerate(trajs)
                              for t, x in zip(traj.times, traj.states)], digits=17)
    print(f"wrote {out / (cloud.name + '.tsv')}")
    return 0


def cmd_nll(args) -> int:
    threads = _threads(args)
    model, trained_schedule = _load_checkpoint(args)
    cfg = load_config(args.config, {"nll.dx": args.dx, "nll.tol_outer": args.tol_outer,
                                    "nll.tol_inner": args.tol_inner}, trained_schedule)
    nl = cfg.nll
    # the table evaluates n_points distinct points of the dataset
    if nl["n_points"] > cfg.dataset["n"]:
        raise ConfigError(f"bad nll: n_points {nl['n_points']} exceeds dataset.n "
                          f"{cfg.dataset['n']}")
    cloud = _make_dataset(cfg)
    rng = data_mod.stream(cfg.dataset["seed"], 0x7A11)
    idx = rng.permutation(len(cloud))[: nl["n_points"]]
    summary = nll_dataset(model, cfg.make_schedule(model.dim), cloud.points[idx],
                          stencil=FdStencil(dx=nl["dx"]),
                          tol_outer=nl["tol_outer"], tol_inner=nl["tol_inner"],
                          threads=threads)
    out = _out_dir(args)
    data_mod.write_table(out / "nll_table.tsv", *summary.table(), echo=cfg.echo())
    print(f"NLL = {summary.nll_mean:.4f} +- {summary.nll_stderr:.4f}  "
          f"1st-corr = {summary.nll_corr_mean:.4f} +- {summary.corr_stderr:.4f}  "
          f"errors = {summary.err_mean:.4f}  "
          f"(failed {summary.n_failed}/{summary.n_points})")
    return 0


def _w2_trial(job):
    model, schedule, cloud_points, data_seed, train_seed, n, h, trial = job
    val_rng = data_mod.stream(data_seed, 0x7E57, trial)
    val = cloud_points[val_rng.permutation(len(cloud_points))[:n]]
    gen_seed = data_mod.derived_seed(train_seed, 0x5A3, trial)
    samples, _ = sample_sde(model, schedule, SamplerConfig(h=h, seed=gen_seed), n)
    return w2_exact(val, samples).distance


def cmd_w2_sweep(args) -> int:
    threads = _threads(args)
    model, trained_schedule = _load_checkpoint(args)
    cfg = load_config(args.config, trained_schedule)
    sw = cfg.sweep
    n = sw["n_samples"]
    # each trial compares n samples with n validation points of the dataset
    if n > cfg.dataset["n"]:
        raise ConfigError(f"bad sweep: n_samples {n} exceeds dataset.n {cfg.dataset['n']}")
    if n > _W2_MAX_POINTS:
        raise ConfigError(f"bad sweep: n_samples {n} exceeds the {_W2_MAX_POINTS} points "
                          f"of an exact W2")
    schedule = cfg.make_schedule(model.dim)
    cloud = _make_dataset(cfg)
    hs = _parse_h_values(sw["h_values"])
    jobs = [(model, schedule, cloud.points, cfg.dataset["seed"], cfg.train["seed"], n, h,
             trial) for h in hs for trial in range(sw["trials"])]
    dists = map_jobs(_w2_trial, jobs, threads)
    rows = []
    for h, trials in zip(hs, np.reshape(dists, (len(hs), sw["trials"]))):
        stderr = trials.std(ddof=1) / np.sqrt(len(trials)) if len(trials) > 1 else 0.0
        rows.append((float(h), float(trials.mean()), float(stderr)))
    out = _out_dir(args)
    data_mod.write_table(out / "w2_sweep.tsv", "h\tw2_mean\tw2_stderr", rows,
                         echo=cfg.echo())
    for h, mean, err in rows:
        print(f"h={h:g}: W2 = {mean:.4f} +- {err:.4f}")
    return 0


def cmd_gaussian(args) -> int:
    if args.n_h < 1:
        raise ConfigError(f"bad gaussian: --n-h must be >= 1, got {args.n_h}")
    with _range_rules("gaussian"):
        model = GaussianModel(beta=args.beta, v0=args.v0, epsilon=args.eps, T=args.T)
        curves = gaussian_curves(model, np.linspace(0.0, 1.0, args.n_h))
    out = _out_dir(args)
    echo = {f"gaussian.{key}": val for key, val in asdict(model).items()}
    data_mod.write_table(out / "gaussian_curves.tsv", "h\tnll\tw2", curves, echo=echo)
    grid = flow_identity_residual_grid(model)
    data_mod.write_table(out / "flow_identity_residuals.tsv", "h\teps\tresidual", grid,
                         echo=echo)
    worst = max(r for _, _, r in grid)
    print(f"wrote curves and residual grid (max residual {worst:.3e})")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    failures = run_verification(sys.stdout)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wkb-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads
    def common(p, checkpoint=False, threads=False):
        p.add_argument("--config", default=None, help="INI run-config file")
        p.add_argument("--out", default="out", help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", default=None)
        if threads:
            p.add_argument("--threads", type=int, default=1, help="worker processes")

    p = sub.add_parser("gen-data", help="write the configured dataset")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a score model")
    common(p)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="sample from a checkpoint")
    common(p, checkpoint=True)
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-steps", type=int, default=1000)
    p.add_argument("--record", type=int, default=0, help="dump this many trajectories")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("nll", help="likelihood table with corrections")
    common(p, checkpoint=True, threads=True)
    p.add_argument("--dx", type=float, default=None)
    p.add_argument("--tol-outer", type=float, default=None,
                   help="tolerance of the error-bar pass")
    p.add_argument("--tol-inner", type=float, default=None,
                   help="tolerance of the log_q0 and correction1 solves")
    p.set_defaults(func=cmd_nll)

    p = sub.add_parser("w2-sweep", help="W2 vs noise strength")
    common(p, checkpoint=True, threads=True)
    p.set_defaults(func=cmd_w2_sweep)

    p = sub.add_parser("gaussian", help="closed-form oracle curves")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--v0", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--T", type=float, default=3.0)
    p.add_argument("--n-h", type=int, default=21)
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("verify", help="run the oracle/property checks")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WkbLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
