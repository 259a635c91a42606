"""Synthetic 2-D datasets, point-cloud persistence, the package's one
text-table writer and its one seeded-generator factory, ``stream`` (with
``derived_seed``, an integer seed taken from one of its streams).

Two datasets (``DATASETS``): a spiral ("swiss roll" projected to its
first and last axis) and a 5x5 grid of narrow Gaussians.  Both are
normalized so the pooled per-coordinate standard deviation is 1; the grid
mixture divides by the analytic population constant sqrt(8) so component
means land on exactly reproducible positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError

GRID_NORM = np.sqrt(8.0)  # population std of the 5x5 mean grid {-4,-2,0,2,4}^2
_COMPONENT_STD = 0.05  # std of each grid component before normalization


@dataclass
class PointCloud:
    points: np.ndarray  # (n, d)
    name: str = ""
    seed: int = 0
    norm_constant: float = 1.0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def stream(seed: int, *key: int) -> np.random.Generator:
    """The package's one generator factory: the PCG64 stream of ``seed``
    under ``spawn_key=key``.  ``stream(s)`` draws what
    ``np.random.default_rng(s)`` does; distinct keys give independent
    streams of one seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def derived_seed(seed: int, *key: int) -> int:
    """A 32-bit seed from the seed sequence of ``stream(seed, *key)``, for
    a call that takes a seed rather than a generator."""
    return int(stream(seed, *key).bit_generator.seed_seq.generate_state(1)[0])


def pooled_std(points: np.ndarray) -> float:
    """Standard deviation over all coordinates pooled together."""
    return float(np.std(np.asarray(points, dtype=float)))


def normalize(points: np.ndarray) -> tuple[np.ndarray, float]:
    std = pooled_std(points)
    return points / std, std


def make_swiss_roll(n: int, noise: float = 0.5, seed: int = 0) -> PointCloud:
    """Spiral u (cos u, sin u), u ~ U(1.5 pi, 4.5 pi), plus isotropic noise,
    then divided by the pooled std."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream(seed)
    u = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
    pts = np.stack([u * np.cos(u), u * np.sin(u)], axis=1)
    pts += noise * rng.standard_normal((n, 2))
    pts, std = normalize(pts)
    return PointCloud(points=pts, name="swiss-roll", seed=seed, norm_constant=std)


def make_25gaussian(n: int, seed: int = 0) -> PointCloud:
    """Equal-weight mixture of 25 isotropic Gaussians on {-4,-2,0,2,4}^2,
    divided by the fixed constant sqrt(8)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream(seed)
    axis = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
    means = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    comp = rng.integers(0, 25, size=n)
    pts = means[comp] + _COMPONENT_STD * rng.standard_normal((n, 2))
    pts = pts / GRID_NORM
    return PointCloud(points=pts, name="25-gaussian", seed=seed, norm_constant=float(GRID_NORM))


# the dataset names a run config accepts, each with its ``(n, seed=)`` maker
DATASETS = {"swiss-roll": make_swiss_roll, "25-gaussian": make_25gaussian}


def write_table(path, header: str, rows, footer: dict | None = None,
                echo: dict | None = None, digits: int = 12) -> None:
    """Tab-separated text table: one ``# key = value`` line per ``echo``
    entry, the header line, one line per row (floats as ``%.{digits}g``,
    anything else by ``str``), then one ``# key = value`` line per
    ``footer`` entry."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key} = {val}\n" for key, val in (echo or {}).items())
        fh.write(header + "\n")
        fh.writelines("\t".join(f"{v:.{digits}g}" if isinstance(v, float) else str(v)
                                for v in row) + "\n" for row in rows)
        fh.writelines(f"# {key} = {val}\n" for key, val in (footer or {}).items())


def save_cloud(cloud: PointCloud, path) -> None:
    """One point per line, tab separated, with a `# name seed norm` header."""
    write_table(path, f"# {cloud.name}\t{cloud.seed}\t{cloud.norm_constant:.17g}",
                cloud.points, digits=17)


def load_cloud(path) -> PointCloud:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty dataset file", line=1)
    head = lines[0].rstrip("\n")
    if not head.startswith("# "):
        raise ParseError("missing `# name seed norm_constant` header", line=1)
    fields = head[2:].split("\t")
    if len(fields) != 3:
        raise ParseError("header must carry name, seed and norm_constant", line=1)
    try:
        name, seed, norm = fields[0], int(fields[1]), float(fields[2])
    except ValueError as exc:
        raise ParseError(f"bad header field: {exc}", line=1) from exc
    rows = []
    width = None
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ParseError(f"expected {width} columns, found {len(parts)}", line=i)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"bad float: {exc}", line=i) from exc
    if not rows:
        raise ParseError("no data rows", line=2)
    return PointCloud(points=np.array(rows), name=name, seed=seed, norm_constant=norm)
