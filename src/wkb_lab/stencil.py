"""Central-difference stencils on the axis-offset layout.

The stencil around a centre x in d dimensions is the 2d points

    x + dx e_1, x - dx e_1, x + dx e_2, x - dx e_2, ...

in that order (``points``); with the centre prepended it is the (2d+1)-point
star (``star``).  Mixed second derivatives add the 2d(d-1) diagonal points
(``diagonal_points``): for each axis pair i < j in order,

    x + dx (e_i + e_j), x + dx (e_i - e_j), x - dx (e_i - e_j), x - dx (e_i + e_j).

Every spatial derivative of a log-density or of a score in the package is a
central difference over values laid out this way: the derivative functions
below take the values at the 2d offset points along one axis of length 2d
(the Laplacian and Hessian also the centre value, the Hessian also the
diagonal values), whatever produced them.  All are second-order accurate
and exact on quadratics (gradient, Laplacian, Hessian) and on affine vector
fields (Jacobian, divergence).
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=32)
def offsets(d: int, dx: float) -> np.ndarray:
    """The (2d, d) offsets [+dx e_1, -dx e_1, +dx e_2, -dx e_2, ...].

    Cached and read-only: the solvers ask for the same offsets on every
    right-hand side, and building them anew costs a few percent of a
    right-hand side with the analytic score.
    """
    offs = np.zeros((2 * d, d))
    for i in range(d):
        offs[2 * i, i] = dx
        offs[2 * i + 1, i] = -dx
    offs.flags.writeable = False
    return offs


@functools.lru_cache(maxsize=32)
def diagonal_offsets(d: int, dx: float) -> np.ndarray:
    """The (2d(d-1), d) diagonal offsets, four per axis pair i < j:
    dx (e_i + e_j), dx (e_i - e_j), -dx (e_i - e_j), -dx (e_i + e_j).

    Cached and read-only, like ``offsets``.
    """
    offs = np.zeros((2 * d * (d - 1), d))
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                offs[k, i], offs[k, j] = si * dx, sj * dx
                k += 1
    offs.flags.writeable = False
    return offs


def points(x: np.ndarray, dx: float) -> np.ndarray:
    """Offset points around each centre: (..., d) centres -> (..., 2d, d)."""
    x = np.asarray(x, dtype=float)
    return x[..., None, :] + offsets(x.shape[-1], dx)


def star(x: np.ndarray, dx: float) -> np.ndarray:
    """The (2d+1, d) star: the centre ``x`` followed by its offset points."""
    x = np.asarray(x, dtype=float)
    return np.vstack([x[None, :], points(x, dx)])


def diagonal_points(x: np.ndarray, dx: float) -> np.ndarray:
    """Diagonal points around each centre: (..., d) -> (..., 2d(d-1), d)."""
    x = np.asarray(x, dtype=float)
    return x[..., None, :] + diagonal_offsets(x.shape[-1], dx)


def gradient(vals: np.ndarray, dx: float) -> np.ndarray:
    """Gradient of a scalar field from its (..., 2d) offset values."""
    vals = np.asarray(vals)
    return (vals[..., 0::2] - vals[..., 1::2]) / (2.0 * dx)


def laplacian(center, vals: np.ndarray, dx: float):
    """(2d+1)-point Laplacian from the centre value and the (..., 2d)
    offset values of a scalar field."""
    vals = np.asarray(vals)
    d = vals.shape[-1] // 2
    return (vals.sum(axis=-1) - 2 * d * center) / dx ** 2


def hessian(center, vals: np.ndarray, diag: np.ndarray, dx: float) -> np.ndarray:
    """(..., d, d) Hessian of a scalar field from the centre value, the
    (..., 2d) offset values and the (..., 2d(d-1)) diagonal values."""
    center = np.asarray(center)
    vals, diag = np.asarray(vals), np.asarray(diag)
    d = vals.shape[-1] // 2
    hess = np.empty(vals.shape[:-1] + (d, d))
    for i in range(d):
        hess[..., i, i] = (vals[..., 2 * i] + vals[..., 2 * i + 1] - 2 * center) / dx ** 2
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            pp, pm, mp, mm = (diag[..., k + n] for n in range(4))
            hess[..., i, j] = hess[..., j, i] = (pp - pm - mp + mm) / (4.0 * dx ** 2)
            k += 4
    return hess


def jacobian(vals: np.ndarray, dx: float) -> np.ndarray:
    """J[i, j] = d f_i / d x_j of a vector field from its (2d, d) offset
    values (row k holds f at offset point k)."""
    vals = np.asarray(vals)
    # C order: a product with a transposed view may take another BLAS kernel
    # and round differently
    return np.ascontiguousarray(((vals[0::2] - vals[1::2]) / (2.0 * dx)).T)


def divergence(vals: np.ndarray, dx: float) -> np.ndarray:
    """Divergence of a vector field from its (..., 2d, d) offset values;
    the axis terms are summed in order 1..d."""
    vals = np.asarray(vals)
    d = vals.shape[-1]
    div = np.zeros(vals.shape[:-2])
    for i in range(d):
        div += (vals[..., 2 * i, i] - vals[..., 2 * i + 1, i]) / (2.0 * dx)
    return div
