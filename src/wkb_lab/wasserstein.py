"""Exact 2-Wasserstein distance between equal-size uniform point clouds.

With equal sizes and uniform weights the optimal coupling is a permutation,
so the distance reduces to a linear assignment on the squared-Euclidean
cost matrix, solved exactly (no entropic smoothing).  For 1-D clouds the
optimal assignment is the monotone (sorted) matching, which avoids building
the cost matrix at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch

_MAX_POINTS = 5000


def linear_sum_assignment(cost_matrix):
    """scipy's exact assignment solver, imported on first use.

    Importing ``scipy.optimize`` adds about 50 MB of resident memory and
    most of the package's import time, which the commands that never solve
    an assignment should not pay.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost_matrix)


@dataclass
class W2Result:
    distance: float
    assignment: np.ndarray  # b[assignment[i]] is matched to a[i]


def _as_array(cloud) -> np.ndarray:
    return np.atleast_2d(np.asarray(getattr(cloud, "points", cloud), dtype=float))


def w2_exact(a, b) -> W2Result:
    """distance = sqrt( (1/N) min_perm sum_i ||a_i - b_perm(i)||^2 )."""
    xa, xb = _as_array(a), _as_array(b)
    if xa.shape != xb.shape:
        raise SizeMismatch(f"cloud shapes differ: {xa.shape} vs {xb.shape}")
    if xa.size == 0:
        raise SizeMismatch(f"clouds must be nonempty, got shape {xa.shape}")
    n = xa.shape[0]
    if n > _MAX_POINTS:
        raise SizeMismatch(f"at most {_MAX_POINTS} points supported, got {n}")
    if xa.shape[1] == 1:
        ia = np.argsort(xa[:, 0], kind="stable")
        ib = np.argsort(xb[:, 0], kind="stable")
        perm = np.empty(n, dtype=int)
        perm[ia] = ib
        cost = float(np.sum((xa[ia, 0] - xb[ib, 0]) ** 2))
    else:
        diff = xa[:, None, :] - xb[None, :, :]
        cost_matrix = np.einsum("ijk,ijk->ij", diff, diff)
        rows, cols = linear_sum_assignment(cost_matrix)
        perm = np.empty(n, dtype=int)
        perm[rows] = cols
        cost = float(cost_matrix[rows, cols].sum())
    return W2Result(distance=float(np.sqrt(cost / n)), assignment=perm)


def w2_gaussian_1d(v_a: float, v_b: float) -> float:
    """Distance between centred 1-D Gaussians: |sqrt(v_a) - sqrt(v_b)|."""
    if v_a <= 0.0 or v_b <= 0.0:
        raise ValueError("variances must be positive")
    return abs(np.sqrt(v_a) - np.sqrt(v_b))
