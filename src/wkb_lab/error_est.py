"""Local numerical-error estimators for grad log q0 and its Laplacian.
The error-bar pass in ``likelihood`` propagates them, along the trajectory
of the backward characteristic solve, to a bound on the correction.

Two local schemes:

* ``model``: the stencil truncation error of a central difference scales as
  (third or fourth derivative) * dx^2, and the trained score stands in for
  the unavailable log-density derivatives; the zeroth-order solver's error
  floor enters as logq_err / dx (gradient) and logq_err / dx^2 (Laplacian),
  a term sized for stencils over solves that ROADMAP item 3 retires.
* ``subtraction``: rerun the backward characteristic solve with its
  tolerance stretched by 1.1 and take the absolute differences.

The propagation integrates, from t_min to t_max at ``tol_outer``, the
conservative system

    d err1/dt = | J_pf err1 | + (g^2/2) grad_local
    d err2/dt = | (g^2/2) err1 . grad(div s) | + (g^2/2) lap_local

with J_pf the flow-drift Jacobian; the right-hand side is a sum of absolute
values, so both components are nondecreasing, and the final bound is
err1_T . |grad log pi(x_T)| + |err2_T|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class LocalErr:
    """Local error bounds at one point, or stacked over several points:
    ``grad_err`` (d,) or (m, d), ``lap_err`` a float or (m,)."""

    grad_err: np.ndarray  # componentwise bound on the gradient stencil error
    lap_err: float | np.ndarray  # bound on the Laplacian stencil error

    def __post_init__(self):
        self.grad_err = np.asarray(self.grad_err, dtype=float)
        # one pass over every bound; a NaN fails both comparisons
        if not all(0.0 <= v < math.inf for v in [*self.grad_err.ravel().tolist(),
                                                  *np.ravel(self.lap_err).tolist()]):
            raise ValueError("local error bounds must be finite and nonnegative")


def local_err_model_from_derivs(grad_div_s: np.ndarray, lap_div_s,
                                dx: float, logq_err: float) -> LocalErr:
    """The model bounds from grad(div s) and laplacian(div s), at one point
    or stacked over several."""
    floor = abs(logq_err)
    grad = np.abs(grad_div_s) * dx ** 2 + floor / dx
    lap = np.abs(lap_div_s) * dx ** 2 + floor / dx ** 2
    return LocalErr(grad_err=grad, lap_err=lap if np.ndim(lap) else float(lap))


def local_err_subtraction_from_values(tight, loose) -> LocalErr:
    """Errors of grad log q0 and its Laplacian from paired (gradient,
    Laplacian) values of the same point, or of a stack of points, solved at
    a tolerance and at the tolerance stretched by 1.1."""
    (grad_t, lap_t), (grad_l, lap_l) = tight, loose
    lap = np.abs(np.subtract(lap_l, lap_t))
    return LocalErr(grad_err=np.abs(np.asarray(grad_l, dtype=float) - grad_t),
                    lap_err=lap if np.ndim(lap) else float(lap))
