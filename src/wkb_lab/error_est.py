"""Local numerical-error estimators for the stencil log-density derivatives.
The first-order solver in ``likelihood`` propagates them to a bound on the
correction.

Two local schemes:

* ``model``: the stencil truncation error of a central difference scales as
  (third or fourth derivative) * dx^2, and the trained score stands in for
  the unavailable log-density derivatives; the inner-solver error floor
  enters as logq_err / dx (gradient) and logq_err / dx^2 (Laplacian).
* ``subtraction``: rerun the inner solves with tolerances stretched by 1.1
  and take the absolute stencil difference.

The propagation integrates the conservative system

    d err1/dt = | J_pf err1 | + (g^2/2) grad_local
    d err2/dt = | (g^2/2) err1 . grad(div s) | + (g^2/2) lap_local

with J_pf the flow-drift Jacobian; the right-hand side is a sum of absolute
values, so both components are nondecreasing, and the final bound is
err1_T . |grad log pi(x_T)| + |err2_T|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stencil

# Constant multiplying the inner-solver error estimate in the floor terms.
_ERR_CONST = 1.0


@dataclass
class LocalErr:
    grad_err: np.ndarray  # componentwise bound on the gradient stencil error
    lap_err: float        # bound on the Laplacian stencil error

    def __post_init__(self):
        self.grad_err = np.asarray(self.grad_err, dtype=float)
        if np.any(self.grad_err < 0.0) or self.lap_err < 0.0 or \
                not (np.all(np.isfinite(self.grad_err)) and np.isfinite(self.lap_err)):
            raise ValueError("local error bounds must be finite and nonnegative")


def local_err_model_from_derivs(grad_div_s: np.ndarray, lap_div_s: float,
                                dx: float, logq_err: float) -> LocalErr:
    floor = _ERR_CONST * abs(logq_err)
    grad = np.abs(grad_div_s) * dx ** 2 + floor / dx
    lap = abs(lap_div_s) * dx ** 2 + floor / dx ** 2
    return LocalErr(grad_err=grad, lap_err=float(lap))


def local_err_subtraction_from_values(vals_tight: np.ndarray, vals_loose: np.ndarray,
                                      dx: float) -> LocalErr:
    """Stencil-difference errors from paired (tight, loose) solve values
    on the star layout [center, +e1, -e1, +e2, -e2, ...] (``stencil.star``)."""
    vt = np.asarray(vals_tight, dtype=float)
    vl = np.asarray(vals_loose, dtype=float)
    grad_t = stencil.gradient(vt[1:], dx)
    grad_l = stencil.gradient(vl[1:], dx)
    lap_t = stencil.laplacian(vt[0], vt[1:], dx)
    lap_l = stencil.laplacian(vl[0], vl[1:], dx)
    return LocalErr(grad_err=np.abs(grad_l - grad_t), lap_err=float(abs(lap_l - lap_t)))
