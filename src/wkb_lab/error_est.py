"""Local numerical-error estimators for grad log q0 and its Laplacian.
The first-order solver in ``likelihood`` propagates them to a bound on the
correction.

Two local schemes:

* ``model``: the stencil truncation error of a central difference scales as
  (third or fourth derivative) * dx^2, and the trained score stands in for
  the unavailable log-density derivatives; the zeroth-order solver's error
  floor enters as logq_err / dx (gradient) and logq_err / dx^2 (Laplacian),
  a term sized for stencils over solves that ROADMAP item 3 retires.
* ``subtraction``: rerun the backward characteristic solve with its
  tolerance stretched by 1.1 and take the absolute differences.

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


def local_err_subtraction_from_values(tight, loose) -> LocalErr:
    """Errors of grad log q0 and its Laplacian from paired (gradient,
    Laplacian) values of the same point, solved at a tolerance and at the
    tolerance stretched by 1.1."""
    (grad_t, lap_t), (grad_l, lap_l) = tight, loose
    return LocalErr(grad_err=np.abs(np.asarray(grad_l, dtype=float) - grad_t),
                    lap_err=float(abs(lap_l - lap_t)))
