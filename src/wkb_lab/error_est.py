"""Local numerical-error estimators for grad log q0 and its Laplacian.
The error-bar pass ``likelihood._error_bar`` propagates them, along the
trajectory x(t) of the zeroth-order solve, to a bound on the correction.
Every estimator works on stacks, one row per stage point of a step attempt,
and returns the pair (grad_err (m, d), lap_err (m,)).  Both are nonnegative
by construction; a NaN in either makes the bar's right-hand side
non-finite, which ends its solve as ``NonFinite`` and fails the point.

The local model: the stencil truncation error of a central difference
scales as (third or fourth derivative) * dx^2, and the trained score stands
in for the unavailable log-density derivatives; the zeroth-order solver's
error floor enters as logq_err / dx (gradient) and logq_err / dx^2
(Laplacian), a term sized for stencils over solves that ROADMAP item 3
retires.  At the ``nll`` defaults (dx 0.01, tol 1e-3/1e-5) that floor is
nearly the whole bar: on 25 points of a 400-epoch 25-gaussian/cosine model,
the bar without it is 2.0e-4 of a median 0.14, and on the analytic score,
whose divergence derivatives vanish, it is exactly 0.  The floor itself,
|log q0 at 1.1 tol_inner - log q0 at tol_inner|, sits below the true
log q0 error on 99% of 200 oracle points (median 8.8e-8 against 8.6e-7).

The propagation integrates, from t_min to t_max at ``tol_outer``, the
conservative system

    d err1/dt = | J_pf err1 | + (g^2/2) grad_local
    d err2/dt = | (g^2/2) err1 . grad(div s) | + (g^2/2) lap_local

with J_pf the flow-drift Jacobian; the right-hand side is a sum of absolute
values, so both components are nondecreasing, and the final bound is
err1_T . |grad log pi(x_T)| + |err2_T|.
"""

from __future__ import annotations

import numpy as np


def local_err_model_from_derivs(grad_div_s: np.ndarray, lap_div_s, dx: float,
                                logq_err: float) -> tuple[np.ndarray, np.ndarray]:
    """The model bounds (grad_err (m, d), lap_err (m,)) from grad(div s)
    (m, d) and laplacian(div s) (m,)."""
    floor = abs(logq_err)
    return (np.abs(grad_div_s) * dx ** 2 + floor / dx,
            np.abs(lap_div_s) * dx ** 2 + floor / dx ** 2)


def local_err_subtraction_from_values(tight, loose) -> tuple[np.ndarray, np.ndarray]:
    """Errors (grad_err, lap_err) of grad log q0 and its Laplacian from
    paired (gradient (m, d), Laplacian (m,)) values of the same stack of
    points, solved at a tolerance and at the tolerance stretched by 1.1.
    The error bar no longer uses it; it stays for the benchmark tracer
    (ROADMAP item 1)."""
    (grad_t, lap_t), (grad_l, lap_l) = tight, loose
    return np.abs(grad_l - grad_t), np.abs(lap_l - lap_t)
