"""Classical fixed-grid RK4: a reference integrator for the adaptive solver."""

import numpy as np

from wkb_lab.errors import NonFinite
from wkb_lab.ode import OdeSolution, Rhs


def solve_fixed_rk4(rhs: Rhs, t0: float, t1: float, y0: np.ndarray,
                    n_steps: int) -> OdeSolution:
    """Classical RK4 on a uniform grid; deterministic step sequence."""
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    t0, t1 = float(t0), float(t1)
    if t1 == t0 or n_steps == 0:
        return OdeSolution(t_final=t1, y_final=y, n_steps=0)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    ts = np.linspace(t0, t1, n_steps + 1)
    for i in range(n_steps):
        t, h = ts[i], ts[i + 1] - ts[i]
        k1 = np.asarray(rhs(t, y), dtype=float)
        k2 = np.asarray(rhs(t + h / 2, y + h / 2 * k1), dtype=float)
        k3 = np.asarray(rhs(t + h / 2, y + h / 2 * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NonFinite(f"state not finite after step at t={ts[i + 1]}")
    return OdeSolution(t_final=t1, y_final=y, n_steps=n_steps)
