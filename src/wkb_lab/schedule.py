"""Forward-SDE schedules: drift, diffusion, signal and noise functions.

All three schedules drive ``dx = a(t) x dt + g(t) dw`` with a linear drift.
Signal and noise scales follow from the drift/diffusion pair:

    alpha(t)   = exp(int_0^t a)
    sigma(t)^2 = alpha(t)^2 * int_0^t g^2 / alpha^2

Every kind here is variance preserving, alpha^2 + sigma^2 = 1, which is
equivalent to g(t)^2 = -2 a(t).  So a kind states only its drift a(t), and
``g2`` is -2 a(t) by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Distance kept from the tangent pole at t=1 for the cosine schedule.
_COSINE_POLE_MARGIN = 1e-9


class ScheduleKind(str, enum.Enum):
    SIMPLE = "simple"
    COSINE = "cosine"
    CONST_BETA = "const-beta"


@dataclass(frozen=True)
class Schedule:
    """Immutable schedule; safe to share across concurrent evaluations.

    Parameters
    ----------
    kind : ScheduleKind
        simple:     a(t) = -(beta/2) t,            g(t)^2 = beta t
        cosine:     a(t) = -(pi/2) tan(pi t / 2),  g(t)^2 = pi tan(pi t / 2)
        const-beta: a(t) = -beta/2,                g(t)^2 = beta
    beta : float
        Rate constant, positive and finite; used by simple and const-beta
        (ignored by cosine).
    t_min, t_max : float
        Working time window, t_min < t_max < inf.  t_min in (0, 1) keeps
        sigma(t) away from zero.
    dim : int
        State dimension d; the drift divergence is d * a(t).
    """

    kind: ScheduleKind
    beta: float = 20.0
    t_min: float = 0.01
    t_max: float = 1.0
    dim: int = 2

    def __post_init__(self):
        object.__setattr__(self, "kind", ScheduleKind(self.kind))
        if not 0.0 < self.beta < np.inf:  # also rejects NaN
            raise ValueError("beta must be positive and finite")
        if not (0.0 < self.t_min < 1.0):
            raise ValueError("t_min must lie in (0, 1)")
        if not self.t_min < self.t_max < np.inf:
            raise ValueError("t_max must exceed t_min and be finite")
        if self.kind is ScheduleKind.COSINE and self.t_max >= 1.0 - _COSINE_POLE_MARGIN:
            raise ValueError("cosine schedule requires t_max < 1 - 1e-9 (tan pole)")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def _time(self, t):
        """``t`` checked against the cosine pole.  A float stays a float, so
        one time costs no array round trip; anything else becomes an array."""
        scalar = isinstance(t, float)
        if not scalar:
            t = np.asarray(t, dtype=float)
        pole = 1.0 - _COSINE_POLE_MARGIN
        if self.kind is ScheduleKind.COSINE and (t >= pole if scalar else np.any(t >= pole)):
            raise ValueError("cosine schedule evaluated at the t=1 tangent pole")
        return t

    def drift_coef(self, t):
        """a(t) with f(x, t) = a(t) * x."""
        t = self._time(t)
        if self.kind is ScheduleKind.SIMPLE:
            out = -0.5 * self.beta * t
        elif self.kind is ScheduleKind.COSINE:
            out = -0.5 * np.pi * np.tan(0.5 * np.pi * t)
        else:
            out = _constant(t, -0.5 * self.beta)
        return _unwrap(out)

    def g2(self, t):
        """Diffusion variance rate g(t)^2 = -2 a(t): every kind is variance
        preserving, and doubling is exact, so g^2/2 is -a(t) bit for bit."""
        return -2.0 * self.drift_coef(t)

    def alpha(self, t):
        """Signal scale alpha(t) = exp(int_0^t a)."""
        t = np.asarray(t, dtype=float)
        if self.kind is ScheduleKind.SIMPLE:
            out = np.exp(-0.25 * self.beta * t ** 2)
        elif self.kind is ScheduleKind.COSINE:
            out = np.cos(0.5 * np.pi * t)
        else:
            out = np.exp(-0.5 * self.beta * t)
        return out if out.ndim else float(out)

    def sigma2(self, t):
        """Noise variance sigma(t)^2 = 1 - alpha(t)^2 (variance preserving)."""
        t = np.asarray(t, dtype=float)
        if self.kind is ScheduleKind.SIMPLE:
            out = -np.expm1(-0.5 * self.beta * t ** 2)
        elif self.kind is ScheduleKind.COSINE:
            out = 1.0 - np.cos(0.5 * np.pi * t) ** 2
        else:
            out = -np.expm1(-self.beta * t)
        return out if out.ndim else float(out)


def _constant(t, value: float):
    """``value`` at every time in ``t`` (a NaN time included)."""
    return value if isinstance(t, float) else np.full_like(t, value)


def _unwrap(out):
    """An array result as is; a scalar or 0-d result as a float."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)
