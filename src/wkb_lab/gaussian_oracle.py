"""Fully analytic 1-D Gaussian reference model.

Data distribution N(0, v0), constant-rate forward process, and a score with
a controlled mis-estimation factor (1 + epsilon).  Everything downstream --
model variance under the noise-interpolated reverse process, pointwise
log-likelihood, cross-entropy, 2-Wasserstein distance and the
log-likelihood flow identity -- has a closed form here, which makes this
module the ground-truth oracle for the numerical likelihood pipeline.

The model variance v'_t solves

    dv'/dt = beta [ (1+h)(1+eps) / v_t - 1 ] v' - h beta,   v'_T = v_T,

whose solution is evaluated in the cancellation-free form

    v'_t = v_t [ e^z - h m phi(z) ],  z = (k-1) m,  k = (1+h)(1+eps),
    m = log(v_t / v_T) - beta (T - t),  phi(z) = (e^z - 1)/z,

which is exact for all parameter values including k = 1, where the raw
formula's denominator k - 1 vanishes.  Its h-derivative at h = 0 is

    dv'_t/dh = v_t m [ (1+eps) e^{eps m} - phi(eps m) ],

from which the pointwise log-density and the NLL get exact first-order
coefficients in h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import Schedule, ScheduleKind
from .score import AnalyticGaussianScore
from .wasserstein import w2_gaussian_1d


def _expm1_over(z):
    """(e^z - 1) / z, series-continued through z = 0."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(safe) / safe)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GaussianModel:
    beta: float
    v0: float
    epsilon: float = 0.0
    T: float = 3.0

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.beta, self.v0, self.T)):  # and NaN
            raise ValueError("beta, v0 and T must be positive and finite")
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")

    def v_t(self, t):
        """Forward-process variance 1 + e^{-beta t} (v0 - 1)."""
        out = 1.0 + np.exp(-self.beta * np.asarray(t, dtype=float)) * (self.v0 - 1.0)
        return out if out.ndim else float(out)

    def _v_and_m(self, t):
        """(v_t, m) with m = log(v_t / v_T) - beta (T - t)."""
        t = np.asarray(t, dtype=float)
        vt = self.v_t(t)
        return vt, np.log(vt / self.v_t(self.T)) - self.beta * (self.T - t)

    def vprime_t(self, h: float, t):
        """Model variance at time t for noise strength h (boundary v'_T = v_T).

        The closed form is analytic in h; small negative h is admitted so
        that h-derivatives can be taken by central differences.
        """
        vt, m = self._v_and_m(t)
        k = (1.0 + h) * (1.0 + self.epsilon)
        z = (k - 1.0) * m
        out = vt * (np.exp(z) - h * m * _expm1_over(z))
        return out if np.ndim(out) else float(out)

    def dvprime_dh_at0(self, t):
        """Exact d v'_t / dh at h = 0."""
        vt, m = self._v_and_m(t)
        z = self.epsilon * m
        out = vt * m * ((1.0 + self.epsilon) * np.exp(z) - _expm1_over(z))
        return out if np.ndim(out) else float(out)

    def nll(self, h: float) -> float:
        """Cross-entropy -E_data[log of the model density at t=0]."""
        vp0 = self.vprime_t(h, 0.0)
        return 0.5 * (np.log(2.0 * np.pi * vp0) + self.v0 / vp0)

    def w2(self, h: float) -> float:
        """2-Wasserstein distance between data and model at t=0."""
        return w2_gaussian_1d(self.v0, self.vprime_t(h, 0.0))

    def logq0(self, x0, h: float = 0.0, t: float = 0.0) -> float:
        """Pointwise model log-density log N(x0 | 0, v'_t I); x0 may be a vector
        (isotropic embedding, one copy of the 1-D model per coordinate)."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        vp = self.vprime_t(h, t)
        return float(-0.5 * x0.size * np.log(2.0 * np.pi * vp)
                     - float(x0 @ x0) / (2.0 * vp))

    def verify_flow_identity(self, h: float, quad_tol: float = 1e-10) -> float:
        """|LHS - RHS| of the finite-noise log-likelihood flow identity.

        LHS is (1/2) log(v_T / v'_0); RHS integrates the drift divergence
        (beta/2)[(1+h)(1+eps)/v_t - 1 - h/v'_t] over [0, T] by adaptive
        quadrature.  The identity is exact, so the residual is bounded by
        the quadrature tolerance.
        """
        from scipy.integrate import quad  # loaded here only: it pulls in scipy.optimize

        k = (1.0 + h) * (1.0 + self.epsilon)
        lhs = 0.5 * np.log(self.v_t(self.T) / self.vprime_t(h, 0.0))

        def integrand(t):
            return 0.5 * self.beta * (k / self.v_t(t) - 1.0 - h / self.vprime_t(h, t))

        rhs, _ = quad(integrand, 0.0, self.T, epsabs=quad_tol, epsrel=quad_tol, limit=200)
        return abs(lhs - rhs)

    def dnll_dh_at0(self) -> float:
        """Exact d nll / dh at h = 0."""
        vp = self.vprime_t(0.0, 0.0)
        return 0.5 * (1.0 / vp - self.v0 / vp ** 2) * self.dvprime_dh_at0(0.0)

    def dlogq0_dh_at0(self, x0, t: float = 0.0) -> float:
        """Exact d/dh of the pointwise log-density at h = 0."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        vp = self.vprime_t(0.0, t)
        return float((float(x0 @ x0) / (2.0 * vp ** 2) - x0.size / (2.0 * vp))
                     * self.dvprime_dh_at0(t))

    # -- bridges to the numerical pipeline ----------------------------------

    def to_schedule(self, dim: int = 2, t_min: float = 0.01) -> Schedule:
        return Schedule(kind=ScheduleKind.CONST_BETA, beta=self.beta,
                        t_min=t_min, t_max=self.T, dim=dim)

    def to_score(self, dim: int = 2) -> AnalyticGaussianScore:
        return AnalyticGaussianScore(beta=self.beta, v0=self.v0,
                                     epsilon=self.epsilon, dim=dim)


def gaussian_curves(model: GaussianModel, h_values) -> list[tuple[float, float, float]]:
    """(h, nll, w2) rows for closed-form sweep tables.

    Raises ValueError if at some h the model variance v'_0 is not positive
    and finite in floats, or the nll or w2 it gives is not finite: at large
    |epsilon| the closed form overflows (e^z with z ~ -epsilon m) or
    underflows toward 0.
    """
    rows = []
    for h in np.asarray(h_values, dtype=float):
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            vp0 = model.vprime_t(h, 0.0)
            row = (float(h), model.nll(h), model.w2(h)) if 0.0 < vp0 < math.inf else None
        if row is None or not all(map(math.isfinite, row)):
            raise ValueError(f"the closed form leaves the float range at h={h:g}, "
                             f"epsilon={model.epsilon:g} (model variance {vp0:g})")
        rows.append(row)
    return rows


# the (h, eps) grid of the flow-identity check, h outermost
FLOW_IDENTITY_GRID = tuple((h, eps) for h in (0.0, 0.25, 0.5, 1.0)
                           for eps in (-0.2, 0.0, 0.3))


def flow_identity_residual_grid(model_base: GaussianModel
                                ) -> list[tuple[float, float, float]]:
    """(h, eps, residual) rows of the flow-identity check over
    ``FLOW_IDENTITY_GRID``, at the base model's beta, v0 and T."""
    return [(h, eps, GaussianModel(beta=model_base.beta, v0=model_base.v0, epsilon=eps,
                                   T=model_base.T).verify_flow_identity(h))
            for h, eps in FLOW_IDENTITY_GRID]
