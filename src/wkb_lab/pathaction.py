"""Discretized path actions for the forward and reverse processes.

A stochastic path carries a probability weight exp(-action) relative to the
flat path measure.  For the forward process the Lagrangian is
||xdot - f||^2 / (2 g^2); for the reverse process the score enters through
the shifted drift f - g^2 s.  The discretization scheme fixes both where
time-dependent coefficients are evaluated on each interval and the Jacobian
term that the scheme induces:

    scheme        coefficient point   forward J        reverse J
    ito           left                0                -sum div(f - g^2 s) dt
    stratonovich  midpoint average    +1/2 sum div f   -1/2 sum div(f - g^2 s) dt
    reverse-ito   right               +sum div f dt    0

The drift divergence is analytic (d * a(t)); the score divergence comes
from ``stencil.score_divergence`` at the stencil spacing dx.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .schedule import Schedule
from .stencil import score_batch, score_divergence


class DiscretizationScheme(str, enum.Enum):
    ITO = "ito"
    STRATONOVICH = "stratonovich"
    REVERSE_ITO = "reverse-ito"


# Jacobian prefactors for int div(drift) dt, by scheme.
_FORWARD_J = {
    DiscretizationScheme.ITO: 0.0,
    DiscretizationScheme.STRATONOVICH: 0.5,
    DiscretizationScheme.REVERSE_ITO: 1.0,
}
_REVERSE_J = {
    DiscretizationScheme.ITO: -1.0,
    DiscretizationScheme.STRATONOVICH: -0.5,
    DiscretizationScheme.REVERSE_ITO: 0.0,
}


@dataclass
class DiscretePath:
    times: np.ndarray    # strictly increasing
    states: np.ndarray   # (len(times), d)
    scheme: DiscretizationScheme = DiscretizationScheme.ITO

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.scheme = DiscretizationScheme(self.scheme)
        if self.times.size < 2:
            raise ValueError("a path needs at least two points")
        if self.states.shape[0] != self.times.size:
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.states))):
            raise ValueError("path contains non-finite entries")


def _per_interval(node_vals: np.ndarray, scheme: DiscretizationScheme) -> np.ndarray:
    """Pick interval values from node values per the scheme's endpoint rule."""
    if scheme is DiscretizationScheme.ITO:
        return node_vals[:-1]
    if scheme is DiscretizationScheme.REVERSE_ITO:
        return node_vals[1:]
    return 0.5 * (node_vals[:-1] + node_vals[1:])


def _lagrangian_sum(path: DiscretePath, drift_nodes: np.ndarray,
                    g2_nodes: np.ndarray) -> float:
    dt = np.diff(path.times)
    dx = np.diff(path.states, axis=0)
    drift = _per_interval(drift_nodes, path.scheme)
    g2 = _per_interval(g2_nodes, path.scheme)
    if np.any(g2 <= 0.0):
        raise ValueError("g^2 must be positive on every interval of the path")
    resid = dx / dt[:, None] - drift
    return float(np.sum(np.einsum("ij,ij->i", resid, resid) / (2.0 * g2) * dt))


def forward_action(path: DiscretePath, schedule: Schedule) -> float:
    """Riemann action of the forward process plus the scheme Jacobian."""
    ts, xs = path.times, path.states
    d = xs.shape[1]
    a_nodes = np.asarray(schedule.drift_coef(ts), dtype=float)
    g2_nodes = np.asarray(schedule.g2(ts), dtype=float)
    drift_nodes = a_nodes[:, None] * xs
    action = _lagrangian_sum(path, drift_nodes, g2_nodes)
    coef = _FORWARD_J[path.scheme]
    if coef:
        div_nodes = d * a_nodes
        action += coef * float(np.sum(_per_interval(div_nodes, path.scheme) * np.diff(ts)))
    return action


def reverse_action(path: DiscretePath, schedule: Schedule, score,
                   dx: float = 0.01) -> float:
    """Action of the reverse process with the supplied score standing in for
    the true log-density gradient; ``dx`` is the stencil spacing for the
    score divergence entering the Jacobian."""
    ts, xs = path.times, path.states
    d = xs.shape[1]
    a_nodes = np.asarray(schedule.drift_coef(ts), dtype=float)
    g2_nodes = np.asarray(schedule.g2(ts), dtype=float)
    coef = _REVERSE_J[path.scheme]
    if coef:  # one sweep over all nodes gives s and div s
        s_nodes, div_s = score_divergence(score, xs, ts, dx)
    else:
        s_nodes = score_batch(score, xs, ts)
    drift_nodes = a_nodes[:, None] * xs - g2_nodes[:, None] * s_nodes
    action = _lagrangian_sum(path, drift_nodes, g2_nodes)
    if coef:
        div_nodes = d * a_nodes - g2_nodes * div_s  # div(f - g^2 s) per node
        action += coef * float(np.sum(_per_interval(div_nodes, path.scheme) * np.diff(ts)))
    return action
