"""Central-difference stencils on the axis-offset layout, and the score's
spatial derivatives taken with them.

The stencil around a centre x in d dimensions is the 2d points

    x + dx e_1, x - dx e_1, x + dx e_2, x - dx e_2, ...

in that order (``points``); with the centre prepended it is the (2d+1)-point
star (``star``).  Mixed second derivatives add the 2d(d-1) diagonal points
(``diagonal_points``): for each axis pair i < j in order,

    x + dx (e_i + e_j), x + dx (e_i - e_j), x - dx (e_i - e_j), x - dx (e_i + e_j).

Every spatial derivative of a log-density or of a score in the package,
save the exact ones of the linear analytic score, is a central difference
over values laid out this way: the derivative functions below take the
values at the 2d offset points along one axis of length 2d (the Laplacian
and Hessian also the centre value, the Hessian also the diagonal values),
whatever produced them.  All are second-order accurate and exact on
quadratics (gradient, Laplacian, Hessian) and on affine vector fields
(Jacobian, divergence).

The score's derivative helpers at the end share one sweep: the star and
the diagonal centres around x, each with its 2d axis offsets.  Its
assembly of s, div s, J, hess s and the gradient, Laplacian and Hessian of
div s is one linear operator, built once per (d, dx); each helper takes
the operator rows of its outputs, merges the sweep rows that land on one
point (x + dx e_1 - dx e_1 is x), and scores those points in one call.
The linear analytic score s = slope(t) x is the exception: the helpers
return its exact derivatives (J = slope I, div s = d slope, every higher
derivative 0) and make no score call.  Every helper takes a stack of
points (m, d), with one time for all of them or an (m,) array of one time
per point, and stacks its outputs along a leading axis of length m, so
that a caller that knows several points in advance (the stage points of
an ODE step attempt) scores them all in one call.
"""

from __future__ import annotations

import functools

import numpy as np

from .score import AnalyticGaussianScore


@functools.lru_cache(maxsize=32)
def offsets(d: int, dx: float) -> np.ndarray:
    """The (2d, d) offsets [+dx e_1, -dx e_1, +dx e_2, -dx e_2, ...].

    Cached and read-only: ``points`` and ``star`` hand every caller the
    one array for a (d, dx), so no caller may write to it.  No right-hand
    side builds offsets: the sweep below caches its own.
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


# -- the score's spatial derivatives -----------------------------------------

@functools.lru_cache(maxsize=32)
def _operator(d: int, dx: float):
    """(rows, operator, parts) of the one sweep at spacing dx in d dimensions.

    ``rows`` lists the star and the diagonal centres around x, then each
    centre's 2d axis offsets, as offsets from x.  ``operator`` maps the
    flattened score values on the rows to the flattened outputs, and
    ``parts`` gives each output's (start, stop, shape) by name.  Its columns
    are the assembly applied to unit values: J comes from the axis centres,
    ``hess s[k]`` from all centres, and the divergence at every centre gives
    its gradient, Laplacian and Hessian.
    """
    zero = np.zeros(d)
    centers = np.vstack([star(zero, dx), diagonal_points(zero, dx)])
    n, na = centers.shape[0], 1 + 2 * d

    def assemble(vals):
        s_c = vals[:n]
        divs = divergence(vals[n:].reshape(n, 2 * d, d), dx)
        return {"s": s_c[0], "div": divs[0], "jac": jacobian(s_c[1:na], dx),
                "hess": hessian(s_c[0], s_c[1:na].T, s_c[na:].T, dx),
                "grad_div": gradient(divs[1:na], dx),
                "lap_div": laplacian(divs[0], divs[1:na], dx),
                "hess_div": hessian(divs[0], divs[1:na], divs[na:], dx)}

    rows = np.vstack([centers, points(centers, dx).reshape(-1, d)])
    unit, cols = np.zeros(rows.shape), []
    for k in range(rows.size):
        unit.flat[k] = 1.0
        outs = assemble(unit)
        cols.append(np.concatenate([np.ravel(o) for o in outs.values()]))
        unit.flat[k] = 0.0
    operator = np.column_stack(cols)
    operator.flags.writeable = False
    stops = np.cumsum([np.size(o) for o in outs.values()]).tolist()
    return rows.tolist(), operator, {name: (hi - np.size(o), hi, np.shape(o))
                                     for (name, o), hi in zip(outs.items(), stops)}


@functools.lru_cache(maxsize=128)
def _sweep(outputs: tuple, d: int, dx: float):
    """(offsets, operator, parts) for the named ``outputs`` alone.

    The operator is the full one's rows of those outputs on the sweep rows
    they read, with the columns of rows on one point summed in row order.
    ``offsets`` holds those points, each placed where its first row is
    read, so both are, bit for bit, those of a sweep over only the rows
    read.  Both arrays are cached and read-only.
    """
    rows, full, parts = _operator(d, dx)
    picked = [parts[name] for name in outputs]
    by_row = np.vstack([full[lo:hi] for lo, hi, _ in picked]).reshape(-1, len(rows), d)
    blocks: dict = {}
    for k in np.flatnonzero(by_row.any(axis=(0, 2))):  # the rows read
        block = blocks.setdefault(tuple(rows[k]), np.zeros((by_row.shape[0], d)))
        block += by_row[:, k]
    offs = np.array(list(blocks)).reshape(-1, d)
    operator = np.hstack(list(blocks.values()))
    offs.flags.writeable = operator.flags.writeable = False
    stops = np.cumsum([hi - lo for lo, hi, _ in picked]).tolist()
    return offs, operator, tuple(zip([0] + stops[:-1], stops,
                                     [shape for _, _, shape in picked]))


def _derivatives(outputs: tuple, score, xs, t, dx: float) -> list:
    """The named outputs of the sweep around each point of a stack (m, d),
    stacked along a leading axis: one score call on the distinct points
    they read and one matrix product.  ``t`` is one time for every point,
    or one per point.  The linear analytic score gets its exact
    derivatives instead, with no score call."""
    xs = np.asarray(xs, dtype=float)
    m, d = xs.shape
    if isinstance(score, AnalyticGaussianScore):
        return _linear_derivatives(outputs, score.slope(t), xs)
    offsets, operator, parts = _sweep(outputs, d, dx)
    if isinstance(t, np.ndarray) and t.ndim:  # each point's time on its rows
        t = np.repeat(t, offsets.shape[0])
    vals = score_batch(score, (xs[:, None, :] + offsets).reshape(-1, d), t)
    flat = vals.reshape(m, -1).dot(operator.T)
    return [flat[:, lo:hi].reshape((m,) + shape) for lo, hi, shape in parts]


def _linear_derivatives(outputs: tuple, slope, xs: np.ndarray) -> list:
    """The named outputs, stacked, for s = slope x: J = slope I, div s =
    d slope and every higher derivative 0.  ``slope`` is one float, or a
    column with one slope per point."""
    m, d = xs.shape
    col = np.empty((m, 1))
    col[:] = slope
    out = []
    for name in outputs:
        if name == "s":
            out.append(col * xs)
        elif name == "div":
            out.append(d * col[:, 0])
        elif name == "jac":
            jac = np.zeros((m, d, d))
            jac.reshape(m, d * d)[:, :: d + 1] = col  # the diagonals
            out.append(jac)
        else:  # a higher derivative
            shape = {"hess": (d, d, d), "grad_div": (d,), "lap_div": (),
                     "hess_div": (d, d)}[name]
            out.append(np.zeros((m,) + shape))
    return out


def score_batch(score, xs: np.ndarray, t) -> np.ndarray:
    """Evaluate a score on a stack of points at a common time."""
    return np.asarray(score(xs, t), dtype=float)


def score_divergence(score, xs: np.ndarray, t, dx: float):
    """(s, div s) at each of a stack of points, from one call on their stars
    (2d + 1 rows per point): (m, d) -> (m, d), (m,)."""
    return tuple(_derivatives(("s", "div"), score, xs, t, dx))


def score_jacobian(score, x: np.ndarray, t, dx: float) -> np.ndarray:
    """J[i, j] = d s_i / d x_j by central differences (2d rows per point):
    (m, d) -> (m, d, d)."""
    return _derivatives(("jac",), score, x, t, dx)[0]


def score_div_derivatives(score, x: np.ndarray, t, dx: float):
    """(J, div s, grad(div s), laplacian(div s)) from one batched stencil sweep.

    grad and laplacian of the divergence are nested central differences: the
    divergence itself is evaluated at x and at the 2d axis offsets, which
    takes the score at 2d^2 + 2d + 1 distinct points (13 in 2-D), among
    them the 2d axis points that J reads.
    """
    return tuple(_derivatives(("jac", "div", "grad_div", "lap_div"), score, x, t, dx))


def score_second_derivatives(score, x: np.ndarray, t, dx: float):
    """(s, J, hess s, grad(div s), hess(div s)) from one gathered stencil sweep.

    The centres are the star and the diagonal points around x; the score is
    evaluated at each centre and at each centre's 2d axis offsets: the
    (2d^2 + 1)(2d + 1) stencil points fall on 5, 21 and 57 distinct points
    in 1, 2 and 3 dimensions (45 rows on 21 points in 2-D).
    """
    return tuple(_derivatives(("s", "jac", "hess", "grad_div", "hess_div"),
                              score, x, t, dx))
