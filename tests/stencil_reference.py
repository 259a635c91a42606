"""Reference assembly of the score's spatial derivatives: the score is
evaluated at every stencil point of every centre, each point formed as
(x + centre offset) + axis offset, and the ``stencil`` functions are
applied to the values directly.  The helpers in ``wkb_lab.stencil``
evaluate each distinct point once and apply a linear operator built from
the same formulas; the tests compare the two."""

import numpy as np

from wkb_lab import stencil


def _values(score, pts, t):
    return np.asarray(score(pts, t), dtype=float)


def score_divergence(score, xs, t, dx):
    """(s, div s) at each of a stack of points: the centres, then each
    centre's 2d axis offsets, in one call of m(2d + 1) rows."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, d = xs.shape
    vals = _values(score, np.concatenate([xs, stencil.points(xs, dx).reshape(-1, d)]), t)
    return vals[:m], stencil.divergence(vals[m:].reshape(m, 2 * d, d), dx)


def score_jacobian(score, x, t, dx):
    """J[i, j] = d s_i / d x_j by central differences."""
    return stencil.jacobian(_values(score, stencil.points(x, dx), t), dx)


def score_div_derivatives(score, x, t, dx):
    """(J, div s, grad(div s), laplacian(div s)): J from its own call, and
    the divergence at x and at its 2d axis offsets, in one call of
    2d(2d + 1) rows."""
    centers = stencil.star(x, dx)
    n, d = centers.shape
    vals = _values(score, stencil.points(centers, dx).reshape(-1, d), t)
    divs = stencil.divergence(vals.reshape(n, 2 * d, d), dx)
    return (score_jacobian(score, x, t, dx), divs[0],
            stencil.gradient(divs[1:], dx), stencil.laplacian(divs[0], divs[1:], dx))


def score_second_derivatives(score, x, t, dx):
    """(s, J, hess s, grad(div s), hess(div s)) from the star and diagonal
    centres and each centre's 2d axis offsets, in one call of
    (2d^2 + 1)(2d + 1) rows."""
    d = x.size
    centers = np.vstack([stencil.star(x, dx), stencil.diagonal_points(x, dx)])
    n, na = centers.shape[0], 1 + 2 * d
    vals = _values(score, np.vstack([centers, stencil.points(centers, dx).reshape(-1, d)]),
                   t)
    s_c = vals[:n]
    divs = stencil.divergence(vals[n:].reshape(n, 2 * d, d), dx)
    jac = stencil.jacobian(s_c[1:na], dx)
    hess_s = stencil.hessian(s_c[0], s_c[1:na].T, s_c[na:].T, dx)
    hess_div = stencil.hessian(divs[0], divs[1:na], divs[na:], dx)
    return s_c[0], jac, hess_s, stencil.gradient(divs[1:na], dx), hess_div
