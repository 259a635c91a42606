import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wkb_lab import stencil

EPS = np.finfo(float).eps
# every derivative below is exact in exact arithmetic, so its error is
# rounding only: a few ulps of the field's scale, divided by dx (first
# derivatives) or dx^2 (Laplacian)
ROUNDING_ULPS = 64

_entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_dims = st.integers(1, 4)
_spacings = st.floats(1e-3, 1e-1)


def _arrays(draw, shape):
    return draw(hnp.arrays(float, shape, elements=_entries))


@st.composite
def quadratics(draw):
    """f(x) = x.A.x / 2 + b.x + c with symmetric A, and a centre x."""
    d = draw(_dims)
    a = _arrays(draw, (d, d))
    return a + a.T, _arrays(draw, d), draw(_entries), _arrays(draw, d)


@st.composite
def affine_fields(draw):
    """f(x) = M x + v, and a centre x."""
    d = draw(_dims)
    return _arrays(draw, (d, d)), _arrays(draw, d), _arrays(draw, d)


def test_layout_is_axis_pairs_after_the_centre():
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(stencil.offsets(3, 0.1), [
        [0.1, 0, 0], [-0.1, 0, 0], [0, 0.1, 0], [0, -0.1, 0], [0, 0, 0.1], [0, 0, -0.1]])
    with pytest.raises(ValueError):  # cached, so shared by every caller
        stencil.offsets(3, 0.1)[0, 0] = 1.0
    star = stencil.star(x, 0.1)
    np.testing.assert_array_equal(star[0], x)
    np.testing.assert_array_equal(star[1:], x + stencil.offsets(3, 0.1))
    # a stack of centres gives each centre's points, in stack order
    xs = np.array([[1.0, 2.0], [-3.0, 0.25]])
    pts = stencil.points(xs, 0.5)
    assert pts.shape == (2, 4, 2)
    for c, block in zip(xs, pts):
        np.testing.assert_array_equal(block, stencil.points(c, 0.5))


def test_stencils_exact_on_quadratic():
    f = lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2
    vals = f(stencil.star(np.array([1.0, 0.0]), 0.01))
    np.testing.assert_allclose(stencil.gradient(vals[1:], 0.01), [2.0, 0.0], atol=1e-10)
    assert stencil.laplacian(vals[0], vals[1:], 0.01) == pytest.approx(4.0, abs=1e-7)


def test_stencil_truncation_error_quarters_with_half_dx():
    f = lambda pts: pts[:, 0] ** 4
    x = np.array([1.0, 0.5])
    errs = [abs(stencil.gradient(f(stencil.points(x, dx)), dx)[0] - 4.0)
            for dx in (0.02, 0.01)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-3)


@settings(max_examples=200, deadline=None)
@given(quadratics(), _spacings)
def test_gradient_and_laplacian_exact_on_quadratics(quad, dx):
    a, b, c, x = quad
    f = lambda pts: 0.5 * np.einsum("ni,ij,nj->n", pts, a, pts) + pts @ b + c
    vals = f(stencil.star(x, dx))
    grad = a @ x + b
    # scale of the values, plus the gradient times the rounding of x +- dx
    scale = np.max(np.abs(vals)) + np.sum(np.abs(grad)) * (np.max(np.abs(x)) + dx) + 1.0
    tol = ROUNDING_ULPS * EPS * scale
    np.testing.assert_allclose(stencil.gradient(vals[1:], dx), grad, rtol=0, atol=tol / dx)
    lap = stencil.laplacian(vals[0], vals[1:], dx)
    assert abs(lap - np.trace(a)) <= tol / dx ** 2


@settings(max_examples=200, deadline=None)
@given(affine_fields(), _spacings)
def test_jacobian_and_divergence_exact_on_affine_fields(field, dx):
    m, v, x = field
    vals = stencil.points(x, dx) @ m.T + v
    scale = np.max(np.abs(vals)) + np.max(np.abs(m)) * (np.max(np.abs(x)) + dx) + 1.0
    tol = ROUNDING_ULPS * EPS * scale / dx
    np.testing.assert_allclose(stencil.jacobian(vals, dx), m, rtol=0, atol=tol)
    assert abs(stencil.divergence(vals, dx) - np.trace(m)) <= x.size * tol


@settings(max_examples=50, deadline=None)
@given(affine_fields(), _spacings, st.integers(1, 5))
def test_divergence_of_a_stack_matches_each_centre(field, dx, n):
    m, v, x = field
    xs = x + np.arange(n)[:, None] * 0.5
    vals = stencil.points(xs, dx) @ m.T + v
    stacked = stencil.divergence(vals, dx)
    assert stacked.shape == (n,)
    for k in range(n):
        assert stacked[k] == stencil.divergence(vals[k], dx)


def test_diagonal_layout_is_four_sign_pairs_per_axis_pair():
    np.testing.assert_array_equal(stencil.diagonal_offsets(2, 0.1), [
        [0.1, 0.1], [0.1, -0.1], [-0.1, 0.1], [-0.1, -0.1]])
    offs = stencil.diagonal_offsets(3, 1.0)
    assert offs.shape == (12, 3)
    pairs = [tuple(np.flatnonzero(row)) for row in offs]
    assert pairs == [(0, 1)] * 4 + [(0, 2)] * 4 + [(1, 2)] * 4
    assert stencil.diagonal_offsets(1, 0.1).shape == (0, 1)
    with pytest.raises(ValueError):
        stencil.diagonal_offsets(3, 1.0)[0, 0] = 2.0
    x = np.array([0.5, -1.0, 2.0])
    np.testing.assert_array_equal(stencil.diagonal_points(x, 1.0), x + offs)


@settings(max_examples=200, deadline=None)
@given(quadratics(), _spacings)
def test_hessian_exact_on_quadratics(quad, dx):
    a, b, c, x = quad
    f = lambda pts: 0.5 * np.einsum("ni,ij,nj->n", pts, a, pts) + pts @ b + c
    vals = f(stencil.star(x, dx))
    diag = f(stencil.diagonal_points(x, dx))
    grad = a @ x + b
    scale = (np.max(np.abs(np.append(vals, diag)))
             + np.sum(np.abs(grad)) * (np.max(np.abs(x)) + dx) + 1.0)
    tol = ROUNDING_ULPS * EPS * scale / dx ** 2
    hess = stencil.hessian(vals[0], vals[1:], diag, dx)
    np.testing.assert_allclose(hess, a, rtol=0, atol=tol)
    np.testing.assert_array_equal(hess, hess.T)
    # the Laplacian is the Hessian's trace
    assert abs(np.trace(hess) - stencil.laplacian(vals[0], vals[1:], dx)) <= x.size * tol


def test_hessian_of_stacked_fields_matches_each_field():
    rng = np.random.default_rng(3)
    centre, vals = rng.normal(size=3), rng.normal(size=(3, 6))
    diag = rng.normal(size=(3, 12))
    stacked = stencil.hessian(centre, vals, diag, 0.1)
    assert stacked.shape == (3, 3, 3)
    for k in range(3):
        np.testing.assert_array_equal(stacked[k],
                                      stencil.hessian(centre[k], vals[k], diag[k], 0.1))
