import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkb_lab.errors import SizeMismatch
from wkb_lab.wasserstein import w2_exact, w2_gaussian_1d


def test_identical_clouds_have_zero_distance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 2))
    assert w2_exact(a, a.copy()).distance == 0.0
    shuffled = a[rng.permutation(20)]
    assert w2_exact(a, shuffled).distance == pytest.approx(0.0, abs=1e-12)


def test_single_pair():
    res = w2_exact(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert res.distance == pytest.approx(5.0)
    assert res.assignment.tolist() == [0]


def test_assignment_reproduces_distance():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((15, 3)), rng.standard_normal((15, 3))
    res = w2_exact(a, b)
    cost = np.mean(np.sum((a - b[res.assignment]) ** 2, axis=1))
    assert res.distance == pytest.approx(np.sqrt(cost), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=999))
def test_symmetry_and_permutation_invariance(n, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    d_ab = w2_exact(a, b).distance
    assert w2_exact(b, a).distance == pytest.approx(d_ab, abs=1e-12)
    assert w2_exact(a[rng.permutation(n)], b).distance == pytest.approx(d_ab,
                                                                        abs=1e-12)


def test_triangle_inequality_on_random_triples():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((10, 2)) for _ in range(3))
        dab = w2_exact(a, b).distance
        dbc = w2_exact(b, c).distance
        dac = w2_exact(a, c).distance
        assert dac <= dab + dbc + 1e-9


def test_one_dimensional_fast_path_matches_assignment():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 1))
    b = rng.standard_normal((40, 1))
    sort_based = w2_exact(a, b).distance
    # same optimum through the generic route: lift to 2-D with a zero column
    lift = lambda x: np.hstack([x, np.zeros_like(x)])
    assert sort_based == pytest.approx(w2_exact(lift(a), lift(b)).distance,
                                       abs=1e-12)


def test_gaussian_1d_closed_form():
    assert w2_gaussian_1d(2.0, 2.0) == 0.0
    assert w2_gaussian_1d(4.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        w2_gaussian_1d(-1.0, 1.0)


def test_size_mismatch_rejected():
    with pytest.raises(SizeMismatch):
        w2_exact(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(SizeMismatch):
        w2_exact(np.zeros((5001, 1)), np.zeros((5001, 1)))
    for dim in (1, 2):  # empty clouds, on the sorted and the assignment path
        with pytest.raises(SizeMismatch):
            w2_exact(np.zeros((0, dim)), np.zeros((0, dim)))
