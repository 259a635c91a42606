import numpy as np
import pytest

from wkb_lab.data import (GRID_NORM, PointCloud, load_cloud, make_25gaussian,
                          make_swiss_roll, normalize, save_cloud)
from wkb_lab.errors import ParseError


def test_swiss_roll_noiseless_point_lies_on_spiral():
    cloud = make_swiss_roll(1, noise=0.0, seed=42)
    p = cloud.points[0] * cloud.norm_constant
    u = np.linalg.norm(p)
    assert 1.5 * np.pi <= u <= 4.5 * np.pi
    np.testing.assert_allclose(p, [u * np.cos(u), u * np.sin(u)], atol=1e-9)


def test_swiss_roll_deterministic():
    a = make_swiss_roll(100, seed=5)
    b = make_swiss_roll(100, seed=5)
    assert a.points.shape == (100, 2)
    np.testing.assert_array_equal(a.points, b.points)
    c = make_swiss_roll(100, seed=6)
    assert np.any(a.points != c.points)


def test_grid_mixture_component_means():
    cloud = make_25gaussian(50_000, seed=1)
    assert cloud.norm_constant == pytest.approx(np.sqrt(8.0))
    # snap each point to the nearest normalized grid node
    axis = np.array([-4.0, -2.0, 0.0, 2.0, 4.0]) / GRID_NORM
    assert axis.max() == pytest.approx(4.0 / np.sqrt(8.0))  # ~1.41421
    for coord in cloud.points.T:
        nearest = axis[np.argmin(np.abs(coord[:, None] - axis[None, :]), axis=1)]
        # component std 0.05 / sqrt(8) leaves every sample well inside its cell
        assert np.max(np.abs(coord - nearest)) < 6 * 0.05 / GRID_NORM
    hit_nodes = {(round(float(x), 6), round(float(y), 6))
                 for x, y in zip(*[axis[np.argmin(np.abs(c[:, None] - axis), axis=1)]
                                   for c in cloud.points.T])}
    assert len(hit_nodes) == 25


def test_grid_mixture_deterministic():
    a = make_25gaussian(500, seed=9)
    b = make_25gaussian(500, seed=9)
    np.testing.assert_array_equal(a.points, b.points)


def test_normalization_idempotent():
    cloud = make_swiss_roll(500, seed=3)
    renorm, std = normalize(cloud.points)
    assert np.max(np.abs(renorm - cloud.points)) < 1e-9
    assert std == pytest.approx(1.0, abs=1e-9)


def test_save_load_roundtrip_exact(tmp_path):
    cloud = make_25gaussian(200, seed=4)
    path = tmp_path / "cloud.tsv"
    save_cloud(cloud, path)
    back = load_cloud(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    assert back.name == cloud.name
    assert back.seed == cloud.seed
    assert back.norm_constant == cloud.norm_constant


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_cloud(path)


def test_load_missing_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0.1\t0.2\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert err.value.line == 1


def test_load_bad_float_reports_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# name\t0\t1.0\n0.1\t0.2\n0.3\toops\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert err.value.line == 3


def test_pointcloud_len_and_dim():
    cloud = PointCloud(points=np.zeros((5, 3)))
    assert len(cloud) == 5
    assert cloud.dim == 3
