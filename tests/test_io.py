import numpy as np
import pytest

from plbounds.geometry import DepthMap, PointCloud
from plbounds import io


def _cloud(rng, n=37):
    return PointCloud(rng.normal(scale=50.0, size=(n, 3)))


def test_cloud_xyz_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    cloud = _cloud(rng)
    path = tmp_path / "c.xyz"
    io.write_cloud_xyz(cloud, path)
    back = io.read_cloud_xyz(path)
    assert np.array_equal(back.points, cloud.points)  # repr round-trips exactly


def test_cloud_xyz_empty_and_malformed(tmp_path):
    path = tmp_path / "empty.xyz"
    io.write_cloud_xyz(PointCloud(np.empty((0, 3))), path)
    assert len(io.read_cloud_xyz(path)) == 0
    bad = tmp_path / "bad.xyz"
    bad.write_text("1.0 2.0\n")
    with pytest.raises(ValueError):
        io.read_cloud_xyz(bad)


def test_cloud_xyz_skips_blank_lines(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("1.0 2.0 3.0\n\n4.0 5.0 6.0\n")
    assert len(io.read_cloud_xyz(path)) == 2


def test_cloud_bin_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    cloud = _cloud(rng, n=101)
    path = tmp_path / "c.bin"
    io.write_cloud_bin(cloud, path)
    back = io.read_cloud_bin(path)
    assert np.array_equal(back.points, cloud.points)


def test_cloud_bin_truncation_detected(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "c.bin"
    io.write_cloud_bin(_cloud(rng, n=5), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        io.read_cloud_bin(path)
    path.write_bytes(b"\x01")
    with pytest.raises(ValueError):
        io.read_cloud_bin(path)


def _depth_map(rng):
    d = rng.uniform(0.5, 30.0, size=(6, 9))
    d[rng.random(d.shape) < 0.3] = np.nan
    return DepthMap(d)


def test_depth_csv_round_trip(tmp_path):
    dm = _depth_map(np.random.default_rng(3))
    path = tmp_path / "d.csv"
    io.write_depth_csv(dm, path)
    back = io.read_depth_csv(path)
    assert np.array_equal(back.depth, dm.depth, equal_nan=True)


def test_depth_bin_round_trip(tmp_path):
    dm = _depth_map(np.random.default_rng(4))
    path = tmp_path / "d.bin"
    io.write_depth_bin(dm, path)
    back = io.read_depth_bin(path)
    # storage is f32; compare at that precision
    assert np.array_equal(back.depth.astype(np.float32), dm.depth.astype(np.float32), equal_nan=True)
    assert np.array_equal(back.empty_mask(), dm.empty_mask())


def test_depth_bin_rejects_bad_magic_and_length(tmp_path):
    dm = _depth_map(np.random.default_rng(5))
    path = tmp_path / "d.bin"
    io.write_depth_bin(dm, path)
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        io.read_depth_bin(path)
    io.write_depth_bin(dm, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        io.read_depth_bin(path)


def test_json_deterministic_bytes(tmp_path):
    doc = {"b": 2, "a": [1.5, None, "x"], "c": {"y": True}}
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    io.write_json(doc, p1)
    io.write_json(dict(reversed(list(doc.items()))), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert io.read_json(p1) == doc


def test_jsonl_round_trip(tmp_path):
    rows = [{"k": 1}, {"k": 2, "v": [1, 2]}, {"k": 3}]
    path = tmp_path / "r.jsonl"
    io.write_jsonl(rows, path)
    assert io.read_jsonl(path) == rows


def test_jsonl_names_line_that_is_not_json(tmp_path):
    path = tmp_path / "r.jsonl"
    # blank lines are skipped, yet still counted in the reported line
    path.write_text('{"k": 1}\n\n{"k": 2, "v": [1, 2\n')
    with pytest.raises(ValueError, match=r"r\.jsonl:3: Expecting ',' delimiter: line 1 column 20"):
        io.read_jsonl(path)


def test_quaternion_lines_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    q = rng.normal(size=(25, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    path = tmp_path / "q.jsonl"
    io.write_quaternion_lines(q, path)
    assert np.array_equal(io.read_quaternion_lines(path), q)


def test_quaternion_lines_empty_and_invalid(tmp_path):
    path = tmp_path / "q.jsonl"
    io.write_quaternion_lines(np.empty((0, 4)), path)
    assert io.read_quaternion_lines(path).shape == (0, 4)
    path.write_text("[1.0, 0.0, 0.0]\n")
    with pytest.raises(ValueError):
        io.read_quaternion_lines(path)


def test_results_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    rows = [tuple(rng.normal(size=7)) for _ in range(11)]
    path = tmp_path / "r.csv"
    io.write_results_csv(rows, path)
    back = io.read_results_csv(path)
    assert np.array_equal(back, np.asarray(rows))


def test_results_csv_header_and_width_checks(tmp_path):
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError):
        io.write_results_csv([(1, 2, 3)], path)
    path.write_text("t,pl_lat,nope\n")
    with pytest.raises(ValueError):
        io.read_results_csv(path)


def test_results_csv_empty_table(tmp_path):
    path = tmp_path / "r.csv"
    io.write_results_csv([], path)
    assert io.read_results_csv(path).shape == (0, 7)
