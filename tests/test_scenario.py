import math
import re

import numpy as np
import pytest

from plbounds.geometry import Pose, quat_to_matrix
from plbounds.io import read_json, write_json
from plbounds.scenario import (
    Scenario,
    ScenarioConfig,
    generate_city_cloud,
    generate_scenario,
    load_scenario,
    save_scenario,
    vehicle_frame_error,
    wall_point_count,
)

import oracles

SMALL = ScenarioConfig(n_timesteps=4, blocks_x=1, blocks_y=2, wall_density=0.5, ground_density=0.1)


def sensor_center(pose) -> np.ndarray:
    return -quat_to_matrix(pose.orientation).T @ pose.position


def test_wall_point_count():
    assert wall_point_count(10.0, 20.0, 6.0) == 1200
    assert wall_point_count(0.0, 20.0, 6.0) == 0
    assert wall_point_count(2.0, 92.0, 92.0) == 16928


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_timesteps=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(blocks_x=0)
    with pytest.raises(ValueError):
        ScenarioConfig(street_width=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(wall_density=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(estimate_offset_rotation=-0.1)


def test_city_cloud_default_config():
    # 3x3 blocks, 4 walls each at 10 pts/m^2 over 20x6 m, plus a ground
    # plane at 2 pts/m^2 over 92x92 m
    cloud = generate_city_cloud(ScenarioConfig(), seed=0)
    assert cloud.points.shape == (60128, 3)
    assert np.allclose(
        cloud.points[0],
        [20.739233746429086, 8.0, 1.6187202825832219],
        rtol=0.0,
        atol=0.0,
    )
    assert cloud.points[:, 2].min() >= 0.0
    assert cloud.points[:, 2].max() <= 6.0
    assert cloud.points[:, 0].min() >= 0.0 and cloud.points[:, 0].max() <= 92.0
    assert cloud.points[:, 1].min() >= 0.0 and cloud.points[:, 1].max() <= 92.0


def test_city_cloud_deterministic_and_seed_sensitive():
    a = generate_city_cloud(SMALL, seed=3)
    b = generate_city_cloud(SMALL, seed=3)
    c = generate_city_cloud(SMALL, seed=4)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_city_cloud_without_ground():
    cfg = ScenarioConfig(blocks_x=1, blocks_y=1, ground=False, wall_density=1.0)
    cloud = generate_city_cloud(cfg, seed=0)
    assert cloud.points.shape == (4 * wall_point_count(1.0, 20.0, 6.0), 3)
    assert cloud.points[:, 2].min() > 0.0  # walls only, nothing at z == 0 exactly


def test_true_pose_follows_the_street():
    sc = generate_scenario(SMALL, seed=5)
    for ts in sc.timesteps:
        center = sensor_center(ts.true_pose)
        want = [
            SMALL.street_width + SMALL.speed * ts.timestamp,
            0.5 * SMALL.street_width,
            SMALL.camera_height,
        ]
        assert np.allclose(center, want, rtol=0.0, atol=1e-12)
        # map +x (direction of travel) is the vehicle forward axis y
        r = quat_to_matrix(ts.true_pose.orientation)
        assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(r @ [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], atol=1e-12)


def test_timestep_bookkeeping():
    sc = generate_scenario(SMALL, seed=5)
    assert [ts.index for ts in sc.timesteps] == [0, 1, 2, 3]
    assert [ts.timestamp for ts in sc.timesteps] == [0.0, 1.0, 2.0, 3.0]
    assert sc.timesteps[2].payload_key == "t000002"


def test_estimate_offset_is_bounded():
    sc = generate_scenario(SMALL, seed=9)
    bound = math.sqrt(3.0) * SMALL.estimate_offset_translation
    for ts in sc.timesteps:
        shift = sensor_center(ts.estimate_pose) - sensor_center(ts.true_pose)
        assert np.linalg.norm(shift) <= bound + 1e-9
        err = vehicle_frame_error(ts.true_pose, ts.estimate_pose)
        assert np.linalg.norm(err) <= bound + 1e-9


def test_scenario_deterministic():
    a = generate_scenario(SMALL, seed=7)
    b = generate_scenario(SMALL, seed=7)
    for ta, tb in zip(a.timesteps, b.timesteps):
        assert np.array_equal(ta.estimate_pose.position, tb.estimate_pose.position)
        assert np.array_equal(ta.estimate_pose.orientation, tb.estimate_pose.orientation)
    c = generate_scenario(SMALL, seed=8)
    assert not np.array_equal(
        a.timesteps[0].estimate_pose.position, c.timesteps[0].estimate_pose.position
    )


def test_empty_scenario(tmp_path):
    sc = generate_scenario(ScenarioConfig(n_timesteps=0, blocks_x=1, blocks_y=1, wall_density=0.2, ground=False), seed=0)
    assert sc.timesteps == []
    assert sc.cloud.points.shape[0] > 0
    assert load_scenario(save_scenario(sc, tmp_path)).timesteps == []


def test_vehicle_frame_error_pure_shift():
    sc = generate_scenario(SMALL, seed=5)
    truth = sc.timesteps[0].true_pose
    # push the estimated sensor center 0.7 m further down the street (+x in
    # the map); facing +x that is a forward error, negative because the
    # convention measures truth minus estimate
    r = quat_to_matrix(truth.orientation)
    shifted = type(truth)(truth.position - r @ np.array([0.7, 0.0, 0.0]), truth.orientation)
    err = vehicle_frame_error(truth, shifted)
    assert np.allclose(err, [0.0, -0.7, 0.0], atol=1e-12)
    assert np.allclose(vehicle_frame_error(truth, truth), 0.0, atol=1e-15)


def test_stacked_vehicle_frame_errors_have_the_per_pose_bits():
    rng = np.random.default_rng(12)

    def pose():
        q = rng.normal(size=4)
        return Pose(rng.normal(scale=rng.choice([1.0, 100.0, 1e4]), size=3), q / np.linalg.norm(q))

    truths, estimates = [pose() for _ in range(3000)], [pose() for _ in range(3000)]
    want = np.array([oracles.vehicle_frame_error(t, e) for t, e in zip(truths, estimates)])
    assert vehicle_frame_error(truths, estimates).tobytes() == want.tobytes()
    assert vehicle_frame_error(truths[7], estimates[7]).tobytes() == want[7].tobytes()


def test_save_load_roundtrip_bin(tmp_path):
    sc = generate_scenario(SMALL, seed=11)
    path = save_scenario(sc, tmp_path / "scn")
    assert path.name == "scenario.json"
    loaded = load_scenario(path)
    assert loaded.seed == 11
    assert loaded.map_path == str(tmp_path / "scn" / "map.bin")
    assert np.array_equal(loaded.cloud.points, sc.cloud.points)
    assert len(loaded.timesteps) == len(sc.timesteps)
    for got, want in zip(loaded.timesteps, sc.timesteps):
        assert got.index == want.index and got.timestamp == want.timestamp
        assert got.payload_key == want.payload_key
        assert np.array_equal(got.true_pose.position, want.true_pose.position)
        assert np.array_equal(got.estimate_pose.orientation, want.estimate_pose.orientation)


def test_load_rejects_a_map_that_is_not_bin(tmp_path):
    path = save_scenario(generate_scenario(SMALL, seed=1), tmp_path)
    doc = read_json(path)
    doc["map"] = "map.xyz"
    write_json(doc, path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: map 'map.xyz' is not a .bin point-cloud file")):
        load_scenario(path)


def test_load_rejects_wrong_schema(tmp_path):
    sc = generate_scenario(SMALL, seed=1)
    path = save_scenario(sc, tmp_path)
    doc = read_json(path)
    doc["schema"] = 2
    write_json(doc, path)
    with pytest.raises(ValueError):
        load_scenario(path)


def _lone_pose(doc: dict) -> Pose:
    return Pose(np.asarray(doc["position"], dtype=float), np.asarray(doc["orientation"], dtype=float))


def test_loaded_poses_have_the_bits_of_lone_poses(tmp_path):
    path = save_scenario(generate_scenario(SMALL, seed=13), tmp_path)
    doc = read_json(path)
    # orientations off unit norm, half with a negative scalar part, so that
    # normalizing moves their bits
    for k, ts in enumerate(doc["timesteps"]):
        for name in ("true_pose", "estimate_pose"):
            ts[name]["orientation"] = [(-1) ** k * (1.0 + 2e-4 * (k + 1)) * c for c in ts[name]["orientation"]]
    write_json(doc, path)
    loaded = load_scenario(path)
    assert len(loaded.timesteps) == len(doc["timesteps"])
    for got, ts in zip(loaded.timesteps, doc["timesteps"]):
        for name in ("true_pose", "estimate_pose"):
            pose, want = getattr(got, name), _lone_pose(ts[name])
            assert pose.position.tobytes() == want.position.tobytes()
            assert pose.orientation.tobytes() == want.orientation.tobytes()
            assert not (pose.position.flags.writeable or pose.orientation.flags.writeable)


@pytest.mark.parametrize(
    "field, value",
    [
        ("position", [1.0, float("nan"), 0.0]),
        ("position", [1.0, float("inf"), 0.0]),
        ("position", [1.0, 2.0]),
        ("orientation", [1.01, 0.0, 0.0, 0.0]),
        ("orientation", [0.0, 0.0, 0.0, 0.0]),
        ("orientation", [1.0, 0.0, 0.0]),
    ],
)
def test_load_raises_the_error_of_the_first_bad_pose(tmp_path, field, value):
    path = save_scenario(generate_scenario(SMALL, seed=14), tmp_path)
    doc = read_json(path)
    doc["timesteps"][1]["estimate_pose"][field] = value
    doc["timesteps"][3]["true_pose"]["orientation"] = [1.5, 0.0, 0.0, 0.0]  # a later bad pose
    write_json(doc, path)
    with pytest.raises(ValueError) as lone:
        _lone_pose(doc["timesteps"][1]["estimate_pose"])
    with pytest.raises(ValueError, match=f"^{re.escape(str(lone.value))}$"):
        load_scenario(path)
