import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbounds.geometry import (
    CameraIntrinsics,
    CropExtents,
    DepthMap,
    PointCloud,
    Pose,
    RigidTransform,
    build_local_map,
    clean_map,
    crop_cloud,
    matrix_to_quat,
    occlusion_filter,
    project_to_depth_map,
    quat_conjugate,
    quat_from_axis_angle,
    quat_from_euler_zyx,
    quat_from_rotation_vector,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    quaternion_angular_distance,
    transform_cloud,
)

import oracles


def random_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


unit_quats = (
    st.tuples(*(st.floats(-1.0, 1.0) for _ in range(4)))
    .filter(lambda t: math.sqrt(sum(v * v for v in t)) > 1e-3)
    .map(lambda t: np.array(t) / math.sqrt(sum(v * v for v in t)))
)


# ---------------------------------------------------------------------------
# quaternions


def test_quat_normalize_canonical_sign():
    q = quat_normalize(np.array([-1.0, 0.0, 0.0, 0.0]))
    assert q[0] == 1.0
    # zero scalar part: first non-zero component becomes positive
    q = quat_normalize(np.array([0.0, -1.0, 0.0, 0.0]))
    assert np.allclose(q, [0.0, 1.0, 0.0, 0.0])


def test_quat_normalize_rejects_far_from_unit():
    with pytest.raises(ValueError):
        quat_normalize(np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(4))
    # small drift is renormalized
    q = quat_normalize(np.array([1.0 + 5e-4, 0.0, 0.0, 0.0]))
    assert math.isclose(np.linalg.norm(q), 1.0, abs_tol=1e-15)


def test_quaternion_stacks_match_one_at_a_time():
    # a stack must give each row's single-quaternion result bit for bit:
    # archived runs depend on those bits
    rng = np.random.default_rng(9)
    q = rng.normal(size=(40, 4))
    q *= (1.0 + rng.uniform(-5e-4, 5e-4, (40, 1))) / np.linalg.norm(q, axis=1, keepdims=True)
    q[0] = [0.0, -0.6, 0.0, 0.8]  # vanishing scalar part
    b = rng.normal(size=(40, 4))
    angles = rng.uniform(-0.5, 0.5, (40, 3))
    stacked = (
        quat_normalize(q),
        quat_to_matrix(q),
        quat_multiply(q, b),
        quat_multiply(q, b[0]),
        quat_from_euler_zyx(*angles.T),
    )
    for i in range(40):
        single = (
            quat_normalize(q[i]),
            quat_to_matrix(q[i]),
            quat_multiply(q[i], b[i]),
            quat_multiply(q[i], b[0]),
            quat_from_euler_zyx(*angles[i]),
        )
        for got, want in zip(stacked, single):
            assert np.array_equal(got[i], want)
    assert np.array_equal(quat_to_matrix(q.reshape(2, 20, 4)), stacked[1].reshape(2, 20, 3, 3))
    assert np.array_equal(quat_normalize(q.reshape(2, 20, 4)), stacked[0].reshape(2, 20, 4))
    assert quat_to_matrix(np.empty((0, 4))).shape == (0, 3, 3)
    with pytest.raises(ValueError):
        quat_normalize(np.vstack((q, [[2.0, 0.0, 0.0, 0.0]])))


def test_quat_matrix_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = quat_normalize(random_quat(rng))
        back = matrix_to_quat(quat_to_matrix(q))
        assert np.allclose(back, q, atol=1e-12)


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_quat(rng), random_quat(rng)
        lhs = quat_to_matrix(quat_normalize(quat_multiply(a, b)))
        rhs = quat_to_matrix(quat_normalize(a)) @ quat_to_matrix(quat_normalize(b))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_quat_rotation_against_sandwich_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = quat_normalize(random_quat(rng))
        v = rng.normal(size=3)
        assert np.allclose(quat_to_matrix(q) @ v, oracles.rotate(q, v), atol=1e-12)


def test_euler_zyx_order():
    yaw = quat_from_euler_zyx(math.pi / 2, 0.0, 0.0)
    assert np.allclose(quat_to_matrix(yaw) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)
    # composition order: z, then y, then x on the right
    y, p, r = 0.3, -0.4, 0.7
    direct = quat_from_euler_zyx(y, p, r)
    manual = quat_multiply(
        quat_multiply(
            quat_from_axis_angle([0, 0, 1], y), quat_from_axis_angle([0, 1, 0], p)
        ),
        quat_from_axis_angle([1, 0, 0], r),
    )
    assert np.allclose(direct, quat_normalize(manual), atol=1e-15)


def test_rotation_vector_matches_axis_angle():
    v = np.array([0.1, -0.2, 0.3])
    angle = float(np.linalg.norm(v))
    assert np.allclose(
        quat_from_rotation_vector(v), quat_from_axis_angle(v, angle), atol=1e-15
    )
    assert np.allclose(quat_from_rotation_vector(np.zeros(3)), [1, 0, 0, 0])


def test_angular_distance_half_angle_metric():
    # a rotation by theta scores theta / 2 against the identity
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    for theta in (0.1, 0.5, 1.0, math.pi / 2):
        q = quat_from_axis_angle([0.0, 0.0, 1.0], theta)
        assert math.isclose(quaternion_angular_distance(identity, q), theta / 2, abs_tol=1e-12)
    yaw90 = quat_from_euler_zyx(math.pi / 2, 0.0, 0.0)
    assert math.isclose(
        quaternion_angular_distance(identity, yaw90), 0.7853981633974483, abs_tol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(unit_quats, unit_quats)
def test_angular_distance_symmetry(q1, q2):
    d12 = quaternion_angular_distance(quat_normalize(q1), quat_normalize(q2))
    d21 = quaternion_angular_distance(quat_normalize(q2), quat_normalize(q1))
    assert math.isclose(d12, d21, abs_tol=1e-9)
    assert 0.0 <= d12 <= math.pi / 2 + 1e-12


# ---------------------------------------------------------------------------
# poses and transforms


def test_pose_is_map_to_sensor():
    rng = np.random.default_rng(3)
    q = quat_normalize(random_quat(rng))
    pos = rng.normal(size=3)
    pose = Pose(pos, q)
    p_map = rng.normal(size=3)
    expect = quat_to_matrix(q) @ p_map + pos
    assert np.allclose(pose.transform().apply(p_map), expect, atol=1e-12)
    # the sensor center maps to the local origin
    center = -quat_to_matrix(q).T @ pos
    assert np.allclose(pose.transform().apply(center), np.zeros(3), atol=1e-9)


def test_pose_arrays_read_only():
    pose = Pose.identity()
    with pytest.raises(ValueError):
        pose.position[0] = 1.0


def test_rigid_transform_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.001, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection


def test_rigid_transform_compose_inverse():
    rng = np.random.default_rng(4)
    a = RigidTransform(quat_to_matrix(quat_normalize(random_quat(rng))), rng.normal(size=3))
    b = RigidTransform(quat_to_matrix(quat_normalize(random_quat(rng))), rng.normal(size=3))
    pts = rng.normal(size=(12, 3))
    assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-12)
    round_trip = a.inverse().apply(a.apply(pts))
    assert np.allclose(round_trip, pts, atol=1e-12)


def test_transform_cloud_preserves_distances():
    rng = np.random.default_rng(5)
    tf = RigidTransform(quat_to_matrix(quat_normalize(random_quat(rng))), rng.normal(size=3))
    cloud = PointCloud(rng.normal(size=(40, 3)))
    moved = transform_cloud(cloud, tf)
    d0 = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=-1)
    d1 = np.linalg.norm(moved.points[:, None] - moved.points[None, :], axis=-1)
    assert np.abs(d0 - d1).max() <= 1e-9


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))
    assert len(PointCloud(np.zeros(6))) == 2  # flat input is reshaped


# ---------------------------------------------------------------------------
# cropping


def test_crop_matches_loop_oracle():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-30, 120, size=(500, 3))
    pose = Pose(rng.normal(size=3), quat_normalize(random_quat(rng)))
    extents = CropExtents(forward=80.0, lateral=25.0, vertical=7.0)
    got = crop_cloud(PointCloud(pts), pose, extents)
    mask = oracles.crop_mask(
        pts,
        quat_to_matrix(pose.orientation),
        pose.position,
        extents.forward,
        extents.lateral,
        extents.vertical,
        extents.axes,
    )
    assert np.array_equal(got.points, pts[np.array(mask)])


def test_crop_boundaries_closed_and_origin_kept():
    extents = CropExtents(forward=10.0, lateral=2.0, vertical=1.0, axes=(0, 1, 2))
    pts = np.array(
        [
            [0.0, 0.0, 0.0],  # the viewpoint itself
            [10.0, 2.0, 1.0],  # on every boundary at once
            [10.0 + 1e-9, 0.0, 0.0],  # just past the forward reach
            [-1e-9, 0.0, 0.0],  # just behind
            [5.0, -2.0, -1.0],  # negative boundaries are closed too
        ]
    )
    kept = crop_cloud(PointCloud(pts), None, extents)
    assert np.array_equal(kept.points, pts[[0, 1, 4]])


def test_crop_retains_original_coordinates():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 5, size=(50, 3))
    pose = Pose(rng.normal(size=3) * 0.1, quat_normalize(random_quat(rng)))
    kept = crop_cloud(PointCloud(pts), pose, CropExtents())
    for row in kept.points:
        assert any(np.array_equal(row, p) for p in pts)


# ---------------------------------------------------------------------------
# occlusion


def test_occlusion_collinear_pair():
    near = [0.0, 0.0, 5.0]
    far = [0.0, 0.0, 10.0]
    kept = occlusion_filter(PointCloud([near, far]), threshold_angle=0.02)
    assert np.array_equal(kept.points, np.array([near]))


def test_occlusion_threshold_boundary():
    # the off-axis far point subtends about 0.0989 rad; it survives a 0.02
    # threshold and is culled by a 0.12 one
    pts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 10.0]])
    assert len(occlusion_filter(PointCloud(pts), threshold_angle=0.02)) == 2
    assert len(occlusion_filter(PointCloud(pts), threshold_angle=0.12)) == 1


def test_occlusion_matches_loop_oracle():
    rng = np.random.default_rng(8)
    for round_ in range(5):
        pts = rng.uniform(-4, 4, size=(60, 3)) + [0, 0, 6]
        threshold = (0.05, 0.2, 0.5, 0.05, 0.2)[round_]
        kept = occlusion_filter(PointCloud(pts), threshold_angle=threshold)
        removed = np.array(oracles.occlusion_removed(pts, threshold))
        assert np.array_equal(kept.points, pts[~removed])


def test_occlusion_with_intrinsics_is_conservative():
    # pixel-gated pairing can only remove a subset of the all-pairs removals
    rng = np.random.default_rng(9)
    pts = rng.uniform(-3, 3, size=(80, 3)) + [0, 0, 10]
    k = CameraIntrinsics(np.array([[50.0, 0, 32], [0, 50.0, 24], [0, 0, 1.0]]), 64, 48)
    full = occlusion_filter(PointCloud(pts), threshold_angle=0.1)
    gated = occlusion_filter(PointCloud(pts), threshold_angle=0.1, intrinsics=k, pixel_radius=8.0)
    full_set = {tuple(p) for p in full.points}
    assert full_set <= {tuple(p) for p in gated.points}


def test_occlusion_threshold_validation():
    cloud = PointCloud(np.array([[0.0, 0.0, 1.0]]))
    for bad in (0.0, -0.1, math.pi / 2):
        with pytest.raises(ValueError):
            occlusion_filter(cloud, threshold_angle=bad)


# ---------------------------------------------------------------------------
# depth maps


def _intrinsics():
    return CameraIntrinsics(np.array([[40.0, 0.0, 16.0], [0.0, 40.0, 12.0], [0.0, 0.0, 1.0]]), 32, 24)


def test_depth_map_matches_loop_oracle():
    rng = np.random.default_rng(10)
    pts = np.column_stack(
        [rng.uniform(-0.5, 0.5, 300), rng.uniform(-0.4, 0.4, 300), rng.uniform(-1.0, 4.0, 300)]
    )
    k = _intrinsics()
    for rounding in ("floor", "ceil"):
        got = project_to_depth_map(PointCloud(pts), k, rounding=rounding)
        want = oracles.depth_raster(pts, k.matrix, k.width, k.height, rounding)
        assert np.array_equal(got.depth, want, equal_nan=True)


def test_depth_map_keeps_minimum_per_pixel():
    k = _intrinsics()
    pts = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 2.0], [0.0, 0.0, 7.0]])
    dm = project_to_depth_map(PointCloud(pts), k)
    assert dm.depth[12, 16] == 2.0
    assert np.count_nonzero(~dm.empty_mask()) == 1


def test_depth_map_drops_points_behind_camera():
    k = _intrinsics()
    dm = project_to_depth_map(PointCloud(np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 0.0]])), k)
    assert np.all(dm.empty_mask())


def test_depth_map_3x4_projection():
    m34 = np.hstack([_intrinsics().matrix, np.array([[0.0], [0.0], [1.0]])])
    k = CameraIntrinsics(m34, 32, 24)
    pts = np.array([[0.0, 0.0, 1.0]])
    dm = project_to_depth_map(PointCloud(pts), k)
    # the translation column adds one to the depth, halving the pixel coords
    assert dm.depth[6, 8] == 2.0


def test_depth_map_validation():
    with pytest.raises(ValueError):
        DepthMap(np.array([[0.0]]))  # zero depth is not storable
    with pytest.raises(ValueError):
        project_to_depth_map(PointCloud(np.zeros((0, 3))), _intrinsics(), rounding="round")


def test_build_local_map_equals_composition():
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.uniform(-20, 20, size=(800, 3)))
    pose = Pose(rng.normal(size=3), quat_normalize(random_quat(rng)))
    k = _intrinsics()
    extents = CropExtents(forward=30.0, lateral=10.0, vertical=5.0)
    combined = build_local_map(pose, cloud, k, extents, occlusion_threshold=0.05)
    manual = project_to_depth_map(
        occlusion_filter(
            crop_cloud(transform_cloud(cloud, pose.transform()), None, extents),
            0.05,
            k,
            2.0,
        ),
        k,
    )
    assert np.array_equal(combined.depth, manual.depth, equal_nan=True)


# ---------------------------------------------------------------------------
# map cleaning


def test_clean_map_removes_isolated_point():
    rng = np.random.default_rng(12)
    cluster = 0.05 + rng.uniform(-0.002, 0.002, size=(100, 3))
    lonely = np.array([[5.0, 5.0, 5.0]])
    pts = np.vstack([cluster, lonely])
    cleaned = clean_map(PointCloud(pts), neighborhood_radius=0.1, z_cutoff=3.0, voxel_size=0.1)
    # the cluster collapses to its centroid, the isolated point is gone
    assert len(cleaned) == 1
    assert np.allclose(cleaned.points[0], cluster.mean(axis=0), atol=1e-12)


def test_clean_map_uniform_counts_keep_everything():
    # equal neighbor counts give zero spread; nothing is classed as sparse
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
    cleaned = clean_map(PointCloud(pts), neighborhood_radius=0.5, voxel_size=0.1)
    assert len(cleaned) == 3


def test_clean_map_matches_loop_oracles():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 1.0, size=(120, 3))
    radius, cutoff, voxel = 0.25, 1.0, 0.2
    cleaned = clean_map(PointCloud(pts), radius, cutoff, voxel)
    survivors = pts[np.array(oracles.sparse_outlier_mask(pts, radius, cutoff))]
    want = oracles.voxel_centroids(survivors, voxel)
    got = cleaned.points
    assert got.shape == want.shape
    order_got = np.lexsort(got.T)
    order_want = np.lexsort(want.T)
    assert np.allclose(got[order_got], want[order_want], atol=1e-12)


def test_clean_map_validation_and_empty():
    with pytest.raises(ValueError):
        clean_map(PointCloud(np.zeros((1, 3))), neighborhood_radius=0.0)
    empty = clean_map(PointCloud(np.empty((0, 3))))
    assert len(empty) == 0
