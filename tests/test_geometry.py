import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plbounds.estimator import _rotvecs_to_quats
from plbounds.geometry import (
    PointCloud,
    Pose,
    matrix_to_quat,
    quat_angular_offset,
    quat_conjugate,
    quat_from_axis_angle,
    quat_from_euler_zyx,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
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


# components that stress the arithmetic: signed zeros, exact halves and
# ones, and anything else in [-1, 1]
_COMPONENTS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0]), st.floats(-1.0, 1.0))


def _layouts(q):
    """``q`` as a C-ordered, an F-ordered and a strided array."""
    strided = np.zeros(tuple(2 * n for n in q.shape))
    strided[tuple(slice(None, None, 2) for _ in q.shape)] = q
    return q, np.asfortranarray(q), strided[tuple(slice(None, None, 2) for _ in q.shape)]


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([(), (1,), (7,), (3, 5), (2, 1), (4, 1)]).flatmap(
        lambda lead: hnp.arrays(np.float64, lead + (4,), elements=_COMPONENTS)
    )
)
def test_quat_to_matrix_has_the_bits_of_the_entrywise_formula(q):
    # shapes (4,), (M, 4), (T, N, 4) and (T, 1, 4), in every layout; numpy
    # picks a matrix product's kernel, and so its rounding, from the
    # operands' strides, so the result must be C-contiguous as it was
    want = oracles.entrywise_quat_to_matrix(q)
    for layout in _layouts(q):
        got = quat_to_matrix(layout)
        assert got.shape == q.shape[:-1] + (3, 3) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    q=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(4)), elements=_COMPONENTS),
    positive=st.booleans(),
)
def test_quat_normalize_has_the_bits_of_the_lead_sign_rule(q, positive):
    # near-unit rows, with every scalar part positive (the fast path) or not
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    q = np.where(norms > 0.5, q / np.where(norms > 0.5, norms, 1.0), [[0.6, 0.0, -0.8, 0.0]])
    if positive:
        q[:, 0] = np.abs(q[:, 0]) + 1e-3
        q /= np.linalg.norm(q, axis=1, keepdims=True)
    for layout in _layouts(q):
        assert quat_normalize(layout).tobytes() == oracles.lead_sign_quat_normalize(q).tobytes()


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
    v = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
    angle = float(np.linalg.norm(v[0]))
    quats = _rotvecs_to_quats(v)
    assert np.allclose(quats[0], quat_from_axis_angle(v[0], angle), atol=1e-15)
    assert np.array_equal(quats[1], [1.0, 0.0, 0.0, 0.0])
    assert _rotvecs_to_quats(v.reshape(2, 1, 3)).shape == (2, 1, 4)


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 40),
    scale=st.floats(1e-6, 3.0),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.lists(st.integers(0, 40), max_size=4),
)
@example(count=5, scale=0.01, seed=0, zeros=[])
@example(count=5, scale=0.01, seed=0, zeros=[0, 3, 5])
def test_rotation_vectors_have_the_bits_of_the_masked_conversion(count, scale, seed, zeros):
    v = np.random.default_rng(seed).normal(0.0, scale, (count, 3))
    v = np.insert(v, sorted(z % (count + 1) for z in zeros), 0.0, axis=0)
    got = _rotvecs_to_quats(v)
    assert got.tobytes() == oracles.masked_rotvec_quats(v).tobytes()
    assert _rotvecs_to_quats(v.reshape(-1, 1, 3)).tobytes() == got.tobytes()


def _angular_distance(q1, q2) -> float:
    return quat_angular_offset(quat_multiply(q1, quat_conjugate(q2)))


def test_angular_distance_half_angle_metric():
    # a rotation by theta scores theta / 2 against the identity
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    for theta in (0.1, 0.5, 1.0, math.pi / 2):
        q = quat_from_axis_angle([0.0, 0.0, 1.0], theta)
        assert math.isclose(quat_angular_offset(q), theta / 2, abs_tol=1e-12)
        assert math.isclose(_angular_distance(identity, q), theta / 2, abs_tol=1e-12)
    yaw90 = quat_from_euler_zyx(math.pi / 2, 0.0, 0.0)
    assert math.isclose(_angular_distance(identity, yaw90), 0.7853981633974483, abs_tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(unit_quats, unit_quats)
def test_angular_distance_symmetry(q1, q2):
    d12 = _angular_distance(quat_normalize(q1), quat_normalize(q2))
    d21 = _angular_distance(quat_normalize(q2), quat_normalize(q1))
    assert math.isclose(d12, d21, abs_tol=1e-9)
    assert 0.0 <= d12 <= math.pi / 2 + 1e-12


# ---------------------------------------------------------------------------
# poses and clouds


def test_pose_is_map_to_sensor():
    rng = np.random.default_rng(3)
    q = quat_normalize(random_quat(rng))
    pos = rng.normal(size=3)
    pose = Pose(pos, q)
    rotation = quat_to_matrix(pose.orientation)
    p_map = rng.normal(size=3)
    # p_sensor = R p_map + t, with R the rotation p -> q p q*
    expect = quat_multiply(quat_multiply(q, np.concatenate(([0.0], p_map))), quat_conjugate(q))[1:] + pos
    assert np.allclose(rotation @ p_map + pose.position, expect, atol=1e-12)
    # the sensor center maps to the local origin
    center = -rotation.T @ pose.position
    assert np.allclose(rotation @ center + pose.position, np.zeros(3), atol=1e-9)


def test_pose_arrays_read_only():
    pose = Pose.identity()
    with pytest.raises(ValueError):
        pose.position[0] = 1.0


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))
    assert len(PointCloud(np.zeros(6))) == 2  # flat input is reshaped
