import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbounds.geometry import Pose, quat_conjugate, quat_normalize, quat_to_matrix
from plbounds.sampling import SamplingConfig, apply_offset, sample_candidates

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def _one(config, seed):
    """The (N, 3) translations and (N, 4) rotations of one timestep's seed."""
    translations, rotations = sample_candidates(config, [seed])
    return translations[0], rotations[0]


def test_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(t_max=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(r_max=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(r_max=math.pi)
    with pytest.raises(ValueError):
        SamplingConfig(n_candidates=1)


def test_first_candidate_is_the_estimate():
    translations, rotations = _one(SamplingConfig(), 0)
    assert translations.shape == (24, 3) and rotations.shape == (24, 4)
    assert np.array_equal(translations[0], np.zeros(3))
    assert np.array_equal(rotations[0], [1.0, 0.0, 0.0, 0.0])
    without, _ = _one(SamplingConfig(include_estimate=False, n_candidates=10), 0)
    assert without.shape == (10, 3)
    assert not np.array_equal(without[0], np.zeros(3))


def test_reference_stream_is_stable():
    # pinned outputs of the PCG64 stream for seed 0; a change here breaks
    # reproducibility of every archived run
    translations, rotations = _one(SamplingConfig(), 0)
    assert np.allclose(
        translations[1],
        [0.2739233746429086, -0.4604265724722594, -0.9180529521276106],
        rtol=0.0,
        atol=0.0,
    )
    assert np.allclose(
        rotations[1],
        [0.9986353398329181, -0.03481376680763609, 0.009969396072234746, 0.03763071643499003],
        rtol=0.0,
        atol=1e-15,
    )
    assert np.allclose(
        translations[2],
        [-0.9669447289429418, 0.6265404784005448, 0.8255111545554434],
        rtol=0.0,
        atol=0.0,
    )


def test_determinism_and_seed_sensitivity():
    a = _one(SamplingConfig(), [3, 2, 7])
    b = _one(SamplingConfig(), [3, 2, 7])
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = _one(SamplingConfig(), [3, 2, 8])
    assert not np.array_equal(a[0][1], c[0][1])


def test_offsets_respect_bounds():
    cfg = SamplingConfig(t_max=0.5, r_max=math.radians(3.0), n_candidates=64)
    translations, rotations = _one(cfg, 5)
    assert np.all(np.abs(translations) <= cfg.t_max)
    assert np.allclose(np.linalg.norm(rotations, axis=1), 1.0, rtol=0.0, atol=1e-12)
    # three composed per-axis angles can sum to at most 3 r_max
    w = np.minimum(1.0, np.abs(rotations[:, 0]))
    assert np.all(2.0 * np.arccos(w) <= 3.0 * cfg.r_max + 1e-9)


def _random_poses(rng, n):
    q = rng.normal(size=(n, 4))
    return rng.normal(size=(n, 3)), q / np.linalg.norm(q, axis=1, keepdims=True)


def test_apply_offset_pure_translation():
    position, orientation = _random_poses(np.random.default_rng(0), 1)
    pose = Pose(position[0], orientation[0])
    t = np.array([[0.3, -0.7, 0.2], [0.0, 1.0, 0.0]])
    moved, turned = apply_offset(pose.position, pose.orientation, t, np.tile(IDENTITY_Q, (2, 1)))
    assert np.allclose(moved, pose.position + t, atol=1e-15)
    assert np.array_equal(turned, np.tile(pose.orientation, (2, 1)))


def test_apply_offset_zero_is_identity():
    pose = Pose(np.array([1.0, 2.0, 3.0]), IDENTITY_Q)
    moved, turned = apply_offset(pose.position, pose.orientation, np.zeros((1, 3)), IDENTITY_Q[None])
    assert np.array_equal(moved[0], pose.position)
    assert np.array_equal(turned[0], pose.orientation)


def test_offset_inverse_round_trip():
    # the inverse of (t, q) is (-R(q).T t, conj(q)); each of 20 poses takes
    # its own offset, row by row
    rng = np.random.default_rng(1)
    position, orientation = _random_poses(rng, 20)
    t, q = _random_poses(rng, 20)
    inverse_t = -(np.swapaxes(quat_to_matrix(q), 1, 2) @ t[:, :, None])[:, :, 0]
    moved = apply_offset(position, orientation, t, q)
    back, back_q = apply_offset(*moved, inverse_t, quat_conjugate(q))
    assert np.allclose(back, position, atol=1e-12)
    assert np.allclose(quat_normalize(back_q), quat_normalize(orientation), atol=1e-12)


def test_apply_offset_stack_matches_one_at_a_time():
    rng = np.random.default_rng(3)
    position, orientation = _random_poses(rng, 1)
    t, q = _random_poses(rng, 16)
    moved, turned = apply_offset(position[0], orientation[0], t, q)
    for i in range(16):
        one, one_q = apply_offset(position[0], orientation[0], t[i], q[i])
        assert np.array_equal(moved[i], one) and np.array_equal(turned[i], one_q)


def test_offset_shifts_sensor_center_in_sensor_frame():
    # a pure translation offset moves the sensor center by -R.T t in map
    # coordinates: the offset acts in the sensor frame
    position, orientation = _random_poses(np.random.default_rng(2), 1)
    pose = Pose(position[0], orientation[0])
    t = np.array([1.0, 0.0, 0.0])
    moved = Pose(*apply_offset(pose.position, pose.orientation, t, IDENTITY_Q))
    r = quat_to_matrix(pose.orientation)
    center = -r.T @ pose.position
    center_moved = -quat_to_matrix(moved.orientation).T @ moved.position
    assert np.allclose(center_moved, center - r.T @ t, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_candidate_count_and_uniqueness(seed, n):
    translations, rotations = _one(SamplingConfig(n_candidates=n), seed)
    assert translations.shape == (n, 3) and rotations.shape == (n, 4)
    flat = {tuple(t) for t in translations}
    assert len(flat) == n  # continuous draws collide with probability zero


def test_block_rows_are_the_single_timestep_draws():
    cfg = SamplingConfig(n_candidates=24)
    seeds = [[4, 2, k] for k in range(12)] + [0, 99]
    translations, rotations = sample_candidates(cfg, seeds)
    assert translations.shape == (14, 24, 3) and rotations.shape == (14, 24, 4)
    for k, seed in enumerate(seeds):
        one_t, one_q = _one(cfg, seed)
        assert translations[k].tobytes() == one_t.tobytes() and rotations[k].tobytes() == one_q.tobytes()
        alone_t, alone_q = sample_candidates(cfg, [seed])
        assert alone_t[0].tobytes() == one_t.tobytes() and alone_q[0].tobytes() == one_q.tobytes()
    empty = sample_candidates(cfg, [])
    assert empty[0].shape == (0, 24, 3) and empty[1].shape == (0, 24, 4)
