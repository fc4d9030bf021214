import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbounds.geometry import Pose, quat_conjugate, quat_normalize, quat_to_matrix
from plbounds.sampling import (
    SamplingConfig,
    apply_offset,
    sample_candidates,
    seed_words,
    stream_keys,
    stream_normals,
    stream_uniforms,
)

import oracles

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
    # pinned outputs of the counter-based stream for seed 0; a change here
    # breaks reproducibility of every archived run.  The values are the
    # Python-int SplitMix64 oracle's, bit for bit
    translations, rotations = _one(SamplingConfig(), 0)
    want_t, want_q = oracles.candidate_offsets([0], 24, 1.0, math.radians(5.0))
    assert translations[1:].tobytes() == np.array(want_t).tobytes()
    assert np.allclose(rotations[1:], want_q, rtol=0.0, atol=1e-15)
    assert translations[1].tolist() == [0.5573038666126122, -0.4697636671314269, -0.24952020255873952]
    assert np.allclose(
        rotations[1],
        [0.9993480788574713, 0.005691968310280213, -0.008797319538844424, -0.034548892161220375],
        rtol=0.0,
        atol=1e-15,
    )
    assert translations[2].tolist() == [-0.8350534898228039, 0.10733653449232872, 0.1287005252533402]


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
    seeds = [[4, 2, k] for k in range(12)] + [[0, 0, 0], [2**64 - 1, 2, 99]]
    translations, rotations = sample_candidates(cfg, seeds)
    assert translations.shape == (14, 24, 3) and rotations.shape == (14, 24, 4)
    for k, seed in enumerate(seeds):
        one_t, one_q = _one(cfg, seed)
        assert translations[k].tobytes() == one_t.tobytes() and rotations[k].tobytes() == one_q.tobytes()
        alone_t, alone_q = sample_candidates(cfg, [seed])
        assert alone_t[0].tobytes() == one_t.tobytes() and alone_q[0].tobytes() == one_q.tobytes()
    empty = sample_candidates(cfg, [])
    assert empty[0].shape == (0, 24, 3) and empty[1].shape == (0, 24, 4)


def test_rows_do_not_depend_on_the_candidates_that_follow():
    # candidate i reads slots 6i..6i+5 alone, so a longer draw extends a
    # shorter one, and the zero offset of include_estimate takes nothing
    seeds = [[4, 2, k] for k in range(5)]
    translations, rotations = sample_candidates(SamplingConfig(n_candidates=40), seeds)
    for n in (2, 7, 24):
        short_t, short_q = sample_candidates(SamplingConfig(n_candidates=n), seeds)
        assert short_t.tobytes() == translations[:, :n].copy().tobytes()
        assert short_q.tobytes() == rotations[:, :n].copy().tobytes()
        without_t, without_q = sample_candidates(SamplingConfig(n_candidates=n, include_estimate=False), seeds)
        assert without_t[:, 1:].tobytes() == short_t[:, 1:].tobytes()
        assert without_q[:, 1:].tobytes() == short_q[:, 1:].tobytes()


def test_keys_and_words_match_the_python_splitmix64():
    rng = np.random.default_rng(40)
    seeds = rng.integers(0, 2**64, (200, 3), dtype=np.uint64).tolist() + [[0, 0, 0], [2**64 - 1, 2**63, 1]]
    keys = stream_keys(seeds)
    assert keys.dtype == np.uint64 and keys.shape == (len(seeds),)
    slots = np.arange(64)
    uniforms, normals = stream_uniforms(keys, slots), stream_normals(keys, slots)
    for seed, key, u, z in zip(seeds, keys, uniforms, normals):
        want_key = oracles.stream_key(seed)
        assert int(key) == want_key
        words = oracles.stream_words(want_key, len(slots))
        assert u.tolist() == [(w >> 11) * 2.0**-53 for w in words]
        cells = [((w >> 12) + 0.5) * 2.0**-52 for w in words]
        assert np.allclose(z, [oracles.normal_quantile(c) for c in cells], rtol=1e-12, atol=1e-12)
    # slots are read where they are asked for, in any order
    picked = np.array([63, 0, 17])
    assert stream_uniforms(keys, picked).tobytes() == uniforms[:, picked].tobytes()
    assert stream_normals(keys[3:4], picked).tobytes() == normals[3:4, picked].tobytes()


def test_keys_reject_negative_words_and_separate_seeds():
    for seeds in ([-1], [[3, -2]], [[0, -(2**70)]]):
        with pytest.raises(ValueError):
            stream_keys(seeds)
    assert stream_keys([]).shape == (0,)
    assert stream_keys([5])[0] == stream_keys([[5]])[0] == stream_keys([np.int64(5)])[0]
    distinct = [[1], [2], [1, 2], [2, 1], [1, 2, 0], [0, 1, 2], seed_words(2**64 + 1)]
    assert len({int(stream_keys([seed])[0]) for seed in distinct}) == len(distinct)


def test_keys_take_words_below_2_64_and_reject_every_other_seed():
    # the contract of stream_keys, against the Python-int oracle: T words,
    # or T equal-length rows of words, each in [0, 2**64), as Python ints or
    # numpy integers.  A wider seed enters as its seed_words, and chaining
    # those is the oracle's fold of the seed 64 bits at a time
    rows = [[0, 0], [7, 3], [2**63, 5], [2**64 - 1, 2**63]]
    accepted = [
        (rows, rows),  # Python ints, words of 2**63 and above among smaller ones
        (np.array(rows, dtype=np.uint64), rows),
        (np.array([[7, 8], [9, 10]]), [[7, 8], [9, 10]]),  # an int64 array without negative entries
        ([5, 6, 2**64 - 1], [[5], [6], [2**64 - 1]]),  # scalar seeds
        ([np.int64(5), np.uint64(2**64 - 1)], [[5], [2**64 - 1]]),
        (np.array([7, 8], dtype=np.uint64), [[7], [8]]),
        ([], []),
        (np.zeros((0, 2), dtype=np.uint64), []),
    ]
    accepted += [([[*seed_words(seed), 2, 9]], [[seed, 2, 9]]) for seed in (0, 2**64 - 1, 2**64 + 5, 2**128 + 5)]
    for seeds, want in accepted:
        keys = stream_keys(seeds)
        assert keys.dtype == np.uint64 and keys.tolist() == [oracles.stream_key(words) for words in want]
    assert seed_words(2**128 + 5) == [5, 0, 1] and seed_words(0) == [0]
    assert seed_words(np.uint64(2**64 - 1)) == [2**64 - 1]
    rejected = (
        [2**64], [[1, 2**64]], [-1], [[3, -2]], np.array([[5, -7]]),  # a word outside [0, 2**64)
        [[1, 2], [3]], [[1, 2], 3], [3, [1, 2]],  # ragged rows, scalars among rows
        [[[1, 2]]], 5,  # neither words nor rows of them
    )
    for seeds in rejected:
        with pytest.raises(ValueError):
            stream_keys(seeds)
    with pytest.raises(ValueError):
        seed_words(-1)
    with pytest.raises(TypeError):
        seed_words(1.0)


def test_a_negative_word_is_rejected_by_an_explicit_check():
    # numpy casts a signed array to uint64 by wrapping it, without a warning,
    # so stream_keys checks a signed array's signs itself.  numpy 2 refuses a
    # negative Python int as uint64; numpy 1.24 wrapped it with only a
    # DeprecationWarning, which is why numpy 2 is the floor
    cases = (np.array([[5, -7]]), np.array([[5, 1]] * 6 + [[5, -7]]), np.array([4] * 6 + [-7]), [-7], [[5, -7]])
    for seeds in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="-7"):
                stream_keys(seeds)


def _moments(x):
    mean = float(x.mean())
    centred = x - mean
    var = float(np.mean(centred**2))
    return mean, var, float(np.mean(centred**3)) / var**1.5, float(np.mean(centred**4)) / var**2


def test_a_million_uniforms_and_normals_have_their_distribution():
    from scipy import stats

    keys = stream_keys([[11, 2, k] for k in range(1000)])
    n = 10**6
    u = stream_uniforms(keys, np.arange(1000)).ravel()
    z = stream_normals(keys, np.arange(1000)).ravel()
    assert u.min() >= 0.0 and u.max() < 1.0 and np.isfinite(z).all()
    # five standard errors of each moment, and the KS statistic's 0.1% level
    mean, var, skew, kurt = _moments(u)
    assert abs(mean - 0.5) < 5.0 * math.sqrt(1.0 / 12.0 / n)
    assert abs(var - 1.0 / 12.0) < 5.0 * math.sqrt(1.0 / 180.0 / n)
    assert abs(skew) < 5.0 * math.sqrt(6.0 / n)
    assert stats.kstest(u, "uniform").statistic < 1.95 / math.sqrt(n)
    mean, var, skew, kurt = _moments(z)
    assert abs(mean) < 5.0 / math.sqrt(n)
    assert abs(var - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(skew) < 5.0 * math.sqrt(6.0 / n)
    assert abs(kurt - 3.0) < 5.0 * math.sqrt(24.0 / n)
    assert stats.kstest(z, "norm").statistic < 1.95 / math.sqrt(n)


def test_streams_of_adjacent_keys_are_uncorrelated():
    # the candidate streams of timesteps k and k + 1, the estimator's
    # streams of adjacent timestamps, and adjacent slots of one stream
    slots = np.arange(1000)
    candidate = stream_uniforms(stream_keys([[11, 2, k] for k in range(1001)]), slots)
    timestamps = [int(np.float64(0.1 * k).view(np.uint64)) for k in range(1001)]
    estimator = stream_normals(stream_keys([[11, t] for t in timestamps]), slots)
    pairs = (
        (candidate[:-1], candidate[1:]),
        (estimator[:-1], estimator[1:]),
        (candidate[:, :-1], candidate[:, 1:]),
    )
    for a, b in pairs:
        r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(r) < 5.0 / math.sqrt(a.size), r
