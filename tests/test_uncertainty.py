import hashlib
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plbounds.errors import CorrectionNotPSD, InsufficientSamples
from plbounds.estimator import to_vehicle_frame
from plbounds import io, uncertainty
from plbounds.geometry import quat_from_euler_zyx, quat_to_matrix
from plbounds.uncertainty import (
    MIN_ROTATION_SAMPLES,
    ROBUST_GAMMA,
    EXCLUDED_AXES,
    DirectionalErrors,
    RotationUncertainty,
    outlier_weights,
    precompute_q,
    project_directional,
    rotation_uncertainty_from_file,
    transform_error,
)

import oracles


# ---------------------------------------------------------------------------
# the rotation-uncertainty tensor


def test_precompute_q_matches_loop_oracle():
    rng = np.random.default_rng(0)
    quats = oracles.rotvec_quats(rng, 1000)
    got = precompute_q(quats).q
    want = oracles.q_tensor(quats)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 3000), scale=st.floats(1e-4, 1.0), seed=st.integers(0, 2**32 - 1))
@example(count=1, scale=0.05, seed=0)
@example(count=7, scale=1.0, seed=1)
@example(count=1001, scale=1e-4, seed=2)
def test_precompute_q_has_the_bits_of_the_4d_einsum(count, scale, seed):
    quats = oracles.rotvec_quats(np.random.default_rng(seed), count, scale)
    got = precompute_q(quats, min_samples=1).q
    assert got.flags.c_contiguous
    assert got.tobytes() == oracles.einsum_q_tensor(quat_to_matrix(quats) - np.eye(3)).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    block=st.integers(1, 40),
    whole_blocks=st.integers(0, 4),
    past=st.integers(-1, 1),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_blocked_precompute_q_has_the_bits_of_the_4d_einsum(block, whole_blocks, past, seed, data):
    # sample counts just below, at and just past a whole number of blocks
    count = max(1, block * whole_blocks + past)
    quats = oracles.rotvec_quats(np.random.default_rng(seed), count, 0.3)
    want = oracles.einsum_q_tensor(quat_to_matrix(quats) - np.eye(3)).tobytes()
    with mock.patch.object(uncertainty, "ROTATION_BLOCK", block):
        assert precompute_q(quats, min_samples=1).q.tobytes() == want
    # the same quaternions handed over as blocks of any sizes, empty ones too
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=6)))
    blocks = iter(np.split(quats, cuts))
    assert precompute_q(blocks, min_samples=1, count=count).q.tobytes() == want


def test_precompute_q_checks_the_stated_block_count():
    quats = oracles.rotvec_quats(np.random.default_rng(4), 30)
    for count in (29, 31):
        with pytest.raises(ValueError):
            precompute_q(iter(np.split(quats, [10, 20])), min_samples=1, count=count)
    with pytest.raises(InsufficientSamples):
        precompute_q(iter([quats]), count=30)


def test_precompute_q_rejects_small_samples():
    rng = np.random.default_rng(1)
    with pytest.raises(InsufficientSamples):
        precompute_q(oracles.rotvec_quats(rng, MIN_ROTATION_SAMPLES - 1))
    precompute_q(oracles.rotvec_quats(rng, MIN_ROTATION_SAMPLES))  # boundary passes


def test_precompute_q_identity_rotations_give_zero():
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (1000, 1))
    assert np.array_equal(precompute_q(quats).q, np.zeros((3, 3, 3, 3)))


def test_rotation_uncertainty_validation():
    with pytest.raises(ValueError):
        RotationUncertainty(np.zeros((3, 3, 3)))
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 0, 0] = 1.0  # breaks q[i,j] == q[j,i].T
    with pytest.raises(ValueError):
        RotationUncertainty(bad)
    assert np.array_equal(RotationUncertainty.zero().q, np.zeros((3, 3, 3, 3)))


def test_precompute_q_has_the_bits_of_the_copying_block_loop():
    # R - I is written straight into its rows; the loop it replaced made each
    # block's matrices, subtracted the identity into a copy and copied that
    quats = oracles.rotvec_quats(np.random.default_rng(9), 3 * uncertainty.ROTATION_BLOCK + 123, 0.02)
    got = precompute_q(quats).q
    assert got.tobytes() == oracles.copying_q_tensor(quats, uncertainty.ROTATION_BLOCK).tobytes()
    assert got.tobytes() == oracles.einsum_q_tensor(quat_to_matrix(quats) - np.eye(3)).tobytes()


# ---------------------------------------------------------------------------
# the tensor of a rotation file, cached


def _rotation_file(path, count=1500, seed=6):
    io.write_quaternion_lines(oracles.rotvec_quats(np.random.default_rng(seed), count, 0.03), path)
    return path


def test_a_cached_tensor_has_the_bits_of_its_derivation(tmp_path):
    path = _rotation_file(tmp_path / "rotations.jsonl")
    want = precompute_q(io.read_quaternion_lines(path)).q
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    for outcome in ("miss", "hit", "hit"):
        tensor, record = rotation_uncertainty_from_file(path)
        assert record == {"sha256": sha, "hashed": "read", "samples": 1500, "cache": outcome}
        assert tensor.q.flags.c_contiguous and tensor.q.tobytes() == want.tobytes()
    entry, = (Path(os.environ["XDG_CACHE_HOME"]) / "plbounds").iterdir()
    doc, arrays = oracles.read_entry(entry)
    assert entry.name.startswith("rotation-") and entry.suffix == ".entry"
    assert doc == {"key": sha, "shapes": {"q": [3, 3, 3, 3]}, "values": {"samples": 1500}}
    assert arrays["q"].tobytes() == want.tobytes()


def test_another_code_tag_misses(tmp_path, monkeypatch):
    path = _rotation_file(tmp_path / "rotations.jsonl")
    assert rotation_uncertainty_from_file(path)[1]["cache"] == "miss"
    with monkeypatch.context() as patched:
        patched.setattr(np, "__version__", "0.0.0")  # another numpy
        assert io.code_tag.__wrapped__() != io.code_tag()
    monkeypatch.setattr(io, "code_tag", lambda: "other code")
    assert rotation_uncertainty_from_file(path)[1]["cache"] == "miss"
    assert rotation_uncertainty_from_file(path)[1]["cache"] == "hit"
    assert len(list((Path(os.environ["XDG_CACHE_HOME"]) / "plbounds").iterdir())) == 2


def test_the_cache_directory_follows_xdg_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert io.cache_dir() == tmp_path / "xdg" / "plbounds"
    for ignored in ("", "relative/cache"):  # as the XDG base directory specification says
        monkeypatch.setenv("XDG_CACHE_HOME", ignored)
        assert io.cache_dir() == tmp_path / "home" / ".cache" / "plbounds"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert io.cache_dir() == tmp_path / "home" / ".cache" / "plbounds"

    def homeless(cls=None):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "home", classmethod(homeless))
    path = _rotation_file(tmp_path / "rotations.jsonl")
    tensor, record = rotation_uncertainty_from_file(path)
    assert record["cache"] == "unavailable"
    assert tensor.q.tobytes() == precompute_q(io.read_quaternion_lines(path)).q.tobytes()
    assert not (tmp_path / "home").exists()


# ---------------------------------------------------------------------------
# transforming candidate errors


def _transform(errors, covs, offsets, tensor, rotations=None):
    """transform_error over stacked candidates (identity rotations by default)."""
    errors = np.asarray(errors, float)
    if rotations is None:
        rotations = np.tile([1.0, 0.0, 0.0, 0.0], (len(errors), 1))
    rotation = quat_to_matrix(np.asarray(rotations, float))
    return transform_error(rotation, errors, np.asarray(covs, float), np.asarray(offsets, float), tensor)


def test_transform_error_identity_rotation_shifts_mean():
    means, covs, failed = _transform(
        [[1.0, 2.0, 3.0]], [np.diag([0.1, 0.2, 0.3])], [[0.5, 0.5, 0.5]], RotationUncertainty.zero()
    )
    assert np.allclose(means[0], [0.5, 1.5, 2.5])
    assert np.allclose(covs[0], np.diag([0.1, 0.2, 0.3]))
    assert failed == {}


def test_transform_error_rotates_the_offset():
    # rotation error is a +90 degree yaw, so the offset x-hat maps through
    # R.T to -y-hat and the sample error is +y-hat
    yaw90 = quat_from_euler_zyx(np.pi / 2, 0.0, 0.0)
    zero = RotationUncertainty.zero()
    means, _, _ = _transform([np.zeros(3)], [np.eye(3)], [[1.0, 0.0, 0.0]], zero, [yaw90])
    assert np.allclose(means[0], [0.0, 1.0, 0.0], atol=1e-12)


def test_transform_error_correction_matches_outer_product_oracle():
    # u' q[i,j] u must equal the mean outer product of (R - I) u over the
    # exact same quaternion sample
    rng = np.random.default_rng(2)
    quats = oracles.rotvec_quats(rng, 1000, scale=0.1)
    tensor = precompute_q(quats)
    t = rng.normal(size=(5, 3)) * 2.0
    _, covs, _ = _transform(rng.normal(size=(5, 3)), np.tile(np.eye(3), (5, 1, 1)), t, tensor)
    for row, cov in zip(t, covs):
        want = np.eye(3) + oracles.correction_matrix(quats, row)  # identity rotation: u = t
        assert np.allclose(cov, 0.5 * (want + want.T), atol=1e-10)


def test_transform_error_correction_inflates_variance():
    rng = np.random.default_rng(3)
    tensor = precompute_q(oracles.rotvec_quats(rng, 2000, scale=0.1))
    args = ([np.zeros(3)], [np.diag([0.01, 0.01, 0.01])], [[2.0, -1.0, 0.5]])
    _, inflated, _ = _transform(*args, tensor)
    _, baseline, _ = _transform(*args, RotationUncertainty.zero())
    assert np.all(np.diagonal(inflated[0]) >= np.diagonal(baseline[0]))
    assert np.diagonal(inflated[0]).max() > 0.01


def test_transform_error_rejects_indefinite_covariance():
    covs = [np.eye(3), np.diag([-1.0, 1.0, 1.0]), np.eye(3)]
    means, _, failed = _transform(np.ones((3, 3)), covs, np.zeros((3, 3)), RotationUncertainty.zero())
    assert list(failed) == [1]
    assert isinstance(failed[1], CorrectionNotPSD)
    assert np.array_equal(means[[0, 2]], np.ones((2, 3)))


def test_transform_error_validates_offset_shape():
    with pytest.raises(ValueError):
        _transform([np.zeros(3)], [np.eye(3)], np.zeros((1, 2)), RotationUncertainty.zero())


def test_stacked_transforms_match_per_row_oracle():
    # the stacked frame change and inflation of N candidates, one of them
    # with indefinite correlations, against the one-candidate reference
    rng = np.random.default_rng(6)
    n, bad = 12, 7
    tensor_quats = oracles.rotvec_quats(rng, 1000, scale=0.1)
    tensor = precompute_q(tensor_quats)
    raw_t = rng.normal(size=(n, 3))
    raw_q = oracles.rotvec_quats(rng, n, scale=0.3)
    sigma = rng.uniform(0.1, 1.0, (n, 3))
    corr = rng.uniform(-0.5, 0.5, (n, 3))
    corr[bad] = [0.9, 0.9, -0.9]
    offsets = rng.uniform(-1.0, 1.0, (n, 3))
    rotation = quat_to_matrix(raw_q)
    errors, covs, frame_failed = to_vehicle_frame(rotation, raw_t, sigma, corr)
    means, covs, inflate_failed = transform_error(rotation, errors, covs, offsets, tensor)
    assert list(frame_failed) == [bad]
    assert set(inflate_failed) <= {bad}  # an indefinite row may fail again; no other row may
    for i in range(n):
        want = oracles.candidate_sample(raw_t[i], raw_q[i], sigma[i], corr[i], offsets[i], tensor_quats)
        if i == bad:
            assert want is None
            continue
        assert np.allclose(means[i], want[0], rtol=0.0, atol=1e-12)
        assert np.allclose(covs[i], want[1], rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# robust weights


def test_outlier_weights_reference_case():
    w = outlier_weights(np.array([[1.0], [2.0], [3.0], [4.0], [100.0]]))[:, 0]
    want = [
        0.1138994656666143,
        0.22359048331944706,
        0.43891956769449153,
        0.22359048331944706,
        1.6905071911849278e-29,
    ]
    assert np.allclose(w, want, rtol=0.0, atol=1e-16)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_outlier_weights_mad_fallback_case():
    # more than half the column identical: MAD is zero, the mean absolute
    # deviation takes over
    w = outlier_weights(np.array([[0.0], [0.0], [0.0], [1.0], [5.0]]))[:, 0]
    want = [
        0.27546690155708725,
        0.27546690155708725,
        0.27546690155708725,
        0.15702172137784817,
        0.016577573950890205,
    ]
    assert np.allclose(w, want, rtol=0.0, atol=1e-16)


def test_outlier_weights_uniform_when_identical():
    w = outlier_weights(np.full((5, 3), 2.5))
    assert np.array_equal(w, np.full((5, 3), 0.2))


def test_outlier_weights_matches_pure_python_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        col = rng.normal(size=rng.integers(2, 30))
        got = outlier_weights(col[:, None])[:, 0]
        want = oracles.robust_weights(col, gamma=ROBUST_GAMMA)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def test_outlier_weights_columns_independent():
    rng = np.random.default_rng(5)
    e = rng.normal(size=(12, 3))
    w = outlier_weights(e)
    for d in range(3):
        assert np.allclose(w[:, d], outlier_weights(e[:, d : d + 1])[:, 0])


def test_outlier_weights_monotone_in_deviation():
    col = np.array([0.0, 0.1, 0.5, 2.0, 10.0])
    w = outlier_weights(col[:, None])[:, 0]
    dev = np.abs(col - np.median(col))
    order = np.argsort(dev)
    assert np.all(np.diff(w[order]) < 0.0)  # larger deviation, smaller weight


# values from a small set make ties, so that a column's median deviation
# is often zero (the mean-deviation branch) or every deviation is (uniform)
_VALUES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, -2.5, 1e-300, 7.25]))


@settings(max_examples=150, deadline=None)
@given(
    stack=st.integers(1, 5).flatmap(
        lambda n: hnp.arrays(
            np.float64, st.tuples(st.integers(1, 4), st.just(n), st.integers(1, 4)), elements=_VALUES
        )
    ),
    repeat=st.sampled_from([None, 0, 1]),
)
def test_stacked_outlier_weights_match_the_column_loop(stack, repeat):
    if repeat is not None:  # more than half of each column, or all of it, the same value
        stack[:, : stack.shape[1] // 2 + 1 if repeat == 0 else None] = stack[:, :1]
    got = outlier_weights(stack)
    assert got.shape == stack.shape and got.flags.c_contiguous
    for sample_set, weights in zip(stack, got):
        assert weights.tobytes() == oracles.outlier_weights_per_column(sample_set).tobytes()
        assert outlier_weights(sample_set).tobytes() == weights.tobytes()


def test_stacked_outlier_weights_reach_every_branch():
    # 24 rows, as a timestep's candidates: long enough that a sum along the
    # wrong axis would add in another order
    rng = np.random.default_rng(31)
    stack = rng.normal(size=(6, 24, 3))
    stack[1, :13, 0] = 0.5  # median deviation zero
    stack[2, :, 1] = -1.25  # every deviation zero
    got = outlier_weights(stack)
    assert np.array_equal(got[2, :, 1], np.full(24, 1.0 / 24))
    for sample_set, weights in zip(stack, got):
        assert weights.tobytes() == oracles.outlier_weights_per_column(sample_set).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    a=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 26)),  # N odd, even and 1
        elements=st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan])),
    )
)
def test_median_has_the_bits_of_numpy_median(a):
    # ties of signed zeros and NaNs included: which entry a partition puts
    # in the middle decides the bits
    with np.errstate(over="ignore"):  # two huge middle entries sum to inf in both
        want = np.median(a, axis=-1, keepdims=True)
        assert uncertainty._median(a).tobytes() == want.tobytes()


def test_outlier_weights_validation():
    with pytest.raises(ValueError):
        outlier_weights(np.zeros(3))  # one-dimensional
    with pytest.raises(ValueError):
        outlier_weights(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# directional projection


def _sample_set(ex, ey, ez, w=None):
    """One sample set as a stack of one: (1, N, 3) means, variances and weights."""
    n = len(ex)
    means = np.column_stack([ex, ey, ez])
    variances = np.full((n, 3), 0.04)
    weights = np.full((n, 3), 1.0 / n) if w is None else w
    return means[None], variances[None], weights[None]


def _one(proj: DirectionalErrors):
    """The projection of a stack of one set: theta, the excluded axis and the
    horizontal and vertical (means, variances, weights)."""
    (rows, *horizontal), = proj.horizontal
    assert rows.tolist() == [0]
    return proj.theta[0], EXCLUDED_AXES[proj.excluded[0]], [a[0] for a in horizontal], [a[0] for a in proj.vertical]


def test_project_directional_known_angle():
    # all errors on the 3-4-5 direction: theta = atan2(4, 3), and both
    # halves project to the same magnitude 5
    n = 4
    theta, excluded, (h_means, h_vars, h_weights), (v_means, _, _) = _one(
        project_directional(*_sample_set([3.0] * n, [4.0] * n, [1.0] * n))
    )
    assert np.isclose(theta, np.arctan2(4.0, 3.0))
    assert excluded is None
    assert np.allclose(h_means, 5.0)
    assert np.allclose(h_weights, 0.5 / n)
    assert np.isclose(h_weights.sum(), 1.0)
    # variances scale with the squared direction cosines
    assert np.allclose(h_vars[:n], 0.04 / 0.36)
    assert np.allclose(h_vars[n:], 0.04 / 0.64)
    assert np.allclose(v_means, 1.0)


def test_project_directional_excludes_degenerate_axis():
    n = 3
    _, excluded, (h_means, _, h_weights), _ = _one(project_directional(*_sample_set([0.0] * n, [2.0] * n, [-1.0] * n)))
    assert excluded == "x"
    assert np.allclose(h_means, 2.0)
    assert np.isclose(h_weights.sum(), 1.0)
    _, excluded, (h_means, _, _), _ = _one(project_directional(*_sample_set([2.0] * n, [0.0] * n, [1.0] * n)))
    assert excluded == "y"
    assert np.allclose(h_means, 2.0)


def test_project_directional_vertical_passthrough():
    s = _sample_set([1.0, 1.0], [1.0, 1.0], [-3.0, 2.0])
    _, _, _, (v_means, v_vars, v_weights) = _one(project_directional(*s))
    assert np.array_equal(v_means, [3.0, 2.0])
    assert np.array_equal(v_vars, s[1][0, :, 2])
    assert np.array_equal(v_weights, s[2][0, :, 2])


def test_stacked_projection_matches_one_set_at_a_time():
    # 24 candidates, as a timestep has, and sets whose directions lie near
    # each axis, so that all three mixture shapes are stacked; every value
    # must have the bits the per-set projection gives
    rng = np.random.default_rng(41)
    means = rng.normal(size=(40, 24, 3))
    means[:8, :, 0] *= 1e-3  # direction near the y axis: x dropped
    means[8:16, :, 1] *= 1e-3  # near the x axis: y dropped
    variances = rng.uniform(0.01, 0.5, size=(40, 24, 3))
    weights = outlier_weights(means)
    proj = project_directional(means, variances, weights)
    assert sorted(set(proj.excluded.tolist())) == [0, 1, 2]
    horizontal = {}
    for rows, *mixture in proj.horizontal:
        for k, row in enumerate(rows.tolist()):
            horizontal[row] = [a[k].tobytes() for a in mixture]
    for g in range(len(means)):
        theta, excluded, h, v = oracles.project_directional(means[g], variances[g], weights[g])
        assert proj.theta[g].tobytes() == np.float64(theta).tobytes()
        assert EXCLUDED_AXES[proj.excluded[g]] == excluded
        assert horizontal[g] == [np.ascontiguousarray(a).tobytes() for a in h]
        assert [a[g].tobytes() for a in proj.vertical] == [np.ascontiguousarray(a).tobytes() for a in v]
