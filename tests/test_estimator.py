import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbounds import io
from plbounds.errors import InfeasibleContext, MissingRecord, NotPositiveDefinite
from plbounds.estimator import (
    RECORD_FIELDS,
    FileEstimator,
    MeasurementContext,
    RawEstimate,
    SyntheticEstimator,
    SyntheticEstimatorConfig,
    assemble_covariance,
    check_estimates,
    gaussian_nll,
    huber_loss,
    to_vehicle_frame,
    write_estimate_records,
)
from plbounds.geometry import Pose, quat_from_euler_zyx, quat_normalize, quat_to_matrix
from plbounds.sampling import apply_offset, stream_normals
from plbounds.scenario import vehicle_frame_error

import oracles

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def _raw(t=(0.0, 0.0, 0.0), q=IDENTITY_Q, sigma=(1.0, 1.0, 1.0), corr=(0.0, 0.0, 0.0)):
    return RawEstimate(np.asarray(t, float), q, np.asarray(sigma, float), np.asarray(corr, float))


# ---------------------------------------------------------------------------
# raw estimates and covariance assembly


def test_raw_estimate_validation():
    with pytest.raises(ValueError):
        _raw(sigma=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        _raw(corr=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        _raw(t=(np.nan, 0.0, 0.0))
    est = _raw(q=np.array([-1.0, 0.0, 0.0, 0.0]))
    assert est.rotation_error[0] == 1.0  # canonicalized


def test_raw_estimate_rejects_non_finite_sigma_and_corr():
    for sigma, corr in (((np.inf, 1.0, 1.0), (0.0, 0.0, 0.0)), ((1.0, 1.0, 1.0), (np.nan, 0.0, 0.0))):
        with pytest.raises(ValueError):
            _raw(sigma=sigma, corr=corr)
    with pytest.raises(ValueError):
        RawEstimate(np.zeros(3), IDENTITY_Q, np.array([np.inf, 1.0, 1.0]), np.array([np.nan, 0.0, 0.0]))


def test_check_estimates_on_stacks():
    t, q, s, c = np.zeros((4, 3)), np.tile(IDENTITY_Q, (4, 1)), np.ones((4, 3)), np.zeros((4, 3))
    fields = check_estimates(t, -q, s, c, (4,))
    assert np.array_equal(fields[1], q)  # canonicalized row by row
    # one bad entry in row 2 of one field: (field index in (t, q, s, c), value)
    for field, value in ((2, np.inf), (2, 0.0), (3, np.nan), (3, 1.0), (0, np.nan)):
        fields = [t.copy(), q, s.copy(), c.copy()]
        fields[field][2, 1] = value
        with pytest.raises(ValueError):
            check_estimates(*fields, (4,))
    with pytest.raises(ValueError):
        check_estimates(t, 2.0 * q, s, c, (4,))
    with pytest.raises(ValueError):
        check_estimates(t, q, s, c, (3,))
    with pytest.raises(ValueError):
        check_estimates(t, q[:, :3], s, c, (4,))


def test_assemble_covariance_hand_case():
    cov = assemble_covariance(np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.2, 0.1]))
    want = np.array([[1.0, 1.0, -0.6], [1.0, 4.0, 0.6], [-0.6, 0.6, 9.0]])
    assert np.allclose(cov, want, rtol=0.0, atol=1e-15)
    assert np.array_equal(cov, cov.T)


def test_assemble_covariance_rejects_indefinite():
    # these correlations produce an eigenvalue of -0.8
    with pytest.raises(NotPositiveDefinite):
        assemble_covariance(np.ones(3), np.array([0.9, 0.9, -0.9]))


def _vehicle(*raws):
    """to_vehicle_frame over a stack of raw estimates."""
    rotation = quat_to_matrix(np.array([raw.rotation_error for raw in raws]))
    fields = (np.array([getattr(raw, f) for raw in raws]) for f in ("translation_error", "sigma", "corr"))
    return to_vehicle_frame(rotation, *fields)


def test_to_vehicle_frame_identity_rotation():
    errors, covs, failed = _vehicle(_raw(t=(1.0, -2.0, 3.0), sigma=(0.5, 0.6, 0.7)))
    assert np.allclose(errors[0], [-1.0, 2.0, -3.0])
    assert np.allclose(covs[0], np.diag([0.25, 0.36, 0.49]))
    assert failed == {}


def test_to_vehicle_frame_yaw_quarter_turn():
    yaw90 = quat_from_euler_zyx(math.pi / 2, 0.0, 0.0)
    errors, covs, _ = _vehicle(_raw(t=(1.0, 0.0, 0.0), q=yaw90, sigma=(1.0, 2.0, 3.0)))
    assert np.allclose(errors[0], [0.0, 1.0, 0.0], atol=1e-12)
    # axis-aligned variances swap under the quarter turn
    assert np.allclose(np.diagonal(covs[0]), [4.0, 1.0, 9.0], atol=1e-12)


def test_to_vehicle_frame_preserves_eigenvalues():
    rng = np.random.default_rng(0)
    raws = []
    for _ in range(20):
        q = rng.normal(size=4)
        raws.append(
            _raw(
                t=rng.normal(size=3),
                q=q / np.linalg.norm(q),
                sigma=rng.uniform(0.2, 2.0, 3),
                corr=rng.uniform(-0.4, 0.4, 3),
            )
        )
    _, covs, failed = _vehicle(*raws)
    assert failed == {}
    for raw, cov in zip(raws, covs):
        before = np.sort(np.linalg.eigvalsh(assemble_covariance(raw.sigma, raw.corr)))
        after = np.sort(np.linalg.eigvalsh(cov))
        assert np.allclose(before, after, atol=1e-10)


def test_to_vehicle_frame_reports_indefinite_rows():
    good = _raw(t=(1.0, 0.0, 0.0), sigma=(0.5, 0.5, 0.5))
    bad = _raw(corr=(0.9, 0.9, -0.9))
    errors, _, failed = _vehicle(good, bad, good)
    assert list(failed) == [1]
    assert isinstance(failed[1], NotPositiveDefinite)
    assert "give an indefinite covariance" in str(failed[1])
    assert np.array_equal(errors[0], errors[2])


# ---------------------------------------------------------------------------
# losses


def test_huber_reference_values():
    assert huber_loss(np.array([0.5])) == 0.125
    assert huber_loss(np.array([3.0])) == 2.5
    assert huber_loss(np.array([0.5, 3.0])) == 2.625
    # both branches agree at the threshold
    assert math.isclose(huber_loss(np.array([1.0])), 0.5, abs_tol=1e-15)
    assert huber_loss(np.array([-3.0])) == 2.5
    with pytest.raises(ValueError):
        huber_loss(np.array([1.0]), delta=0.0)


def test_gaussian_nll_reference_values():
    assert gaussian_nll(np.array([1.0, 0.0, 0.0]), np.eye(3)) == 0.5
    got = gaussian_nll(np.zeros(3), 4.0 * np.eye(3))
    assert math.isclose(got, 3.0 * math.log(2.0), rel_tol=1e-14)
    with pytest.raises(NotPositiveDefinite):
        gaussian_nll(np.zeros(3), -np.eye(3))


def test_gaussian_nll_matches_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        e = rng.normal(size=3)
        want = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * e @ np.linalg.inv(cov) @ e
        assert math.isclose(gaussian_nll(e, cov), want, rel_tol=1e-10)


def _noiseless(seed=0):
    return SyntheticEstimator(
        SyntheticEstimatorConfig(seed=seed, sigma_noise=(0.0, 0.0, 0.0), sigma_rot=0.0)
    )


def _random_pose(rng):
    q = rng.normal(size=4)
    return Pose(rng.normal(size=3), q / np.linalg.norm(q))


def test_synthetic_noiseless_reports_offset_exactly():
    # for a candidate displaced from the truth by a known offset, the raw
    # output is minus the offset translation and the offset rotation
    rng = np.random.default_rng(2)
    truth = _random_pose(rng)
    rot = rng.normal(size=4) * 0.3 + [1, 0, 0, 0]
    offset_t, offset_q = rng.normal(size=3), quat_normalize(rot / np.linalg.norm(rot))
    candidate = Pose(*apply_offset(truth.position, truth.orientation, offset_t, offset_q))
    ctx = MeasurementContext(timestamp=1.5, payload_key="k", true_pose=truth)
    raw = _noiseless().estimate(ctx, candidate)
    assert np.allclose(raw.translation_error, -offset_t, atol=1e-10)
    assert np.allclose(raw.rotation_error, offset_q, atol=1e-10)


def test_synthetic_noiseless_vehicle_error_chain():
    # the vehicle-frame error of the noiseless estimate at the true pose is
    # zero, and at a displaced candidate it equals the candidate's true error
    rng = np.random.default_rng(3)
    truth = _random_pose(rng)
    ctx = MeasurementContext(timestamp=0.25, payload_key="k", true_pose=truth)
    raw = _noiseless().estimate(ctx, truth)
    errors, _, _ = _vehicle(raw)
    assert np.allclose(errors[0], np.zeros(3), atol=1e-10)

    offset_q = quat_from_euler_zyx(0.1, -0.05, 0.2)
    candidate = Pose(*apply_offset(truth.position, truth.orientation, rng.normal(size=3), offset_q))
    raw = _noiseless().estimate(ctx, candidate)
    errors, _, _ = _vehicle(raw)
    # the raw output is the candidate's displacement in the candidate frame
    r_cand = quat_to_matrix(candidate.orientation)
    center = lambda pose: -quat_to_matrix(pose.orientation).T @ pose.position
    expect_raw = r_cand @ (center(candidate) - center(truth))
    assert np.allclose(raw.translation_error, expect_raw, atol=1e-10)
    # rotated back out, it is exactly the candidate's true vehicle-frame error
    assert np.allclose(errors[0], vehicle_frame_error(truth, candidate), atol=1e-10)


def test_synthetic_requires_true_pose():
    ctx = MeasurementContext(timestamp=0.0, payload_key="k")
    with pytest.raises(InfeasibleContext):
        SyntheticEstimator().estimate(ctx, Pose.identity())


def test_synthetic_deterministic_per_context():
    rng = np.random.default_rng(4)
    truth = _random_pose(rng)
    candidate = _random_pose(rng)
    ctx = MeasurementContext(timestamp=3.0, payload_key="k", true_pose=truth, candidate_index=5)
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=9))
    a = est.estimate(ctx, candidate)
    b = SyntheticEstimator(SyntheticEstimatorConfig(seed=9)).estimate(ctx, candidate)
    assert np.array_equal(a.translation_error, b.translation_error)
    assert np.array_equal(a.rotation_error, b.rotation_error)
    # a different candidate index draws different noise
    c = est.estimate(ctx.for_candidate(6), candidate)
    assert not np.array_equal(a.translation_error, c.translation_error)


@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1, 2**64 + 5])
def test_noise_is_keyed_on_the_seed_and_the_timestamp_bits(seed):
    # negative timestamps and -0.0 have bits of 2**63 or more, and a seed of
    # 2**64 or more is folded in 64-bit pieces
    stamps = [0.0, -0.0, 1.5, -2.25, -1e300, 3.0]
    noise = SyntheticEstimator(SyntheticEstimatorConfig(seed=seed))._noise(
        [MeasurementContext(timestamp=s, payload_key="k") for s in stamps], np.arange(6)
    )
    keys = [oracles.stream_key([seed, int(np.float64(s).view(np.uint64))]) for s in stamps]
    assert noise.tobytes() == stream_normals(np.array(keys, dtype=np.uint64), np.arange(6)).tobytes()


def test_synthetic_without_index_answers_as_candidate_0():
    rng = np.random.default_rng(5)
    truth = _random_pose(rng)
    ctx = MeasurementContext(timestamp=1.0, payload_key="k", true_pose=truth)
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=1, sigma_rot=0.02))
    for cand in (_random_pose(rng), _random_pose(rng)):
        a, b = est.estimate(ctx, cand), est.estimate(ctx.for_candidate(0), cand)
        assert all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in RECORD_FIELDS)


def _candidates(rng, truth, n):
    """The positions and unit orientations of ``n`` candidates around
    ``truth``, as the pipeline hands them to ``estimate_batch``."""
    translations = rng.normal(0.0, 0.5, (n, 3))
    rotations = quat_from_euler_zyx(*rng.uniform(-0.1, 0.1, (3, n)))
    positions, orientations = apply_offset(truth.position, truth.orientation, translations, rotations)
    return positions, quat_normalize(orientations)


def test_estimate_batch_rows_match_single_calls():
    rng = np.random.default_rng(8)
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=4, sigma_rot=0.02, corr=(0.2, -0.1, 0.3)))
    for timestamp in (0.0, 0.1, 17.3):
        truth = _random_pose(rng)
        ctx = MeasurementContext(timestamp=timestamp, payload_key="k", true_pose=truth)
        positions, orientations = _candidates(rng, truth, 30)
        batch = [field[0] for field in est.estimate_batch([ctx], positions[None], orientations[None])]
        for i in range(len(positions)):
            single = est.estimate(ctx.for_candidate(i), Pose.checked(positions[i], orientations[i]))
            for name, field in zip(RECORD_FIELDS, batch):
                assert np.array_equal(getattr(single, name), field[i]), (timestamp, i, name)


def test_estimate_batch_over_many_contexts_matches_one_context_at_a_time():
    rng = np.random.default_rng(10)
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=6, sigma_rot=0.02, corr=(0.1, 0.2, -0.3)))
    ctxs, positions, orientations = [], [], []
    for timestamp in (0.0, 3.0, 3.5, 11.25):
        truth = _random_pose(rng)
        ctxs.append(MeasurementContext(timestamp=timestamp, payload_key="k", true_pose=truth))
        p, q = _candidates(rng, truth, 24)
        positions.append(p)
        orientations.append(q)
    whole = est.estimate_batch(ctxs, np.array(positions), np.array(orientations))
    assert [a.shape for a in whole] == [(4, 24, 3), (4, 24, 4), (4, 24, 3), (4, 24, 3)]
    for t, ctx in enumerate(ctxs):
        one = est.estimate_batch([ctx], positions[t][None], orientations[t][None])
        assert all(a[t].tobytes() == b[0].tobytes() for a, b in zip(whole, one))
    with pytest.raises(InfeasibleContext):
        no_truth = MeasurementContext(timestamp=2.5, payload_key="k")
        est.estimate_batch([*ctxs, no_truth], np.zeros((5, 2, 3)), np.tile(IDENTITY_Q, (5, 2, 1)))


def test_estimate_batch_rows_do_not_depend_on_batch_size():
    rng = np.random.default_rng(9)
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=2, sigma_rot=0.02))
    truth = _random_pose(rng)
    ctx = MeasurementContext(timestamp=2.5, payload_key="k", true_pose=truth)
    positions, orientations = _candidates(rng, truth, 48)
    whole = est.estimate_batch([ctx], positions[None], orientations[None])
    for k in (1, 13, 47):
        part = est.estimate_batch([ctx], positions[None, :k], orientations[None, :k])
        for a, b in zip(whole, part):
            assert np.array_equal(a[:, :k], b)
    with pytest.raises(InfeasibleContext):
        est.estimate_batch([MeasurementContext(timestamp=2.5, payload_key="k")], positions[None], orientations[None])


def test_estimate_batch_checks_its_rows():
    ctx = MeasurementContext(timestamp=0.0, payload_key="k", true_pose=Pose.identity())
    positions, orientations = np.zeros((2, 3)), np.tile(IDENTITY_Q, (2, 1))
    # a config that would report such rows is rejected when it is built
    for bad in ({"corr": (np.nan, 0.0, 0.0)}, {"miscalibration": np.inf}):
        with pytest.raises(ValueError):
            SyntheticEstimatorConfig(**bad)
    for name, value in (("_corr", np.array([np.nan, 0.0, 0.0])), ("_sigma_report", np.full(3, np.inf))):
        est = SyntheticEstimator()
        setattr(est, name, value)
        with pytest.raises(ValueError):
            est.estimate_batch([ctx], positions[None], orientations[None])
        with pytest.raises(ValueError):
            est.estimate(ctx.for_candidate(0), Pose.identity())


def test_synthetic_reported_sigma_miscalibration():
    cfg = SyntheticEstimatorConfig(seed=0, sigma_noise=(0.2, 0.4, 0.0), miscalibration=0.5)
    est = SyntheticEstimator(cfg)
    ctx = MeasurementContext(timestamp=0.0, payload_key="k", true_pose=Pose.identity())
    raw = est.estimate(ctx, Pose.identity())
    assert np.allclose(raw.sigma, [0.1, 0.2, 1e-6])  # floored on the zero axis


def test_measurement_context_for_candidate_copies():
    ctx = MeasurementContext(timestamp=0.0, payload_key="k")
    child = ctx.for_candidate(3)
    assert child.candidate_index == 3
    assert ctx.candidate_index is None


def test_rotation_residual_samples_are_unit_and_deterministic():
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=0, sigma_rot=0.02))
    a = est.rotation_residual_samples(500, seed=7)
    b = est.rotation_residual_samples(500, seed=7)
    assert a.shape == (500, 4)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    c = est.rotation_residual_samples(500, seed=8)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("count, size", [(0, 3), (1, 1), (9, 3), (10, 3), (1000, 64), (1000, 1000), (7, 50)])
def test_rotation_residual_blocks_are_the_rows_of_one_draw(count, size):
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=0, sigma_rot=0.02))
    blocks = list(est.rotation_residual_blocks(count, 7, size))
    assert all(len(b) == size for b in blocks[:-1]) and all(0 < len(b) <= size for b in blocks)
    joined = np.concatenate([np.empty((0, 4)), *blocks])
    assert joined.tobytes() == est.rotation_residual_samples(count, 7).tobytes()
    # the draw the estimator made before it drew in blocks
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, 0x726F74])))
    assert joined.tobytes() == oracles.masked_rotvec_quats(rng.normal(0.0, 0.02, (count, 3))).tobytes()


# ---------------------------------------------------------------------------
# file-backed estimator


def test_file_estimator_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    rows = []
    for i in range(4):
        q = rng.normal(size=4)
        rows.append(
            (
                "t000001",
                i,
                RawEstimate(rng.normal(size=3), q / np.linalg.norm(q), rng.uniform(0.1, 1.0, 3), rng.uniform(-0.3, 0.3, 3)),
            )
        )
    path = tmp_path / "est.jsonl"
    write_estimate_records(rows, path)
    est = FileEstimator(path)
    assert len(est) == 4
    ctx = MeasurementContext(timestamp=1.0, payload_key="t000001", candidate_index=2)
    got = est.estimate(ctx, Pose.identity())
    assert np.array_equal(got.translation_error, rows[2][2].translation_error)
    assert np.array_equal(got.sigma, rows[2][2].sigma)
    with pytest.raises(MissingRecord):
        est.estimate(ctx.for_candidate(9), Pose.identity())
    with pytest.raises(InfeasibleContext):
        est.estimate(MeasurementContext(timestamp=1.0, payload_key="t000001"), Pose.identity())


def test_file_estimator_normalizes_each_rotation_once(tmp_path):
    rng = np.random.default_rng(12)
    q = rng.normal(size=(2000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    record = {"payload_key": "t000000", "translation_error": [0.0] * 3, "sigma": [1.0] * 3, "corr": [0.0] * 3}
    path = tmp_path / "est.jsonl"
    io.write_jsonl([{**record, "candidate_index": i, "rotation_error": row.tolist()} for i, row in enumerate(q)], path)
    once = np.array([quat_normalize(row) for row in q])
    assert (np.array([quat_normalize(row) for row in once]) != once).any()  # a second pass would show

    est = FileEstimator(path)
    ctx = MeasurementContext(timestamp=0.0, payload_key="t000000")
    _, batch, _, _, failed = est.estimate_batch([ctx], np.zeros((1, 2000, 3)), np.tile(IDENTITY_Q, (1, 2000, 1)))
    singles = np.array([est.estimate(ctx.for_candidate(i), Pose.identity()).rotation_error for i in range(2000)])
    assert failed == {}
    assert batch[0].tobytes() == singles.tobytes() == once.tobytes()


def test_file_estimator_names_line_of_malformed_record(tmp_path):
    path = tmp_path / "est.jsonl"
    write_estimate_records([("t000001", 0, _raw())], path)
    good = path.read_text()
    record = json.loads(good)
    del record["translation_error"]
    # blank lines are skipped, yet still counted in the reported line
    for bad, blank_lines in ((json.dumps(record), 1), ("[1, 2, 3]", 0), ('"text"', 2)):
        path.write_text(good + "\n" * blank_lines + bad + "\n")
        with pytest.raises(ValueError, match=f"est.jsonl:{2 + blank_lines}: malformed estimate record"):
            FileEstimator(path)


# ---------------------------------------------------------------------------
# the estimate table, cached


def _entries() -> list[Path]:
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "plbounds").glob("*"))


def _quaternion(rng, moving=False) -> np.ndarray:
    """A quaternion within 1e-6 of unit norm; with ``moving``, one whose
    normalized form a second ``quat_normalize`` moves by a last bit."""
    while True:
        q = rng.normal(size=4)
        q *= (1.0 + 1e-6) / np.linalg.norm(q)
        if not moving or quat_normalize(quat_normalize(q)).tobytes() != quat_normalize(q).tobytes():
            return q


def _table(path, rng=None):
    """A table with a duplicate record, two missing candidates and a rotation
    whose normalizing twice would move a bit; returns its path."""
    rng = np.random.default_rng(31) if rng is None else rng
    records = []
    for key in ("t000000", "t000001", "t000002"):
        for i in range(6):
            if (key, i) in (("t000001", 2), ("t000002", 5)):
                continue  # no record: MissingRecord
            q = _quaternion(rng, moving=(key, i) == ("t000000", 3))
            records.append({
                "payload_key": key, "candidate_index": i, "translation_error": rng.normal(size=3).tolist(),
                "rotation_error": q.tolist(), "sigma": rng.uniform(0.1, 1.0, 3).tolist(),
                "corr": rng.uniform(-0.3, 0.3, 3).tolist(),
            })
    records.append(dict(records[4], translation_error=[9.0, 9.0, 9.0]))  # a later record replaces an earlier one
    io.write_jsonl(records, path)
    return path


def _answers(est, keys=("t000000", "t000001", "t000002", "t000009"), n=7):
    ctxs = [MeasurementContext(timestamp=0.0, payload_key=key) for key in keys]
    *fields, failed = est.estimate_batch(ctxs, np.zeros((len(ctxs), n, 3)), np.tile(IDENTITY_Q, (len(ctxs), n, 1)))
    return [f.tobytes() for f in fields], {k: str(e) for k, e in failed.items()}


def _same_table(a, b) -> None:
    assert [f.tobytes() for f in a._fields] == [f.tobytes() for f in b._fields]
    assert a._rows == b._rows and len(a) == len(b)
    assert _answers(a) == _answers(b)


def test_a_cached_table_has_the_bits_of_its_derivation(tmp_path):
    path = _table(tmp_path / "est.jsonl")
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    cold = FileEstimator(path)
    assert cold.file_record == {"sha256": sha, "hashed": "read", "records": 17, "cache": "miss"}
    assert len(cold) == 16 and cold._rows["t000000"][4] == 16
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(tmp_path / "other_cache")}):
        _same_table(FileEstimator(path), cold)  # derived again
    for _ in range(2):
        warm = FileEstimator(path)
        assert warm.file_record == dict(cold.file_record, cache="hit")
        _same_table(warm, cold)
        once = cold._fields[1][3]
        assert warm._fields[1][3].tobytes() == once.tobytes() != quat_normalize(once).tobytes()
    entry, = _entries()
    assert entry.name.startswith("table-") and entry.suffix == ".entry"
    doc, arrays = oracles.read_entry(entry)
    assert (doc["key"], list(doc["values"]), list(arrays)) == (sha, ["rows"], list(RECORD_FIELDS))
    assert [a.tobytes() for a in arrays.values()] == [f.tobytes() for f in cold._fields]


def _rewrite(entry: Path, doc=lambda doc: doc, **changes) -> None:
    """Write ``entry`` again with ``doc`` applied to its header and each
    change to the array it names."""
    header, arrays = oracles.read_entry(entry)
    for name, change in changes.items():
        arrays[name] = change(arrays[name])
    oracles.write_entry(entry, doc(header), arrays)


def _set(index, value):
    def change(a):
        a = a.copy()
        a[index] = value
        return a

    return change


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entry: entry.write_bytes(entry.read_bytes()[: len(entry.read_bytes()) // 2]),
        lambda entry: entry.write_bytes(b"not an npz"),
        lambda entry: _rewrite(entry, translation_error=lambda a: a[:, :2]),
        lambda entry: _rewrite(entry, sigma=lambda a: a[1:]),
        lambda entry: _rewrite(entry, translation_error=_set((0, 1), np.nan)),
        lambda entry: _rewrite(entry, corr=_set((2, 0), np.inf)),
        lambda entry: _rewrite(entry, sigma=_set((0, 2), 0.0)),
        lambda entry: _rewrite(entry, sigma=_set((5, 0), -0.5)),
        lambda entry: _rewrite(entry, rotation_error=lambda a: np.concatenate([a[:1] * (1.0 + 1e-9), a[1:]])),
        lambda entry: _rewrite(entry, translation_error=_set((-1, 0), 1.0)),
        lambda entry: _rewrite(entry, corr=lambda a: a.astype(np.float32)),
        lambda entry: _rewrite(entry, doc=lambda doc: dict(doc, key="0" * 64)),
        lambda entry: _rewrite(entry, doc=lambda doc: dict(doc, values={})),
    ],
    ids=[
        "truncated", "not_npz", "wrong_shape", "short_stack", "not_finite", "corr_not_finite", "sigma_zero",
        "sigma_negative", "not_unit", "neutral_row", "float32", "other_file", "no_rows",
    ],
)
def test_a_corrupt_table_entry_is_a_miss_and_is_replaced(tmp_path, corrupt):
    path = _table(tmp_path / "est.jsonl")
    cold = FileEstimator(path)
    entry, = _entries()
    corrupt(entry)
    again = FileEstimator(path)
    assert again.file_record["cache"] == "miss"
    _same_table(again, cold)
    assert _entries() == [entry]
    warm = FileEstimator(path)
    assert warm.file_record["cache"] == "hit"
    _same_table(warm, cold)


def test_a_malformed_table_leaves_no_entry(tmp_path):
    path = _table(tmp_path / "est.jsonl")
    lines = path.read_text().splitlines()
    lines[4] = lines[4].replace('"sigma": [', '"sigma": [-')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"est\.jsonl:5: malformed estimate record"):
        FileEstimator(path)
    assert _entries() == []


_unit_quats = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda v: np.linalg.norm(v) > 0.1)
_finite = st.floats(-1e6, 1e6, allow_nan=False)
_record = st.fixed_dictionaries({
    "payload_key": st.text(max_size=3),
    "candidate_index": st.integers(-2, 5) | st.integers(),
    "translation_error": st.lists(_finite, min_size=3, max_size=3),
    "rotation_error": _unit_quats,
    "sigma": st.lists(st.floats(1e-6, 1e3), min_size=3, max_size=3),
    "corr": st.lists(st.floats(-0.99, 0.99), min_size=3, max_size=3),
})


@settings(max_examples=40, deadline=None)
@given(st.lists(_record, max_size=12))
def test_a_table_from_the_cache_is_the_table_derived(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "est.jsonl"
        for record in records:
            record["rotation_error"] = (record["rotation_error"] / np.linalg.norm(record["rotation_error"])).tolist()
        io.write_jsonl(records, path)
        with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(Path(tmp) / "cache")}):
            miss, hit = FileEstimator(path), FileEstimator(path)
        assert (miss.file_record["cache"], hit.file_record["cache"]) == ("miss", "hit")
        assert miss.file_record["records"] == len(records)
        _same_table(hit, miss)
        keys = sorted({r["payload_key"] for r in records}) + ["absent"]
        assert _answers(hit, keys, n=6) == _answers(miss, keys, n=6)
