import math
import os
import re
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

from plbounds.errors import InfeasibleContext, MissingRecord, NotPositiveDefinite, TimestepFailure
from plbounds.estimator import (
    RECORD_FIELDS,
    FileEstimator,
    MeasurementContext,
    RawEstimate,
    SyntheticEstimator,
    SyntheticEstimatorConfig,
    answers,
    write_estimate_records,
)
from plbounds.geometry import Pose, quat_normalize
from plbounds.gmm import ProtectionLevelQuery
from plbounds.metrics import AlarmLimits
from plbounds import io, pipeline
from plbounds.pipeline import (
    BLOCK_TIMESTEPS,
    VARIANTS,
    PipelineConfig,
    default_rotation_uncertainty,
    run_block,
    run_sequence,
    run_timestep,
)
from plbounds.sampling import SamplingConfig, apply_offset, sample_candidates
from plbounds.scenario import ScenarioConfig, generate_scenario, vehicle_frame_error
from plbounds.uncertainty import RotationUncertainty, precompute_q

import oracles

Z_995 = 2.5758293035489

SCENARIO_CONFIG = ScenarioConfig(
    n_timesteps=8,
    blocks_x=1,
    blocks_y=1,
    wall_density=0.2,
    ground_density=0.05,
    estimate_offset_translation=0.5,
    estimate_offset_rotation=math.radians(3.0),
)

FAST_SAMPLING = SamplingConfig(n_candidates=8)


@dataclass
class FixedEstimator:
    """Always reports the same raw estimate; useful for solver checks."""

    raw: RawEstimate

    def estimate(self, ctx, candidate, cloud=None):
        return self.raw


@dataclass
class FlakyEstimator:
    """Raises for candidate indices in ``bad``; otherwise delegates."""

    inner: SyntheticEstimator
    bad: frozenset

    def estimate(self, ctx, candidate, cloud=None):
        if ctx.candidate_index in self.bad:
            raise InfeasibleContext(f"candidate {ctx.candidate_index} rejected for testing")
        return self.inner.estimate(ctx, candidate, cloud)


@dataclass
class OneAtATime:
    """Delegates ``estimate`` only, so the pipeline calls it per candidate."""

    inner: SyntheticEstimator

    def estimate(self, ctx, candidate, cloud=None):
        return self.inner.estimate(ctx, candidate, cloud)


def _offsets(config, seed):
    """The (N, 3) translations and (N, 4) rotations of one timestep's seed."""
    return tuple(a[0] for a in sample_candidates(config, [seed]))


def _scenario(seed=0, config=SCENARIO_CONFIG):
    return generate_scenario(config, seed)


def _noiseless():
    return SyntheticEstimator(
        SyntheticEstimatorConfig(sigma_noise=(0.0, 0.0, 0.0), sigma_rot=0.0)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(variant="VAR_X")
    with pytest.raises(ValueError):
        PipelineConfig(threads=0)
    with pytest.raises(ValueError):
        PipelineConfig(min_candidates=1)
    assert PipelineConfig().variant in VARIANTS


def test_min_candidates_beyond_the_sampled_candidates_is_rejected():
    # no sampled timestep could keep 30 of 24 candidates; VAR ignores the
    # minimum, and a variant swapped in later is checked again
    with pytest.raises(ValueError, match=re.escape("min_candidates (30) exceeds sampling.n_candidates (24)")):
        PipelineConfig(min_candidates=30)
    PipelineConfig(min_candidates=24)
    PipelineConfig(min_candidates=30, sampling=SamplingConfig(n_candidates=30))
    lone = PipelineConfig(min_candidates=30, variant="VAR")
    with pytest.raises(ValueError, match="no VAR_E timestep could be bounded"):
        replace(lone, variant="VAR_E")


def test_a_timestep_short_of_candidates_without_exclusions_names_none():
    # offsets for fewer candidates than the minimum, none of them excluded:
    # the message ends at the minimum, with no empty exclusion list
    ts = _scenario(seed=1).timesteps[0]
    ctx = MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose)
    offsets = tuple(a[:3] for a in _offsets(FAST_SAMPLING, [1, 2, ts.index]))
    config = PipelineConfig(sampling=FAST_SAMPLING, min_candidates=4)
    with pytest.raises(TimestepFailure) as failure:
        run_timestep(_noiseless(), ctx, ts.estimate_pose, None, offsets, RotationUncertainty.zero(), config)
    assert str(failure.value) == f"3 usable candidates at t={ts.timestamp} (minimum 4)"


def test_var_single_gaussian_hits_normal_quantile():
    # a fixed zero-mean unit-sigma estimate makes each axis a standard
    # normal, so the bound at 1% risk is the 0.995 quantile
    estimator = FixedEstimator(
        RawEstimate(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]), np.ones(3), np.zeros(3))
    )
    sc = _scenario()
    ts = sc.timesteps[0]
    ctx = MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose)
    config = PipelineConfig(variant="VAR", query=ProtectionLevelQuery(integrity_risk=0.01))
    result = run_timestep(
        estimator, ctx, ts.estimate_pose, None, [], RotationUncertainty.zero(), config
    )
    assert result.kept.tolist() == [1] and result.excluded.tolist() == [0] and result.exclusions == ()
    for value in result.pl[0]:
        assert abs(value - Z_995) <= 1e-3


def test_noiseless_mixture_collapses_to_true_error():
    # with an exact estimator every candidate, after removing its known
    # offset, reports the same state-estimate error, so the protection
    # level sits at the error magnitude for any variant
    sc = _scenario(seed=3)
    estimator = _noiseless()
    for variant in ("VAR_E", "VAR_EO"):
        config = PipelineConfig(variant=variant, sampling=FAST_SAMPLING, seed=3)
        out = run_sequence(estimator, sc, config)
        for pl, ts in zip(out.pl, sc.timesteps, strict=True):
            err = np.abs(vehicle_frame_error(ts.true_pose, ts.estimate_pose))
            assert np.allclose(pl, err, rtol=0.0, atol=5e-4)


def test_equal_means_make_weighting_irrelevant():
    sc = _scenario(seed=3)
    estimator = _noiseless()
    uniform = run_sequence(estimator, sc, PipelineConfig(variant="VAR_E", sampling=FAST_SAMPLING, seed=3))
    weighted = run_sequence(estimator, sc, PipelineConfig(variant="VAR_EO", sampling=FAST_SAMPLING, seed=3))
    assert np.allclose(uniform.pl, weighted.pl, rtol=0.0, atol=1e-9)


def test_rotation_uncertainty_never_shrinks_the_bound():
    sc = _scenario(seed=5)
    ts = sc.timesteps[2]
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(sigma_rot=0.05))
    ctx = MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose)
    offsets = _offsets(FAST_SAMPLING, [5, 2, ts.index])
    config = PipelineConfig(variant="VAR_EO", sampling=FAST_SAMPLING, seed=5)
    tensor = precompute_q(estimator.rotation_residual_samples(5000, 5))
    with_q = run_timestep(estimator, ctx, ts.estimate_pose, None, offsets, tensor, config)
    without = run_timestep(
        estimator, ctx, ts.estimate_pose, None, offsets, RotationUncertainty.zero(), config
    )
    assert np.all(with_q.pl >= without.pl - 3e-4)


def test_candidate_exclusion_and_failure():
    sc = _scenario(seed=1)
    ts = sc.timesteps[0]
    ctx = MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose)
    offsets = _offsets(FAST_SAMPLING, [1, 2, ts.index])
    config = PipelineConfig(variant="VAR_EO", sampling=FAST_SAMPLING, seed=1)

    flaky = FlakyEstimator(_noiseless(), frozenset({0, 3}))
    result = run_timestep(
        flaky, ctx, ts.estimate_pose, None, offsets, RotationUncertainty.zero(), config
    )
    assert result.n_candidates == len(offsets[0]) - 2
    assert result.kept.tolist() == [len(offsets[0]) - 2] and result.excluded.tolist() == [2]
    assert result.exclusions == tuple((0, i, f"candidate {i} rejected for testing") for i in (0, 3))

    broken = FlakyEstimator(_noiseless(), frozenset(range(len(offsets[0]))))
    with pytest.raises(TimestepFailure):
        run_timestep(
            broken, ctx, ts.estimate_pose, None, offsets, RotationUncertainty.zero(), config
        )


BATCH_SAMPLING = SamplingConfig(n_candidates=24)


def _timesteps(seed, with_truth=True):
    """(context, estimate pose, candidate offsets) of every timestep of a scenario."""
    for ts in _scenario(seed=seed).timesteps:
        ctx = MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose if with_truth else None)
        yield ctx, ts.estimate_pose, _offsets(BATCH_SAMPLING, [seed, 2, ts.index])


def test_batched_and_per_candidate_estimates_give_the_same_result():
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=5, sigma_rot=0.02, corr=(0.3, 0.1, -0.2)))
    rotation = precompute_q(est.rotation_residual_samples(2000, 5))
    for variant in ("VAR_E", "VAR_EO", "VAR_EO_DIRECTIONAL"):
        config = PipelineConfig(variant=variant, sampling=BATCH_SAMPLING, seed=5)
        for ctx, pose, offsets in _timesteps(5):
            a, b = (run_timestep(e, ctx, pose, None, offsets, rotation, config) for e in (est, OneAtATime(est)))
            _same_result(a, b)


def test_failing_batch_excludes_every_candidate_like_the_loop():
    # without the true pose every synthetic call raises InfeasibleContext
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=6))
    config = PipelineConfig(variant="VAR_EO", sampling=BATCH_SAMPLING, seed=6)
    for ctx, pose, offsets in _timesteps(6, with_truth=False):
        messages = []
        for e in (est, OneAtATime(est)):
            with pytest.raises(TimestepFailure) as failure:
                run_timestep(e, ctx, pose, None, offsets, RotationUncertainty.zero(), config)
            messages.append(str(failure.value))
        assert messages[0] == messages[1]
        assert messages[0].count("excluded: synthetic estimator needs the true pose") == 24


def _unit_candidates(pose, translations, rotations):
    """The positions and unit orientations of a timestep's candidates, as
    ``run_block`` hands them to ``estimate_batch``."""
    positions, orientations = apply_offset(pose.position, pose.orientation, translations, rotations)
    return positions, quat_normalize(orientations)


def _recorded_table(path, seed=8):
    """Write what a synthetic estimator with correlations answers for every
    candidate of ``_timesteps(seed)``, less candidates 5 and 17 of timestep
    3, and with an indefinite correlation for candidate 2 of timestep 5."""
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=seed, sigma_rot=0.02, corr=(0.3, 0.1, -0.2)))
    records = []
    for step, (ctx, pose, (translations, rotations)) in enumerate(_timesteps(seed)):
        positions, orientations = _unit_candidates(pose, translations, rotations)
        answers = est.estimate_batch([ctx], positions[None], orientations[None])
        for i, raw in enumerate(zip(*(a[0] for a in answers))):
            if step == 3 and i in (5, 17):
                continue
            if step == 5 and i == 2:
                raw = (*raw[:3], np.array([0.9, -0.9, 0.9]))
            records.append((ctx.payload_key, i, RawEstimate(*raw)))
    write_estimate_records(records, path)
    return FileEstimator(path), precompute_q(est.rotation_residual_samples(2000, seed))


COLUMNS = ("pl", "kept", "excluded", "direction_theta", "direction_excluded")


def _row(result, t):
    """Timestep ``t`` of a block or sequence result: the bytes of its row of
    every column, and its (candidate, reason) exclusions."""
    columns = tuple(getattr(result, name)[t].tobytes() for name in COLUMNS)
    return columns, [(i, reason) for step, i, reason in result.exclusions if step == t]


def _samples(result, t):
    """The bytes of timestep ``t``'s mixture means, variances and weights in a block result."""
    for group, *stacks in result.samples:
        if t in group:
            k = int(np.flatnonzero(group == t)[0])
            return tuple(stack[k].tobytes() for stack in stacks)
    raise AssertionError(f"timestep {t} is in no sample group")


def _same_result(a, b, t=0, u=0):
    """Timestep ``t`` of block result ``a`` is timestep ``u`` of ``b``, bit for bit, samples too."""
    assert _row(a, t) == _row(b, u)
    assert _samples(a, t) == _samples(b, u)


def _same_sequence(a, b):
    """Two sequence results agree bit for bit in every column and output."""
    for name in ("timestamps", "indices", "error", *COLUMNS):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.exclusions == b.exclusions
    assert a.result_rows().tobytes() == b.result_rows().tobytes()
    assert (a.report.to_dict(), a.diagram.to_dict()) == (b.report.to_dict(), b.diagram.to_dict())


def test_file_estimator_batch_rows_are_its_single_answers(tmp_path):
    est, _ = _recorded_table(tmp_path / "est.jsonl")
    missing = 0
    for ctx, pose, (translations, rotations) in _timesteps(8):
        positions, orientations = _unit_candidates(pose, translations, rotations)
        *stacks, failed = est.estimate_batch([ctx], positions[None], orientations[None])
        stacks = [stack[0] for stack in stacks]
        for i in range(len(positions)):
            single = ctx.for_candidate(i)
            if (0, i) in failed:
                with pytest.raises(MissingRecord, match=re.escape(str(failed[0, i]))):
                    est.estimate(single, Pose(positions[i], orientations[i]))
                missing += 1
                continue
            raw = est.estimate(single, Pose(positions[i], orientations[i]))
            for stack, name in zip(stacks, RECORD_FIELDS):
                assert stack[i].tobytes() == getattr(raw, name).tobytes()
    assert missing == 2


def test_file_estimator_batch_over_many_contexts(tmp_path):
    est, _ = _recorded_table(tmp_path / "est.jsonl")
    timesteps = list(_timesteps(8))
    stacks = [_unit_candidates(pose, *offsets) for _, pose, offsets in timesteps]
    ctxs = [ctx for ctx, _, _ in timesteps]
    *fields, failed = est.estimate_batch(ctxs, *(np.array(a) for a in zip(*stacks)))
    assert sorted(failed) == [(3, 5), (3, 17)]
    for t, (ctx, (positions, orientations)) in enumerate(zip(ctxs, stacks)):
        *one, one_failed = est.estimate_batch([ctx], positions[None], orientations[None])
        assert all(a[t].tobytes() == b[0].tobytes() for a, b in zip(fields, one))
        mine = {i: str(e) for (s, i), e in failed.items() if s == t}
        assert {i: str(e) for (_, i), e in one_failed.items()} == mine


def test_asked_one_candidate_at_a_time_an_estimator_gives_its_batch_answers(tmp_path):
    table, _ = _recorded_table(tmp_path / "est.jsonl")
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=8, sigma_rot=0.02, corr=(0.3, 0.1, -0.2)))
    timesteps = list(_timesteps(8))
    ctxs = [ctx for ctx, _, _ in timesteps]
    positions, orientations = (np.array(a) for a in zip(*(_unit_candidates(p, *o) for _, p, o in timesteps)))
    for est in (synthetic, table):
        *want, want_failed = (*est.estimate_batch(ctxs, positions, orientations), {})[:5]
        got, got_failed = answers(OneAtATime(est), ctxs, positions, orientations, None)
        assert [a.tobytes() for a in got] == [np.asarray(a).tobytes() for a in want]
        assert {k: (type(e), str(e)) for k, e in got_failed.items()} == {
            k: (type(e), str(e)) for k, e in want_failed.items()
        }
    assert sorted(got_failed) == [(3, 5), (3, 17)]  # the table's missing records


def test_file_estimator_batch_gives_the_loop_result(tmp_path):
    est, rotation = _recorded_table(tmp_path / "est.jsonl")
    excluded = []
    for variant in ("VAR_E", "VAR_EO", "VAR_EO_DIRECTIONAL"):
        config = PipelineConfig(variant=variant, sampling=BATCH_SAMPLING, seed=8)
        for ctx, pose, offsets in _timesteps(8):
            a, b = (run_timestep(e, ctx, pose, None, offsets, rotation, config) for e in (est, OneAtATime(est)))
            _same_result(a, b)
            excluded.extend(a.exclusions)
    assert len(excluded) == 3 * 3  # two missing records and one indefinite covariance, per variant
    assert (0, 5, "no estimate recorded for ('t000003', 5)") in excluded


def test_file_estimator_matches_stored_records(tmp_path):
    path = tmp_path / "est.jsonl"
    est, rotation = _recorded_table(path)
    stored = oracles.StoredRecords(path)
    scenario = _scenario(seed=8)
    for variant in VARIANTS:
        config = PipelineConfig(variant=variant, sampling=BATCH_SAMPLING, seed=8)
        a, b = (run_sequence(e, scenario, config, rotation) for e in (est, stored))
        _same_sequence(a, b)
        (_, x), (_, y) = (next(_blocks(e, scenario, config, rotation, len(scenario.timesteps))) for e in (est, stored))
        for t in range(len(scenario.timesteps)):  # the samples too
            _same_result(x, y, t, t)


def test_directional_variant_shares_horizontal_bound():
    sc = _scenario(seed=7)
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=7))
    config = PipelineConfig(variant="VAR_EO_DIRECTIONAL", sampling=FAST_SAMPLING, seed=7)
    out = run_sequence(estimator, sc, config)
    assert np.array_equal(out.pl[:, 0], out.pl[:, 1])
    assert np.isfinite(out.direction_theta).all()
    assert set(out.direction_excluded.tolist()) <= {0, 1, 2}  # EXCLUDED_AXES: none, "x", "y"
    assert (out.pl[:, 2] > 0.0).all()


def test_non_directional_variants_leave_theta_unset():
    sc = _scenario(seed=2)
    estimator = SyntheticEstimator()
    for variant in ("VAR", "VAR_E", "VAR_EO"):
        config = PipelineConfig(variant=variant, sampling=FAST_SAMPLING, seed=2)
        out = run_sequence(estimator, sc, config)
        assert np.isnan(out.direction_theta).all() and not out.direction_excluded.any()


def test_thread_count_does_not_change_results():
    sc = _scenario(seed=11)
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=11, sigma_rot=0.02))
    rows = []
    for threads in (1, 4):
        config = PipelineConfig(variant="VAR_EO", sampling=FAST_SAMPLING, seed=11, threads=threads)
        rows.append(run_sequence(estimator, sc, config).result_rows().tobytes())
    assert rows[0] == rows[1]


def test_sequence_bookkeeping():
    sc = _scenario(seed=13)
    out = run_sequence(SyntheticEstimator(), sc, PipelineConfig(sampling=FAST_SAMPLING, seed=13))
    assert out.pl.shape == (len(sc.timesteps), 3)
    assert out.indices.tolist() == [ts.index for ts in sc.timesteps]
    assert out.timestamps.tolist() == [ts.timestamp for ts in sc.timesteps]
    assert out.report.n_records == len(sc.timesteps)
    assert out.diagram.n_records == len(sc.timesteps)
    rows = out.result_rows()
    assert rows.shape == (len(sc.timesteps), 7)
    assert rows[:, 1:4].tobytes() == out.pl.tobytes() and rows[:, 4:].tobytes() == out.error.tobytes()
    # the recorded error is the scenario's true estimate error
    for row, ts in zip(rows, sc.timesteps):
        err = vehicle_frame_error(ts.true_pose, ts.estimate_pose)
        assert np.array_equal(row[4:], tuple(err))


def test_sequence_rerun_is_deterministic():
    sc = _scenario(seed=17)
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=17))
    config = PipelineConfig(variant="VAR_EO", sampling=FAST_SAMPLING, seed=17)
    a = run_sequence(estimator, sc, config)
    b = run_sequence(estimator, sc, config)
    _same_sequence(a, b)


def test_empty_scenario_yields_empty_report():
    cfg = ScenarioConfig(n_timesteps=0, blocks_x=1, blocks_y=1, wall_density=0.2, ground=False)
    out = run_sequence(SyntheticEstimator(), _scenario(config=cfg), PipelineConfig())
    assert out.pl.shape == (0, 3) and out.result_rows().shape == (0, 7) and out.exclusions == ()
    assert out.report.n_records == 0
    assert out.diagram.n_records == 0


def test_tensor_memory_order_does_not_change_results():
    sc = _scenario(seed=22)
    # little translation noise lets the rotation inflation set the variances'
    # last bits; at seed 22 a tensor summed in another order moves one bound
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=22, sigma_noise=(0.01, 0.01, 0.01), sigma_rot=0.05))
    config = PipelineConfig(variant="VAR_EO", sampling=FAST_SAMPLING, seed=22)
    q = default_rotation_uncertainty(estimator, replace(config, q_samples=2000)).q
    tensors = [RotationUncertainty(order(q)) for order in (np.ascontiguousarray, np.asfortranarray)]
    c_order, f_order = (run_sequence(estimator, sc, config, tensor) for tensor in tensors)
    _same_sequence(c_order, f_order)
    (_, c_block), (_, f_block) = (next(_blocks(estimator, sc, config, tensor, len(sc.timesteps))) for tensor in tensors)
    for t in range(len(sc.timesteps)):  # the inflated variances too
        _same_result(c_block, f_block, t, t)


def test_default_rotation_uncertainty_branches(tmp_path, monkeypatch):
    config = PipelineConfig(q_samples=2000, seed=23)
    silent = SyntheticEstimator(SyntheticEstimatorConfig(sigma_rot=0.0))
    assert np.array_equal(default_rotation_uncertainty(silent, config).q, np.zeros((3, 3, 3, 3)))

    noisy = SyntheticEstimator(SyntheticEstimatorConfig(sigma_rot=0.03))
    want = precompute_q(noisy.rotation_residual_samples(2000, 23))
    for block in (pipeline.ROTATION_BLOCK, 1, 7, 500, 2000, 5000):  # drawn in blocks, with the bits of one draw
        monkeypatch.setattr(pipeline, "ROTATION_BLOCK", block)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cache_{block}"))  # derived, not read from the cache
        assert default_rotation_uncertainty(noisy, config).q.tobytes() == want.q.tobytes()

    raw = RawEstimate(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]), np.ones(3), np.zeros(3))
    path = tmp_path / "est.jsonl"
    write_estimate_records([("t000000", 0, raw)], path)
    assert np.array_equal(
        default_rotation_uncertainty(FileEstimator(path), config).q, np.zeros((3, 3, 3, 3))
    )


def test_the_default_tensor_is_derived_once_per_draw(tmp_path, monkeypatch):
    derived = []
    monkeypatch.setattr(pipeline, "precompute_q", lambda *a, **k: derived.append(a) or precompute_q(*a, **k))
    cache = Path(os.environ["XDG_CACHE_HOME"]) / "plbounds"
    config = PipelineConfig(q_samples=2000, seed=23)
    # a new sigma_rot, sample count or run seed misses; the estimator's own
    # seed and the thread count are not in the key
    draws = [(0.03, config), (0.03, config), (0.031, config), (0.03, replace(config, q_samples=2001)),
             (0.03, replace(config, seed=24)), (0.03, replace(config, threads=2))]
    for sigma_rot, cfg in draws:
        estimator = SyntheticEstimator(SyntheticEstimatorConfig(sigma_rot=sigma_rot, seed=5))
        want = precompute_q(estimator.rotation_residual_samples(cfg.q_samples, cfg.seed)).q
        assert default_rotation_uncertainty(estimator, cfg).q.tobytes() == want.tobytes()
    entries = {oracles.read_entry(e)[0]["key"]: e for e in cache.glob("default-rotation-*.entry")}
    assert len(derived) == len(entries) == 4 and "0.03 2000 23" in entries
    # a corrupt entry is a miss and is replaced; without a cache every call derives
    noisy = SyntheticEstimator(SyntheticEstimatorConfig(sigma_rot=0.03))
    want = precompute_q(noisy.rotation_residual_samples(2000, 23)).q
    entry = entries["0.03 2000 23"]
    stored = entry.read_bytes()
    doc, arrays = oracles.read_entry(entry)
    oracles.write_entry(entry, dict(doc, values={"samples": 2000.0}), arrays)
    assert default_rotation_uncertainty(noisy, config).q.tobytes() == want.tobytes()
    assert len(derived) == 5 and entry.read_bytes() == stored
    (tmp_path / "blocked").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "blocked"))
    assert default_rotation_uncertainty(noisy, config).q.tobytes() == want.tobytes()
    assert len(derived) == 6


def _traced_peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_rotation_tensor_memory_stays_near_its_rows(tmp_path, monkeypatch):
    # 100k samples: the (M, 9) rows of R - I take 7.2 MB.  Building the whole
    # (M, 3, 3) stack at once peaks at about 17.6 MB from the synthetic draw
    # and 21.5 MB with a rotation file read first.
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=3))
    config = PipelineConfig(seed=3)
    default = default_rotation_uncertainty(estimator, config)
    assert default.q.tobytes() == precompute_q(estimator.rotation_residual_samples(100_000, 3)).q.tobytes()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty_cache"))  # derived again, not read from the cache
    assert _traced_peak_mb(default_rotation_uncertainty, estimator, config) < 10.0
    path = tmp_path / "rotations.jsonl"
    io.write_quaternion_lines(estimator.rotation_residual_samples(100_000, 3), path)
    assert _traced_peak_mb(lambda: precompute_q(io.read_quaternion_lines(path))) < 13.5


# ---------------------------------------------------------------------------
# blocks of timesteps


def _one_at_a_time(estimator, scenario, config, rotation):
    """``run_sequence``'s results, bounded by ``run_timestep`` one timestep at a time."""
    results = []
    for ts in scenario.timesteps:
        ctx = MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose)
        offsets = None if config.variant == "VAR" else _offsets(config.sampling, [config.seed, 2, ts.index])
        results.append(run_timestep(estimator, ctx, ts.estimate_pose, None, offsets, rotation, config))
    return results


def _blocks(estimator, scenario, config, rotation, size):
    """``run_block`` over the consecutive ``size``-timestep chunks of a
    scenario, as ``run_sequence`` makes them: (first timestep, result) pairs."""
    for first in range(0, len(scenario.timesteps), size):
        block = scenario.timesteps[first : first + size]
        ctxs = [MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose) for ts in block]
        seeds = [[config.seed, 2, ts.index] for ts in block]
        offsets = None if config.variant == "VAR" else sample_candidates(config.sampling, seeds)
        poses = [ts.estimate_pose for ts in block]
        yield first, run_block(estimator, ctxs, poses, scenario.cloud, offsets, rotation, config)


def _timesteps_of(sequence, scenario):
    """A sequence result holds one row per scenario timestep, in order."""
    assert sequence.indices.tolist() == [ts.index for ts in scenario.timesteps]
    assert sequence.timestamps.tolist() == [ts.timestamp for ts in scenario.timesteps]
    assert len(sequence.pl) == len(scenario.timesteps)


def _matches_one_at_a_time(estimator, scenario, config, rotation, size):
    """``run_sequence`` in blocks of ``size``, and those blocks' samples, give
    every timestep what ``run_timestep`` gives it alone."""
    want = _one_at_a_time(estimator, scenario, config, rotation)
    got = run_sequence(estimator, scenario, config, rotation)
    _timesteps_of(got, scenario)
    for t, one in enumerate(want):
        assert _row(got, t) == _row(one, 0)
    for first, block in _blocks(estimator, scenario, config, rotation, size):
        for k in range(len(block.kept)):
            _same_result(block, want[first + k], k)


def _block_estimators(tmp_path):
    """(estimator, rotation uncertainty) pairs that reach every path of a
    block: the synthetic batch, the per-candidate loop, and a recorded
    table with missing candidates and an indefinite covariance."""
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=8, sigma_rot=0.02, corr=(0.3, 0.1, -0.2)))
    table, rotation = _recorded_table(tmp_path / "est.jsonl")
    return [(synthetic, rotation), (OneAtATime(synthetic), rotation), (table, rotation)]


@pytest.mark.parametrize("steps", [1, 3, 8])
def test_block_results_match_one_timestep_runs(tmp_path, steps):
    timesteps = list(_timesteps(8))[:steps]
    ctxs = [ctx for ctx, _, _ in timesteps]
    poses = [pose for _, pose, _ in timesteps]
    offsets = sample_candidates(BATCH_SAMPLING, [[8, 2, k] for k in range(steps)])
    for estimator, rotation in _block_estimators(tmp_path):
        for variant in VARIANTS:
            config = PipelineConfig(variant=variant, sampling=BATCH_SAMPLING, seed=8)
            block_offsets = None if variant == "VAR" else offsets
            block = run_block(estimator, ctxs, poses, None, block_offsets, rotation, config)
            assert len(block.kept) == steps
            for t, (ctx, pose, one_offsets) in enumerate(timesteps):
                _same_result(block, run_timestep(estimator, ctx, pose, None, one_offsets, rotation, config), t)


def test_sequence_results_do_not_depend_on_block_boundaries(tmp_path, monkeypatch):
    scenario = _scenario(seed=8)
    for estimator, rotation in _block_estimators(tmp_path):
        for variant in VARIANTS:
            config = PipelineConfig(variant=variant, sampling=BATCH_SAMPLING, seed=8)
            for size in (BLOCK_TIMESTEPS, 3, 1):
                monkeypatch.setattr(pipeline, "BLOCK_TIMESTEPS", size)
                _matches_one_at_a_time(estimator, scenario, config, rotation, size)


def test_sequence_longer_than_a_block_matches_one_timestep_runs():
    scenario = _scenario(seed=9, config=replace(SCENARIO_CONFIG, n_timesteps=BLOCK_TIMESTEPS + 5))
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=9, sigma_rot=0.02))
    config = PipelineConfig(variant="VAR_EO_DIRECTIONAL", sampling=FAST_SAMPLING, seed=9)
    rotation = default_rotation_uncertainty(estimator, replace(config, q_samples=2000))
    _matches_one_at_a_time(estimator, scenario, config, rotation, BLOCK_TIMESTEPS)


@dataclass
class BatchesThatRaise:
    """Synthetic answers, but a batch holding the context of ``timestamp``
    raises ``error``; records how many contexts each batch call held."""

    inner: SyntheticEstimator
    timestamp: float | None = None
    error: Exception | None = None
    calls: list = field(default_factory=list)

    def estimate(self, ctx, candidate, cloud=None):
        return self.inner.estimate(ctx, candidate, cloud)

    def estimate_batch(self, ctxs, positions, orientations, cloud=None):
        self.calls.append(len(ctxs))
        if any(ctx.timestamp == self.timestamp for ctx in ctxs):
            raise self.error
        return self.inner.estimate_batch(ctxs, positions, orientations, cloud)


@dataclass
class OneBadRow:
    """Synthetic batch answers with entry ``(t, candidate, component)`` of
    one field, by its index in ``RECORD_FIELDS``, set to ``value``, where t
    is the timestep at ``timestamp``, or the batch's first when that is
    None; the answers as they are when ``value`` is None."""

    inner: SyntheticEstimator
    field_index: int
    value: float | None
    component: int = 0
    candidate: int = -1
    timestamp: float | None = None

    def estimate(self, ctx, candidate, cloud=None):
        return self.inner.estimate(ctx, candidate, cloud)

    def estimate_batch(self, ctxs, positions, orientations, cloud=None):
        fields = [np.array(a) for a in self.inner.estimate_batch(ctxs, positions, orientations, cloud)]
        for t, ctx in enumerate(ctxs):
            if self.value is not None and (ctx.timestamp == self.timestamp if self.timestamp is not None else t == 0):
                fields[self.field_index][t, self.candidate, self.component] = self.value
        return tuple(fields)


@pytest.mark.parametrize("variant", ["VAR", "VAR_EO"])
def test_a_batch_sigma_or_correlation_out_of_range_aborts_the_run(variant):
    # a negative sigma or a rotation of w = 1.5 once passed unchecked and
    # moved the bound; every batch row now passes check_estimates or raises
    # its error
    scenario = _scenario(seed=3)
    config = PipelineConfig(variant=variant, sampling=FAST_SAMPLING, seed=3)
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=3))
    sigma, corr = "^sigma must be finite and strictly positive$", r"^correlations must be finite and lie in \(-1, 1\)$"
    unit, finite = "^rotation_error must be a unit quaternion$", "^translation_error must be finite$"
    for field_index, value, component, message in (
        (2, -1.0, 0, sigma), (2, 0.0, 0, sigma), (2, np.inf, 0, sigma), (2, np.nan, 0, sigma),
        (3, 1.5, 0, corr), (3, -1.0, 0, corr), (3, np.nan, 0, corr),
        (1, 1.5, 0, unit), (1, 0.3, 3, unit), (0, np.nan, 0, finite), (0, np.inf, 0, finite),
    ):
        bad = OneBadRow(synthetic, field_index, value, component)
        # the first timestep's last candidate is bad, so it fails first
        with pytest.raises(ValueError, match=message.replace("^", r"^timestep 0 \(payload_key t000000\): ")):
            run_sequence(bad, scenario, config, RotationUncertainty.zero())
    # fields that pass go on with their bits
    want = run_sequence(synthetic, scenario, config, RotationUncertainty.zero())
    got = run_sequence(OneBadRow(synthetic, 2, None), scenario, config, RotationUncertainty.zero())
    assert got.pl.tobytes() == want.pl.tobytes()


def test_a_block_without_errors_is_bounded_once():
    scenario = _scenario(seed=3)
    estimator = BatchesThatRaise(SyntheticEstimator(SyntheticEstimatorConfig(seed=3)))
    run_sequence(estimator, scenario, PipelineConfig(sampling=FAST_SAMPLING, seed=3))
    assert estimator.calls == [len(scenario.timesteps)]


def test_raising_timestep_in_a_block_raises_its_own_error():
    scenario = _scenario(seed=3)
    ts = scenario.timesteps[3]
    ctx = MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose)
    config = PipelineConfig(sampling=FAST_SAMPLING, seed=3)
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=3))
    # a package error excludes every candidate of its timestep, which then
    # fails, and the sequence names the timestep in front of that failure
    # and of a ValueError, which stays the same object; any other error is
    # raised as it is
    cases = (
        (InfeasibleContext("no answer"), TimestepFailure, "0 usable candidates at t=3.0 (minimum 2); candidate 0 excluded"),
        (ValueError("bad answer"), ValueError, "bad answer"),
        (RuntimeError("broken"), RuntimeError, "broken"),
    )
    for error, raised, message in cases:
        prefix = "" if raised is RuntimeError else "timestep 3 (payload_key t000003): "
        estimator = BatchesThatRaise(synthetic, ts.timestamp, error)
        with pytest.raises(raised) as alone:
            offsets = _offsets(FAST_SAMPLING, [3, 2, 3])
            run_timestep(estimator, ctx, ts.estimate_pose, None, offsets, RotationUncertainty.zero(), config)
        alone_message = str(alone.value)  # before the sequence renames the same object
        estimator.calls.clear()
        with pytest.raises(raised) as in_block:
            run_sequence(estimator, scenario, config, RotationUncertainty.zero())
        assert type(in_block.value) is raised
        assert str(in_block.value) == prefix + alone_message
        assert alone_message.startswith(message)
        assert raised is TimestepFailure or in_block.value is error
        # the block, then its timesteps one at a time up to the failing one
        assert estimator.calls == [len(scenario.timesteps), 1, 1, 1, 1]


@pytest.mark.parametrize(
    "field_index, value, message",
    [(0, np.nan, "translation_error must be finite"), (2, -1.0, "sigma must be finite and strictly positive")],
)
def test_a_bad_estimator_row_names_its_timestep(field_index, value, message):
    # check_estimates' ValueError gets the timestep and its payload key in
    # front, as a package error does
    scenario = _scenario(seed=3)
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=3))
    estimator = OneBadRow(synthetic, field_index, value, candidate=1, timestamp=scenario.timesteps[3].timestamp)
    config = PipelineConfig(variant="VAR_EO", sampling=FAST_SAMPLING, seed=3)
    with pytest.raises(ValueError) as raised:
        run_sequence(estimator, scenario, config, RotationUncertainty.zero())
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"timestep 3 (payload_key t000003): {message}"


def test_a_named_error_is_the_object_the_timestep_raised():
    # VAR raises its one candidate's error as it is; the sequence puts the
    # timestep in front of the message of that same object, whatever its
    # constructor takes and whatever it carries
    class Coded(InfeasibleContext):
        def __init__(self, code):
            super().__init__(f"code {code}")
            self.code = code

    scenario = _scenario(seed=3)
    error = Coded(7)
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=3))
    estimator = BatchesThatRaise(synthetic, scenario.timesteps[3].timestamp, error)
    with pytest.raises(Coded) as raised:
        run_sequence(estimator, scenario, PipelineConfig(variant="VAR", seed=3), RotationUncertainty.zero())
    assert raised.value is error and raised.value.code == 7
    assert str(raised.value) == "timestep 3 (payload_key t000003): code 7"


@pytest.mark.parametrize("variant", ["VAR", "VAR_EO"])
def test_a_stored_error_raised_again_keeps_one_timestep_prefix(variant):
    # an estimator that raises one stored instance gets one prefix, naming
    # the timestep that raised it this time, in front of its own message
    scenario = _scenario(seed=3)
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=3))
    config = PipelineConfig(sampling=FAST_SAMPLING, variant=variant, seed=3)
    cases = [(ValueError("bad answer"), "bad answer")]
    if variant == "VAR":  # a package error reaches the sequence as it is only under VAR
        cases.append((InfeasibleContext("no answer"), "no answer"))
    for error, message in cases:
        estimator = BatchesThatRaise(synthetic, error=error)
        for k in (3, 3, 5):
            estimator.timestamp = scenario.timesteps[k].timestamp
            with pytest.raises(type(error)) as raised:
                run_sequence(estimator, scenario, config, RotationUncertainty.zero())
            assert raised.value is error
            assert str(error) == f"timestep {k} (payload_key t{k:06d}): {message}"


def test_first_failing_timestep_in_order_is_reported(tmp_path):
    # candidates 1..7 of timesteps 4 and 6 have no record: both fail, 4 is reported
    est = SyntheticEstimator(SyntheticEstimatorConfig(seed=2))
    records = []
    for ctx, pose, (translations, rotations) in _timesteps(2):
        positions, orientations = _unit_candidates(pose, translations, rotations)
        answers = est.estimate_batch([ctx], positions[None], orientations[None])
        for i, raw in enumerate(zip(*(a[0] for a in answers))):
            if i == 0 or ctx.payload_key not in ("t000004", "t000006"):
                records.append((ctx.payload_key, i, RawEstimate(*raw)))
    write_estimate_records(records, tmp_path / "est.jsonl")
    table = FileEstimator(tmp_path / "est.jsonl")
    config = PipelineConfig(variant="VAR_EO", sampling=BATCH_SAMPLING, seed=2)
    with pytest.raises(TimestepFailure) as failure:
        run_sequence(table, _scenario(seed=2), config, RotationUncertainty.zero())
    assert str(failure.value).startswith(
        "timestep 4 (payload_key t000004): "
        "1 usable candidates at t=4.0 (minimum 2); candidate 1 excluded: no estimate recorded for ('t000004', 1); "
    )
    assert str(failure.value).count("excluded") == 23


# ---------------------------------------------------------------------------
# VAR, the one-candidate block


def _var_table(path, scenario, estimator, missing=(), indefinite=()):
    """Write what ``estimator`` answers for candidate 0 of every scenario
    timestep, less the timesteps ``missing`` and with an indefinite
    correlation at the timesteps ``indefinite``; returns the table."""
    records = []
    for ts in scenario.timesteps:
        if ts.index in missing:
            continue
        raw = estimator.estimate(MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose, 0), ts.estimate_pose)
        if ts.index in indefinite:
            raw = replace(raw, corr=np.array([0.9, -0.9, 0.9]))
        records.append((ts.payload_key, 0, raw))
    write_estimate_records(records, path)
    return FileEstimator(path)


def test_var_results_are_its_one_estimate_call_bit_for_bit(tmp_path):
    # every field of every result, against the branch VAR had before it
    # became the one-candidate block; the estimate's orientation must reach
    # the estimator normalized once, as the scenario's pose holds it
    scenario_config = replace(SCENARIO_CONFIG, n_timesteps=2000, estimate_offset_rotation=math.radians(10.0))
    scenario = _scenario(seed=12, config=scenario_config)
    orientations = np.array([ts.estimate_pose.orientation for ts in scenario.timesteps])
    assert (quat_normalize(orientations) != orientations).any()  # a second normalization would show
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=12, sigma_rot=0.02, corr=(0.3, 0.1, -0.2)))
    table = _var_table(tmp_path / "est.jsonl", scenario, synthetic)
    rotation = precompute_q(synthetic.rotation_residual_samples(2000, 12))
    config = PipelineConfig(variant="VAR", seed=12)
    ctxs = [MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose) for ts in scenario.timesteps]
    poses = [ts.estimate_pose for ts in scenario.timesteps]
    for estimator in (synthetic, OneAtATime(synthetic), table):
        got = run_sequence(estimator, scenario, config, rotation)
        want = oracles.var_block(estimator, ctxs, poses, scenario.cloud, config.query)
        _timesteps_of(got, scenario)
        for t in range(len(want.pl)):
            assert _row(got, t) == _row(want, t)
        (_, block), = _blocks(estimator, scenario, config, rotation, len(ctxs))  # the samples too
        for t in range(len(want.pl)):
            _same_result(block, want, t, t)


@dataclass
class Seen:
    """Delegates to the synthetic estimator and keeps the candidate
    orientations it is handed: per batch call the (T, N, 4) stack, per
    single call the (context, orientation) pair."""

    inner: SyntheticEstimator
    batches: list = field(default_factory=list)
    singles: list = field(default_factory=list)

    def estimate(self, ctx, candidate, cloud=None):
        self.singles.append((ctx, candidate.orientation))
        return self.inner.estimate(ctx, candidate, cloud)

    def estimate_batch(self, ctxs, positions, orientations, cloud=None):
        self.batches.append(orientations)
        return self.inner.estimate_batch(ctxs, positions, orientations, cloud)


def test_zero_offset_candidate_gets_the_estimate_orientation_bit_for_bit():
    # candidate 0 of the sampled variants is the estimate itself, as VAR's
    # one candidate is: normalizing its orientation again would move some
    # of them by an ulp.  The sampled candidates are normalized once
    scenario_config = replace(SCENARIO_CONFIG, n_timesteps=600, estimate_offset_rotation=math.radians(10.0))
    scenario = _scenario(seed=12, config=scenario_config)
    orientations = np.array([ts.estimate_pose.orientation for ts in scenario.timesteps])
    assert (quat_normalize(orientations) != orientations).any()  # a second normalization would show
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=12))
    for variant in ("VAR", "VAR_EO"):
        config = PipelineConfig(variant=variant, sampling=FAST_SAMPLING, seed=12)
        batched = Seen(synthetic)
        run_sequence(batched, scenario, config, RotationUncertainty.zero())
        seen = np.concatenate(batched.batches)
        assert seen[:, 0].tobytes() == orientations.tobytes()
        if variant != "VAR":  # the sampled candidates, normalized once
            _, rotations = sample_candidates(FAST_SAMPLING, [[12, 2, ts.index] for ts in scenario.timesteps])
            positions = np.array([ts.estimate_pose.position for ts in scenario.timesteps])[:, None]
            turned = apply_offset(positions, orientations[:, None], 0.0, rotations[:, 1:])[1]
            assert seen[:, 1:].tobytes() == quat_normalize(turned).tobytes()
        single = Seen(synthetic)
        head = replace(scenario, timesteps=scenario.timesteps[:50])
        run_sequence(OneAtATime(single), head, config, RotationUncertainty.zero())
        zeroth = np.array([q for ctx, q in single.singles if ctx.candidate_index == 0])
        assert zeroth.tobytes() == orientations[:50].tobytes()


def test_var_raises_the_error_of_its_one_candidate(tmp_path):
    # an error that would exclude a sampled candidate is VAR's own error,
    # not a TimestepFailure; the first failing timestep in order raises it
    scenario = _scenario(seed=12)
    synthetic = SyntheticEstimator(SyntheticEstimatorConfig(seed=12, corr=(0.3, 0.1, -0.2)))
    config = PipelineConfig(variant="VAR", seed=12)
    cases = (
        ({3, 6}, (), 3, MissingRecord, "no estimate recorded for ('t000003', 0)"),
        ((), {5}, 5, NotPositiveDefinite, "correlations [0.9, -0.9, 0.9] give an indefinite covariance"),
        ({6}, {5}, 5, NotPositiveDefinite, "correlations [0.9, -0.9, 0.9] give an indefinite covariance"),
    )
    for k, (missing, indefinite, first, error, message) in enumerate(cases):
        table = _var_table(tmp_path / f"est{k}.jsonl", scenario, synthetic, missing, indefinite)
        with pytest.raises(error) as raised:
            run_sequence(table, scenario, config, RotationUncertainty.zero())
        named = f"timestep {first} (payload_key t{first:06d}): {message}"
        assert type(raised.value) is error and str(raised.value) == named
        ts = scenario.timesteps[first]
        ctx = MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose)
        with pytest.raises(error) as alone:
            oracles.var_block(table, [ctx], [ts.estimate_pose], None, config.query)
        assert str(alone.value) == message
    no_truth, pose = MeasurementContext(1.0, "t000001"), scenario.timesteps[1].estimate_pose
    message = "^synthetic estimator needs the true pose in the context$"
    for estimator in (synthetic, OneAtATime(synthetic)):
        with pytest.raises(InfeasibleContext, match=message):
            run_timestep(estimator, no_truth, pose, None, None, RotationUncertainty.zero(), config)
        with pytest.raises(InfeasibleContext, match=message):
            oracles.var_block(estimator, [no_truth], [pose], None, config.query)


def test_lattice_bounds_stay_within_two_tolerances_of_midpoint_bisection(monkeypatch):
    # the lattice solver's final cell and the midpoint solver's final bracket
    # both hold the quantile and are at most one tolerance wide
    scenario = _scenario(seed=12, config=replace(SCENARIO_CONFIG, n_timesteps=2000))
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=12))
    for variant in VARIANTS:
        config = PipelineConfig(variant=variant, seed=12)
        lattice = run_sequence(estimator, scenario, config).pl
        with monkeypatch.context() as patched:
            patched.setattr(pipeline, "protection_level", oracles.midpoint_protection_level)
            patched.setattr(pipeline, "protection_levels_all", oracles.midpoint_protection_levels_all)
            midpoint = run_sequence(estimator, scenario, config).pl
        assert lattice.shape == midpoint.shape == (2000, 3)
        assert np.abs(lattice - midpoint).max() <= 2.0 * config.query.tolerance, variant
