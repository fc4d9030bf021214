"""End-to-end protection-level computation over scenarios.

Four pipeline variants are supported:

* ``VAR``: the state estimate as the one candidate, with weight 1;
  per-axis Gaussians from the reported error and variance.
* ``VAR_E``: candidate states sampled around the estimate, every sample
  weighted equally in the mixture.
* ``VAR_EO``: candidate sampling plus robust outlier weighting.
* ``VAR_EO_DIRECTIONAL``: as ``VAR_EO``, with the horizontal samples
  projected onto the dominant error direction before solving; the
  horizontal bound is reported for both the lateral and longitudinal axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PlboundsError, TimestepFailure
from .estimator import Estimator, MeasurementContext, SyntheticEstimator, to_vehicle_frame
from .geometry import PointCloud, Pose, quat_normalize, quat_to_matrix
from .gmm import (
    MixtureStack,
    ProtectionLevelQuery,
    ProtectionLevels,
    protection_level,
    protection_levels_all,
)
from .metrics import (
    AlarmLimits,
    IntegrityDiagram,
    IntegrityRecord,
    IntegrityReport,
    integrity_diagram,
    summarize,
)
from .sampling import SamplingConfig, apply_offset, sample_candidates
from .scenario import Scenario, vehicle_frame_error
from .uncertainty import (
    MIN_ROTATION_SAMPLES,
    ROTATION_BLOCK,
    ErrorSampleSet,
    RotationUncertainty,
    outlier_weights,
    precompute_q,
    project_directional,
    transform_error,
)

VARIANTS = ("VAR", "VAR_E", "VAR_EO", "VAR_EO_DIRECTIONAL")

# Most timesteps ``run_sequence`` bounds in one ``run_block`` call: enough
# to spread each stage's per-call cost thin, few enough that a block's
# stacks stay small.
BLOCK_TIMESTEPS = 256


@dataclass(frozen=True)
class PipelineConfig:
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    query: ProtectionLevelQuery = field(default_factory=ProtectionLevelQuery)
    limits: AlarmLimits = field(default_factory=AlarmLimits)
    variant: str = "VAR_EO"
    seed: int = 0
    threads: int = 1  # accepted and checked; timesteps run one after another
    min_candidates: int = 2
    q_samples: int = 100000
    diagram_bins: int = 40

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.min_candidates < 2:
            raise ValueError("min_candidates must be at least 2")
        if self.diagram_bins < 1:
            raise ValueError("diagram_bins must be at least 1")
        if self.q_samples < MIN_ROTATION_SAMPLES:
            raise ValueError(f"q_samples (rotation_uncertainty.n_samples) must be at least {MIN_ROTATION_SAMPLES}")


@dataclass(frozen=True)
class TimestepResult:
    timestamp: float
    pl: ProtectionLevels
    n_candidates: int
    n_excluded: int
    samples: ErrorSampleSet
    diagnostics: tuple[str, ...] = ()
    direction_theta: float | None = None
    direction_excluded: str | None = None
    index: int = -1


def run_timestep(
    estimator: Estimator,
    ctx: MeasurementContext,
    estimate_pose: Pose,
    cloud: PointCloud | None,
    offsets: tuple[np.ndarray, np.ndarray] | None,
    rotation_uncertainty: RotationUncertainty,
    config: PipelineConfig,
) -> TimestepResult:
    """Protection levels for one timestep under the configured variant: the
    one-timestep case of ``run_block``.  ``offsets`` holds the (N, 3)
    translations and (N, 4) rotations of the candidates (``VAR`` has none).
    """
    if config.variant != "VAR":
        offsets = tuple(np.asarray(a, dtype=float)[None] for a in offsets)
    return run_block(estimator, [ctx], [estimate_pose], cloud, offsets, rotation_uncertainty, config)[0]


def run_block(
    estimator: Estimator,
    ctxs: list[MeasurementContext],
    estimate_poses: list[Pose],
    cloud: PointCloud | None,
    offsets: tuple[np.ndarray, np.ndarray] | None,
    rotation_uncertainty: RotationUncertainty,
    config: PipelineConfig,
) -> list[TimestepResult]:
    """Protection levels for T timesteps under the configured variant, each
    stage run once on the stacked candidates of all of them.

    ``offsets`` holds the (T, N, 3) translations and (T, N, 4) rotations of
    the candidates from ``sample_candidates``; the candidate orientations
    are normalized once, and the estimator sees them unit.  ``VAR`` has no
    offsets: its one candidate is the estimate itself, at a zero offset.
    An estimator with ``estimate_batch`` is called once for all candidates,
    any other once per candidate.  Candidates whose estimator call raises a
    package error (every candidate, when the batch call raises), whose row
    the batch reports failed, or whose covariance is indefinite, are
    excluded with a diagnostic; fewer than ``min_candidates`` survivors
    abort the timestep (under ``VAR`` the error that excludes the estimate
    is raised as it is), and any error aborts the block.  Every stage works
    row by row, so a timestep's result does not depend on the other
    timesteps of the block, nor on candidate evaluation order.
    """
    positions = np.array([pose.position for pose in estimate_poses])[:, None]
    orientations = np.array([pose.orientation for pose in estimate_poses])[:, None]
    if config.variant == "VAR":  # the one-candidate block: each estimate itself, at a zero offset
        translations = np.zeros((len(ctxs), 1, 3))
    else:
        translations, rotations = offsets
        positions, orientations = apply_offset(positions, orientations, translations, rotations)
        orientations = quat_normalize(orientations)  # unit, as ``Pose`` holds them
    steps, n = translations.shape[:2]
    for a in (positions, orientations):  # as ``Pose.checked`` takes them
        a.setflags(write=False)
    # a candidate whose estimator call fails keeps these neutral values,
    # which pass every check below, and is dropped at the end
    raw_error, raw_rotation = np.zeros((steps, n, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (steps, n, 1))
    sigma, corr = np.ones((steps, n, 3)), np.zeros((steps, n, 3))
    failed: dict[tuple[int, int], PlboundsError] = {}
    estimate_batch = getattr(estimator, "estimate_batch", None)
    if estimate_batch is not None:
        try:
            answer = estimate_batch(ctxs, positions, orientations, cloud)
        except PlboundsError as exc:
            failed = {(t, i): exc for t in range(steps) for i in range(n)}
        else:
            raw_error, raw_rotation, sigma, corr = answer[:4]
            failed = dict(answer[4]) if len(answer) > 4 else {}
    else:
        for t, ctx in enumerate(ctxs):
            for i in range(n):
                try:
                    candidate = Pose.checked(positions[t, i], orientations[t, i])
                    raw = estimator.estimate(ctx.for_candidate(i), candidate, cloud)
                except PlboundsError as exc:
                    failed[t, i] = exc
                    continue
                raw_error[t, i], raw_rotation[t, i] = raw.translation_error, raw.rotation_error
                sigma[t, i], corr[t, i] = raw.sigma, raw.corr
    # every candidate of the block is one row from here on
    rotation = quat_to_matrix(np.reshape(raw_rotation, (-1, 4)))
    rows = [np.reshape(a, (-1, 3)) for a in (raw_error, sigma, corr)]
    errors, covs, frame_failed = to_vehicle_frame(rotation, *rows)
    means, covs, inflate_failed = transform_error(
        rotation, errors, covs, np.reshape(translations, (-1, 3)), rotation_uncertainty
    )
    # the first stage to fail names the reason
    excluded: list[dict[int, PlboundsError]] = [{} for _ in range(steps)]
    for row, exc in (*inflate_failed.items(), *frame_failed.items()):
        excluded[row // n][row % n] = exc
    for (t, i), exc in failed.items():
        excluded[t][i] = exc
    keep = []
    for ctx, step_failed in zip(ctxs, excluded):
        kept = np.setdiff1d(np.arange(n), list(step_failed)) if step_failed else np.arange(n)
        if config.variant == "VAR":
            if step_failed:  # the estimate is the only candidate: its error is the timestep's
                raise step_failed[0]
        elif len(kept) < config.min_candidates:
            diagnostics = "; ".join(f"candidate {i} excluded: {step_failed[i]}" for i in sorted(step_failed))
            raise TimestepFailure(
                f"{len(kept)} usable candidates at t={ctx.timestamp} "
                f"(minimum {config.min_candidates}); {diagnostics}"
            )
        keep.append(kept)

    # timesteps that kept equally many candidates are stacked together
    samples: list[ErrorSampleSet] = [None] * steps
    stacks = {}  # kept count: (timesteps, their (G, count, 3) means, variances and weights)
    for count in sorted({len(kept) for kept in keep}):
        group = [t for t in range(steps) if len(keep[t]) == count]
        picked = np.array([t * n + keep[t] for t in group])
        group_means = means[picked]
        group_variances = np.diagonal(covs[picked], axis1=2, axis2=3).copy()
        if config.variant in ("VAR", "VAR_E"):
            group_weights = np.full(group_means.shape, 1.0 / count)
        else:
            group_weights = outlier_weights(group_means)
        for j, t in enumerate(group):
            samples[t] = ErrorSampleSet(group_means[j], group_variances[j], group_weights[j])
        stacks[count] = (group, group_means, group_variances, group_weights)

    directions: list[tuple[float | None, str | None]] = [(None, None)] * steps
    if config.variant == "VAR_EO_DIRECTIONAL":
        projections = [project_directional(s) for s in samples]
        directions = [(proj.theta, proj.excluded) for proj in projections]
        h_mixtures = [(p.horizontal_means, p.horizontal_variances, p.horizontal_weights) for p in projections]
        v_mixtures = [(p.vertical_means, p.vertical_variances, p.vertical_weights) for p in projections]
        # the horizontal mixtures are checked and solved first, as a lone timestep's were
        horizontal = _bounds_by_length(h_mixtures, config.query)
        vertical = _bounds_by_length(v_mixtures, config.query)
        pls = [ProtectionLevels(h, h, v) for h, v in zip(horizontal, vertical)]
    else:
        pls = [None] * steps
        for group, *stack in stacks.values():
            for t, pl in zip(group, protection_levels_all(*stack, config.query)):
                pls[t] = pl
    return [
        TimestepResult(
            timestamp=ctx.timestamp,
            pl=pls[t],
            n_candidates=len(keep[t]),
            n_excluded=len(excluded[t]),
            samples=samples[t],
            diagnostics=tuple(f"candidate {i} excluded: {excluded[t][i]}" for i in sorted(excluded[t])),
            direction_theta=directions[t][0],
            direction_excluded=directions[t][1],
        )
        for t, ctx in enumerate(ctxs)
    ]


def _bounds_by_length(mixtures: list[tuple[np.ndarray, ...]], query: ProtectionLevelQuery) -> list[float]:
    """``protection_level`` of each (means, variances, weights) mixture; the
    mixtures with equally many components are solved as one stack."""
    bounds = [0.0] * len(mixtures)
    for length in sorted({len(m[0]) for m in mixtures}):
        group = [k for k, m in enumerate(mixtures) if len(m[0]) == length]
        stack = MixtureStack(*(np.array([mixtures[k][f] for k in group]) for f in range(3)))
        for k, bound in zip(group, protection_level(stack, query).tolist()):
            bounds[k] = bound
    return bounds


@dataclass(frozen=True)
class SequenceResult:
    results: list[TimestepResult]
    records: list[IntegrityRecord]
    report: IntegrityReport
    diagram: IntegrityDiagram

    def result_rows(self) -> list[tuple]:
        rows = []
        for res, rec in zip(self.results, self.records):
            rows.append(
                (
                    res.timestamp,
                    res.pl.lateral,
                    res.pl.longitudinal,
                    res.pl.vertical,
                    rec.error[0],
                    rec.error[1],
                    rec.error[2],
                )
            )
        return rows


def default_rotation_uncertainty(estimator: Estimator, config: PipelineConfig) -> RotationUncertainty:
    """Rotation-uncertainty tensor to use when none is supplied.

    A synthetic estimator exposes its own rotation-residual distribution;
    anything else falls back to the zero tensor (no inflation).
    """
    if isinstance(estimator, SyntheticEstimator) and estimator.config.sigma_rot > 0.0:
        blocks = estimator.rotation_residual_blocks(config.q_samples, config.seed, ROTATION_BLOCK)
        return precompute_q(blocks, count=config.q_samples)
    return RotationUncertainty.zero()


def run_sequence(
    estimator: Estimator,
    scenario: Scenario,
    config: PipelineConfig,
    rotation_uncertainty: RotationUncertainty | None = None,
) -> SequenceResult:
    """Bound every scenario timestep, in order, and aggregate the integrity
    statistics.

    Timesteps are bounded in blocks of up to ``BLOCK_TIMESTEPS`` by
    ``run_block``; a block that raises is bounded again one timestep at a
    time.  Candidate offsets are redrawn per timestep from streams derived
    from the run seed and the timestep index, so results are reproducible
    and do not depend on where blocks start or end.  ``config.threads``
    does not change the computation.
    """
    if rotation_uncertainty is None:
        rotation_uncertainty = default_rotation_uncertainty(estimator, config)

    results, records = [], []
    for first in range(0, len(scenario.timesteps), BLOCK_TIMESTEPS):
        block = scenario.timesteps[first : first + BLOCK_TIMESTEPS]
        ctxs = [MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose) for ts in block]
        poses = [ts.estimate_pose for ts in block]
        offsets = None
        if config.variant != "VAR":
            offsets = sample_candidates(config.sampling, [[config.seed, 2, ts.index] for ts in block])
        try:
            block_results = run_block(
                estimator, ctxs, poses, scenario.cloud, offsets, rotation_uncertainty, config
            )
        except Exception:
            # whatever failed, one timestep at a time: the first error in
            # timestep order is then raised as that timestep alone raises it
            block_results = []
            for k, (ctx, pose) in enumerate(zip(ctxs, poses)):
                one = None if offsets is None else tuple(a[k] for a in offsets)
                block_results.append(
                    run_timestep(estimator, ctx, pose, scenario.cloud, one, rotation_uncertainty, config)
                )
        errors = vehicle_frame_error([ts.true_pose for ts in block], [ts.estimate_pose for ts in block])
        for ts, result, error in zip(block, block_results, errors):
            object.__setattr__(result, "index", ts.index)  # a result of this call, not yet shared
            results.append(result)
            records.append(IntegrityRecord(result.pl, error))
    return SequenceResult(
        results=results,
        records=records,
        report=summarize(records, config.limits),
        diagram=integrity_diagram(records, config.limits, config.diagram_bins),
    )
