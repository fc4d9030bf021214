"""End-to-end protection-level computation over scenarios.

Four pipeline variants are supported:

* ``VAR``: one estimator call at the state estimate; per-axis Gaussians
  from the reported error and variance.
* ``VAR_E``: candidate states sampled around the estimate, every sample
  weighted equally in the mixture.
* ``VAR_EO``: candidate sampling plus robust outlier weighting.
* ``VAR_EO_DIRECTIONAL``: as ``VAR_EO``, with the horizontal samples
  projected onto the dominant error direction before solving; the
  horizontal bound is reported for both the lateral and longitudinal axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PlboundsError, TimestepFailure
from .estimator import Estimator, MeasurementContext, SyntheticEstimator, to_vehicle_frame
from .geometry import PointCloud, Pose, quat_to_matrix
from .gmm import (
    GaussianMixture,
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
    ErrorSampleSet,
    RotationUncertainty,
    outlier_weights,
    precompute_q,
    project_directional,
    transform_error,
)

VARIANTS = ("VAR", "VAR_E", "VAR_EO", "VAR_EO_DIRECTIONAL")


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
    """Protection levels for one timestep under the configured variant.

    ``offsets`` holds the (N, 3) translations and (N, 4) rotations of the
    candidates from ``sample_candidates`` (``VAR`` has none).  An estimator
    with ``estimate_batch`` is called once for all candidates, any other
    once per candidate.  Candidates whose estimator call raises a package
    error (every candidate, when the batch call raises), whose row the batch
    reports failed, or whose covariance is indefinite, are excluded with a
    diagnostic; fewer than
    ``min_candidates`` survivors abort the timestep.  Results do not depend
    on candidate evaluation order.
    """
    if config.variant == "VAR":
        raw = estimator.estimate(ctx.for_candidate(0), estimate_pose, cloud)
        fields = (raw.translation_error[None], raw.sigma[None], raw.corr[None])
        errors, covs, failed = to_vehicle_frame(quat_to_matrix(raw.rotation_error)[None], *fields)
        if failed:
            raise failed[0]
        samples = ErrorSampleSet(errors, np.diagonal(covs, axis1=1, axis2=2).copy(), np.ones((1, 3)))
        pls = protection_levels_all(samples.means, samples.variances, samples.weights, config.query)
        return TimestepResult(ctx.timestamp, pls, 1, 0, samples)

    translations, rotations = offsets
    positions, orientations = apply_offset(
        estimate_pose.position, estimate_pose.orientation, translations, rotations
    )
    n = len(translations)
    # a candidate whose estimator call fails keeps these neutral values,
    # which pass every check below, and is dropped at the end
    raw_error, raw_rotation = np.zeros((n, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    sigma, corr = np.ones((n, 3)), np.zeros((n, 3))
    failed: dict[int, PlboundsError] = {}
    estimate_batch = getattr(estimator, "estimate_batch", None)
    if estimate_batch is not None:
        try:
            answer = estimate_batch(ctx, positions, orientations, cloud)
        except PlboundsError as exc:
            failed = dict.fromkeys(range(n), exc)
        else:
            raw_error, raw_rotation, sigma, corr = answer[:4]
            failed = dict(answer[4]) if len(answer) > 4 else {}
    else:
        for i in range(n):
            try:
                raw = estimator.estimate(ctx.for_candidate(i), Pose(positions[i], orientations[i]), cloud)
            except PlboundsError as exc:
                failed[i] = exc
                continue
            raw_error[i], raw_rotation[i] = raw.translation_error, raw.rotation_error
            sigma[i], corr[i] = raw.sigma, raw.corr
    rotation = quat_to_matrix(raw_rotation)
    errors, covs, frame_failed = to_vehicle_frame(rotation, raw_error, sigma, corr)
    means, covs, inflate_failed = transform_error(rotation, errors, covs, translations, rotation_uncertainty)
    failed = {**inflate_failed, **frame_failed, **failed}  # the first stage to fail names the reason
    diagnostics = [f"candidate {i} excluded: {failed[i]}" for i in sorted(failed)]
    keep = np.setdiff1d(np.arange(n), list(failed))
    if len(keep) < config.min_candidates:
        raise TimestepFailure(
            f"{len(keep)} usable candidates at t={ctx.timestamp} "
            f"(minimum {config.min_candidates}); {'; '.join(diagnostics)}"
        )
    means = means[keep]
    variances = np.diagonal(covs[keep], axis1=1, axis2=2).copy()
    if config.variant == "VAR_E":
        weights = np.full(means.shape, 1.0 / means.shape[0])
    else:
        weights = outlier_weights(means)
    samples = ErrorSampleSet(means, variances, weights)

    theta = excluded_dim = None
    if config.variant == "VAR_EO_DIRECTIONAL":
        proj = project_directional(samples)
        theta, excluded_dim = proj.theta, proj.excluded
        horizontal = protection_level(
            GaussianMixture(proj.horizontal_means, proj.horizontal_variances, proj.horizontal_weights),
            config.query,
        )
        vertical = protection_level(
            GaussianMixture(proj.vertical_means, proj.vertical_variances, proj.vertical_weights),
            config.query,
        )
        pls = ProtectionLevels(horizontal, horizontal, vertical)
    else:
        pls = protection_levels_all(means, variances, weights, config.query)
    return TimestepResult(
        timestamp=ctx.timestamp,
        pl=pls,
        n_candidates=len(keep),
        n_excluded=len(failed),
        samples=samples,
        diagnostics=tuple(diagnostics),
        direction_theta=theta,
        direction_excluded=excluded_dim,
    )


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
        samples = estimator.rotation_residual_samples(config.q_samples, config.seed)
        return precompute_q(samples)
    return RotationUncertainty.zero()


def run_sequence(
    estimator: Estimator,
    scenario: Scenario,
    config: PipelineConfig,
    rotation_uncertainty: RotationUncertainty | None = None,
) -> SequenceResult:
    """Run every scenario timestep, in order, and aggregate the integrity
    statistics.

    Candidate offsets are redrawn per timestep from streams derived from the
    run seed and the timestep index, so results are reproducible.
    ``config.threads`` does not change the computation.
    """
    if rotation_uncertainty is None:
        rotation_uncertainty = default_rotation_uncertainty(estimator, config)

    results, records = [], []
    for ts in scenario.timesteps:
        ctx = MeasurementContext(
            timestamp=ts.timestamp, payload_key=ts.payload_key, true_pose=ts.true_pose
        )
        offsets = None
        if config.variant != "VAR":
            offsets = sample_candidates(config.sampling, [config.seed, 2, ts.index])
        result = run_timestep(
            estimator, ctx, ts.estimate_pose, scenario.cloud, offsets, rotation_uncertainty, config
        )
        results.append(replace(result, index=ts.index))
        records.append(IntegrityRecord(result.pl, vehicle_frame_error(ts.true_pose, ts.estimate_pose)))
    return SequenceResult(
        results=results,
        records=records,
        report=summarize(records, config.limits),
        diagram=integrity_diagram(records, config.limits, config.diagram_bins),
    )
