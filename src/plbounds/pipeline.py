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

from . import io
from .errors import PlboundsError, TimestepFailure
from .estimator import Estimator, MeasurementContext, SyntheticEstimator, answers, to_vehicle_frame
from .geometry import PointCloud, Pose, quat_normalize, quat_to_matrix
from .gmm import GaussianMixture, ProtectionLevelQuery, protection_level, protection_levels_all
from .metrics import DIAGRAM_BINS, AlarmLimits, IntegrityDiagram, IntegrityReport, integrity_diagram, summarize
from .sampling import SamplingConfig, apply_offset, sample_candidates, seed_words
from .scenario import Scenario, vehicle_frame_error
from .uncertainty import (
    MIN_ROTATION_SAMPLES,
    ROTATION_BLOCK,
    RotationUncertainty,
    load_tensor,
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
    diagram_bins: int = DIAGRAM_BINS

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.min_candidates < 2:
            raise ValueError("min_candidates must be at least 2")
        if self.variant != "VAR" and self.min_candidates > self.sampling.n_candidates:
            raise ValueError(
                f"min_candidates ({self.min_candidates}) exceeds sampling.n_candidates "
                f"({self.sampling.n_candidates}), so no {self.variant} timestep could be bounded"
            )
        if self.diagram_bins < 1:
            raise ValueError("diagram_bins must be at least 1")
        if self.q_samples < MIN_ROTATION_SAMPLES:
            raise ValueError(f"q_samples (rotation_uncertainty.n_samples) must be at least {MIN_ROTATION_SAMPLES}")


@dataclass(frozen=True)
class BlockResult:
    """The bounds of T timesteps, as columns.

    ``pl`` holds the (T, 3) lateral, longitudinal and vertical protection
    levels; ``kept`` and ``excluded`` the (T,) counts of candidates kept and
    excluded; ``direction_theta`` the (T,) direction angles of
    ``VAR_EO_DIRECTIONAL`` (NaN under the other variants) and
    ``direction_excluded`` the (T,) codes, into ``EXCLUDED_AXES``, of the
    horizontal dimension it dropped.  ``exclusions`` holds one (timestep,
    candidate, reason) row per excluded candidate, in that order.
    ``samples`` holds, per kept count, the (G,) timesteps that kept that
    many candidates and their (G, count, 3) mixture means, variances and
    weights.
    """

    pl: np.ndarray
    kept: np.ndarray
    excluded: np.ndarray
    direction_theta: np.ndarray
    direction_excluded: np.ndarray
    exclusions: tuple[tuple[int, int, str], ...]
    samples: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def n_candidates(self) -> int:
        """The candidates kept over all T timesteps, as a Python int."""
        return int(self.kept.sum())


def run_timestep(
    estimator: Estimator,
    ctx: MeasurementContext,
    estimate_pose: Pose,
    cloud: PointCloud | None,
    offsets: tuple[np.ndarray, np.ndarray] | None,
    rotation_uncertainty: RotationUncertainty,
    config: PipelineConfig,
) -> BlockResult:
    """Protection levels for one timestep under the configured variant: the
    one-timestep case of ``run_block``.  ``offsets`` holds the (N, 3)
    translations and (N, 4) rotations of the candidates (``VAR`` has none).
    """
    if config.variant != "VAR":
        offsets = tuple(np.asarray(a, dtype=float)[None] for a in offsets)
    return run_block(estimator, [ctx], [estimate_pose], cloud, offsets, rotation_uncertainty, config)


def run_block(
    estimator: Estimator,
    ctxs: list[MeasurementContext],
    estimate_poses: list[Pose],
    cloud: PointCloud | None,
    offsets: tuple[np.ndarray, np.ndarray] | None,
    rotation_uncertainty: RotationUncertainty,
    config: PipelineConfig,
) -> BlockResult:
    """Protection levels for T timesteps under the configured variant, each
    stage run once on the stacked candidates of all of them.

    ``offsets`` holds the (T, N, 3) translations and (T, N, 4) rotations of
    the candidates from ``sample_candidates``; the candidate orientations
    are normalized once, except where the rotation offset is the identity
    (there the estimate's orientation is kept bit for bit, as under
    ``VAR``), and the estimator sees them unit.  ``VAR`` has no
    offsets: its one candidate is the estimate itself, at a zero offset.
    The estimator is asked once, through ``estimator.answers``, and every
    row it answers must pass ``check_estimates``: a row that does not
    raises its ValueError.  Candidates the estimator could not answer, or
    whose covariance is indefinite, are excluded, each with its reason in
    the result's ``exclusions``; fewer than ``min_candidates`` survivors
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
        # unit, as ``Pose`` holds them; a row without a rotation offset keeps
        # the estimate's orientation bits, which a second pass could move
        turned = (rotations != (1.0, 0.0, 0.0, 0.0)).any(axis=-1, keepdims=True)
        orientations = np.where(turned, quat_normalize(orientations), orientations)
    steps, n = translations.shape[:2]
    for a in (positions, orientations):  # as ``Pose.checked`` takes them
        a.setflags(write=False)
    (raw_error, raw_rotation, sigma, corr), failed = answers(estimator, ctxs, positions, orientations, cloud)
    # every candidate of the block is one row from here on
    rotation = quat_to_matrix(np.reshape(raw_rotation, (-1, 4)))
    rows = [np.reshape(a, (-1, 3)) for a in (raw_error, sigma, corr)]
    errors, covs, frame_failed = to_vehicle_frame(rotation, *rows)
    means, covs, inflate_failed = transform_error(
        rotation, errors, covs, np.reshape(translations, (-1, 3)), rotation_uncertainty
    )
    # the first stage to fail names the reason
    excluded = {divmod(row, n): exc for row, exc in (*inflate_failed.items(), *frame_failed.items())}
    excluded.update(failed)
    keep = np.ones((steps, n), dtype=bool)
    if excluded:
        keep[tuple(np.array(list(excluded)).T)] = False
    kept = keep.sum(axis=1)
    short = np.flatnonzero(kept < (1 if config.variant == "VAR" else config.min_candidates))
    if len(short):  # the first such timestep in order fails the block
        t = int(short[0])
        if config.variant == "VAR":  # the estimate is the only candidate: its error is the timestep's
            raise excluded[t, 0]
        diagnostics = "".join(f"; candidate {i} excluded: {excluded[t, i]}" for i in range(n) if (t, i) in excluded)
        raise TimestepFailure(
            f"{kept[t]} usable candidates at t={ctxs[t].timestamp} (minimum {config.min_candidates}){diagnostics}"
        )

    # timesteps that kept equally many candidates are stacked together
    variances = np.diagonal(covs, axis1=1, axis2=2)
    pl, theta, codes = np.empty((steps, 3)), np.full(steps, np.nan), np.zeros(steps, dtype=np.int8)
    samples = []
    for count in np.unique(kept).tolist():
        group = np.flatnonzero(kept == count)
        picked = (group[:, None] * n + np.arange(n))[keep[group]].reshape(len(group), count)
        group_means = means[picked]
        group_variances = variances[picked]
        if config.variant in ("VAR", "VAR_E"):
            group_weights = np.full(group_means.shape, 1.0 / count)
        else:
            group_weights = outlier_weights(group_means)
        samples.append((group, group_means, group_variances, group_weights))
        if config.variant == "VAR_EO_DIRECTIONAL":
            projected = project_directional(group_means, group_variances, group_weights)
            theta[group], codes[group] = projected.theta, projected.excluded
            # the horizontal mixtures are checked and solved first, as a lone timestep's were
            for members, *mixture in projected.horizontal:
                pl[group[members], :2] = protection_level(GaussianMixture(*mixture), config.query)[:, None]
            pl[group, 2] = protection_level(GaussianMixture(*projected.vertical), config.query)
        else:
            pl[group] = protection_levels_all(group_means, group_variances, group_weights, config.query)
    exclusions = tuple((t, i, str(exc)) for (t, i), exc in sorted(excluded.items()))
    return BlockResult(pl, kept, n - kept, theta, codes, exclusions, tuple(samples))


@dataclass(frozen=True)
class SequenceResult:
    """A scenario's bounds and integrity statistics, as columns.

    ``timestamps`` and ``indices`` hold the (T,) timestamps and scenario
    indices of its timesteps and ``error`` their (T, 3) true vehicle-frame
    errors.  The other columns, and ``exclusions``, are ``BlockResult``'s
    over the whole scenario, timesteps counted from 0.
    """

    timestamps: np.ndarray
    indices: np.ndarray
    pl: np.ndarray
    error: np.ndarray
    kept: np.ndarray
    excluded: np.ndarray
    direction_theta: np.ndarray
    direction_excluded: np.ndarray
    exclusions: tuple[tuple[int, int, str], ...]
    report: IntegrityReport
    diagram: IntegrityDiagram

    def result_rows(self) -> np.ndarray:
        """The (T, 7) results table: t, pl_lat, pl_lon, pl_vert, err_x, err_y, err_z."""
        return np.column_stack((self.timestamps, self.pl, self.error))


def default_rotation_uncertainty(estimator: Estimator, config: PipelineConfig) -> RotationUncertainty:
    """Rotation-uncertainty tensor to use when none is supplied.

    A synthetic estimator exposes its own rotation-residual distribution,
    which ``config.q_samples`` draws at ``config.seed`` reduce to the tensor;
    it is kept in the derived-input cache under those and ``sigma_rot``.
    Anything else falls back to the zero tensor (no inflation).
    """
    if isinstance(estimator, SyntheticEstimator) and estimator.config.sigma_rot > 0.0:
        def derive() -> tuple[dict, dict]:
            blocks = estimator.rotation_residual_blocks(config.q_samples, config.seed, ROTATION_BLOCK)
            return {"q": precompute_q(blocks, count=config.q_samples).q}, {"samples": config.q_samples}

        drawn = f"{estimator.config.sigma_rot!r} {config.q_samples} {config.seed}"
        return io.cached("default-rotation", drawn, derive, load_tensor)[0][0]
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
    time, and a package error or ValueError of a timestep is raised again,
    the same object with ``timestep <k> (payload_key <key>): `` put in front
    of the message it first had, k counted from 0.
    Candidate offsets are redrawn per timestep from streams derived
    from the run seed and the timestep index, so results are reproducible
    and do not depend on where blocks start or end.  ``config.threads``
    does not change the computation.
    """
    if rotation_uncertainty is None:
        rotation_uncertainty = default_rotation_uncertainty(estimator, config)

    seed, steps = seed_words(config.seed), len(scenario.timesteps)
    pl, error, theta = np.empty((steps, 3)), np.empty((steps, 3)), np.empty(steps)
    kept, excluded, codes = np.empty(steps, dtype=np.int64), np.empty(steps, dtype=np.int64), np.empty(steps, np.int8)
    exclusions = []
    for first in range(0, steps, BLOCK_TIMESTEPS):
        block = scenario.timesteps[first : first + BLOCK_TIMESTEPS]
        ctxs = [MeasurementContext(ts.timestamp, ts.payload_key, ts.true_pose) for ts in block]
        poses = [ts.estimate_pose for ts in block]
        offsets = None
        if config.variant != "VAR":
            offsets = sample_candidates(config.sampling, [[*seed, 2, ts.index] for ts in block])
        try:
            parts = [run_block(estimator, ctxs, poses, scenario.cloud, offsets, rotation_uncertainty, config)]
        except Exception:
            # whatever failed, one timestep at a time: the first error in
            # timestep order is then raised as that timestep alone raises it,
            # a package error or ValueError with the timestep named in front
            parts = []
            for k, (ctx, pose) in enumerate(zip(ctxs, poses)):
                alone = None if offsets is None else tuple(a[k] for a in offsets)
                try:
                    parts.append(
                        run_timestep(estimator, ctx, pose, scenario.cloud, alone, rotation_uncertainty, config)
                    )
                except (PlboundsError, ValueError) as exc:  # the same object, so its type and attributes stay
                    message = vars(exc).setdefault("_unprefixed_message", str(exc))
                    exc.args = (f"timestep {first + k} (payload_key {ctx.payload_key}): {message}",)
                    raise
        for k, part in enumerate(parts):  # the whole block, or its k-th timestep
            rows = slice(first + k, first + k + len(part.kept))
            pl[rows], kept[rows], excluded[rows] = part.pl, part.kept, part.excluded
            theta[rows], codes[rows] = part.direction_theta, part.direction_excluded
            exclusions += [(rows.start + t, i, reason) for t, i, reason in part.exclusions]
        error[first : first + len(block)] = vehicle_frame_error(
            [ts.true_pose for ts in block], [ts.estimate_pose for ts in block]
        )
    return SequenceResult(
        timestamps=np.array([ts.timestamp for ts in scenario.timesteps], dtype=float),
        indices=np.array([ts.index for ts in scenario.timesteps], dtype=np.int64),
        pl=pl,
        error=error,
        kept=kept,
        excluded=excluded,
        direction_theta=theta,
        direction_excluded=codes,
        exclusions=tuple(exclusions),
        report=summarize(pl, error, config.limits),
        diagram=integrity_diagram(pl, error, config.limits, config.diagram_bins),
    )
