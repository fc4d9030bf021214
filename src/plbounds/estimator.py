"""Candidate-state error estimators and their raw-output algebra.

An estimator looks at a measurement context and a candidate pose and reports
how far that candidate sits from the true state: a translation error with
per-axis scale and correlation terms, and a rotation error quaternion.  The
package ships two implementations behind one protocol: a synthetic oracle
that derives the error from the scenario's true pose and adds configurable
noise, and a file-backed lookup for precomputed outputs of an external
model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from . import io
from .errors import InfeasibleContext, MissingRecord, NotPositiveDefinite, PlboundsError
from .geometry import (
    PointCloud,
    Pose,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
)
from .sampling import seed_words, stream_keys, stream_normals

RECORD_FIELDS = ("translation_error", "rotation_error", "sigma", "corr")


@dataclass(frozen=True)
class RawEstimate:
    """Estimator output in the frame of the evaluated candidate.

    ``translation_error`` is the candidate's displacement from the true
    state expressed in the candidate frame, ``rotation_error`` the unit
    quaternion taking the true orientation to the candidate orientation.
    ``sigma`` holds per-axis standard deviations and ``corr`` the
    correlation coefficients (xy, xz, yz) of the translation error.
    """

    translation_error: np.ndarray
    rotation_error: np.ndarray
    sigma: np.ndarray
    corr: np.ndarray

    def __post_init__(self) -> None:
        fields = check_estimates(self.translation_error, self.rotation_error, self.sigma, self.corr)
        for name, value in zip(RECORD_FIELDS, fields):
            object.__setattr__(self, name, value)

    @classmethod
    def checked(cls, translation_error, rotation_error, sigma, corr) -> "RawEstimate":
        """An estimate of fields ``check_estimates`` already returned, kept as
        they are: checking again would normalize the rotation twice, which
        can move its last bit."""
        raw = object.__new__(cls)
        for name, value in zip(RECORD_FIELDS, (translation_error, rotation_error, sigma, corr)):
            object.__setattr__(raw, name, value)
        return raw


def check_estimates(
    translation_error, rotation_error, sigma, corr, rows: tuple[int, ...] = (), normalized: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The checks every estimator output passes, on one estimate's fields
    (``rows`` is ``()``) or on ``rows = (N,)``, ``(T, N)``, ... stacks of them.

    Raises ValueError unless the translation errors, sigmas and correlations
    have shape ``rows + (3,)`` and are finite, every sigma is positive,
    every correlation lies in (-1, 1) and the rotation errors have shape
    ``rows + (4,)`` and are unit quaternions to within ``quat_normalize``'s
    tolerance.  Returns the four fields as float arrays, the rotation errors
    normalized; with ``normalized`` (fields an earlier check returned) their
    squared norms must be within 2e-12 of 1 and they are kept, as
    normalizing again can move a last bit.
    """
    t, q, s, c = (np.asarray(a, dtype=float) for a in (translation_error, rotation_error, sigma, corr))
    if not t.shape == s.shape == c.shape == rows + (3,):
        raise ValueError(f"translation_error, sigma and corr must have shape {rows + (3,)}")
    if q.shape != rows + (4,):
        raise ValueError(f"rotation_error must have shape {rows + (4,)}")
    if not np.isfinite(t).all():
        raise ValueError("translation_error must be finite")
    if not (np.isfinite(s).all() and (s > 0.0).all()):
        raise ValueError("sigma must be finite and strictly positive")
    if not (np.abs(c) < 1.0).all():  # false for NaN too
        raise ValueError("correlations must be finite and lie in (-1, 1)")
    if not normalized:
        return t, quat_normalize(q), s, c
    if not (np.abs(np.einsum("...i,...i", q, q) - 1.0) <= 2e-12).all():  # false for NaN too
        raise ValueError("rotation_error must be a unit quaternion")
    return t, q, s, c


def indefinite_rows(cov: np.ndarray) -> list[int]:
    """Indices of the (N, 3, 3) stack's matrices without a Cholesky factor.
    numpy only reports that some matrix failed, so a failing stack is
    searched one matrix at a time."""
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return [0] if len(cov) == 1 else [i for i in range(len(cov)) if indefinite_rows(cov[i : i + 1])]
    return []


def assemble_covariance(sigma: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Covariance from per-axis scales and correlations (xy, xz, yz).

    Raises NotPositiveDefinite when the resulting matrix has no Cholesky
    factorization; there is no slack, borderline inputs are rejected.
    """
    cov, failed = _covariances(np.reshape(sigma, (1, 3)), np.reshape(corr, (1, 3)))
    if failed:
        raise failed[0]
    return cov[0]


def _covariances(sigma: np.ndarray, corr: np.ndarray) -> tuple[np.ndarray, dict[int, NotPositiveDefinite]]:
    """(N, 3, 3) covariances from (N, 3) per-axis scales and correlations,
    and the error of each one that is indefinite, keyed by row."""
    sigma, corr = np.asarray(sigma, dtype=float), np.asarray(corr, dtype=float)
    cov = np.zeros(sigma.shape + (3,))
    cov[..., [0, 1, 2], [0, 1, 2]] = sigma**2
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        cov[..., i, j] = cov[..., j, i] = corr[..., k] * sigma[..., i] * sigma[..., j]
    failed = {
        i: NotPositiveDefinite(f"correlations {corr[i].tolist()} give an indefinite covariance")
        for i in indefinite_rows(cov)
    }
    return cov, failed


def to_vehicle_frame(
    rotation: np.ndarray, translation_error: np.ndarray, sigma: np.ndarray, corr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, NotPositiveDefinite]]:
    """Rotate stacked raw estimates out of their candidate frames.

    ``rotation`` holds the (N, 3, 3) rotation-error matrices R of N raw
    estimates and the other arguments their (N, 3) fields.  The error is
    ``-R.T @ translation_error`` and the covariance is conjugated alike.
    Returns the errors, the covariances, and the error of each row whose
    covariance is indefinite, keyed by row.
    """
    cov, failed = _covariances(sigma, corr)
    r_t = np.swapaxes(rotation, -1, -2)
    vehicle_cov = r_t @ cov @ rotation
    vehicle_cov = 0.5 * (vehicle_cov + np.swapaxes(vehicle_cov, -1, -2))
    return (-r_t @ np.asarray(translation_error, dtype=float)[..., None])[..., 0], vehicle_cov, failed


# ---------------------------------------------------------------------------
# training losses


# the weight of each training loss in ``calibrate``'s ``mean_total``
LOSS_WEIGHTS = {"alpha_huber": 1.0, "alpha_mle": 1.0, "alpha_angular": 1.0}


def huber_loss(residual: np.ndarray, delta: float = 1.0) -> float:
    """Per-dimension Huber penalty, summed: quadratic inside ``delta``,
    linear outside."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    r = np.abs(np.asarray(residual, dtype=float))
    return float(np.sum(np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))))


def gaussian_nll(residual: np.ndarray, covariance: np.ndarray) -> float:
    """Negative log-likelihood of a residual under a zero-mean Gaussian,
    without the constant term: ``0.5 log|S| + 0.5 e' S^-1 e``."""
    cov = np.asarray(covariance, dtype=float)
    e = np.asarray(residual, dtype=float)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance in likelihood loss is indefinite") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    y = np.linalg.solve(chol, e)
    return 0.5 * logdet + 0.5 * float(y @ y)


# ---------------------------------------------------------------------------
# estimator implementations


@dataclass(frozen=True)
class MeasurementContext:
    """What the estimator may look at for one timestep.

    ``true_pose`` is only populated by synthetic scenarios; the file-backed
    estimator instead needs ``candidate_index`` to address its records.
    """

    timestamp: float
    payload_key: str
    true_pose: Pose | None = None
    candidate_index: int | None = None

    def for_candidate(self, index: int) -> "MeasurementContext":
        return replace(self, candidate_index=index)


@runtime_checkable
class Estimator(Protocol):
    """What the pipeline asks, through ``answers``, about every candidate.

    ``estimate`` returns one candidate's ``RawEstimate``, or raises a package
    error that excludes the candidate.  An estimator may also define
    ``estimate_batch(ctxs, positions, orientations, cloud)``: given T
    contexts, (T, N, 3) positions and (T, N, 4) unit orientations (as
    ``Pose`` holds them), the stacked (T, N, ...) ``(translation_error,
    rotation_error, sigma, corr)``, whose row (t, i) is ``estimate``'s
    answer for candidate i of ``ctxs[t]``.  A fifth element, if returned,
    maps the (t, i) of each candidate it could not answer to the package
    error ``estimate`` would raise; that row holds any values that pass the
    checks.  Whichever method answers, every row must pass
    ``check_estimates(..., normalized=True)``, or the run aborts with its
    ValueError instead of bounding with it.
    """

    def estimate(self, ctx: MeasurementContext, candidate: Pose, cloud: PointCloud | None) -> RawEstimate:
        ...


def _float_key(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _rotvecs_to_quats(rotvecs: np.ndarray) -> np.ndarray:
    """(..., 4) quaternions of (..., 3) rotation vectors."""
    angles = np.linalg.norm(rotvecs, axis=-1)
    nz = angles > 0.0
    quats = np.empty(rotvecs.shape[:-1] + (4,))
    quats[..., 0] = np.cos(0.5 * angles)
    # the whole stack at once, a zero angle divided by 1 instead of masked out
    quats[..., 1:] = np.sin(0.5 * angles)[..., None] * rotvecs / np.where(nz, angles, 1.0)[..., None]
    quats[~nz] = (1.0, 0.0, 0.0, 0.0)
    return quats


@dataclass(frozen=True)
class SyntheticEstimatorConfig:
    seed: int = 0
    sigma_noise: tuple[float, float, float] = (0.1, 0.1, 0.1)
    sigma_rot: float = 0.01
    miscalibration: float = 1.0
    corr: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma_floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.seed is not None and self.seed < 0:  # None: the run seed, in the CLI's settings
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # each comparison is false for NaN too
        if not all(0.0 <= v < np.inf for v in (*self.sigma_noise, self.sigma_rot)):
            raise ValueError("noise scales must be finite and non-negative")
        if not all(0.0 < v < np.inf for v in (self.miscalibration, self.sigma_floor)):
            raise ValueError("miscalibration and sigma_floor must be finite and positive")
        if not all(-1.0 < c < 1.0 for c in self.corr):
            raise ValueError("correlations must lie in (-1, 1)")
        # with unit scales: every reported scale is positive, so this is
        # the definiteness of every covariance the estimator reports
        failed = _covariances(np.ones((1, 3)), np.reshape(self.corr, (1, 3)))[1]
        if failed:
            raise ValueError(str(failed[0]))


class SyntheticEstimator:
    """Oracle that reads the true pose from the context and perturbs it.

    The noiseless output is exact: the reported translation error is the
    candidate's displacement from the true state in the candidate frame and
    the rotation error is the relative orientation.  Gaussian noise with
    per-axis scale ``sigma_noise`` (and an axis-angle perturbation with
    scale ``sigma_rot``) is layered on top; the reported sigma is the noise
    scale times ``miscalibration``, so values below 1 simulate an
    overconfident model.

    The noise comes from the counter-based stream keyed on the seed's 64-bit
    words (``sampling.seed_words``) and the timestamp bits (see
    ``sampling.stream_keys``): candidate i takes the standard normals at
    slots 6i..6i+5, the first three scaled by ``sigma_noise`` and the last
    three by ``sigma_rot``.  A candidate's noise therefore depends on
    neither the other timesteps nor the candidates that follow it, and
    ``estimate`` and ``estimate_batch`` agree bit for bit.  A context
    without a candidate index takes candidate 0's slots.
    """

    def __init__(self, config: SyntheticEstimatorConfig = SyntheticEstimatorConfig()):
        self.config = config
        self._sigma_noise = np.asarray(config.sigma_noise, dtype=float)
        self._sigma_report = np.maximum(self._sigma_noise * config.miscalibration, config.sigma_floor)
        self._corr = np.asarray(config.corr, dtype=float)

    def estimate(self, ctx: MeasurementContext, candidate: Pose, cloud: PointCloud | None = None) -> RawEstimate:
        noise = self._noise([ctx], 6 * (ctx.candidate_index or 0) + np.arange(6))
        position, orientation = candidate.position[None, None], candidate.orientation[None, None]
        fields = self._errors([ctx], position, orientation, noise[:, None])
        return RawEstimate(*(field[0, 0] for field in fields))

    def estimate_batch(
        self,
        ctxs: list[MeasurementContext],
        positions: np.ndarray,
        orientations: np.ndarray,
        cloud: PointCloud | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The estimates of candidates 0..N-1 of every context at once (see
        ``Estimator``)."""
        rows = positions.shape[:2]
        noise = self._noise(ctxs, np.arange(6 * rows[1])).reshape(rows + (6,))
        return check_estimates(*self._errors(ctxs, positions, orientations, noise), rows)

    def _noise(self, ctxs: list[MeasurementContext], slots: np.ndarray) -> np.ndarray:
        """The (T, S) standard normals at ``slots`` of each context's
        (seed, timestamp) stream."""
        seed = seed_words(self.config.seed)
        return stream_normals(stream_keys([(*seed, _float_key(ctx.timestamp)) for ctx in ctxs]), slots)

    def _errors(self, ctxs: list[MeasurementContext], positions, orientations, noise: np.ndarray) -> tuple:
        """Noisy raw estimates of the (T, N, 3) positions and (T, N, 4)
        orientations, unchecked; row (t, i) is judged against the true pose
        of ``ctxs[t]`` and takes its noise from ``noise[t, i]``.  Every step
        works row by row, so a row's bits do not depend on the others."""
        if any(ctx.true_pose is None for ctx in ctxs):
            raise InfeasibleContext("synthetic estimator needs the true pose in the context")
        true_orientations = np.array([ctx.true_pose.orientation for ctx in ctxs]).reshape(-1, 1, 4)
        true_positions = np.array([ctx.true_pose.position for ctx in ctxs]).reshape(-1, 1, 3, 1)
        r_true = quat_to_matrix(true_orientations)
        r_cand = quat_to_matrix(orientations)
        center_true = -(np.swapaxes(r_true, -1, -2) @ true_positions)
        center_cand = -(np.swapaxes(r_cand, -1, -2) @ positions[..., None])
        translation = (r_cand @ (center_cand - center_true))[..., 0]
        rotation = quat_multiply(orientations, quat_conjugate(true_orientations))
        if self.config.sigma_rot > 0.0:
            rotation = quat_multiply(_rotvecs_to_quats(noise[..., 3:] * self.config.sigma_rot), rotation)
        rows = noise.shape[:-1] + (3,)
        return (
            translation + noise[..., :3] * self._sigma_noise,
            rotation,
            np.broadcast_to(self._sigma_report, rows),
            np.broadcast_to(self._corr, rows),
        )

    def rotation_residual_samples(self, count: int, seed: int) -> np.ndarray:
        """Draws from the same rotation-perturbation distribution the
        estimator applies to its outputs, as scalar-first quaternions."""
        blocks = list(self.rotation_residual_blocks(count, seed, max(count, 1)))
        return blocks[0] if blocks else np.empty((0, 4))

    def rotation_residual_blocks(self, count: int, seed: int, size: int):
        """``rotation_residual_samples(count, seed)`` as consecutive blocks of at
        most ``size`` rows drawn in turn from its stream, which numpy fills in
        order: the blocks are its rows, bit for bit."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x726F74])))
        for start in range(0, count, size):
            yield _rotvecs_to_quats(rng.normal(0.0, self.config.sigma_rot, (min(size, count - start), 3)))


class FileEstimator:
    """Lookup of precomputed estimates keyed by (payload_key, candidate_index).

    The backing file is JSON-lines; each line holds payload_key,
    candidate_index, translation_error, rotation_error, sigma and corr.
    The table is loaded once into stacked fields, checked by one
    ``check_estimates`` call, and is read-only afterwards; a later record
    for a key replaces an earlier one.  It is kept in the derived-input cache
    under the SHA-256 of the file's bytes; ``file_record`` holds that
    ``sha256``, how it was ``hashed`` (see ``io.file_sha256``), the number of
    ``records`` and the ``cache`` outcome.
    """

    def __init__(self, path: Path | str):
        sha, hashed = io.file_sha256(path)
        (self._fields, self._rows), outcome = io.cached("table", sha, lambda: _read_table(path), _table)
        self.file_record = {"sha256": sha, "hashed": hashed, "records": len(self._fields[0]) - 1, "cache": outcome}

    def __len__(self) -> int:
        return sum(len(records) for records in self._rows.values())

    def estimate(self, ctx: MeasurementContext, candidate: Pose, cloud: PointCloud | None = None) -> RawEstimate:
        if ctx.candidate_index is None:
            raise InfeasibleContext("file-backed estimator needs a candidate index in the context")
        key = (ctx.payload_key, int(ctx.candidate_index))
        row = self._rows.get(key[0], {}).get(key[1])
        if row is None:
            raise MissingRecord(f"no estimate recorded for {key}")
        return RawEstimate.checked(*(field[row] for field in self._fields))

    def estimate_batch(
        self,
        ctxs: list[MeasurementContext],
        positions: np.ndarray,
        orientations: np.ndarray,
        cloud: PointCloud | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[tuple[int, int], MissingRecord]]:
        """The records of candidates 0..N-1 at each context's
        ``payload_key`` (see ``Estimator``).  A candidate without a record
        gets neutral values and the ``MissingRecord`` error ``estimate``
        would raise for it."""
        n = positions.shape[1]
        rows = np.full((len(ctxs), n), -1)
        failed = {}
        for t, ctx in enumerate(ctxs):
            records = self._rows.get(ctx.payload_key, {})
            rows[t] = [records.get(i, -1) for i in range(n)]
            for i in np.flatnonzero(rows[t] < 0).tolist():
                failed[t, i] = MissingRecord(f"no estimate recorded for {(ctx.payload_key, i)}")
        return (*(field[rows] for field in self._fields), failed)


# values that pass every check, for a candidate that is dropped anyway
_NEUTRAL = dict(zip(RECORD_FIELDS, ([0.0] * 3, [1.0, 0.0, 0.0, 0.0], [1.0] * 3, [0.0] * 3)))


def answers(estimator: Estimator, ctxs: list[MeasurementContext], positions, orientations, cloud) -> tuple:
    """The estimator's (T, N, ...) fields for the candidates at the (T, N, 3)
    ``positions`` and (T, N, 4) unit ``orientations``, and the package error
    of each (t, i) it could not answer: the one way the pipeline asks.

    ``estimate_batch`` is called once or, without one, ``estimate`` once per
    candidate.  A package error raised by the batch call fails every
    candidate, and a failed candidate's row is neutral, or what the batch
    put there.  Every row then passes ``check_estimates(..., normalized=True)``
    or raises its ValueError.
    """
    rows = positions.shape[:2]
    batch = getattr(estimator, "estimate_batch", partial(_one_at_a_time, estimator))
    try:
        answer = batch(ctxs, positions, orientations, cloud)
    except PlboundsError as exc:
        answer = (*_neutral(rows), dict.fromkeys(np.ndindex(rows), exc))
    return check_estimates(*answer[:4], rows, normalized=True), dict(answer[4]) if len(answer) > 4 else {}


def _neutral(rows: tuple[int, ...]) -> list[np.ndarray]:
    return [np.full(rows + (len(value),), value, dtype=float) for value in _NEUTRAL.values()]


def _one_at_a_time(estimator: Estimator, ctxs, positions, orientations, cloud) -> tuple:
    """``estimate_batch`` of an estimator with only ``estimate``: a candidate
    whose call raises a package error keeps a neutral row and that error."""
    fields, failed = _neutral(positions.shape[:2]), {}
    for t, i in np.ndindex(positions.shape[:2]):
        try:
            raw = estimator.estimate(ctxs[t].for_candidate(i), Pose.checked(positions[t, i], orientations[t, i]), cloud)
        except PlboundsError as exc:
            failed[t, i] = exc
            continue
        for field, name in zip(fields, RECORD_FIELDS):
            field[t, i] = getattr(raw, name)
    return (*fields, failed)


def _read_table(path: Path | str) -> tuple[dict[str, np.ndarray], dict]:
    """The checked field stacks of the records in ``path``, with a neutral last
    row, by field name, and ``rows``: by payload key, the candidate indexes
    and their rows."""
    records = io.read_jsonl(path)
    try:
        keys = [(str(record["payload_key"]), int(record["candidate_index"])) for record in records]
        # the last row, -1, is what candidates without a record are given
        stacks = [np.array([*(record[name] for record in records), v], dtype=float) for name, v in _NEUTRAL.items()]
        fields = check_estimates(*stacks, (len(records) + 1,))
    except (KeyError, OverflowError, TypeError, ValueError):
        _raise_for_malformed_record(path, records)
        raise
    rows: dict[str, dict[int, int]] = {}
    for row, (payload_key, index) in enumerate(keys):
        rows.setdefault(payload_key, {})[index] = row
    return dict(zip(RECORD_FIELDS, fields)), {"rows": {key: [list(r), list(r.values())] for key, r in rows.items()}}


def _table(arrays: dict[str, np.ndarray], values: dict) -> tuple[tuple, dict[str, dict[int, int]]]:
    """The field stacks and row index ``_read_table`` derived, checked again
    but not normalized again; raises ValueError unless the stacks end in the
    neutral row."""
    fields = tuple(arrays[name] for name in RECORD_FIELDS)
    if not all(f[-1].tolist() == v for f, v in zip(fields, _NEUTRAL.values())):
        raise ValueError("the last row of an estimate table must be neutral")
    rows = {key: dict(zip(*pair, strict=True)) for key, pair in values["rows"].items()}
    return check_estimates(*fields, (len(fields[0]),), normalized=True), rows


def _raise_for_malformed_record(path: Path | str, rows: list) -> None:
    """Check the records ``read_jsonl`` read from ``path`` one at a time:
    the first malformed record raises a ValueError naming its line."""
    for number, row in enumerate(rows):
        try:
            str(row["payload_key"]), int(row["candidate_index"])
            RawEstimate(*(np.asarray(row[f], dtype=float) for f in RECORD_FIELDS))
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            line = io.jsonl_line_number(path, number)
            reason = f"{type(exc).__name__}: {exc}"
            raise ValueError(f"{path}:{line}: malformed estimate record ({reason})") from None


def write_estimate_records(rows, path: Path | str) -> None:
    """Serialize (payload_key, candidate_index, RawEstimate) triples to the
    JSON-lines format the file-backed estimator reads."""
    out = []
    for payload_key, candidate_index, raw in rows:
        record = {"payload_key": str(payload_key), "candidate_index": int(candidate_index)}
        for name in RECORD_FIELDS:
            record[name] = [float(v) for v in getattr(raw, name)]
        out.append(record)
    io.write_jsonl(out, path)
