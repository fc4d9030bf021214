"""Turning per-candidate estimates into weighted error samples.

Three steps happen between the estimator and the mixture model:

1. Each candidate's vehicle-frame error is shifted by the rotated candidate
   offset, so every sample measures the error of the *state estimate*, and
   its covariance is inflated for the uncertainty of that rotation.
2. Robust per-dimension weights down-rank samples whose error disagrees
   with the bulk (median absolute deviation scoring, softmax weighting).
3. Optionally the horizontal samples are projected onto the direction the
   weighted errors point in, giving one horizontal and one vertical set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CorrectionNotPSD, InsufficientSamples
from .estimator import indefinite_rows
from .geometry import quat_to_matrix

# inverse standard-normal CDF at 3/4: one robust-Z unit equals one
# probable error, the customary consistency constant for MAD scoring
ROBUST_GAMMA = 0.6745

MIN_ROTATION_SAMPLES = 1000
# Quaternions turned into rows of R - I at a time by ``precompute_q``: its
# temporaries stay this size whatever the sample count.
ROTATION_BLOCK = 1 << 12


@dataclass(frozen=True)
class RotationUncertainty:
    """Second moments of the rows of (R' - I) over a rotation-residual
    distribution, as a (3, 3, 3, 3) tensor: ``q[i, j]`` is
    ``E[row_i(R'-I) outer row_j(R'-I)]``."""

    q: np.ndarray

    def __post_init__(self) -> None:
        # C order whatever the input's layout: ``transform_error``'s einsum
        # sums in an order that depends on it
        q = np.ascontiguousarray(self.q, dtype=float)
        if q.shape != (3, 3, 3, 3):
            raise ValueError("rotation uncertainty tensor must have shape (3, 3, 3, 3)")
        if not np.all(np.isfinite(q)):
            raise ValueError("rotation uncertainty tensor must be finite")
        sym = np.abs(q - np.transpose(q, (1, 0, 3, 2))).max()
        if sym > 1e-9:
            raise ValueError(f"tensor violates block symmetry by {sym:.2e}")
        object.__setattr__(self, "q", q)

    @classmethod
    def zero(cls) -> "RotationUncertainty":
        return cls(np.zeros((3, 3, 3, 3)))


def precompute_q(
    rotation_samples, min_samples: int = MIN_ROTATION_SAMPLES, count: int | None = None
) -> RotationUncertainty:
    """Estimate the rotation-uncertainty tensor from residual quaternions.

    ``rotation_samples`` is an (M, 4) array of scalar-first unit quaternions
    drawn from the rotation-residual distribution of the estimator or, with
    ``count`` = M, an iterable of (k, 4) blocks holding M of them in all.
    They become the (M, 9) rows of R - I one ``ROTATION_BLOCK`` (or one
    given block) at a time, so those rows are all that grows with M.
    """
    if count is None:
        samples = np.asarray(rotation_samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 4:
            raise ValueError("rotation samples must be an (M, 4) quaternion array")
        count = len(samples)
        rotation_samples = (samples[i : i + ROTATION_BLOCK] for i in range(0, count, ROTATION_BLOCK))
    if count < min_samples:
        raise InsufficientSamples(f"need at least {min_samples} rotation samples, got {count}")
    rows = np.empty((count, 9))
    filled = 0
    for block in rotation_samples:
        block_rows = (quat_to_matrix(block) - np.eye(3)).reshape(-1, 9)
        rows[filled : filled + len(block_rows)] = block_rows
        filled += len(block_rows)
    if filled != count:
        raise ValueError(f"rotation sample blocks hold {filled} quaternions, not the stated {count}")
    # one (9, 9) contraction of all rows sums each entry in the order the 4-D
    # ``einsum("mia,mjb->ijab")`` does, and gives its bits; blockwise sums would not
    q = np.einsum("mk,ml->kl", rows, rows).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3) / count
    return RotationUncertainty(q)


def transform_error(
    rotation: np.ndarray, errors: np.ndarray, covariances: np.ndarray, offset_translations: np.ndarray,
    rotation_uncertainty: RotationUncertainty,
) -> tuple[np.ndarray, np.ndarray, dict[int, CorrectionNotPSD]]:
    """Shift N candidates' (N, 3) errors by their known (N, 3) offsets and
    inflate their (N, 3, 3) covariances.

    With R a candidate's rotation-error matrix (``rotation`` stacks them)
    and t its offset, the sample mean is ``error - R.T t`` and each
    covariance entry grows by ``u' q[i, j] u`` for ``u = R.T t``.  Returns
    the means, the covariances, and the error of each row whose inflated
    covariance is not positive definite, keyed by row.
    """
    t = np.asarray(offset_translations, dtype=float)
    if t.shape != np.shape(errors):
        raise ValueError("offset translations must be (N, 3), one per error")
    u = (np.swapaxes(rotation, -1, -2) @ t[..., None])[..., 0]
    cov = covariances + np.einsum("na,ijab,nb->nij", u, rotation_uncertainty.q, u)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    failed = {i: CorrectionNotPSD("corrected covariance is not positive definite") for i in indefinite_rows(cov)}
    return errors - u, cov, failed


# ---------------------------------------------------------------------------
# robust weights


def outlier_weights(errors: np.ndarray, gamma: float = ROBUST_GAMMA) -> np.ndarray:
    """Per-dimension softmax weights that de-emphasize outlying samples.

    ``errors`` is one (N, dims) sample set or an (..., N, dims) stack of
    them.  Each column is scored by its absolute deviation from the column
    median, scaled by the median of those deviations; weights are
    ``softmax(-gamma * score)``.  When every deviation is zero the weights
    are uniform; when only the median deviation collapses (more than half
    the samples identical) the mean absolute deviation takes over as scale.
    """
    e = np.asarray(errors, dtype=float)
    if e.ndim < 2 or e.shape[-2] < 1:
        raise ValueError("errors must be (..., N, dims) with N >= 1")
    # one contiguous row per column: every reduction then runs along a row,
    # as it did on a lone column, and gives its bits
    cols = np.ascontiguousarray(np.swapaxes(e, -1, -2))
    dev = np.abs(cols - np.median(cols, axis=-1, keepdims=True))
    mad = np.median(dev, axis=-1, keepdims=True)
    scale = np.where(mad == 0.0, dev.mean(axis=-1, keepdims=True), mad)
    with np.errstate(divide="ignore", invalid="ignore"):
        logits = -gamma * (dev / scale)
    logits -= logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits)
    weights = np.where(scale == 0.0, 1.0 / e.shape[-2], ex / ex.sum(axis=-1, keepdims=True))
    return np.ascontiguousarray(np.swapaxes(weights, -1, -2))


@dataclass(frozen=True)
class ErrorSampleSet:
    """Per-dimension mixture ingredients: sample means, variances and weights,
    each of shape (N, 3) for the lateral/longitudinal/vertical axes."""

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if not (m.shape == v.shape == w.shape) or m.ndim != 2 or m.shape[1] != 3:
            raise ValueError("means, variances and weights must share shape (N, 3)")
        if np.any(v <= 0.0):
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        object.__setattr__(self, "weights", w)


# ---------------------------------------------------------------------------
# directional projection


@dataclass(frozen=True)
class DirectionalErrors:
    """Samples projected onto the dominant horizontal error direction.

    ``excluded`` names the horizontal dimension dropped because the
    direction was too close to one axis ('x', 'y' or None).
    """

    theta: float
    horizontal_means: np.ndarray
    horizontal_variances: np.ndarray
    horizontal_weights: np.ndarray
    vertical_means: np.ndarray
    vertical_variances: np.ndarray
    vertical_weights: np.ndarray
    excluded: str | None


def project_directional(samples: ErrorSampleSet, direction_floor: float = 0.05) -> DirectionalErrors:
    """Project the x/y sample sets onto the weighted mean error direction.

    The direction angle is ``atan2(w_y . e_y, w_x . e_x)``.  Magnitudes are
    scaled by 1/cos and 1/sin, variances by their squares, and the two
    halves carry half their original weight each.  A half whose direction
    cosine falls below ``direction_floor`` is excluded and the remaining
    weights renormalized; the vertical set passes through with magnitudes
    taken absolute.
    """
    ex, ey, ez = samples.means[:, 0], samples.means[:, 1], samples.means[:, 2]
    vx, vy, vz = samples.variances[:, 0], samples.variances[:, 1], samples.variances[:, 2]
    wx, wy, wz = samples.weights[:, 0], samples.weights[:, 1], samples.weights[:, 2]
    theta = math.atan2(float(wy @ ey), float(wx @ ex))
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) < direction_floor:
        h_means, h_vars, h_weights, excluded = np.abs(ey / s), vy / s**2, wy, "x"
    elif abs(s) < direction_floor:
        h_means, h_vars, h_weights, excluded = np.abs(ex / c), vx / c**2, wx, "y"
    else:
        h_means = np.concatenate((np.abs(ex / c), np.abs(ey / s)))
        h_vars = np.concatenate((vx / c**2, vy / s**2))
        h_weights = np.concatenate((0.5 * wx, 0.5 * wy))
        excluded = None
    return DirectionalErrors(
        theta=theta,
        horizontal_means=h_means,
        horizontal_variances=h_vars,
        horizontal_weights=h_weights,
        vertical_means=np.abs(ez),
        vertical_variances=vz,
        vertical_weights=wz,
        excluded=excluded,
    )
