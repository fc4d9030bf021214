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
from pathlib import Path

import numpy as np

from . import io
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
    eye = np.eye(3).reshape(9)
    filled = 0
    for block in rotation_samples:
        matrices = quat_to_matrix(block).reshape(-1, 9)
        # R - I written straight into its rows, no temporary copy
        np.subtract(matrices, eye, out=rows[filled : filled + len(matrices)])
        filled += len(matrices)
    if filled != count:
        raise ValueError(f"rotation sample blocks hold {filled} quaternions, not the stated {count}")
    # one (9, 9) contraction of all rows sums each entry in the order the 4-D
    # ``einsum("mia,mjb->ijab")`` does, and gives its bits; blockwise sums would not
    q = np.einsum("mk,ml->kl", rows, rows).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3) / count
    return RotationUncertainty(q)


def rotation_uncertainty_from_file(path: Path | str) -> tuple[RotationUncertainty, dict]:
    """``precompute_q(io.read_quaternion_lines(path))``, kept in the derived-input
    cache under the SHA-256 of the file's bytes.  Returns the tensor and
    the file's ``sha256``, how it was ``hashed`` (see ``io.file_sha256``),
    its ``samples`` and the ``cache`` outcome."""
    sha, hashed = io.file_sha256(path)

    def derive() -> tuple[dict, dict]:
        samples = io.read_quaternion_lines(path)
        return {"q": precompute_q(samples).q}, {"samples": len(samples)}

    (tensor, samples), outcome = io.cached("rotation", sha, derive, load_tensor)
    return tensor, {"sha256": sha, "hashed": hashed, "samples": samples, "cache": outcome}


def load_tensor(arrays: dict[str, np.ndarray], values: dict) -> tuple[RotationUncertainty, int]:
    """The tensor ``q`` and the integer count of ``samples`` it was reduced
    from, as ``io.cached`` holds them: the tensor passes the
    ``RotationUncertainty`` checks."""
    if type(values["samples"]) is not int:
        raise ValueError(f"the sample count must be an integer, got {values['samples']!r}")
    return RotationUncertainty(arrays["q"]), values["samples"]


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


def _median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1, keepdims=True)`` bit for bit, without its
    wrappers: the same partition, the same mean of the middle one or two
    entries, and a NaN in a row makes the row's median that NaN."""
    n = a.shape[-1]
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(a, middle + [-1], axis=-1)
    median = np.add.reduce(part[..., middle[0] : n // 2 + 1], axis=-1, keepdims=True) / len(middle)
    last = part[..., -1:]  # the largest entry, or a NaN
    return np.where(np.isnan(last), last, median)


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
    dev = np.abs(cols - _median(cols))
    mad = _median(dev)
    scale = np.where(mad == 0.0, dev.mean(axis=-1, keepdims=True), mad)
    # a deviation over a tiny scale may overflow: its score is infinite and its weight 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logits = -gamma * (dev / scale)
    logits -= logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits)
    weights = np.where(scale == 0.0, 1.0 / e.shape[-2], ex / ex.sum(axis=-1, keepdims=True))
    return np.ascontiguousarray(np.swapaxes(weights, -1, -2))


# ---------------------------------------------------------------------------
# directional projection


# the horizontal dimension a projection drops, by code; 0 drops none
EXCLUDED_AXES = (None, "x", "y")


@dataclass(frozen=True)
class DirectionalErrors:
    """G stacked sample sets projected onto their dominant horizontal error
    direction.

    ``theta`` holds the (G,) direction angles and ``excluded`` the (G,)
    codes, into ``EXCLUDED_AXES``, of the horizontal dimension each set
    dropped because its direction was too close to one axis.  The sets that
    dropped the same one share a horizontal mixture length, 2N or N:
    ``horizontal`` holds, per code present, the (g,) indices of those sets
    and their (g, length) mixture means, variances and weights.
    ``vertical`` holds the (G, N) vertical mixtures.
    """

    theta: np.ndarray
    excluded: np.ndarray
    horizontal: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    vertical: tuple[np.ndarray, np.ndarray, np.ndarray]


def project_directional(
    means: np.ndarray, variances: np.ndarray, weights: np.ndarray, direction_floor: float = 0.05
) -> DirectionalErrors:
    """Project the x/y columns of G sample sets, the (G, N, 3) means,
    variances and weights, onto each set's weighted mean error direction.

    A set's direction angle is ``atan2(w_y . e_y, w_x . e_x)``.  Magnitudes
    are scaled by 1/cos and 1/sin, variances by their squares, and the two
    halves carry half their original weight each.  A half whose direction
    cosine falls below ``direction_floor`` is excluded and the remaining
    weights renormalized; the vertical set passes through with magnitudes
    taken absolute.
    """
    (ex, ey, ez), (vx, vy, vz), (wx, wy, wz) = ([a[..., k] for k in range(3)] for a in (means, variances, weights))
    # a set's (1, N) @ (N, 1) product of its strided columns, stacked, runs the
    # BLAS dot product of a lone set's columns (same strides, same kernel) and
    # gives its bits; math.atan2 is kept, as np.arctan2 differs in the last bit
    dots = [(w[:, None, :] @ e[:, :, None])[:, 0, 0].tolist() for w, e in ((wy, ey), (wx, ex))]
    rows = []
    for y, x in zip(*dots):
        theta = math.atan2(y, x)
        c, s = math.cos(theta), math.sin(theta)
        rows.append((theta, c, s, c**2, s**2, 1 if abs(c) < direction_floor else 2 if abs(s) < direction_floor else 0))
    theta, c, s, c2, s2, excluded = (np.array(column) for column in zip(*rows))
    horizontal = []
    for code in np.unique(excluded).tolist():
        g = np.flatnonzero(excluded == code)
        halves = [  # each kept half, scaled by its direction cosine (cos for x, sin for y)
            (np.abs(e[g] / cosine[g, None]), v[g] / square[g, None], w[g])
            for dropped, e, v, w, cosine, square in ((1, ex, vx, wx, c, c2), (2, ey, vy, wy, s, s2))
            if code != dropped
        ]
        if len(halves) == 2:  # both halves, at half their weight
            halves = [(m, v, 0.5 * w) for m, v, w in halves]
        horizontal.append((g, *(np.concatenate(parts, axis=1) for parts in zip(*halves))))
    return DirectionalErrors(theta, excluded.astype(np.int8), tuple(horizontal), (np.abs(ez), vz, wz))
