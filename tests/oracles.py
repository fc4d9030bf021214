"""Independent reference implementations used to pin expected values.

Everything here deliberately takes a different route than the package:
normal quantiles come from the standard library's NormalDist, mixture
quantiles from a two-stage grid scan over math.erf, rotations are applied
with the quaternion sandwich instead of a matrix, the random draws come
from the SplitMix64 generator stepped in Python ints, and the file readers
are the per-line loops the bulk loads replaced.  Slow is fine; trustworthy matters.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from statistics import NormalDist

import numpy as np

_STD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    return _STD_NORMAL.inv_cdf(p)


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def mixture_cdf(x: float, means, sigmas, weights) -> float:
    total = 0.0
    for m, s, w in zip(means, sigmas, weights):
        total += w * normal_cdf((x - m) / s)
    return total


def grid_quantile(means, sigmas, weights, p: float, fine: float = 1e-5) -> float:
    """First grid point whose mixture CDF reaches p; error below ``fine``.

    A coarse scan brackets the crossing, a fine scan pins it down.
    """
    lo = min(m - 12.0 * s for m, s in zip(means, sigmas))
    hi = max(m + 12.0 * s for m, s in zip(means, sigmas))
    coarse = (hi - lo) / 4096.0
    x = lo
    while mixture_cdf(x, means, sigmas, weights) < p:
        x += coarse
        if x > hi + coarse:
            raise AssertionError("grid scan ran past the upper bound")
    x -= coarse
    while mixture_cdf(x, means, sigmas, weights) < p:
        x += fine
    return x


def grid_protection_level(means, sigmas, weights, integrity_risk: float, fine: float = 1e-5) -> float:
    half = 0.5 * integrity_risk
    hi = grid_quantile(means, sigmas, weights, 1.0 - half, fine)
    lo = grid_quantile(means, sigmas, weights, half, fine)
    return max(abs(hi), abs(lo))


def scalar_bisection(means, variances, weights, p: float, tolerance: float, max_iterations: int):
    """Final bracket (lo, hi) of one mixture quantile, by a scalar bisection
    over the integer indices of the lattice of multiples of ``tolerance``.
    It starts from the lattice-rounded span of the component quantiles at
    ``p -/+ 1e-10`` (from NormalDist, not SciPy), or, for a p within 1e-10
    of 0 or 1, from the components widened by ten standard deviations,
    checked.  The CDF is evaluated the way the package's one-mixture
    solver did, a (1, N) @ (N,) product, so the brackets are comparable bit
    for bit."""
    from scipy.special import erf

    means, weights = np.asarray(means, dtype=float), np.asarray(weights, dtype=float)
    sigmas = np.sqrt(np.asarray(variances, dtype=float))

    def cdf(x):
        z = (np.array([x])[:, None] - means[None, :]) / sigmas[None, :]
        return float((0.5 * (1.0 + erf(z / math.sqrt(2.0))) @ weights)[0])

    eps = 1e-10
    if 0.0 < p - eps and p + eps < 1.0:
        lo = math.floor(min(m + s * normal_quantile(p - eps) for m, s in zip(means, sigmas)) / tolerance)
        hi = math.ceil(max(m + s * normal_quantile(p + eps) for m, s in zip(means, sigmas)) / tolerance)
    else:
        lo = math.floor(float(np.min(means - 10.0 * sigmas)) / tolerance)
        hi = math.ceil(float(np.max(means + 10.0 * sigmas)) / tolerance)
        if not cdf(lo * tolerance) < p <= cdf(hi * tolerance):
            raise ArithmeticError(f"could not bracket probability {p}")
    iterations = 0
    while hi - lo > 1:
        if iterations >= max_iterations:
            raise ArithmeticError(f"no convergence within {max_iterations} bisection steps")
        mid = (lo + hi) // 2
        if cdf(mid * tolerance) >= p:
            hi = mid
        else:
            lo = mid
        iterations += 1
    return lo * tolerance, hi * tolerance


def midpoint_protection_level(mixture, query):
    """``protection_level`` as the package computed it before it bisected
    on a lattice: both tails of every row bisected together, by midpoints,
    from the components widened by ten standard deviations, until the
    bracket half-width is below the tolerance; the bound is the larger
    magnitude of the two outer bracket edges."""
    from plbounds.gmm import std_normal_cdf

    half = 0.5 * query.integrity_risk
    n = mixture.means.shape[-1]
    means, sigmas, weights = (
        np.repeat(a.reshape(-1, n), 2, axis=0) for a in (mixture.means, mixture.sigmas, mixture.weights)
    )
    p = np.tile([1.0 - half, half], len(means) // 2)

    def cdf(x):
        return (std_normal_cdf((x[:, None] - means) / sigmas)[:, None, :] @ weights[:, :, None])[:, 0, 0]

    lo = np.min(means - 10.0 * sigmas, axis=1)
    hi = np.max(means + 10.0 * sigmas, axis=1)
    if not ((cdf(lo) <= p) & (p <= cdf(hi))).all():
        raise ArithmeticError("could not bracket a tail probability")
    for iterations in range(query.max_iterations + 1):
        active = 0.5 * (hi - lo) > query.tolerance
        if not active.any():
            break
        if iterations == query.max_iterations:
            raise ArithmeticError(f"no convergence within {query.max_iterations} bisection steps")
        mid = 0.5 * (lo + hi)
        above = cdf(mid) >= p
        hi = np.where(active & above, mid, hi)
        lo = np.where(active & ~above, mid, lo)
    upper, lower = np.abs(hi[0::2]), np.abs(lo[1::2])
    bounds = np.maximum(upper, lower).reshape(mixture.means.shape[:-1])
    return float(bounds) if bounds.ndim == 0 else bounds


def midpoint_protection_levels_all(means, variances, weights, query):
    """``protection_levels_all`` by ``midpoint_protection_level``."""
    from plbounds.gmm import GaussianMixture

    axes = (np.swapaxes(np.asarray(a, dtype=float), -1, -2) for a in (means, variances, weights))
    return midpoint_protection_level(GaussianMixture(*axes), query)


def robust_weights(column, gamma: float = 0.6745):
    """MAD-scored softmax weights, pure Python."""
    col = list(map(float, column))
    med = statistics.median(col)
    dev = [abs(v - med) for v in col]
    mad = statistics.median(dev)
    scale = mad if mad != 0.0 else sum(dev) / len(dev)
    if scale == 0.0:
        return [1.0 / len(col)] * len(col)
    logits = [-gamma * d / scale for d in dev]
    mx = max(logits)
    ex = [math.exp(v - mx) for v in logits]
    s = sum(ex)
    return [e / s for e in ex]


def outlier_weights_per_column(errors, gamma: float = 0.6745) -> np.ndarray:
    """The package's robust weights as they were computed before sample
    sets were stacked: one lone column of an (N, dims) array at a time, so
    the stacked version can be compared bit for bit."""
    e = np.asarray(errors, dtype=float)
    weights = np.empty_like(e)
    for d in range(e.shape[1]):
        col = e[:, d]
        dev = np.abs(col - np.median(col))
        mad = float(np.median(dev))
        if mad == 0.0:
            fallback = float(dev.mean())
            if fallback == 0.0:
                weights[:, d] = 1.0 / col.size
                continue
            mad = fallback
        with np.errstate(over="ignore"):  # a deviation over a tiny scale: an infinite score, weight 0
            score = dev / mad
        logits = -gamma * score
        logits -= logits.max()
        ex = np.exp(logits)
        weights[:, d] = ex / ex.sum()
    return weights


# ---------------------------------------------------------------------------
# derived-input cache entries, by the layout's definition


def read_entry(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON header of a cache entry and its arrays: after the header's
    line, the little-endian float64 values of each array its ``shapes`` name,
    in that order, and nothing more."""
    head, newline, data = Path(path).read_bytes().partition(b"\n")
    doc = json.loads(head)
    arrays, at = {}, 0
    for name, shape in doc["shapes"].items():
        size = 8 * math.prod(shape)
        arrays[name] = np.frombuffer(data[at : at + size], dtype="<f8").reshape(shape)
        at += size
    assert newline and at == len(data)
    return doc, arrays


def write_entry(path, doc, arrays: dict[str, np.ndarray]) -> None:
    """``doc`` as the header line, its ``shapes`` those of ``arrays``, then
    the bytes of each array in its own dtype (a float32 array writes half
    the bytes its shape asks for)."""
    doc = dict(doc, shapes={name: list(a.shape) for name, a in arrays.items()})
    Path(path).write_bytes(json.dumps(doc).encode() + b"\n" + b"".join(a.tobytes() for a in arrays.values()))


# ---------------------------------------------------------------------------
# file readers as they were before the bulk loads


def json_quaternion_lines(path) -> np.ndarray:
    """The quaternion-file reader as one ``json.loads`` per non-blank line:
    a line that is not JSON, or that holds an integer beyond the float
    range, raises ValueError naming the file and the line, and anything but
    one 4-element array per line the 4-element error."""
    rows, numbers = [], []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
                numbers.append(number)
    try:
        arr = np.asarray(rows, dtype=float)
    except OverflowError as exc:
        number = next(n for n, row in zip(numbers, rows) if _overflows(row))
        raise ValueError(f"{path}:{number}: {exc}") from None
    if arr.size == 0:
        return np.empty((0, 4))
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"{path}: each line must hold one 4-element quaternion")
    return arr


def _overflows(value) -> bool:
    """Whether a JSON value holds a number ``float`` cannot represent."""
    if isinstance(value, list):
        return any(_overflows(v) for v in value)
    try:
        float(value)
    except OverflowError:
        return True
    except (TypeError, ValueError):
        pass
    return False


class StoredRecords:
    """The file-backed estimator as one ``RawEstimate`` per record, looked
    up one candidate at a time."""

    def __init__(self, path):
        from plbounds.errors import MissingRecord
        from plbounds.estimator import RECORD_FIELDS, RawEstimate

        self._missing = MissingRecord
        self._records = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    row = json.loads(line)
                    key = (str(row["payload_key"]), int(row["candidate_index"]))
                    self._records[key] = RawEstimate(*(np.asarray(row[f], dtype=float) for f in RECORD_FIELDS))

    def estimate(self, ctx, candidate, cloud=None):
        key = (ctx.payload_key, int(ctx.candidate_index))
        if key not in self._records:
            raise self._missing(f"no estimate recorded for {key}")
        return self._records[key]


# ---------------------------------------------------------------------------
# counter-based draws from the SplitMix64 generator, in Python ints

_M64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator as Steele, Lea and Flood publish it (OOPSLA
    2014): the state advances by the golden gamma, and each output is the
    finalizer of the new state."""

    def __init__(self, state: int):
        self.state = state & _M64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)


def stream_key(words) -> int:
    """The key of a seed's words: for each 64-bit piece of each word, low
    pieces first, the key becomes the first output of the generator seeded
    at ``key ^ piece``."""
    key = 0
    for word in words:
        if word < 0:
            raise ValueError("negative seed word")
        pieces = [(word >> shift) & _M64 for shift in range(0, max(word.bit_length(), 1), 64)]
        for piece in pieces:
            key = SplitMix64(key ^ piece).next()
    return key


def stream_words(key: int, count: int) -> list[int]:
    """The first ``count`` outputs of the generator seeded at ``key``."""
    generator = SplitMix64(key)
    return [generator.next() for _ in range(count)]


def candidate_offsets(words, n_candidates: int, t_max: float, r_max: float):
    """One timestep's sampled offsets, candidates 1..N-1 (candidate 0 is
    the zero offset): candidate i's six uniforms, 53-bit floats from outputs
    6i..6i+5, give three translations and the roll, pitch and yaw
    half-angles; its rotation is the product of the three axis quaternions,
    with math.cos and math.sin, normalized in Python floats.  Returns lists
    of (3,) translations and (4,) rotations."""
    draws = stream_words(stream_key(words), 6 * n_candidates)
    translations, rotations = [], []
    for i in range(1, n_candidates):
        x = [2.0 * ((w >> 11) * 2.0**-53) - 1.0 for w in draws[6 * i : 6 * i + 6]]
        translations.append([t_max * v for v in x[:3]])
        roll, pitch, yaw = (0.5 * r_max * v for v in x[3:])
        q = [1.0, 0.0, 0.0, 0.0]
        for axis, half in ((3, yaw), (2, pitch), (1, roll)):  # z, then y, then x, intrinsically
            factor = [math.cos(half), 0.0, 0.0, 0.0]
            factor[axis] = math.sin(half)
            q = _hamilton(q, factor)
        norm = math.sqrt(sum(v * v for v in q))
        rotations.append([v / norm if q[0] >= 0.0 else -v / norm for v in q])
    return translations, rotations


def _hamilton(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]


# ---------------------------------------------------------------------------
# the VAR bound of a calibrated oracle, as a model


def var_failure_probability(error: float, sigma: float, integrity_risk: float) -> float:
    """P(|e| > PL) on one axis for ``VAR`` fed a calibrated estimate: the
    estimator reports the true error e plus noise n ~ N(0, sigma^2) with
    sigma itself, so the bound is the two-sided one of N(e + n, sigma^2),
    PL = |e + n| + z sigma with z the 1 - risk/2 quantile (the solver's
    lattice adds at most its tolerance, ignored here).  It fails where
    |e + n| < |e| - z sigma: for a = |e| / sigma > z the integral of the
    normal density over n / sigma in (z - 2a, -z) (mirrored for e < 0),
    and 0 otherwise."""
    z = normal_quantile(1.0 - 0.5 * integrity_risk)
    a = abs(error) / sigma
    return normal_cdf(-z) - normal_cdf(z - 2.0 * a) if a > z else 0.0


# ---------------------------------------------------------------------------
# rotations without matrices


def rotvec_quats(rng: np.random.Generator, count: int, scale: float = 0.05) -> np.ndarray:
    """``count`` unit quaternions of rotation vectors drawn N(0, scale^2) per axis."""
    return masked_rotvec_quats(rng.normal(0.0, scale, size=(count, 3)))


def masked_rotvec_quats(rotvecs) -> np.ndarray:
    """(..., 4) quaternions of (..., 3) rotation vectors with the zero angles
    masked out, as the package converted them before it took the whole
    stack at once; the two agree bit for bit."""
    angles = np.linalg.norm(rotvecs, axis=-1)
    quats = np.zeros(rotvecs.shape[:-1] + (4,))
    quats[..., 0] = np.cos(0.5 * angles)
    nz = angles > 0.0
    quats[nz, 1:] = np.sin(0.5 * angles[nz])[:, None] * rotvecs[nz] / angles[nz][:, None]
    quats[~nz, 0] = 1.0
    return quats


def rotate(q, v) -> np.ndarray:
    """Apply a unit quaternion to a vector via the two-cross-product form."""
    w = float(q[0])
    u = np.asarray(q[1:4], dtype=float)
    v = np.asarray(v, dtype=float)
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def rotation_matrix(q) -> np.ndarray:
    """Column-wise rotation matrix from quaternion-rotated basis vectors."""
    return np.column_stack([rotate(q, e) for e in np.eye(3)])


def entrywise_quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices of one quaternion or an (..., 4) stack as the
    package built them before it computed each product once: each textbook
    entry evaluated on the component views, e.g. ``1 - 2 * (y * y + z * z)``,
    then written into a C-contiguous (..., 3, 3) array."""
    w, x, y, z = np.asarray(q, dtype=float).T
    entries = [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]
    return np.stack([np.asarray(e).T for e in entries], axis=-1).reshape(np.shape(q)[:-1] + (3, 3))


def lead_sign_quat_normalize(q) -> np.ndarray:
    """A (..., 4) stack of quaternions divided by their norms, each signed
    so that its first non-zero component is positive: the package's stack
    normalization without its fast path for a positive scalar part."""
    q = np.ascontiguousarray(q, dtype=float)
    n = np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    lead = np.take_along_axis(q, np.argmax(q != 0.0, axis=-1)[..., None], axis=-1)
    return q / np.where(lead < 0.0, -n, n)


def q_tensor(quats) -> np.ndarray:
    """Second moments of the rows of (R - I), by explicit outer products."""
    acc = np.zeros((3, 3, 3, 3))
    for quat in quats:
        d = rotation_matrix(quat) - np.eye(3)
        for i in range(3):
            for j in range(3):
                acc[i, j] += np.outer(d[i], d[j])
    return acc / len(quats)


def copying_q_tensor(quats, block: int) -> np.ndarray:
    """The tensor as ``precompute_q`` built it before it wrote R - I straight
    into its rows: per block of quaternions the matrices, then a copy with
    the identity subtracted, copied into the rows."""
    from plbounds.geometry import quat_to_matrix

    rows = np.empty((len(quats), 9))
    for i in range(0, len(quats), block):
        rows[i : i + block] = (quat_to_matrix(quats[i : i + block]) - np.eye(3)).reshape(-1, 9)
    return np.einsum("mk,ml->kl", rows, rows).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3) / len(quats)


def einsum_q_tensor(mats) -> np.ndarray:
    """The tensor from an (M, 3, 3) stack of (R - I) matrices by the 4-D
    einsum ``precompute_q`` contracted with before its (9, 9) form; the two
    agree bit for bit."""
    mats = np.asarray(mats, dtype=float)
    return np.einsum("mia,mjb->ijab", mats, mats) / len(mats)


def vehicle_frame_error(true_pose, estimate_pose) -> np.ndarray:
    """One pose pair's vehicle-frame error by (3, 3) @ (3,) products, as the
    package computed it before it stacked the pairs of a block."""
    from plbounds.geometry import quat_to_matrix

    r_true = quat_to_matrix(true_pose.orientation)
    r_est = quat_to_matrix(estimate_pose.orientation)
    center_true = -r_true.T @ true_pose.position
    center_est = -r_est.T @ estimate_pose.position
    return r_true @ (center_true - center_est)


def correction_matrix(quats, u) -> np.ndarray:
    """Mean outer product of (R - I) u over a quaternion sample."""
    u = np.asarray(u, dtype=float)
    acc = np.zeros((3, 3))
    for quat in quats:
        v = (rotation_matrix(quat) - np.eye(3)) @ u
        acc += np.outer(v, v)
    return acc / len(quats)


def candidate_sample(translation_error, rotation_error, sigma, corr, offset, rotation_samples):
    """One candidate's mixture sample, the long way round.

    The raw error is rotated out of the candidate frame with the conjugate
    quaternion, the covariance is built entry by entry and conjugated, and
    the rotation inflation is the mean outer product over the rotation
    samples themselves.  Returns (mean, covariance), or None when a
    covariance has a non-positive eigenvalue.
    """
    q = np.asarray(rotation_error, dtype=float)
    conj = np.array([q[0], -q[1], -q[2], -q[3]])
    pair = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    cov = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            rho = 1.0 if i == j else corr[pair[min(i, j), max(i, j)]]
            cov[i, j] = rho * sigma[i] * sigma[j]
    if np.linalg.eigvalsh(cov).min() <= 0.0:
        return None
    back = rotation_matrix(conj)  # R.T
    u = rotate(conj, offset)
    total = back @ cov @ back.T + correction_matrix(rotation_samples, u)
    if np.linalg.eigvalsh(total).min() <= 0.0:
        return None
    return -rotate(conj, translation_error) - u, total


# ---------------------------------------------------------------------------
# the VAR bound as its own branch


def var_block(estimator, ctxs, estimate_poses, cloud, query):
    """``VAR``'s results for T timesteps the way the package bounded ``VAR``
    before it became the one-candidate block: per timestep one ``estimate``
    call at the estimate pose, then ``to_vehicle_frame`` with no offset
    correction, then ``protection_levels_all`` with weight 1.  An estimator
    error is raised as it is, then the first indefinite covariance's."""
    from plbounds.estimator import RECORD_FIELDS, to_vehicle_frame
    from plbounds.geometry import quat_to_matrix
    from plbounds.gmm import protection_levels_all
    from plbounds.pipeline import BlockResult

    raws = [estimator.estimate(ctx.for_candidate(0), pose, cloud) for ctx, pose in zip(ctxs, estimate_poses)]
    fields = [np.array([getattr(raw, name) for raw in raws]) for name in RECORD_FIELDS]
    errors, covs, failed = to_vehicle_frame(quat_to_matrix(fields[1]), fields[0], *fields[2:])
    if failed:
        raise failed[min(failed)]
    steps = len(raws)
    variances = np.diagonal(covs, axis1=1, axis2=2).copy()
    weights = np.ones((steps, 1, 3))
    pls = protection_levels_all(errors[:, None], variances[:, None], weights, query)
    samples = ((np.arange(steps), errors[:, None], variances[:, None], weights),)
    ones, zeros = np.ones(steps, dtype=np.int64), np.zeros(steps, dtype=np.int64)
    return BlockResult(pls, ones, zeros, np.full(steps, np.nan), np.zeros(steps, dtype=np.int8), (), samples)


# ---------------------------------------------------------------------------
# directional projection, one sample set at a time


def project_directional(means, variances, weights, direction_floor: float = 0.05):
    """One (N, 3) sample set projected the way the package projected each
    timestep's set before it stacked them: (theta, excluded axis or None,
    horizontal (means, variances, weights), vertical (means, variances,
    weights))."""
    ex, ey, ez = means[:, 0], means[:, 1], means[:, 2]
    vx, vy, vz = variances[:, 0], variances[:, 1], variances[:, 2]
    wx, wy, wz = weights[:, 0], weights[:, 1], weights[:, 2]
    theta = math.atan2(float(wy @ ey), float(wx @ ex))
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) < direction_floor:
        horizontal, excluded = (np.abs(ey / s), vy / s**2, wy), "x"
    elif abs(s) < direction_floor:
        horizontal, excluded = (np.abs(ex / c), vx / c**2, wx), "y"
    else:
        horizontal = (
            np.concatenate((np.abs(ex / c), np.abs(ey / s))),
            np.concatenate((vx / c**2, vy / s**2)),
            np.concatenate((0.5 * wx, 0.5 * wy)),
        )
        excluded = None
    return theta, excluded, horizontal, (np.abs(ez), vz, wz)


# ---------------------------------------------------------------------------
# integrity metrics over one record per timestep


class IntegrityRecord:
    """One timestep's protection levels and true error, as the package kept
    them before its metrics took columns."""

    def __init__(self, pl, error):
        self.pl = np.array([float(v) for v in pl])
        if self.pl.shape != (3,) or not (np.isfinite(self.pl) & (self.pl >= 0.0)).all():
            raise ValueError("protection levels must be three finite non-negative values")
        self.error = np.asarray(error, dtype=float)
        if self.error.shape != (3,) or not np.all(np.isfinite(self.error)):
            raise ValueError("error must be a finite 3-vector")


def records(pl, error) -> list[IntegrityRecord]:
    return [IntegrityRecord(p, e) for p, e in zip(pl, error)]


def _columns(records):
    pls = np.array([r.pl for r in records])
    errs = np.abs(np.array([r.error for r in records]))
    return pls, errs


def bound_gap(records, limits):
    """Mean slack over nominal records, one direction at a time; None for a
    direction without one."""
    from plbounds.metrics import DIRECTIONS, PerDirection

    pls, errs = _columns(records)
    values = []
    for d, name in enumerate(DIRECTIONS):
        nominal = (errs[:, d] <= pls[:, d]) & (pls[:, d] <= limits.get(name))
        values.append(float(np.mean(pls[nominal, d] - errs[nominal, d])) if np.any(nominal) else None)
    return PerDirection(*values)


def failure_rate(records):
    from plbounds.metrics import PerDirection

    pls, errs = _columns(records)
    return PerDirection(*(float(np.mean(pls[:, d] < errs[:, d])) for d in range(3)))


def false_alarm_rate(records, limits):
    from plbounds.metrics import DIRECTIONS, PerDirection

    pls, errs = _columns(records)
    total = len(records)
    values, flags = [], []
    for d, name in enumerate(DIRECTIONS):
        limit = limits.get(name)
        alarm = pls[:, d] > limit
        position_error = errs[:, d] > limit
        n_pe = int(np.count_nonzero(position_error))
        n_fa = int(np.count_nonzero(alarm & ~position_error))
        n_ta = int(np.count_nonzero(alarm & position_error))
        numerator = n_fa * (total - n_pe)
        denominator = numerator + n_ta * n_pe
        values.append(0.0 if denominator == 0 else numerator / denominator)
        flags.append(denominator == 0)
    return PerDirection(*values), PerDirection(*flags)


def summarize(records, limits):
    """The report of a record list, metric by metric and direction by direction."""
    from plbounds.metrics import IntegrityReport, PerDirection

    if not records:
        zero3 = PerDirection(0.0, 0.0, 0.0)
        return IntegrityReport(0, PerDirection(None, None, None), zero3, zero3, PerDirection(True, True, True), limits)
    far, flags = false_alarm_rate(records, limits)
    return IntegrityReport(len(records), bound_gap(records, limits), failure_rate(records), far, flags, limits)


def integrity_diagram(records, limits, bins):
    """The diagram of a record list, one direction at a time."""
    from plbounds.metrics import DIRECTIONS, DiagramDirection, IntegrityDiagram

    pls, errs = _columns(records) if records else (np.empty((0, 3)), np.empty((0, 3)))
    out = {}
    for d, name in enumerate(DIRECTIONS):
        limit = limits.get(name)
        edges = np.linspace(0.0, 2.0 * limit, bins + 1)
        width = 2.0 * limit / bins
        counts = np.zeros((bins + 1, bins + 1), dtype=np.int64)
        if len(records):
            ei = np.minimum((errs[:, d] // width).astype(np.int64), bins)
            pi = np.minimum((pls[:, d] // width).astype(np.int64), bins)
            np.add.at(counts, (ei, pi), 1)
        fail = pls[:, d] < errs[:, d]
        hazardous = (errs[:, d] > limit) & (pls[:, d] <= limit)
        out[name] = DiagramDirection(
            edges=edges,
            counts=counts,
            nominal=int(np.count_nonzero(~fail & (pls[:, d] <= limit))),
            alarm=int(np.count_nonzero(~fail & (pls[:, d] > limit))),
            misleading=int(np.count_nonzero(fail & ~hazardous)),
            hazardous=int(np.count_nonzero(hazardous)),
        )
    return IntegrityDiagram(len(records), bins, limits, out)
