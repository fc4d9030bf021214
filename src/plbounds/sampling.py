"""Candidate-state sampling around a pose estimate, and the counter-based
random draws it and the synthetic estimator take their values from."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import quat_from_euler_zyx, quat_multiply, quat_normalize, quat_to_matrix
from .gmm import std_normal_quantile


@dataclass(frozen=True)
class SamplingConfig:
    """Offset distribution: translations are i.i.d. uniform within
    ``t_max`` meters per axis, rotations compose three per-axis angles
    uniform within ``r_max`` radians (intrinsic Z-Y-X).  When
    ``include_estimate`` is set the first candidate is the zero offset,
    keeping the estimator's direct output in the mixture."""

    t_max: float = 1.0
    r_max: float = math.radians(5.0)
    n_candidates: int = 24
    include_estimate: bool = True

    def __post_init__(self) -> None:
        if self.t_max <= 0.0:
            raise ValueError("t_max must be positive")
        if not 0.0 < self.r_max < math.pi:
            raise ValueError("r_max must lie in (0, pi)")
        if self.n_candidates < 2:
            raise ValueError("need at least two candidates")


def draw_offsets(rng: np.random.Generator, n: int, t_max: float, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """``n`` rigid offsets: (n, 3) translations uniform within ``t_max`` per
    axis, then (n, 4) rotations composing per-axis angles uniform within
    ``r_max`` (one block of translations is drawn before the angles)."""
    translations = rng.uniform(-t_max, t_max, (n, 3))
    angles = rng.uniform(-r_max, r_max, (n, 3))
    # normalized twice, as scenario offsets always were: the second pass can
    # move the last bit, and archived scenarios depend on those bits
    return translations, quat_normalize(quat_from_euler_zyx(angles[:, 2], angles[:, 1], angles[:, 0]))


# ---------------------------------------------------------------------------
# counter-based draws: every value is a pure function of (key, slot)

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): its golden-ratio increment
# and finalizer constants as uint64 scalars, since numpy would convert a Python
# int operand on every call, which costs more than a short array's arithmetic
_GAMMA, _S1, _M1, _S2, _M2, _S3 = map(
    np.uint64, (0x9E3779B97F4A7C15, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)
)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of each entry of a uint64 array (wrapping modulo 2**64)."""
    x = (x ^ (x >> _S1)) * _M1
    x = (x ^ (x >> _S2)) * _M2
    return x ^ (x >> _S3)


def seed_words(seed: int) -> list[int]:
    """The 64-bit words of a non-negative int, low first: a seed of any
    width enters ``stream_keys`` as these words."""
    if (seed := operator.index(seed)) < 0:
        raise ValueError(f"seeds must be non-negative, got {seed}")
    return [(seed >> shift) & 0xFFFFFFFFFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 64)]


def stream_keys(seeds) -> np.ndarray:
    """(T,) uint64 keys of T seeds, given as T words or T equal-length rows
    of words, each in [0, 2**64) (a wider seed enters as its ``seed_words``).
    The key chains the finalizer over a seed's words: from 0, ``key =
    mix64((key ^ word) + gamma)`` for each word.  Raises ValueError for a
    Python int outside [0, 2**64), ragged rows or a negative signed array."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind == "i" and (seeds < 0).any():  # numpy would wrap it
        raise ValueError(f"seed words must be non-negative, got {int(seeds[seeds < 0][0])}")
    try:
        words = np.array(seeds, dtype=np.uint64)
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"seeds must be words in [0, 2**64) or equal-length rows of them: {exc}") from None
    if words.ndim not in (1, 2):
        raise ValueError(f"seeds must be words or rows of words, got shape {words.shape}")
    keys = np.zeros(len(words), dtype=np.uint64)
    for column in (words if words.ndim == 2 else words[:, None]).T:
        keys = _mix64_array((keys ^ column) + _GAMMA)
    return keys


def _words(keys: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(T, S) words: slot s of key k is ``mix64(k + (s + 1) gamma)``, output
    s of the SplitMix64 generator seeded at k."""
    return _mix64_array(keys[:, None] + (np.asarray(slots, dtype=np.uint64) + np.uint64(1)) * _GAMMA)


def stream_uniforms(keys: np.ndarray, slots) -> np.ndarray:
    """(T, S) uniforms in [0, 1) on the 2**-53 grid: the top 53 bits of
    each word."""
    return (_words(keys, slots) >> 11) * 2.0**-53


def stream_normals(keys: np.ndarray, slots) -> np.ndarray:
    """(T, S) standard normals, one word each: the normal quantile of the
    midpoint of the word's top-52-bit cell.  The midpoints lie strictly in
    (0, 1) and mirror each other, so no draw is infinite and the draws are
    symmetric about 0 (53 bits plus a half would round the last cell up to
    1)."""
    return std_normal_quantile(((_words(keys, slots) >> 12) + 0.5) * 2.0**-52)


def _euler_zyx(half_angles: np.ndarray) -> np.ndarray:
    """(..., 4) unit quaternions of the intrinsic Z-Y-X rotations with the
    (..., 3) roll, pitch and yaw half-angles: the closed-form product of the
    three axis quaternions, normalized once."""
    cos, sin = np.cos(half_angles), np.sin(half_angles)
    (cr, cp, cy), (sr, sp, sy) = (cos[..., k] for k in range(3)), (sin[..., k] for k in range(3))
    a, b, c, d = cy * cp, sy * sp, cy * sp, sy * cp  # the yaw-pitch product
    return quat_normalize(np.stack((a * cr + b * sr, a * sr - b * cr, c * cr + d * sr, d * cr - c * sr), axis=-1))


def sample_candidates(config: SamplingConfig, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Draw exactly ``n_candidates`` offsets for each of T timesteps,
    deterministically in (seed, config); ``seeds`` holds one seed per
    timestep, a word or an equal-length row of words in [0, 2**64) (see
    ``stream_keys``).

    Returns (T, N, 3) translations and (T, N, 4) scalar-first rotations,
    each offset expressed in the frame of the pose it perturbs.  Candidate
    i reads the uniforms at slots 6i..6i+5 of its timestep's stream: three
    translations, then the roll, pitch and yaw half-angles.  So a
    candidate's offset depends only on its seed and its index, not on the
    other timesteps, on N or on how many candidates follow it; with
    ``include_estimate`` candidate 0 is the zero offset and its slots go
    unread.  Reference outputs are pinned in the test suite.
    """
    first = 1 if config.include_estimate else 0
    keys = stream_keys(seeds)
    shape = (len(keys), config.n_candidates - first, 6)
    draws = 2.0 * stream_uniforms(keys, np.arange(6 * first, 6 * config.n_candidates)).reshape(shape) - 1.0
    draws *= (config.t_max,) * 3 + (0.5 * config.r_max,) * 3  # uniform in [-1, 1), scaled
    translations = np.zeros((len(keys), config.n_candidates, 3))
    rotations = np.zeros((len(keys), config.n_candidates, 4))
    rotations[:, :first, 0] = 1.0  # the zero offset's identity rotation
    translations[:, first:], rotations[:, first:] = draws[..., :3], _euler_zyx(draws[..., 3:])
    return translations, rotations


def apply_offset(position, orientation, translation, rotation) -> tuple[np.ndarray, np.ndarray]:
    """Perturb poses, given as (..., 3) positions and (..., 4) orientations,
    by rigid offsets acting in each pose's own frame; leading axes broadcast.

    Returns the perturbed positions and orientations.  The offset composes
    on the sensor side of the transform, so a pure translation shifts the
    position by exactly ``translation`` and the known offset cancels exactly
    in the downstream error transform.
    """
    r_off = quat_to_matrix(rotation)
    moved = (r_off @ np.asarray(position, dtype=float)[..., None])[..., 0] + translation
    return moved, quat_multiply(rotation, orientation)
