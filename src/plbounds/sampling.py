"""Candidate-state sampling around a pose estimate, and the counter-based
random draws it and the synthetic estimator take their values from."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain

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

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): its golden-ratio
# increment, and below its finalizer, on Python ints and on uint64 arrays
_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# the array constants as uint64 scalars: numpy would convert a Python int
# operand on every call, which costs more than a short array's arithmetic
_U64_GAMMA, _S1, _M1, _S2, _M2, _S3 = map(np.uint64, (_GAMMA, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))
# the number of seeds from which the numpy chain beats the Python fold
# (about 6 on a 2-vCPU x86 VM, for seeds of two or three words)
_FOLD_BELOW = 6


def _mix64(x: int) -> int:
    """The SplitMix64 finalizer of a Python int below 2**64."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """``_mix64`` of each entry of a uint64 array, whose arithmetic wraps
    modulo 2**64 by itself."""
    x = (x ^ (x >> _S1)) * _M1
    x = (x ^ (x >> _S2)) * _M2
    return x ^ (x >> _S3)


def stream_keys(seeds) -> np.ndarray:
    """(T,) uint64 keys of T seeds, each a non-negative int or a sequence of
    them.  The key chains the finalizer over the seed's words: starting from
    0, ``key = mix64((key ^ word) + gamma)`` for each word, and a word wider
    than 64 bits is folded in 64 bits at a time, low bits first.  Raises
    ValueError for a negative word, as numpy's SeedSequence does.

    Seeds that numpy reads as one (T,) or (T, W) integer array, the usual
    case, are chained a word column at a time; any others (ragged seeds,
    words numpy does not hold as integers) word by word in Python, as are
    fewer than ``_FOLD_BELOW`` seeds: their fold is faster than the numpy
    chain's fixed cost."""
    try:
        words = _integer_words(seeds) if len(seeds) >= _FOLD_BELOW else None
    except (TypeError, ValueError):  # words that do not compare with ints, or compare as arrays
        words = None
    if words is not None:
        if (words < 0).any():
            raise ValueError(f"seed words must be non-negative, got {int(words[words < 0][0])}")
        keys = np.zeros(len(words), dtype=np.uint64)
        for column in (words if words.ndim == 2 else words[:, None]).T.astype(np.uint64):
            keys = _mix64_array((keys ^ column) + _U64_GAMMA)
        return keys
    keys = []
    for seed in seeds:
        key = 0
        for word in (seed,) if isinstance(seed, (int, np.integer)) else seed:
            word = operator.index(word)
            if word < 0:
                raise ValueError(f"seed words must be non-negative, got {word}")
            for shift in range(0, max(word.bit_length(), 1), 64):
                key = _mix64(((key ^ ((word >> shift) & _M64)) + _GAMMA) & _M64)
        keys.append(key)
    return np.array(keys, dtype=np.uint64)


def _integer_words(seeds) -> np.ndarray | None:
    """The (T,) or (T, W) integer array of ``seeds``, or None where numpy
    would not hold them as one: ragged seeds, a word of 2**64 or more, or
    words of 2**63 or more (uint64) mixed with smaller ones (int64), which
    numpy holds as objects or floats.  Seeds that are not an array are
    judged by their shape and word range first, then converted as one flat
    list, which costs numpy less than nested ones."""
    if isinstance(seeds, np.ndarray):
        words = seeds
    else:
        if isinstance(next(iter(seeds)), (int, np.integer)):
            flat, shape = seeds, (len(seeds),)
        elif len(widths := set(map(len, seeds))) == 1:
            flat, shape = [*chain.from_iterable(seeds)], (len(seeds), *widths)
        else:
            return None
        high = max(flat, default=0)
        if high >= 1 << 64 or (high >= 1 << 63 and min(flat) < 1 << 63):
            return None
        words = np.array(flat).reshape(shape)
    return words if words.dtype.kind in "iu" and words.ndim in (1, 2) else None


def _words(keys: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(T, S) words: slot s of key k is ``mix64(k + (s + 1) gamma)``, output
    s of the SplitMix64 generator seeded at k."""
    return _mix64_array(keys[:, None] + (np.asarray(slots, dtype=np.uint64) + np.uint64(1)) * _U64_GAMMA)


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
    timestep (see ``stream_keys``).

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
