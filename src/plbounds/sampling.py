"""Candidate-state sampling around a pose estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import quat_from_euler_zyx, quat_multiply, quat_normalize, quat_to_matrix


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


def _offset_rotations(angles: np.ndarray) -> np.ndarray:
    """(..., 4) rotations composing the (..., 3) roll, pitch and yaw angles."""
    # normalized twice, as offsets always were: the second pass can move
    # the last bit, and archived runs depend on those bits
    return quat_normalize(quat_from_euler_zyx(angles[..., 2], angles[..., 1], angles[..., 0]))


def draw_offsets(rng: np.random.Generator, n: int, t_max: float, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """``n`` rigid offsets: (n, 3) translations uniform within ``t_max`` per
    axis, then (n, 4) rotations composing per-axis angles uniform within
    ``r_max`` (one block of translations is drawn before the angles)."""
    translations = rng.uniform(-t_max, t_max, (n, 3))
    return translations, _offset_rotations(rng.uniform(-r_max, r_max, (n, 3)))


def sample_candidates(config: SamplingConfig, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Draw exactly ``n_candidates`` offsets for each of T timesteps,
    deterministically in (seed, config); ``seeds`` holds one seed per
    timestep.

    Returns (T, N, 3) translations and (T, N, 4) scalar-first rotations,
    each offset expressed in the frame of the pose it perturbs.  Each seed
    has its own PCG64 generator, seeded through SeedSequence, so a
    timestep's offsets do not depend on the others; reference outputs are
    pinned in the test suite.
    """
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))) for seed in seeds]
    shape = (len(rngs), config.n_candidates - (1 if config.include_estimate else 0), 3)
    # each stream draws its translations, then its angles, as in draw_offsets
    translations = np.array([rng.uniform(-config.t_max, config.t_max, shape[1:]) for rng in rngs]).reshape(shape)
    angles = np.array([rng.uniform(-config.r_max, config.r_max, shape[1:]) for rng in rngs]).reshape(shape)
    rotations = _offset_rotations(angles)
    if config.include_estimate:
        translations = np.concatenate((np.zeros((len(rngs), 1, 3)), translations), axis=1)
        rotations = np.concatenate((np.tile([1.0, 0.0, 0.0, 0.0], (len(rngs), 1, 1)), rotations), axis=1)
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
