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


def draw_offsets(rng: np.random.Generator, n: int, t_max: float, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """``n`` rigid offsets: (n, 3) translations uniform within ``t_max`` per
    axis, then (n, 4) rotations composing per-axis angles uniform within
    ``r_max`` (one block of translations is drawn before the angles)."""
    translations = rng.uniform(-t_max, t_max, (n, 3))
    angles = rng.uniform(-r_max, r_max, (n, 3))
    # normalized twice, as offsets always were: the second pass can move
    # the last bit, and archived runs depend on those bits
    rotations = quat_normalize(quat_from_euler_zyx(angles[:, 2], angles[:, 1], angles[:, 0]))
    return translations, rotations


def sample_candidates(config: SamplingConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw exactly ``n_candidates`` offsets, deterministically in (seed, config).

    Returns (N, 3) translations and (N, 4) scalar-first rotations, each
    offset expressed in the frame of the pose it perturbs.  The generator is
    PCG64 seeded through SeedSequence; reference outputs are pinned in the
    test suite.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n_random = config.n_candidates - (1 if config.include_estimate else 0)
    translations, rotations = draw_offsets(rng, n_random, config.t_max, config.r_max)
    if config.include_estimate:
        translations = np.concatenate((np.zeros((1, 3)), translations))
        rotations = np.concatenate(([[1.0, 0.0, 0.0, 0.0]], rotations))
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
