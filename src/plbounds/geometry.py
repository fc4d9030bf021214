"""Rigid-body geometry: quaternions, poses and point clouds.

Conventions used throughout the package:

* Quaternions are scalar-first arrays ``[w, x, y, z]``, kept unit-norm and
  canonicalized to a non-negative scalar part; the quaternion helpers also
  take (..., 4) stacks and work row by row.
* A :class:`Pose` stores the transform that takes map coordinates into the
  sensor frame: ``p_sensor = R(orientation) @ p_map + position``.  The sensor
  sits at ``-R.T @ position`` in map coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# quaternions


def _components(q: np.ndarray) -> np.ndarray:
    """Last axis first (other axes reversed), undone by ``_assemble``."""
    return np.asarray(q, dtype=float).T


def _assemble(parts: list, tail: tuple[int, ...]) -> np.ndarray:
    if np.ndim(parts[0]) == 0:
        return np.array(parts).reshape(tail)
    out = np.empty(np.shape(parts[0])[::-1] + (len(parts),))
    for k, part in enumerate(parts):
        out.T[k] = part
    return out.reshape(out.shape[:-1] + tail)


_LEAD_WEIGHTS = np.array([[8.0], [4.0], [2.0], [1.0]])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return the unit quaternion equivalent to ``q`` with w >= 0.

    ``q`` is one quaternion or an (..., 4) stack.  When w vanishes the first
    non-zero component is made positive.  Raises ValueError if any input
    norm is too far from a rotation to be trusted (more than 1e-3 from 1).
    """
    q = np.ascontiguousarray(q, dtype=float)
    if q.shape[-1] != 4:
        raise ValueError(f"quaternion must have shape (..., 4), got {q.shape}")
    if q.ndim == 1:  # plain floats: numpy calls on one quaternion cost more than the arithmetic
        n = float(np.linalg.norm(q))
        if not abs(n - 1.0) <= 1e-3:
            raise ValueError(f"quaternion norm {n} too far from 1")
        return q / (-n if next((c for c in q if c != 0.0), 0.0) < 0.0 else n)
    # a dot product per row, so a stack normalizes bit for bit like its rows
    n = np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    if not (np.abs(n - 1.0) <= 1e-3).all():
        raise ValueError(f"quaternion norm {n.flat[np.argmax(np.abs(n - 1.0))]} too far from 1")
    if (q[..., 0] > 0.0).all():  # the usual case: no sign to pick
        return q / n
    # signs weighted 8, 4, 2, 1: the first non-zero component outweighs the rest
    lead = np.sign(q) @ _LEAD_WEIGHTS
    return q / np.where(lead < 0.0, -n, n)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product ``a * b`` (apply ``b`` first, then ``a``), for two
    quaternions, two equal-shape stacks, or a stack and one quaternion."""
    aw, ax, ay, az = _components(a)
    bw, bx, by, bz = _components(b)
    return _assemble(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        (4,),
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * [1.0, -1.0, -1.0, -1.0]


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion; an (..., 4) stack gives (..., 3, 3),
    C-contiguous.  Entry by entry the arithmetic of ``1 - 2 (y y + z z)``,
    ``2 (x y - w z)`` and so on, each product computed once and each sum
    written straight into the result."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 4:
        raise ValueError(f"quaternion must have shape (..., 4), got {q.shape}")
    w, x, y, z = q.reshape(-1, 4).T
    xx, yy, zz, xy, xz, yz, wx, wy, wz = x * x, y * y, z * z, x * y, x * z, y * z, w * x, w * y, w * z
    m = np.empty((len(x), 9))
    for k, (op, a, b) in enumerate((
        (np.add, yy, zz), (np.subtract, xy, wz), (np.add, xz, wy),
        (np.add, xy, wz), (np.add, xx, zz), (np.subtract, yz, wx),
        (np.subtract, xz, wy), (np.add, yz, wx), (np.add, xx, yy),
    )):
        op(a, b, out=m[:, k])
    m *= 2.0
    for k in (0, 4, 8):  # the diagonal, a column at a time: an (M, 3) view would loop 3 entries at a time
        np.subtract(1.0, m[:, k], out=m[:, k])
    return m.reshape(q.shape[:-1] + (3, 3))


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method)."""
    m = np.asarray(m, dtype=float)
    t = float(np.trace(m))
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diagonal(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    return quat_normalize(q)


def quat_from_axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    """Rotation by ``angle`` about ``axis``; an array of angles gives a stack."""
    axis = np.asarray(axis, dtype=float)
    n = float(np.linalg.norm(axis))
    if n == 0.0:
        raise ValueError("axis must be non-zero")
    half = 0.5 * np.asarray(angle, dtype=float)[..., None]
    return quat_normalize(np.concatenate((np.cos(half), np.sin(half) * axis / n), axis=-1))


def quat_from_euler_zyx(yaw, pitch, roll) -> np.ndarray:
    """Intrinsic Z-Y-X composition: yaw about z, then pitch about y, then roll
    about x.  Arrays of angles give a stack of quaternions."""
    qz = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw)
    qy = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), pitch)
    qx = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), roll)
    return quat_normalize(quat_multiply(quat_multiply(qz, qy), qx))


def quat_angular_offset(q: np.ndarray) -> float:
    """Half-angle magnitude of a unit quaternion: atan2(|vector part|, |w|).

    This is the metric used for rotation-error losses; a rotation by angle
    theta scores theta / 2.
    """
    w, x, y, z = q
    return math.atan2(math.sqrt(x * x + y * y + z * z), abs(w))


# ---------------------------------------------------------------------------
# poses and clouds


@dataclass(frozen=True)
class Pose:
    """A sensor pose stored as the map-to-sensor rigid transform.

    ``position`` is the translation component in meters and ``orientation``
    the scalar-first unit quaternion of the rotation component.
    """

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("position must be a finite 3-vector")
        object.__setattr__(self, "position", _readonly(p))
        object.__setattr__(self, "orientation", _readonly(quat_normalize(self.orientation)))

    @classmethod
    def checked(cls, position: np.ndarray, orientation: np.ndarray) -> "Pose":
        """A pose of a read-only finite position and an orientation
        ``quat_normalize`` already returned, kept as they are: normalizing
        again can move the orientation's last bit."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "position", position)
        object.__setattr__(pose, "orientation", orientation)
        return pose

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))


@dataclass(frozen=True)
class PointCloud:
    """An (N, 3) array of finite map points in meters."""

    points: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.points, dtype=float)
        if p.ndim == 1 and p.size % 3 == 0:
            p = p.reshape(-1, 3)
        if p.ndim != 2 or p.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {np.shape(self.points)}")
        object.__setattr__(self, "points", self.adopt(np.array(p)).points)  # its own copy

    @classmethod
    def adopt(cls, points: np.ndarray) -> "PointCloud":
        """A cloud that keeps ``points``, a fresh (N, 3) float array, not a copy."""
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        points.setflags(write=False)
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "points", points)
        return cloud

    def __len__(self) -> int:
        return self.points.shape[0]
