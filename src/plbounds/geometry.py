"""Rigid-body geometry and local-map construction.

Conventions used throughout the package:

* Quaternions are scalar-first arrays ``[w, x, y, z]``, kept unit-norm and
  canonicalized to a non-negative scalar part; the quaternion helpers also
  take (..., 4) stacks and work row by row.
* A :class:`Pose` stores the transform that takes map coordinates into the
  sensor frame: ``p_sensor = R(orientation) @ p_map + position``.  The sensor
  sits at ``-R.T @ position`` in map coordinates.
* Depth maps follow the usual camera raster convention: the projection
  matrix maps a sensor-frame point to homogeneous pixel coordinates, the
  third homogeneous component is the stored depth, and rows index the
  vertical image axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

_UNIT_TOL = 1e-9


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
    lead = np.take_along_axis(q, np.argmax(q != 0.0, axis=-1)[..., None], axis=-1)
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
    """Rotation matrix of a unit quaternion; an (..., 4) stack gives (..., 3, 3)."""
    w, x, y, z = _components(q)
    return _assemble(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        (3, 3),
    )


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


def quat_from_rotation_vector(v: np.ndarray) -> np.ndarray:
    """Quaternion of an axis-angle vector (angle = norm, axis = direction)."""
    v = np.asarray(v, dtype=float)
    angle = float(np.linalg.norm(v))
    if angle == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return quat_from_axis_angle(v, angle)


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


def quaternion_angular_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Angular offset between two unit quaternions under the half-angle metric."""
    return quat_angular_offset(quat_multiply(np.asarray(q1, dtype=float), quat_conjugate(q2)))


# ---------------------------------------------------------------------------
# poses, transforms, clouds


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
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    def transform(self) -> "RigidTransform":
        return RigidTransform(quat_to_matrix(self.orientation), self.position)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation: ``apply(p) = rotation @ p + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be (3, 3) and translation (3,)")
        err = float(np.abs(r.T @ r - np.eye(3)).max())
        if err > _UNIT_TOL or np.linalg.det(r) < 0.0:
            raise ValueError(f"rotation is not orthonormal (deviation {err:.2e})")
        object.__setattr__(self, "rotation", _readonly(r))
        object.__setattr__(self, "translation", _readonly(t))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equivalent to applying ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)


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
        if not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", _readonly(p))

    def __len__(self) -> int:
        return self.points.shape[0]


def transform_cloud(cloud: PointCloud, tf: RigidTransform) -> PointCloud:
    """Apply a rigid transform to every point of a cloud."""
    return PointCloud(tf.apply(cloud.points))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole projection: ``matrix`` is 3x3 (applied to the point) or 3x4
    (applied to the homogeneous point), ``width``/``height`` the raster size."""

    matrix: np.ndarray
    width: int
    height: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape not in ((3, 3), (3, 4)):
            raise ValueError(f"projection matrix must be 3x3 or 3x4, got {m.shape}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("raster dimensions must be positive")
        object.__setattr__(self, "matrix", _readonly(m))

    def homogeneous(self, points: np.ndarray) -> np.ndarray:
        """Homogeneous pixel coordinates (N, 3) of sensor-frame points."""
        m = self.matrix
        if m.shape == (3, 4):
            return points @ m[:, :3].T + m[:, 3]
        return points @ m.T


# ---------------------------------------------------------------------------
# local-map construction


@dataclass(frozen=True)
class CropExtents:
    """Axis-aligned retention box around a viewpoint, biased forward.

    ``forward`` is the reach along the viewing direction (only points ahead
    are kept), ``lateral`` and ``vertical`` are half-widths.  ``axes`` names
    the (forward, lateral, vertical) coordinate indices in the local frame;
    the default matches the optical convention (depth on z, lateral on x).
    """

    forward: float = 100.0
    lateral: float = 50.0
    vertical: float = 10.0
    axes: tuple[int, int, int] = (2, 0, 1)

    def __post_init__(self) -> None:
        if min(self.forward, self.lateral, self.vertical) <= 0.0:
            raise ValueError("extents must be positive")
        if sorted(self.axes) != [0, 1, 2]:
            raise ValueError("axes must be a permutation of (0, 1, 2)")


def crop_cloud(cloud: PointCloud, pose: Pose | None, extents: CropExtents) -> PointCloud:
    """Retain the points that fall inside the forward-biased box of a viewpoint.

    Membership is evaluated on the coordinates expressed in the pose frame
    (``pose=None`` means the cloud is already there); the retained points keep
    their original coordinates.
    """
    pts = cloud.points
    local = pose.transform().apply(pts) if pose is not None else pts
    f, l, v = (local[:, extents.axes[0]], local[:, extents.axes[1]], local[:, extents.axes[2]])
    mask = (
        (f >= 0.0)
        & (f <= extents.forward)
        & (np.abs(l) <= extents.lateral)
        & (np.abs(v) <= extents.vertical)
    )
    return PointCloud(pts[mask])


def _occlusion_pairs(points: np.ndarray, intrinsics: CameraIntrinsics | None, pixel_radius: float) -> np.ndarray:
    """Candidate (i, j) index pairs to test for mutual occlusion."""
    n = points.shape[0]
    if intrinsics is None:
        i, j = np.triu_indices(n, k=1)
        return np.column_stack((i, j))
    hom = intrinsics.homogeneous(points)
    depth = hom[:, 2]
    front = depth > 0.0
    uv = np.zeros((n, 2))
    uv[front] = hom[front, :2] / depth[front, None]
    # points without a valid projection are parked far apart so they never pair
    behind = ~front
    uv[behind, 0] = 1e12 + 1e6 * np.arange(np.count_nonzero(behind))
    tree = cKDTree(uv)
    return tree.query_pairs(pixel_radius, output_type="ndarray")


def occlusion_filter(
    cloud: PointCloud,
    threshold_angle: float = 0.02,
    intrinsics: CameraIntrinsics | None = None,
    pixel_radius: float = 2.0,
) -> PointCloud:
    """Remove points hidden behind nearer points of the same cloud.

    For a pair with ``p_near`` closer to the sensor origin than ``p_far``,
    the far point is removed when the angle between the ray from ``p_far``
    to the origin and the segment from ``p_far`` to ``p_near`` is strictly
    below ``threshold_angle`` (radians).  When intrinsics are given, only
    pairs whose projections fall within ``pixel_radius`` pixels of each other
    are tested, which targets the near-collinear rays the criterion can fire
    on; without intrinsics every pair is tested.
    """
    if threshold_angle <= 0.0 or threshold_angle >= math.pi / 2:
        raise ValueError("threshold_angle must lie in (0, pi/2)")
    pts = cloud.points
    n = pts.shape[0]
    if n < 2:
        return cloud
    pairs = _occlusion_pairs(pts, intrinsics, pixel_radius)
    if pairs.size == 0:
        return cloud
    rng_a = np.linalg.norm(pts[pairs[:, 0]], axis=1)
    rng_b = np.linalg.norm(pts[pairs[:, 1]], axis=1)
    swap = rng_b < rng_a
    near = np.where(swap, pairs[:, 1], pairs[:, 0])
    far = np.where(swap, pairs[:, 0], pairs[:, 1])
    r_far = np.where(swap, rng_a, rng_b)
    r_near = np.where(swap, rng_b, rng_a)
    valid = r_far > r_near  # ties occlude nothing, and the origin is never occluded
    seg = pts[near] - pts[far]
    seg_len = np.linalg.norm(seg, axis=1)
    valid &= seg_len > 0.0
    cos_angle = np.einsum("ij,ij->i", -pts[far], seg)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_angle = cos_angle / (r_far * seg_len)
    occluded_pair = valid & (cos_angle > math.cos(threshold_angle))
    removed = np.zeros(n, dtype=bool)
    removed[far[occluded_pair]] = True
    return PointCloud(pts[~removed])


@dataclass(frozen=True)
class DepthMap:
    """A (height, width) raster of positive depths; empty pixels hold NaN."""

    depth: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.depth, dtype=float)
        if d.ndim != 2:
            raise ValueError("depth raster must be two-dimensional")
        filled = d[np.isfinite(d)]
        if filled.size and filled.min() <= 0.0:
            raise ValueError("stored depths must be strictly positive")
        object.__setattr__(self, "depth", _readonly(d))

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]

    def empty_mask(self) -> np.ndarray:
        return ~np.isfinite(self.depth)


def project_to_depth_map(
    cloud: PointCloud, intrinsics: CameraIntrinsics, rounding: str = "floor"
) -> DepthMap:
    """Rasterize sensor-frame points, keeping the minimum depth per pixel.

    Points with non-positive depth are dropped; pixel indices come from the
    homogeneous coordinates divided by depth and rounded down (or up with
    ``rounding="ceil"``).
    """
    if rounding not in ("floor", "ceil"):
        raise ValueError("rounding must be 'floor' or 'ceil'")
    hom = intrinsics.homogeneous(cloud.points)
    depth = hom[:, 2]
    front = depth > 0.0
    hom, depth = hom[front], depth[front]
    op = np.floor if rounding == "floor" else np.ceil
    cols = op(hom[:, 0] / depth)
    rows = op(hom[:, 1] / depth)
    ok = (cols >= 0) & (cols < intrinsics.width) & (rows >= 0) & (rows < intrinsics.height)
    cols, rows, depth = cols[ok].astype(np.int64), rows[ok].astype(np.int64), depth[ok]
    raster = np.full(intrinsics.height * intrinsics.width, np.inf)
    np.minimum.at(raster, rows * intrinsics.width + cols, depth)
    raster[~np.isfinite(raster)] = np.nan
    return DepthMap(raster.reshape(intrinsics.height, intrinsics.width))


def build_local_map(
    pose: Pose,
    cloud: PointCloud,
    intrinsics: CameraIntrinsics,
    extents: CropExtents | None = None,
    occlusion_threshold: float = 0.02,
    pixel_radius: float = 2.0,
    rounding: str = "floor",
) -> DepthMap:
    """Depth map of the environment cloud as seen from a pose.

    Equivalent to transforming the cloud into the pose frame, cropping to the
    forward-biased box, removing occluded points, and rasterizing.
    """
    if extents is None:
        extents = CropExtents()
    local = transform_cloud(cloud, pose.transform())
    cropped = crop_cloud(local, None, extents)
    visible = occlusion_filter(cropped, occlusion_threshold, intrinsics, pixel_radius)
    return project_to_depth_map(visible, intrinsics, rounding)


# ---------------------------------------------------------------------------
# map cleaning


def clean_map(
    cloud: PointCloud,
    neighborhood_radius: float = 0.1,
    z_cutoff: float = 3.0,
    voxel_size: float = 0.1,
) -> PointCloud:
    """Drop sparse outliers, then thin the cloud to one centroid per voxel.

    A point's sparsity score is the Z-score of its neighbor count within
    ``neighborhood_radius``: points whose counts fall more than ``z_cutoff``
    standard deviations below the cloud mean are removed.  Survivors are
    binned into cubic voxels of side ``voxel_size`` and each occupied voxel
    is replaced by the centroid of its members.
    """
    if min(neighborhood_radius, voxel_size) <= 0.0 or z_cutoff <= 0.0:
        raise ValueError("radius, cutoff and voxel size must be positive")
    pts = cloud.points
    if pts.shape[0] == 0:
        return cloud
    tree = cKDTree(pts)
    counts = tree.query_ball_point(pts, neighborhood_radius, return_length=True) - 1
    counts = counts.astype(float)
    spread = float(counts.std())
    if spread > 0.0:
        sparsity = (counts.mean() - counts) / spread
        pts = pts[sparsity <= z_cutoff]
    if pts.shape[0] == 0:
        return PointCloud(np.empty((0, 3)))
    keys = np.floor(pts / voxel_size).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((uniq.shape[0], 3))
    np.add.at(sums, inverse, pts)
    members = np.bincount(inverse, minlength=uniq.shape[0]).astype(float)
    return PointCloud(sums / members[:, None])
