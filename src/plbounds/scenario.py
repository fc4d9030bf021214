"""Synthetic driving scenarios for exercising the pipeline end to end.

The world is a grid of rectangular building blocks with vertical walls and
an optional ground plane, sampled as a point cloud.  The vehicle drives
along the first street at constant speed; pose estimates are drawn within
configurable translation and rotation offsets of the truth, mirroring the
operating regime the error estimators are built for (a couple of meters
and a few degrees).

Vehicle frame convention: x lateral (right of travel), y longitudinal
(forward), z vertical (up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .geometry import PointCloud, Pose, matrix_to_quat, quat_normalize, quat_to_matrix
from .sampling import apply_offset, draw_offsets


@dataclass(frozen=True)
class ScenarioConfig:
    n_timesteps: int = 100
    blocks_x: int = 3
    blocks_y: int = 3
    block_size: float = 20.0
    street_width: float = 8.0
    wall_height: float = 6.0
    wall_density: float = 10.0
    ground: bool = True
    ground_density: float = 2.0
    camera_height: float = 1.5
    speed: float = 5.0
    dt: float = 1.0
    estimate_offset_translation: float = 2.0
    estimate_offset_rotation: float = math.radians(10.0)

    def __post_init__(self) -> None:
        if self.n_timesteps < 0:
            raise ValueError("n_timesteps must be non-negative")
        if min(self.blocks_x, self.blocks_y) < 1:
            raise ValueError("need at least one block per axis")
        if min(self.block_size, self.street_width, self.wall_height, self.dt, self.speed) <= 0.0:
            raise ValueError("geometry and motion parameters must be positive")
        if min(self.wall_density, self.ground_density) < 0.0:
            raise ValueError("densities must be non-negative")
        if self.estimate_offset_translation < 0.0 or self.estimate_offset_rotation < 0.0:
            raise ValueError("estimate offsets must be non-negative")


@dataclass(frozen=True)
class Timestep:
    index: int
    timestamp: float
    payload_key: str
    true_pose: Pose
    estimate_pose: Pose


@dataclass(frozen=True)
class Scenario:
    seed: int
    cloud: PointCloud
    timesteps: list[Timestep]
    map_path: str | None = None


def wall_point_count(density: float, length: float, height: float) -> int:
    return int(round(density * length * height))


def _sample_wall(rng: np.random.Generator, count: int, origin, along, up) -> np.ndarray:
    """Uniform points on the parallelogram origin + u * along + v * up."""
    if count == 0:
        return np.empty((0, 3))
    uv = rng.uniform(0.0, 1.0, (count, 2))
    return np.asarray(origin) + uv[:, :1] * np.asarray(along) + uv[:, 1:] * np.asarray(up)


def generate_city_cloud(config: ScenarioConfig, seed: int) -> PointCloud:
    """Sample the block walls (and ground) into one point cloud.

    Point counts are density times surface area, rounded per wall; walls are
    emitted block by block in row-major order so the output is reproducible
    byte for byte.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    pitch = config.block_size + config.street_width
    up = (0.0, 0.0, config.wall_height)
    n_wall = wall_point_count(config.wall_density, config.block_size, config.wall_height)
    parts = []
    for by in range(config.blocks_y):
        for bx in range(config.blocks_x):
            x0 = config.street_width + bx * pitch
            y0 = config.street_width + by * pitch
            b = config.block_size
            walls = (
                ((x0, y0, 0.0), (b, 0.0, 0.0)),
                ((x0, y0 + b, 0.0), (b, 0.0, 0.0)),
                ((x0, y0, 0.0), (0.0, b, 0.0)),
                ((x0 + b, y0, 0.0), (0.0, b, 0.0)),
            )
            for origin, along in walls:
                parts.append(_sample_wall(rng, n_wall, origin, along, up))
    extent_x = config.street_width + config.blocks_x * pitch
    extent_y = config.street_width + config.blocks_y * pitch
    if config.ground:
        n_ground = wall_point_count(config.ground_density, extent_x, extent_y)
        parts.append(_sample_wall(rng, n_ground, (0.0, 0.0, 0.0), (extent_x, 0.0, 0.0), (0.0, extent_y, 0.0)))
    pts = np.concatenate(parts) if parts else np.empty((0, 3))
    return PointCloud(pts)


def _travel_pose(config: ScenarioConfig, timestamp: float) -> Pose:
    # drive along the first street in +x; vehicle rows are (right, forward, up)
    center = np.array(
        [config.street_width + config.speed * timestamp, 0.5 * config.street_width, config.camera_height]
    )
    r_vehicle = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return Pose(-r_vehicle @ center, matrix_to_quat(r_vehicle))


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Build the world and a timestamped trajectory with noisy pose estimates."""
    cloud = generate_city_cloud(config, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    n = config.n_timesteps
    translations, rotations = draw_offsets(
        rng, n, config.estimate_offset_translation, config.estimate_offset_rotation
    )
    timesteps = []
    for k in range(n):
        truth = _travel_pose(config, k * config.dt)
        estimate = Pose(*apply_offset(truth.position, truth.orientation, translations[k], rotations[k]))
        timesteps.append(Timestep(k, k * config.dt, f"t{k:06d}", truth, estimate))
    return Scenario(seed=seed, cloud=cloud, timesteps=timesteps)


def vehicle_frame_error(true_pose: Pose | list[Pose], estimate_pose: Pose | list[Pose]) -> np.ndarray:
    """True position error of an estimate, expressed in the true vehicle frame.

    This is the quantity the protection levels bound: the displacement of
    the estimated sensor center from the true one, rotated into the frame
    the image was captured from.  Two lists of poses give the (N, 3) errors
    of their pairs in one stacked pass, each with the bits of its one-pair
    call.
    """
    if isinstance(true_pose, Pose):
        return vehicle_frame_error([true_pose], [estimate_pose])[0]
    r_true, r_est = (quat_to_matrix(np.array([p.orientation for p in ps])) for ps in (true_pose, estimate_pose))
    p_true, p_est = (np.array([p.position for p in ps])[..., None] for ps in (true_pose, estimate_pose))
    center_true = -(np.swapaxes(r_true, -1, -2) @ p_true)
    center_est = -(np.swapaxes(r_est, -1, -2) @ p_est)
    return (r_true @ (center_true - center_est))[..., 0]


def _pose_to_dict(pose: Pose) -> dict:
    return {
        "position": [float(v) for v in pose.position],
        "orientation": [float(v) for v in pose.orientation],
    }


def _pose_from_dict(d: dict) -> Pose:
    return Pose(np.asarray(d["position"], dtype=float), np.asarray(d["orientation"], dtype=float))


def save_scenario(scenario: Scenario, out_dir: Path | str) -> Path:
    """Write the map cloud to ``map.bin`` and the scenario document to
    ``scenario.json``; returns the JSON path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_cloud_bin(scenario.cloud, out / "map.bin")
    doc = {
        "schema": 1,
        "seed": scenario.seed,
        "map": "map.bin",
        "timesteps": [
            {
                "index": ts.index,
                "timestamp": ts.timestamp,
                "payload_key": ts.payload_key,
                "true_pose": _pose_to_dict(ts.true_pose),
                "estimate_pose": _pose_to_dict(ts.estimate_pose),
            }
            for ts in scenario.timesteps
        ],
    }
    path = out / "scenario.json"
    io.write_json(doc, path)
    return path


def _problem(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def load_scenario(path: Path | str) -> Scenario:
    """The scenario ``save_scenario`` wrote; a malformed document raises
    ValueError naming the file, and the timestep of a bad timestep field."""
    path = Path(path)
    doc = io.read_json(path)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != 1:
        raise ValueError(f"{path}: unsupported scenario schema {schema!r}")
    try:
        map_name, rows, seed = doc["map"], doc["timesteps"], int(doc["seed"])
        if not (isinstance(map_name, str) and isinstance(rows, list)):
            raise TypeError("expected a string 'map' and a list of 'timesteps'")
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {_problem(exc)}") from None
    if not map_name.endswith(".bin"):
        raise ValueError(f"{path}: map {map_name!r} is not a .bin point-cloud file")
    map_path = path.parent / map_name
    cloud = io.read_cloud_bin(map_path)
    poses = _checked_poses(rows)  # None: build each Pose alone, so the first bad one raises its own error
    timesteps = []
    for k, ts in enumerate(rows):
        try:
            fields = int(ts["index"]), float(ts["timestamp"]), str(ts["payload_key"])
            if not 0 <= fields[0] < 1 << 63:  # results hold it as int64, and stream keys take it as a word
                raise ValueError(f"index {fields[0]} is outside [0, 2**63)")
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: timestep {k}: {_problem(exc)}") from None
        try:  # a bad pose raises the lone Pose's ValueError as it is
            true_pose = _pose_from_dict(ts["true_pose"]) if poses is None else poses[2 * k]
            estimate_pose = _pose_from_dict(ts["estimate_pose"]) if poses is None else poses[2 * k + 1]
        except (LookupError, TypeError, OverflowError) as exc:  # OverflowError: a numeral beyond the float range
            raise ValueError(f"{path}: timestep {k}: {_problem(exc)}") from None
        timesteps.append(Timestep(*fields, true_pose, estimate_pose))
    return Scenario(seed=seed, cloud=cloud, timesteps=timesteps, map_path=str(map_path))


def _checked_poses(rows: list) -> list[Pose] | None:
    """Every timestep's true and estimate pose, in that order, checked and
    normalized in one stacked pass that gives each pose the bits ``Pose``
    gives it; None when some pose would fail ``Pose``'s checks."""
    try:
        docs = [ts[name] for ts in rows for name in ("true_pose", "estimate_pose")]
        positions = np.array([d["position"] for d in docs], dtype=float)
        orientations = np.array([d["orientation"] for d in docs], dtype=float)
        n = len(docs)
        if positions.shape != (n, 3) or orientations.shape != (n, 4) or not np.isfinite(positions).all():
            return None
        orientations = quat_normalize(orientations)
    except (LookupError, TypeError, ValueError, ArithmeticError):
        return None
    positions.setflags(write=False)
    orientations.setflags(write=False)
    return [Pose.checked(p, q) for p, q in zip(positions, orientations)]
