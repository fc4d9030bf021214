"""Command-line front end.

Subcommands: ``gen-scenario``, ``run``, ``metrics``, ``diagram`` and
``calibrate``.  All of them read one JSON configuration document (strict:
unknown keys are rejected) and write into an output directory resolved as
``--out`` flag, then the ``PLBOUNDS_OUT`` environment variable, then
``./plbounds_out``.  Every command writes ``manifest.json`` first with
status "incomplete" and rewrites it on success, so interrupted runs are
detectable.

Exit codes: 0 success, 2 configuration error, 3 input I/O or format error,
4 pipeline failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, io
from .errors import ConfigError, PlboundsError
from .estimator import (
    FileEstimator,
    LossWeights,
    RawEstimate,
    SyntheticEstimator,
    SyntheticEstimatorConfig,
    assemble_covariance,
    gaussian_nll,
    huber_loss,
)
from .geometry import quat_conjugate, quat_multiply, quat_normalize, quat_angular_offset
from .gmm import ProtectionLevelQuery
from .metrics import AlarmLimits, integrity_diagram, records_from_table, summarize
from .pipeline import VARIANTS, PipelineConfig, run_sequence
from .sampling import SamplingConfig
from .scenario import ScenarioConfig, generate_scenario, load_scenario, save_scenario
from .uncertainty import RotationUncertainty, precompute_q

CONFIG_SCHEMA = 1
OUT_ENV_VAR = "PLBOUNDS_OUT"


@dataclass(frozen=True)
class Settings:
    """Fully resolved configuration for one invocation."""

    seed: int
    variant: str
    threads: int
    sampling: SamplingConfig
    query: ProtectionLevelQuery
    limits: AlarmLimits
    estimator_kind: str
    estimator_seed: int | None
    estimator_sigma_noise: tuple[float, float, float]
    estimator_sigma_rot: float
    estimator_miscalibration: float
    estimator_corr: tuple[float, float, float]
    estimator_sigma_floor: float
    estimator_path: str | None
    rotation_source: str
    rotation_path: str | None
    q_samples: int
    min_candidates: int
    diagram_bins: int
    scenario: ScenarioConfig


def _pop_scalar(section: dict, key: str, default, kind, context: str):
    if key not in section:
        return default
    value = section.pop(key)
    try:
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError
            return value
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{context}.{key}: expected {kind.__name__}, got {value!r}") from None


def _pop_vec3(section: dict, key: str, default, context: str):
    if key not in section:
        return default
    value = section.pop(key)
    if isinstance(value, (list, tuple)) and len(value) == 3:
        try:
            return tuple(float(v) for v in value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{context}.{key}: expected a list of 3 numbers, got {value!r}")


def _reject_unknown(section: dict, context: str) -> None:
    if section:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(section))}")


def _section(doc: dict, name: str) -> dict:
    value = doc.pop(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return dict(value)


def load_config(path: Path | str | None) -> Settings:
    """Parse and validate the configuration document; missing keys take
    their defaults, unknown keys are an error."""
    if path is None:
        doc = {}
    else:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    schema = doc.pop("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {schema!r} (expected {CONFIG_SCHEMA})")

    seed = _pop_scalar(doc, "seed", 0, int, "config")
    variant = _pop_scalar(doc, "variant", "VAR_EO", str, "config")
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {', '.join(VARIANTS)}; got {variant!r}")
    threads = _pop_scalar(doc, "threads", 1, int, "config")

    sec = _section(doc, "sampling")
    try:
        sampling = SamplingConfig(
            t_max=_pop_scalar(sec, "t_max", 1.0, float, "sampling"),
            r_max=math.radians(_pop_scalar(sec, "r_max_deg", 5.0, float, "sampling")),
            n_candidates=_pop_scalar(sec, "n_candidates", 24, int, "sampling"),
            include_estimate=_pop_scalar(sec, "include_estimate", True, bool, "sampling"),
        )
    except ValueError as exc:
        raise ConfigError(f"sampling: {exc}") from exc
    _reject_unknown(sec, "sampling")

    sec = _section(doc, "query")
    try:
        query = ProtectionLevelQuery(
            integrity_risk=_pop_scalar(sec, "integrity_risk", 0.01, float, "query"),
            tolerance=_pop_scalar(sec, "tolerance", 1e-4, float, "query"),
            max_iterations=_pop_scalar(sec, "max_iterations", 200, int, "query"),
        )
    except ValueError as exc:
        raise ConfigError(f"query: {exc}") from exc
    _reject_unknown(sec, "query")

    sec = _section(doc, "limits")
    try:
        limits = AlarmLimits(
            lateral=_pop_scalar(sec, "lateral", 0.85, float, "limits"),
            longitudinal=_pop_scalar(sec, "longitudinal", 1.50, float, "limits"),
            vertical=_pop_scalar(sec, "vertical", 1.47, float, "limits"),
        )
    except ValueError as exc:
        raise ConfigError(f"limits: {exc}") from exc
    _reject_unknown(sec, "limits")

    sec = _section(doc, "estimator")
    kind = _pop_scalar(sec, "kind", "synthetic", str, "estimator")
    if kind not in ("synthetic", "file"):
        raise ConfigError(f"estimator.kind must be 'synthetic' or 'file', got {kind!r}")
    estimator_seed = _pop_scalar(sec, "seed", None, int, "estimator") if "seed" in sec else None
    sigma_noise = _pop_vec3(sec, "sigma_noise", (0.1, 0.1, 0.1), "estimator")
    sigma_rot = _pop_scalar(sec, "sigma_rot", 0.01, float, "estimator")
    miscalibration = _pop_scalar(sec, "miscalibration", 1.0, float, "estimator")
    corr = _pop_vec3(sec, "corr", (0.0, 0.0, 0.0), "estimator")
    sigma_floor = _pop_scalar(sec, "sigma_floor", 1e-6, float, "estimator")
    estimator_path = _pop_scalar(sec, "path", None, str, "estimator") if "path" in sec else None
    if kind == "file" and not estimator_path:
        raise ConfigError("estimator.path is required when estimator.kind is 'file'")
    _reject_unknown(sec, "estimator")

    sec = _section(doc, "rotation_uncertainty")
    rotation_source = _pop_scalar(sec, "source", "estimator", str, "rotation_uncertainty")
    if rotation_source not in ("estimator", "file", "none"):
        raise ConfigError("rotation_uncertainty.source must be 'estimator', 'file' or 'none'")
    rotation_path = (
        _pop_scalar(sec, "path", None, str, "rotation_uncertainty") if "path" in sec else None
    )
    if rotation_source == "file" and not rotation_path:
        raise ConfigError("rotation_uncertainty.path is required for source 'file'")
    q_samples = _pop_scalar(sec, "n_samples", 100000, int, "rotation_uncertainty")
    _reject_unknown(sec, "rotation_uncertainty")

    sec = _section(doc, "pipeline")
    min_candidates = _pop_scalar(sec, "min_candidates", 2, int, "pipeline")
    diagram_bins = _pop_scalar(sec, "diagram_bins", 40, int, "pipeline")
    _reject_unknown(sec, "pipeline")

    sec = _section(doc, "scenario")
    try:
        scenario = ScenarioConfig(
            n_timesteps=_pop_scalar(sec, "n_timesteps", 100, int, "scenario"),
            blocks_x=_pop_scalar(sec, "blocks_x", 3, int, "scenario"),
            blocks_y=_pop_scalar(sec, "blocks_y", 3, int, "scenario"),
            block_size=_pop_scalar(sec, "block_size", 20.0, float, "scenario"),
            street_width=_pop_scalar(sec, "street_width", 8.0, float, "scenario"),
            wall_height=_pop_scalar(sec, "wall_height", 6.0, float, "scenario"),
            wall_density=_pop_scalar(sec, "wall_density", 10.0, float, "scenario"),
            ground=_pop_scalar(sec, "ground", True, bool, "scenario"),
            ground_density=_pop_scalar(sec, "ground_density", 2.0, float, "scenario"),
            camera_height=_pop_scalar(sec, "camera_height", 1.5, float, "scenario"),
            speed=_pop_scalar(sec, "speed", 5.0, float, "scenario"),
            dt=_pop_scalar(sec, "dt", 1.0, float, "scenario"),
            estimate_offset_translation=_pop_scalar(
                sec, "estimate_offset_translation", 2.0, float, "scenario"
            ),
            estimate_offset_rotation=math.radians(
                _pop_scalar(sec, "estimate_offset_rotation_deg", 10.0, float, "scenario")
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    _reject_unknown(sec, "scenario")

    _reject_unknown(doc, "config")
    settings = Settings(
        seed=seed,
        variant=variant,
        threads=threads,
        sampling=sampling,
        query=query,
        limits=limits,
        estimator_kind=kind,
        estimator_seed=estimator_seed,
        estimator_sigma_noise=sigma_noise,
        estimator_sigma_rot=sigma_rot,
        estimator_miscalibration=miscalibration,
        estimator_corr=corr,
        estimator_sigma_floor=sigma_floor,
        estimator_path=estimator_path,
        rotation_source=rotation_source,
        rotation_path=rotation_path,
        q_samples=q_samples,
        min_candidates=min_candidates,
        diagram_bins=diagram_bins,
        scenario=scenario,
    )
    try:  # the library's own checks, before any command starts work
        _pipeline_config(settings)
        _estimator_config(settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return settings


def _apply_overrides(settings: Settings, args: argparse.Namespace) -> Settings:
    from dataclasses import replace

    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        updates["threads"] = args.threads
    if getattr(args, "variant", None) is not None:
        updates["variant"] = args.variant
    return replace(settings, **updates) if updates else settings


def _resolve_out(args: argparse.Namespace) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env)
    return Path("plbounds_out")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class _Manifest:
    """Run manifest written before any result and finalized on success."""

    def __init__(self, out_dir: Path, command: str, payload: dict):
        self.path = out_dir / "manifest.json"
        self.doc = {
            "schema": 1,
            "tool": "plbounds",
            "version": __version__,
            "command": command,
            "status": "incomplete",
            "started_utc": _utc_now(),
            "finished_utc": None,
            **payload,
        }
        io.write_json(self.doc, self.path)

    def finish(self, outputs: list[str]) -> None:
        self.doc["status"] = "complete"
        self.doc["finished_utc"] = _utc_now()
        self.doc["outputs"] = sorted(outputs)
        io.write_json(self.doc, self.path)


def _estimator_config(settings: Settings) -> SyntheticEstimatorConfig:
    return SyntheticEstimatorConfig(
        seed=settings.estimator_seed if settings.estimator_seed is not None else settings.seed,
        sigma_noise=settings.estimator_sigma_noise,
        sigma_rot=settings.estimator_sigma_rot,
        miscalibration=settings.estimator_miscalibration,
        corr=settings.estimator_corr,
        sigma_floor=settings.estimator_sigma_floor,
    )


def _build_estimator(settings: Settings):
    if settings.estimator_kind == "file":
        return FileEstimator(settings.estimator_path)
    return SyntheticEstimator(_estimator_config(settings))


def _rotation_uncertainty(settings: Settings) -> RotationUncertainty | None:
    if settings.rotation_source == "none":
        return RotationUncertainty.zero()
    if settings.rotation_source == "file":
        return precompute_q(io.read_quaternion_lines(settings.rotation_path))
    return None  # derive from the estimator inside run_sequence


def _pipeline_config(settings: Settings) -> PipelineConfig:
    return PipelineConfig(
        sampling=settings.sampling,
        query=settings.query,
        limits=settings.limits,
        variant=settings.variant,
        seed=settings.seed,
        threads=settings.threads,
        min_candidates=settings.min_candidates,
        q_samples=settings.q_samples,
        diagram_bins=settings.diagram_bins,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_scenario(args: argparse.Namespace) -> int:
    settings = _apply_overrides(load_config(args.config), args)
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(
        out,
        "gen-scenario",
        {"seed": settings.seed, "config": str(args.config) if args.config else None},
    )
    scenario = generate_scenario(settings.scenario, settings.seed)
    save_scenario(scenario, out, map_format=args.map_format)
    manifest.finish(["scenario.json", "map.bin" if args.map_format == "bin" else "map.xyz"])
    print(f"wrote scenario with {len(scenario.timesteps)} timesteps, map of {len(scenario.cloud)} points to {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    settings = _apply_overrides(load_config(args.config), args)
    scenario = load_scenario(args.scenario)
    estimator = _build_estimator(settings)
    rotation = _rotation_uncertainty(settings)
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(
        out,
        "run",
        {
            "seed": settings.seed,
            "variant": settings.variant,
            "threads": settings.threads,
            "config": str(args.config) if args.config else None,
            "scenario": str(args.scenario),
            "estimator": settings.estimator_kind,
        },
    )
    sequence = run_sequence(estimator, scenario, _pipeline_config(settings), rotation)
    io.write_results_csv(sequence.result_rows(), out / "results.csv")
    io.write_json(sequence.report.to_dict(), out / "report.json")
    io.write_json(sequence.diagram.to_dict(), out / "diagram.json")
    manifest.finish(["results.csv", "report.json", "diagram.json"])
    fr = sequence.report.failure_rate
    print(
        f"{len(sequence.results)} timesteps, variant {settings.variant}; "
        f"failure rate lat/lon/vert = {fr.lateral:.4f}/{fr.longitudinal:.4f}/{fr.vertical:.4f}"
    )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    settings = _apply_overrides(load_config(args.config), args)
    records = records_from_table(io.read_results_csv(args.results))
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out, "metrics", {"results": str(args.results)})
    report = summarize(records, settings.limits)
    io.write_json(report.to_dict(), out / "report.json")
    manifest.finish(["report.json"])
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    settings = _apply_overrides(load_config(args.config), args)
    records = records_from_table(io.read_results_csv(args.results))
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out, "diagram", {"results": str(args.results)})
    diagram = integrity_diagram(records, settings.limits, settings.diagram_bins)
    io.write_json(diagram.to_dict(), out / "diagram.json")
    manifest.finish(["diagram.json"])
    print(f"wrote integrity diagram for {diagram.n_records} records to {out / 'diagram.json'}")
    return 0


CALIBRATION_COLUMNS = (
    "pred_x,pred_y,pred_z,true_x,true_y,true_z,"
    "sigma_x,sigma_y,sigma_z,corr_xy,corr_xz,corr_yz,"
    "pred_qw,pred_qx,pred_qy,pred_qz,true_qw,true_qx,true_qy,true_qz"
).split(",")


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Score predictions against their targets and export rotation residuals."""
    _apply_overrides(load_config(args.config), args)
    with open(args.predictions) as fh:
        header = fh.readline().strip().split(",")
        if header != CALIBRATION_COLUMNS:
            raise ValueError(
                f"{args.predictions}: expected columns {','.join(CALIBRATION_COLUMNS)}"
            )
        table = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    if not table:
        raise ValueError(f"{args.predictions}: no data rows")
    data = np.asarray(table, dtype=float)
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out, "calibrate", {"predictions": str(args.predictions)})

    weights = LossWeights()
    residuals = []
    huber_total = nll_total = angular_total = 0.0
    for row in data:
        pred_t, true_t = row[0:3], row[3:6]
        sigma, corr = row[6:9], row[9:12]
        pred_q = quat_normalize(row[12:16])
        true_q = quat_normalize(row[16:20])
        raw = RawEstimate(pred_t, pred_q, sigma, corr)
        e = raw.translation_error - true_t
        huber_total += huber_loss(e)
        nll_total += gaussian_nll(e, assemble_covariance(raw.sigma, raw.corr))
        residual = quat_normalize(quat_multiply(true_q, quat_conjugate(pred_q)))
        angular_total += quat_angular_offset(residual)
        residuals.append(residual)
    n = len(residuals)
    doc = {
        "n_rows": n,
        "loss_weights": {
            "alpha_huber": weights.alpha_huber,
            "alpha_mle": weights.alpha_mle,
            "alpha_angular": weights.alpha_angular,
        },
        "mean_huber": huber_total / n,
        "mean_mle": nll_total / n,
        "mean_angular": angular_total / n,
        "mean_total": (
            weights.alpha_huber * huber_total
            + weights.alpha_mle * nll_total
            + weights.alpha_angular * angular_total
        )
        / n,
        "rotation_residuals": "rotation_residuals.jsonl",
    }
    io.write_quaternion_lines(np.asarray(residuals), out / "rotation_residuals.jsonl")
    io.write_json(doc, out / "calibration.json")
    manifest.finish(["calibration.json", "rotation_residuals.jsonl"])
    print(
        f"{n} rows: mean huber {doc['mean_huber']:.6f}, mean likelihood {doc['mean_mle']:.6f}, "
        f"mean angular {doc['mean_angular']:.6f}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plbounds",
        description="Protection levels for map-based localization",
    )
    parser.add_argument("--version", action="version", version=f"plbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, variants: bool = False) -> None:
        p.add_argument("--config", type=Path, default=None, help="JSON configuration document")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--threads", type=int, default=None, help="accepted and checked; does not change the run")
        if variants:
            p.add_argument("--variant", choices=VARIANTS, default=None, help="pipeline variant")

    p = sub.add_parser("gen-scenario", help="generate a synthetic scenario and its map")
    common(p)
    p.add_argument("--map-format", choices=("bin", "xyz"), default="bin")
    p.set_defaults(func=cmd_gen_scenario)

    p = sub.add_parser("run", help="compute protection levels over a scenario")
    p.add_argument("scenario", type=Path, help="scenario.json produced by gen-scenario")
    common(p, variants=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("metrics", help="integrity statistics from a results table")
    p.add_argument("results", type=Path, help="results.csv produced by run")
    common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("diagram", help="integrity diagram from a results table")
    p.add_argument("results", type=Path, help="results.csv produced by run")
    common(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("calibrate", help="loss statistics and rotation residuals from predictions")
    p.add_argument("predictions", type=Path, help="CSV of predictions and targets")
    common(p)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except PlboundsError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
