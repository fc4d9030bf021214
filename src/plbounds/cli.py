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
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, io
from .errors import ConfigError, NotPositiveDefinite, PlboundsError
from .estimator import (
    LOSS_WEIGHTS,
    FileEstimator,
    RawEstimate,
    SyntheticEstimator,
    SyntheticEstimatorConfig,
    assemble_covariance,
    gaussian_nll,
    huber_loss,
)
from .geometry import quat_conjugate, quat_multiply, quat_normalize, quat_angular_offset
from .gmm import ProtectionLevelQuery
from .metrics import AlarmLimits, integrity_diagram, summarize
from .pipeline import VARIANTS, PipelineConfig, run_sequence
from .sampling import SamplingConfig
from .scenario import ScenarioConfig, generate_scenario, load_scenario, save_scenario
from .uncertainty import RotationUncertainty, rotation_uncertainty_from_file
from .uncertainty import precompute_q  # noqa: F401  (plbounds.cli.precompute_q: the benchmark's set-up calls it)

CONFIG_SCHEMA = 1
OUT_ENV_VAR = "PLBOUNDS_OUT"


# config fields given in degrees, under the key ``<name>_deg``
_DEGREES = ("r_max", "estimate_offset_rotation")


@dataclass(frozen=True, kw_only=True)
class Settings(PipelineConfig):
    """Fully resolved configuration for one invocation: the pipeline's
    configuration, plus the estimator, the rotation-uncertainty source and
    the scenario.

    ``estimator.seed`` is None unless the config sets it; the estimator then
    takes the run seed.
    """

    estimator_kind: str
    estimator: SyntheticEstimatorConfig
    estimator_path: str | None
    rotation_source: str
    rotation_path: str | None
    scenario: ScenarioConfig


def _pop(section: dict, key: str, default, context: str):
    """``section[key]``, removed, as the type of ``default`` (see ``_as``; a
    tuple takes a list of 3 numbers); ``default`` if absent."""
    if key not in section:
        return default
    value = section.pop(key)
    try:
        if not isinstance(default, tuple):
            return _as(type(default), value)
        if isinstance(value, list) and len(value) == 3:
            return tuple(_as(float, v) for v in value)
    except (OverflowError, TypeError):
        pass
    expected = "a list of 3 numbers" if isinstance(default, tuple) else type(default).__name__
    raise ConfigError(f"{context}.{key}: expected {expected}, got {value!r}")


def _as(kind, value):
    """The JSON value ``value`` as ``kind``, TypeError if it is not of that
    type: a bool takes a boolean and a str a string, a float any number and
    an int one with no fraction (such as 1e5), neither of them a boolean."""
    if kind in (bool, str):
        ok = isinstance(value, kind)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and (kind is float or isinstance(value, int) or value.is_integer())
    if not ok:
        raise TypeError
    return kind(value)


def _fields(section: dict, context: str, cls, names=None) -> dict:
    """Pop the keys of ``section`` that set fields of the dataclass ``cls``
    (those in ``names``, or all) and return the values they set.  A field's
    key is its name, or ``<name>_deg`` for a field in ``_DEGREES``; a field
    whose key is absent keeps its default."""
    values = {}
    for f in fields(cls):
        if names is not None and f.name not in names:
            continue
        key = f.name + "_deg" if f.name in _DEGREES else f.name
        if key in section:
            value = _pop(section, key, f.default, context)
            values[f.name] = math.radians(value) if f.name in _DEGREES else value
    return values


def _reject_unknown(section: dict, context: str) -> None:
    if section:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(section))}")


def _section(doc: dict, name: str) -> dict:
    value = doc.pop(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return dict(value)


def _build(cls, context: str, **values):
    """``cls(**values)``, its checks failing as ``ConfigError``."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _config(section: dict, context: str, cls, **defaults):
    """The dataclass ``cls`` from the keys left in ``section``, which must all
    set its fields; ``defaults`` replace field defaults."""
    values = {**defaults, **_fields(section, context, cls)}
    _reject_unknown(section, context)
    return _build(cls, context, **values)


def load_config(path: Path | str | None) -> Settings:
    """Parse and validate the configuration document; missing keys take
    the defaults of the config dataclasses, unknown keys are an error."""
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
    pipeline = _fields(doc, "config", PipelineConfig, ("seed", "variant", "threads"))

    sec = _section(doc, "estimator")
    kind = _pop(sec, "kind", "synthetic", "estimator")
    if kind not in ("synthetic", "file"):
        raise ConfigError(f"estimator.kind must be 'synthetic' or 'file', got {kind!r}")
    estimator_path = _pop(sec, "path", "", "estimator") or None
    if kind == "file" and not estimator_path:
        raise ConfigError("estimator.path is required when estimator.kind is 'file'")
    estimator = _config(sec, "estimator", SyntheticEstimatorConfig, seed=None)

    sec = _section(doc, "rotation_uncertainty")
    rotation_source = _pop(sec, "source", "estimator", "rotation_uncertainty")
    if rotation_source not in ("estimator", "file", "none"):
        raise ConfigError("rotation_uncertainty.source must be 'estimator', 'file' or 'none'")
    rotation_path = _pop(sec, "path", "", "rotation_uncertainty") or None
    if rotation_source == "file" and not rotation_path:
        raise ConfigError("rotation_uncertainty.path is required for source 'file'")
    pipeline["q_samples"] = _pop(sec, "n_samples", PipelineConfig.q_samples, "rotation_uncertainty")
    _reject_unknown(sec, "rotation_uncertainty")

    sec = _section(doc, "pipeline")
    pipeline.update(_fields(sec, "pipeline", PipelineConfig, ("min_candidates", "diagram_bins")))
    _reject_unknown(sec, "pipeline")

    settings = _build(
        Settings,
        "config",
        sampling=_config(_section(doc, "sampling"), "sampling", SamplingConfig),
        query=_config(_section(doc, "query"), "query", ProtectionLevelQuery),
        limits=_config(_section(doc, "limits"), "limits", AlarmLimits),
        **pipeline,
        estimator_kind=kind,
        estimator=estimator,
        estimator_path=estimator_path,
        rotation_source=rotation_source,
        rotation_path=rotation_path,
        scenario=_config(_section(doc, "scenario"), "scenario", ScenarioConfig),
    )
    _reject_unknown(doc, "config")
    return settings


def _apply_overrides(settings: Settings, args: argparse.Namespace) -> Settings:
    """``settings`` with the ``--seed``, ``--threads`` and ``--variant`` given,
    checked again as the config's values are."""
    given = {name: getattr(args, name, None) for name in ("seed", "threads", "variant")}
    try:
        return replace(settings, **{name: value for name, value in given.items() if value is not None})
    except ValueError as exc:
        raise ConfigError(f"command line: {exc}") from exc


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
    if settings.estimator.seed is None:
        return replace(settings.estimator, seed=settings.seed)
    return settings.estimator


def _build_estimator(settings: Settings):
    if settings.estimator_kind == "file":
        return FileEstimator(settings.estimator_path)
    return SyntheticEstimator(_estimator_config(settings))


def _rotation_uncertainty(settings: Settings) -> tuple[RotationUncertainty | None, dict]:
    """The tensor to bound with, and what the manifest records of its file."""
    if settings.rotation_source == "none":
        return RotationUncertainty.zero(), {}
    if settings.rotation_source == "file":
        rotation, record = rotation_uncertainty_from_file(settings.rotation_path)
        return rotation, {"rotation_file": record}
    return None, {}  # derive from the estimator inside run_sequence


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
    save_scenario(scenario, out)
    manifest.finish(["scenario.json", "map.bin"])
    print(f"wrote scenario with {len(scenario.timesteps)} timesteps, map of {len(scenario.cloud)} points to {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    settings = _apply_overrides(load_config(args.config), args)
    scenario = load_scenario(args.scenario)
    estimator = _build_estimator(settings)
    rotation, rotation_record = _rotation_uncertainty(settings)
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
            **({"estimator_file": estimator.file_record} if settings.estimator_kind == "file" else {}),
            **rotation_record,
        },
    )
    sequence = run_sequence(estimator, scenario, settings, rotation)
    io.write_results_csv(sequence.result_rows(), out / "results.csv")
    io.write_json(sequence.report.to_dict(), out / "report.json")
    io.write_json(sequence.diagram.to_dict(), out / "diagram.json")
    manifest.finish(["results.csv", "report.json", "diagram.json"])
    fr = sequence.report.failure_rate
    print(
        f"{sequence.report.n_records} timesteps, variant {settings.variant}; "
        f"failure rate lat/lon/vert = {fr.lateral:.4f}/{fr.longitudinal:.4f}/{fr.vertical:.4f}"
    )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    settings = _apply_overrides(load_config(args.config), args)
    table = io.read_results_csv(args.results)
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out, "metrics", {"results": str(args.results)})
    report = summarize(table[:, 1:4], table[:, 4:7], settings.limits)
    io.write_json(report.to_dict(), out / "report.json")
    manifest.finish(["report.json"])
    print(io.json_text(report.to_dict()))
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    settings = _apply_overrides(load_config(args.config), args)
    table = io.read_results_csv(args.results)
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out, "diagram", {"results": str(args.results)})
    diagram = integrity_diagram(table[:, 1:4], table[:, 4:7], settings.limits, settings.diagram_bins)
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
        # (estimate, its covariance, normalized predicted rotation, true translation, normalized true rotation)
        rows = []
        for number, line in enumerate(fh, start=2):
            try:
                if line.strip():
                    row = np.array([float(v) for v in line.split(",")])
                    if len(row) != len(CALIBRATION_COLUMNS):
                        raise ValueError(f"expected {len(CALIBRATION_COLUMNS)} values, got {len(row)}")
                    pred_q = quat_normalize(row[12:16])
                    raw = RawEstimate(row[0:3], pred_q, row[6:9], row[9:12])
                    cov = assemble_covariance(raw.sigma, raw.corr)
                    rows.append((raw, cov, pred_q, row[3:6], quat_normalize(row[16:20])))
            except ValueError as exc:
                raise ValueError(f"{args.predictions}:{number}: {exc}") from None
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(f"{args.predictions}:{number}: {exc}") from None
    if not rows:
        raise ValueError(f"{args.predictions}: no data rows")
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out, "calibrate", {"predictions": str(args.predictions)})

    residuals = []
    huber_total = nll_total = angular_total = 0.0
    for raw, cov, pred_q, true_t, true_q in rows:
        e = raw.translation_error - true_t
        huber_total += huber_loss(e)
        nll_total += gaussian_nll(e, cov)
        residual = quat_normalize(quat_multiply(true_q, quat_conjugate(pred_q)))
        angular_total += quat_angular_offset(residual)
        residuals.append(residual)
    n = len(residuals)
    totals = {"alpha_huber": huber_total, "alpha_mle": nll_total, "alpha_angular": angular_total}
    doc = {
        "n_rows": n,
        "loss_weights": LOSS_WEIGHTS,
        "mean_huber": huber_total / n,
        "mean_mle": nll_total / n,
        "mean_angular": angular_total / n,
        "mean_total": sum(LOSS_WEIGHTS[name] * total for name, total in totals.items()) / n,
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
