"""The benchmark's workloads: inputs made from a seed, set-up, one timed
call and the checks on what that call produced.

Every call into plbounds goes through its public entry points: the
scenario loader and the estimator constructors, ``run_sequence`` and
``plbounds.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import plbounds
import plbounds.cli
import plbounds.io
import plbounds.pipeline

# Rotation residuals behind the file-sourced rotation-uncertainty tensor,
# as many as the pipeline draws itself by default.
ROTATION_SAMPLES = 100_000

# Timesteps of the short run that warms caches before anything is timed.
WARM_UP_TIMESTEPS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    n_timesteps: int
    n_candidates: int
    threads: int
    chunk: int  # timesteps per timed call
    cli: bool = False


# seq_var bounds 3000 timesteps so that its failure-rate check (at most 1%
# per axis, where a calibrated VAR run fails about 0.5% of timesteps) holds
# on any seed; cli_replay bounds 200 so that its mean protection level,
# which varies most from seed to seed, stays steady.  A call covers one
# chunk of the scenario: run_sequence on the library path, a whole
# `plbounds run` on the CLI path.  Calls are kept short; see README.md,
# "Noise".
WORKLOADS = {
    w.name: w
    for w in (
        Workload("seq_eo24", "VAR_EO", n_timesteps=400, n_candidates=24, threads=1, chunk=10),
        Workload("seq_var", "VAR", n_timesteps=3000, n_candidates=24, threads=1, chunk=25),
        Workload(
            "cli_replay", "VAR_EO_DIRECTIONAL", n_timesteps=200, n_candidates=48, threads=2, chunk=50,
            cli=True,
        ),
    )
}


def call_s(w: Workload, walls: list[float]) -> float:
    """The run's call time that ``timesteps_per_s`` reports: the fastest
    library call, or the median command; see README.md, "Noise"."""
    return statistics.median(walls) if w.cli else min(walls)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def pipeline_config(w: Workload, seed: int, threads: int | None = None) -> plbounds.PipelineConfig:
    return plbounds.PipelineConfig(
        sampling=plbounds.SamplingConfig(n_candidates=w.n_candidates),
        variant=w.variant,
        seed=seed,
        threads=w.threads if threads is None else threads,
    )


class _Recorder:
    """Estimator that keeps every estimate it hands out, keyed the way the
    file-backed estimator looks them up."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = {}

    def estimate(self, ctx, candidate, cloud=None):
        raw = self.inner.estimate(ctx, candidate, cloud)
        self.rows[(ctx.payload_key, ctx.candidate_index)] = raw
        return raw


def make_inputs(w: Workload, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs for ``seed`` under ``inputs``; returns their paths.

    The CLI workload gets one directory per chunk of the scenario, each
    with the chunk's scenario, map, estimator table and config, sharing one
    rotation-residual file.  The configs name those files relative to the
    parent of ``inputs``, where the worker runs, so that their bytes do not
    depend on where the checkout is.  A chunk's estimator table holds what the
    synthetic estimator answers to every (timestep, candidate) the pipeline
    asks about, recorded from one serial run over that chunk, so the
    replayed run is bounded by the same errors a live estimator would give.
    """
    scenario = plbounds.generate_scenario(plbounds.ScenarioConfig(n_timesteps=w.n_timesteps), seed)
    if not w.cli:
        return {"scenario": str(plbounds.save_scenario(scenario, inputs))}
    synthetic = plbounds.SyntheticEstimator(plbounds.SyntheticEstimatorConfig(seed=seed))
    rotation = inputs / "rotation.jsonl"
    inputs.mkdir(parents=True, exist_ok=True)
    plbounds.io.write_quaternion_lines(synthetic.rotation_residual_samples(ROTATION_SAMPLES, seed), rotation)
    parts = []
    for first in range(0, w.n_timesteps, w.chunk):
        part = replace(scenario, timesteps=scenario.timesteps[first : first + w.chunk])
        recorder = _Recorder(synthetic)
        plbounds.run_sequence(recorder, part, pipeline_config(w, seed, threads=1), plbounds.RotationUncertainty.zero())
        folder = inputs / f"part{first // w.chunk}"
        estimates = folder / "estimates.jsonl"
        config = folder / "config.json"
        parts.append({"scenario": str(plbounds.save_scenario(part, folder)), "config": str(config)})
        plbounds.write_estimate_records(
            [(key, index, raw) for (key, index), raw in sorted(recorder.rows.items())], estimates
        )
        plbounds.io.write_json(
            {
                "seed": seed,
                "variant": w.variant,
                "threads": w.threads,
                "sampling": {"n_candidates": w.n_candidates},
                "estimator": {"kind": "file", "path": str(estimates.relative_to(inputs.parent))},
                "rotation_uncertainty": {"source": "file", "path": str(rotation.relative_to(inputs.parent))},
            },
            config,
        )
    return {"parts": parts}


@dataclass
class Ready:
    """Everything one timed call needs, as set-up left it."""

    scenario: object
    estimator: object
    config: plbounds.PipelineConfig
    rotation: object


def set_up(w: Workload, seed: int, paths: dict[str, str], tracer) -> Ready:
    """From inputs on disk to a pipeline ready to bound the first timestep."""
    if w.cli:
        # the steps `plbounds run` takes on the first chunk before its first
        # timestep, through the names the CLI module calls
        part = paths["parts"][0]
        settings = plbounds.cli.load_config(part["config"])
        scenario = plbounds.cli.load_scenario(part["scenario"])
        estimator = plbounds.cli.FileEstimator(settings.estimator_path)
        rotation = plbounds.cli.precompute_q(plbounds.io.read_quaternion_lines(settings.rotation_path))
        config = plbounds.PipelineConfig(
            sampling=settings.sampling,
            query=settings.query,
            limits=settings.limits,
            variant=settings.variant,
            seed=settings.seed,
            threads=settings.threads,
        )
    else:
        scenario = tracer.call("scenario.load", plbounds.load_scenario, paths["scenario"])
        estimator = tracer.call(
            "estimator.load", plbounds.SyntheticEstimator, plbounds.SyntheticEstimatorConfig(seed=seed)
        )
        config = pipeline_config(w, seed)
        # run_sequence builds the same tensor when handed none; doing it here
        # keeps it in set-up.  It is a no-op if plbounds drops the helper.
        default = getattr(plbounds.pipeline, "default_rotation_uncertainty", None)
        rotation = default(estimator, config) if default else None
    return Ready(scenario, estimator, config, rotation)


def warm_up(ready: Ready) -> None:
    short = replace(ready.scenario, timesteps=ready.scenario.timesteps[:WARM_UP_TIMESTEPS])
    plbounds.run_sequence(ready.estimator, short, ready.config, ready.rotation)


@dataclass(frozen=True)
class Outcome:
    """What one call, or one pass over the scenario, produced."""

    rows: np.ndarray  # (timesteps, 7) results table, columns as in results.csv
    n_records: int
    failure_rate: tuple[float, float, float]
    bytes_written: int = 0


def run_once(w: Workload, ready: Ready, paths: dict[str, str], work: Path, tracer, first: int):
    """One timed call over the ``w.chunk`` timesteps from ``first``:
    ``run_sequence`` on the library path, the whole ``plbounds run`` command
    on the CLI path.  Returns its wall time and, on the library path, the
    result."""
    if w.cli:
        out = work / "out"
        part = paths["parts"][first // w.chunk]
        argv = ["run", part["scenario"], "--config", part["config"], "--out", str(out)]
        with contextlib.redirect_stdout(_io.StringIO()):
            start = perf_counter()
            code = plbounds.cli.main(argv)
            wall = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"plbounds run exited with {code}")
        return wall, None
    part = replace(ready.scenario, timesteps=ready.scenario.timesteps[first : first + w.chunk])
    estimator = tracer.estimator(ready.estimator)
    start = perf_counter()
    sequence = tracer.call(
        "pipeline.run_sequence", plbounds.run_sequence, estimator, part, ready.config, ready.rotation
    )
    return perf_counter() - start, sequence


def collect(w: Workload, sequence, work: Path) -> Outcome:
    """What a call produced, read back outside the timed region."""
    if w.cli:
        out = work / "out"
        report = plbounds.io.read_json(out / "report.json")
        rates = report["failure_rate"]
        return Outcome(
            rows=plbounds.io.read_results_csv(out / "results.csv"),
            n_records=int(report["n_records"]),
            failure_rate=(rates["lateral"], rates["longitudinal"], rates["vertical"]),
            bytes_written=sum(p.stat().st_size for p in out.iterdir()),
        )
    fr = sequence.report.failure_rate
    return Outcome(
        rows=np.array(sequence.result_rows(), dtype=float).reshape(-1, 7),
        n_records=sequence.report.n_records,
        failure_rate=(fr.lateral, fr.longitudinal, fr.vertical),
    )


def combine(parts: list[Outcome]) -> Outcome:
    """One pass over the scenario from the calls that made it up."""
    n = sum(p.n_records for p in parts)
    # whole failure counts, so a pass at exactly the risk is not pushed over
    # it by rounding
    failures = np.sum([np.rint(np.multiply(p.failure_rate, p.n_records)) for p in parts], axis=0)
    return Outcome(
        rows=np.concatenate([p.rows for p in parts]),
        n_records=n,
        failure_rate=tuple(float(f) / n if n else 0.0 for f in failures),
        bytes_written=sum(p.bytes_written for p in parts),
    )


def results_sha256(outcome: Outcome, work: Path) -> str:
    """SHA-256 of the pass's rows written as one results.csv, the way the
    CLI writes it."""
    path = work / "results.csv"
    plbounds.io.write_results_csv(outcome.rows, path)
    return sha256(path)


def check(outcome: Outcome, n_timesteps: int, risk: float) -> list[str]:
    """Problems with one pass's outputs; empty when every check passes."""
    problems = []
    pls = outcome.rows[:, 1:4]
    if pls.shape[0] != n_timesteps:
        problems.append(f"{pls.shape[0]} result rows for {n_timesteps} timesteps")
    if not (np.all(np.isfinite(pls)) and np.all(pls >= 0.0)):
        problems.append("a protection level is negative or not finite")
    if outcome.n_records != n_timesteps:
        problems.append(f"report counts {outcome.n_records} records for {n_timesteps} timesteps")
    for axis, rate in zip(("lateral", "longitudinal", "vertical"), outcome.failure_rate):
        if not rate <= risk:
            problems.append(f"{axis} failure rate {rate} exceeds the integrity risk {risk}")
    return problems


def check_part(outcome: Outcome, n: int, whole: Outcome, work: Path) -> list[str]:
    """Problems with a pass cut short at the deadline after ``n`` timesteps:
    it must give the same rows as the start of the first whole pass."""
    problems = []
    if outcome.rows.shape[0] != n:
        problems.append(f"{outcome.rows.shape[0]} result rows for {n} timesteps")
    if outcome.n_records != n:
        problems.append(f"report counts {outcome.n_records} records for {n} timesteps")
    if results_sha256(outcome, work) != results_sha256(replace(whole, rows=whole.rows[:n]), work):
        problems.append(f"the first {n} result rows differ from the first pass's")
    return problems


def pl_mean(outcome: Outcome) -> float:
    """Mean protection level over every timestep and axis."""
    return float(np.mean(outcome.rows[:, 1:4]))
