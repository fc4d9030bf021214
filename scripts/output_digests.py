"""Print SHA-256 digests of what `plbounds run` writes, for every variant on fixed inputs.

The inputs are made from fixed seeds: one 300-timestep scenario, longer
than a 256-timestep block, bounded with two estimators,

* ``synthetic``: the synthetic estimator with rotation noise (sigma_rot
  0.02) and correlations, its rotation uncertainty drawn from itself;
* ``table``: a file table recorded from that estimator, less two
  candidates of timestep 3 and with an indefinite correlation for
  candidate 2 of timestep 5, its rotation uncertainty read from a file.

For each estimator and variant the script prints the exit code of `plbounds
run` and the digests of its results.csv, report.json, diagram.json, stdout
and stderr, then those of `plbounds metrics` and `plbounds diagram` on that
results.csv.  Two source trees that print the same lines write the same
bytes.  Run it on each tree, e.g.

    PYTHONPATH=src python scripts/output_digests.py --work /tmp/digests

A second run with the same ``--work`` leaves every input whose bytes it
would not change untouched, so once they have settled `plbounds run` hashes
them from its memos.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import plbounds
import plbounds.io
from plbounds.cli import main as cli_main

SEED = 31
TIMESTEPS = 300
ESTIMATOR = {"sigma_rot": 0.02, "corr": [0.3, 0.1, -0.2]}


class _Recorder:
    """Synthetic answers through ``estimate`` alone, each kept under the key
    a file table looks it up by."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = {}

    def estimate(self, ctx, candidate, cloud=None):
        raw = self.inner.estimate(ctx, candidate, cloud)
        self.rows[ctx.payload_key, ctx.candidate_index] = raw
        return raw


def make_inputs(work: Path) -> dict[str, Path]:
    """Write the scenario and both estimators' configs under ``work``.

    Each file is written under a temporary name first and replaces the one
    in ``work`` only if their bytes differ, so an input a previous run left
    keeps its stat data, and a settled one is hashed from its memo."""
    with tempfile.TemporaryDirectory(dir=work) as staging:
        configs = _write_inputs(work, Path(staging))
        for staged in sorted(Path(staging).rglob("*")):
            target = work / staged.relative_to(staging)
            if staged.is_file() and not (target.is_file() and target.read_bytes() == staged.read_bytes()):
                target.parent.mkdir(parents=True, exist_ok=True)
                os.replace(staged, target)
    return configs


def _write_inputs(work: Path, staging: Path) -> dict[str, Path]:
    """Write the inputs under ``staging`` as they are to lie under ``work``:
    the configs name the paths under ``work``."""
    scenario = plbounds.generate_scenario(
        plbounds.ScenarioConfig(n_timesteps=TIMESTEPS, blocks_x=1, blocks_y=1, wall_density=0.2), SEED
    )
    plbounds.save_scenario(scenario, staging / "scenario")
    synthetic = plbounds.SyntheticEstimator(plbounds.SyntheticEstimatorConfig(seed=SEED, **ESTIMATOR))
    recorder = _Recorder(synthetic)
    plbounds.run_sequence(recorder, scenario, plbounds.PipelineConfig(seed=SEED), plbounds.RotationUncertainty.zero())
    records = []
    for (key, index), raw in sorted(recorder.rows.items()):
        if key == "t000003" and index in (5, 17):
            continue
        if key == "t000005" and index == 2:
            raw = replace(raw, corr=np.array([0.9, -0.9, 0.9]))
        records.append((key, index, raw))
    plbounds.write_estimate_records(records, staging / "estimates.jsonl")
    plbounds.io.write_quaternion_lines(synthetic.rotation_residual_samples(5000, SEED), staging / "rotation.jsonl")
    configs = {
        "synthetic": {"estimator": ESTIMATOR, "rotation_uncertainty": {"n_samples": 5000}},
        "table": {
            "estimator": {"kind": "file", "path": str(work / "estimates.jsonl")},
            "rotation_uncertainty": {"source": "file", "path": str(work / "rotation.jsonl")},
        },
    }
    for name, config in configs.items():
        plbounds.io.write_json({"seed": SEED, **config}, staging / f"{name}.json")
    return {name: work / f"{name}.json" for name in configs}


def _digest(data: bytes | None) -> str:
    return "absent" if data is None else hashlib.sha256(data).hexdigest()


def _command(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, default=None, help="directory for the inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        work.mkdir(parents=True, exist_ok=True)
        configs = make_inputs(work)
        scenario = str(work / "scenario" / "scenario.json")
        for name, config in configs.items():
            for variant in plbounds.VARIANTS:
                out = work / f"{name}_{variant}"
                code, stdout, stderr = _command(["run", scenario, "--config", str(config), "--out", str(out), "--variant", variant])
                files = {f: _read(out / f) for f in ("results.csv", "report.json", "diagram.json")}
                lines = [("run exit", str(code))]
                lines += [(f"run {f}", _digest(data)) for f, data in files.items()]
                lines += [("run stdout", _digest(stdout)), ("run stderr", _digest(stderr))]
                if files["results.csv"] is not None:
                    for command, written in (("metrics", "report.json"), ("diagram", "diagram.json")):
                        again = work / f"{name}_{variant}_{command}"
                        code, stdout, _ = _command([command, str(out / "results.csv"), "--config", str(config), "--out", str(again)])
                        lines += [(f"{command} exit", str(code)), (f"{command} {written}", _digest(_read(again / written)))]
                for what, value in lines:
                    print(f"{name:<9} {variant:<18} {what:<20} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
