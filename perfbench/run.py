"""plbounds benchmark: one run of one workload.

    python3 perfbench/run.py --workload seq_eo24 --seed 2101 --seconds 55 --trace 0

Run from the root of a plbounds checkout; the package is imported from its
``src/``.  The run makes the workload's inputs from the seed (untimed),
measures them in a fresh worker process for ``--seconds`` seconds and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload in turn.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Only the pipeline's own ``threads`` may run in parallel.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"timesteps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "pl_mean_m": "m"}


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "plbounds").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Make the inputs, measure them in a worker process and reduce its report."""
    import workloads

    w = workloads.WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths = workloads.make_inputs(w, seed, work / "inputs")
        (work / "inputs.json").write_text(json.dumps(paths))
        env = {**os.environ, **PINNED_ENV, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
        done = subprocess.run(
            argv, cwd=work, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True
        )
        if done.returncode != 0:
            raise RuntimeError(f"worker for {name} exited with {done.returncode}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        inputs = {
            str(path.relative_to(work)): workloads.sha256(path)
            for path in sorted((work / "inputs").rglob("*"))
            if path.is_file()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()

    if trace:
        metrics = dict(report["layers"])
        notes = {"idle": report["idle"], "missing": report["missing"], "split": report["split"]}
    else:
        walls = report["walls_s"]
        metrics = {
            "timesteps_per_s": w.chunk / workloads.call_s(w, walls) if walls else 0.0,
            # the fastest set-up: see README.md, "Noise"
            "setup_s": min(report["setup_s"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "pl_mean_m": report["pl_mean_m"] if report["pl_mean_m"] is not None else 0.0,
        }
        notes = {}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": report["failed_timesteps"] == 0 and report["whole_pass"],
        "attempted": report["timesteps"],
        "failed": report["failed_timesteps"],
        "metrics": metrics,
        "inputs_sha256": inputs,
        "results_sha256": report["results_sha256"],
        "samples": {k: report[k] for k in ("setup_s", "walls_s", "traced_walls_s") if k in report},
        **notes,
    }


def units() -> dict[str, str]:
    from tracing import LAYER_METRICS

    return {**END_TO_END_UNITS, **{name: unit for name, (unit, _) in LAYER_METRICS.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="seq_eo24, seq_var, cli_replay or all")
    parser.add_argument("--seed", type=int, default=2101)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "plbounds" / "__init__.py").is_file():
        print(f"error: no plbounds sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy is first imported
    sys.path[:0] = [str(SRC)]
    import plbounds
    import workloads

    if Path(plbounds.__file__).resolve().parent != SRC / "plbounds":
        print(f"error: imported plbounds from {plbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")

    unit = units()
    host = machine()
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, args.trace)
        runs.append(run)
        print("record " + json.dumps({**run, "machine": host}, sort_keys=True))
        for metric, value in run["metrics"].items():
            idle = " (layer not entered on this workload)" if metric in run.get("idle", ()) else ""
            print(f"{name:<11} {metric:<48} {value:>14.6g} {unit[metric]}{idle}")
        if "split" in run:
            shares = ", ".join(f"{part} {ours:.1f}% ({theirs}%)" for part, (ours, theirs) in run["split"].items())
            print(f"{name:<11} share of pipeline time, traced (ROADMAP cProfile): {shares}")
        for missing in run.get("missing", ()):
            print(f"{name:<11} entry point {missing} not found: its metrics are absent")
        if not run["correct"]:
            print(f"{name:<11} output checks FAILED: {run['failed']} of {run['attempted']} timesteps")

    if len(runs) == 1:
        metrics = {m: {"value": v, "unit": unit[m]} for m, v in runs[0]["metrics"].items()}
    else:
        metrics = {
            f"{run['workload']}.{m}": {"value": v, "unit": unit[m]} for run in runs for m, v in run["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(run["correct"] for run in runs),
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
