"""One measured run of one workload, in a fresh process.

Started by run.py with the workload's inputs already on disk.  Sets the
pipeline up, warms it, then makes passes over the scenario until the
run's seconds (counted from the start) are spent, setting the pipeline up
again between calls.  A pass is one or more timed calls that together bound
every timestep once; its outputs are checked as a whole.  The last pass may
stop at the deadline after any call; what it produced must then equal the
start of the first whole pass's results.
With ``--trace 1`` untraced and traced calls alternate, so the difference
between the two is the tracing overhead.  Prints one JSON object as its
last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracing import NullTracer, Tracer, layer_metrics, split

# Share of a run's time spent setting the pipeline up again.
SETUP_SHARE = 0.4
TRACED_SETUPS = 3


def peak_rss_mb() -> float:
    """This process's own peak resident memory.  ``ru_maxrss`` would also
    count the parent's, which Linux carries across exec, so read VmHWM."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    w = workloads.WORKLOADS[args.workload]
    paths = json.loads((args.work / "inputs.json").read_text())
    untraced = NullTracer()
    tracer = Tracer() if args.trace else untraced

    began = perf_counter()
    deadline = began + args.seconds
    setup_s = []

    def set_up():
        start = perf_counter()
        ready = workloads.set_up(w, args.seed, paths, untraced)
        setup_s.append(perf_counter() - start)
        return ready

    ready = set_up()
    workloads.warm_up(ready)
    if args.trace:
        with tracer.installed():
            for _ in range(TRACED_SETUPS):
                workloads.set_up(w, args.seed, paths, tracer)

    starts = range(0, w.n_timesteps, w.chunk)
    risk = ready.config.query.integrity_risk
    walls = {False: [], True: []}  # untraced and traced call times
    passes = []  # (problems, timesteps bounded)
    first = None  # the first whole pass's outcome and results hash
    while not (passes and perf_counter() >= deadline):
        parts, problems = [], []
        calls = 0
        for index, start in enumerate(starts):
            if perf_counter() >= deadline and first is not None:
                break  # cut short; checked against the first whole pass below
            calls += 1
            # traced calls alternate with untraced ones and swap places
            # from pass to pass, so both meet the same chunks and host load
            traced = bool(args.trace) and (index + len(passes)) % 2 == 1
            use = tracer if traced else untraced
            try:
                with use.installed():
                    wall, sequence = workloads.run_once(w, ready, paths, args.work, use, start)
                parts.append(workloads.collect(w, sequence, args.work))
                walls[traced].append(wall)
            except Exception:  # an aborted call fails its pass, never silently passes
                traceback.print_exc(file=sys.stderr)
                problems.append(f"call at timestep {start} aborted")
            sequence = None
            # set-ups interleaved with the calls, so both see the same spells
            # of host load; see README.md, "Noise"
            if sum(setup_s) < SETUP_SHARE * (perf_counter() - began):
                ready = None  # let the previous set-up go before timing the next
                ready = set_up()
        if not problems:
            outcome = workloads.combine(parts)
            if calls < len(starts):
                problems = workloads.check_part(outcome, calls * w.chunk, first[0], args.work)
            else:
                problems = workloads.check(outcome, w.n_timesteps, risk)
                digest = workloads.results_sha256(outcome, args.work)
                if first is None:
                    first = (outcome, digest)
                elif digest != first[1]:
                    problems.append("results.csv differs from the first pass's")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        passes.append((problems, calls * w.chunk))

    result = {
        "timesteps": sum(p[1] for p in passes),
        "failed_timesteps": sum(p[1] for p in passes if p[0]),
        "whole_pass": first is not None,
        "setup_s": setup_s,
        "walls_s": walls[False],
        "peak_rss_mb": peak_rss_mb(),
        "pl_mean_m": workloads.pl_mean(first[0]) if first else None,
        "results_sha256": first[1] if first else None,
    }
    if args.trace:
        plain, traced = walls[False], walls[True]
        written = first[0].bytes_written // len(starts) if first else 0  # per call
        values, idle = layer_metrics(tracer, w.chunk * len(traced), w.threads, written)
        if plain and traced:  # as timesteps_per_s is measured
            plain_s = workloads.call_s(w, plain)
            values["trace.overhead_pct"] = 100.0 * (workloads.call_s(w, traced) - plain_s) / plain_s
        result.update(
            traced_walls_s=traced,
            layers=values,
            split=split(tracer, w.threads),
            idle=sorted(idle),
            missing=sorted(tracer.missing),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
