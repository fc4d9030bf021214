"""Split the time of a `run_sequence` call into a fixed cost per call and a cost per timestep.

For each variant the script times one `run_sequence` call over the first T
timesteps of a synthetic drive, for every T in --sizes, keeps the fastest
of --repeats calls per T (the sizes are interleaved, so drifting machine
load hits every size alike), and fits ``time = fixed + T * marginal`` by
least squares.  A short call pays mostly the fixed cost; a long one mostly
the marginal cost.  It also counts the Python-level calls (``sys.setprofile``
"call" events) of one untimed one-timestep call: a proxy for the fixed cost
that machine load does not move, though numpy's version does.  And it
counts the mixture solver's rounds per solved tail (``cdf_evals_per_quantile``)
in one untimed call over the largest size: the solver's share of the
marginal cost, free of machine load.  Run it from a checkout, e.g.

    PYTHONPATH=src python3 scripts/call_cost.py
    PYTHONPATH=src python3 scripts/call_cost.py --variants VAR_EO --sizes 1 10 100 --repeats 5

Every call bounds 24 candidates per timestep (CANDIDATES).  Estimators here do
not read the map, so the drive runs through one city block to keep set-up
short; that does not change the bounding.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from plbounds import gmm
from plbounds.estimator import SyntheticEstimator, SyntheticEstimatorConfig
from plbounds.pipeline import VARIANTS, PipelineConfig, default_rotation_uncertainty, run_sequence
from plbounds.sampling import SamplingConfig
from plbounds.scenario import ScenarioConfig, generate_scenario

SIZES = (1, 2, 5, 10, 20, 50, 100, 256)
CANDIDATES = 24


def call_costs(variant: str, sizes, repeats: int, seed: int) -> dict:
    """The fastest call time per size, in seconds, and the fitted fixed and
    marginal costs, in microseconds."""
    scenario = generate_scenario(ScenarioConfig(n_timesteps=max(sizes), blocks_x=1, blocks_y=1), seed)
    estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=seed))
    config = PipelineConfig(sampling=SamplingConfig(n_candidates=CANDIDATES), variant=variant, seed=seed)
    rotation = default_rotation_uncertainty(estimator, config)
    heads = {t: replace(scenario, timesteps=scenario.timesteps[:t]) for t in sizes}
    run_sequence(estimator, heads[max(sizes)], config, rotation)  # warm caches and imports
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(repeats):
        for t, head in heads.items():
            start = perf_counter()
            run_sequence(estimator, head, config, rotation)
            best[t] = min(best[t], perf_counter() - start)
    marginal, fixed = np.polyfit(list(best), list(best.values()), 1) if len(best) > 1 else (0.0, best[sizes[0]])
    calls = python_calls(run_sequence, estimator, replace(scenario, timesteps=scenario.timesteps[:1]), config, rotation)
    return {
        "seconds": {str(t): s for t, s in best.items()},
        "fixed_us": 1e6 * fixed,
        "marginal_us": 1e6 * marginal,
        "python_calls_one_timestep": calls,
        "cdf_evals_per_quantile": cdf_evals_per_quantile(run_sequence, estimator, heads[max(sizes)], config, rotation),
    }


def python_calls(function, *args) -> int:
    """The Python-level calls ``function(*args)`` makes, itself included;
    calls into C are not counted."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def cdf_evals_per_quantile(function, *args) -> float:
    """The mixture CDF evaluations per solved tail that ``function(*args)``
    makes: the rows of every CDF evaluation in ``gmm._search`` over the rows
    handed to it, so a tail whose start bracket is one cell wide counts with
    none; 0 when no tail is solved."""
    search, cdf = gmm._search, gmm._cdf
    tails = evaluations = 0

    def counted_cdf(means, *rest):
        nonlocal evaluations
        evaluations += len(means)
        return cdf(means, *rest)

    def counted_search(means, *rest):
        nonlocal tails
        tails += len(means)
        gmm._cdf = counted_cdf
        try:
            return search(means, *rest)
        finally:
            gmm._cdf = cdf

    gmm._search = counted_search
    try:
        function(*args)
    finally:
        gmm._search = search
    return evaluations / tails if tails else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variants", nargs="+", choices=VARIANTS, default=list(VARIANTS))
    parser.add_argument("--sizes", nargs="+", type=int, default=list(SIZES), help="timesteps per call")
    parser.add_argument("--repeats", type=int, default=7, help="calls per size; the fastest counts")
    parser.add_argument("--seed", type=int, default=2101)
    parser.add_argument("--json", type=Path, default=None, help="also write the numbers as JSON")
    args = parser.parse_args(argv)
    if min(args.sizes) < 1 or args.repeats < 1:
        parser.error("sizes and repeats must be at least 1")
    sizes = sorted(set(args.sizes))

    print(f"timesteps per call {' '.join(map(str, sizes))}; best of {args.repeats}; "
          f"{CANDIDATES} candidates, seed {args.seed}")
    print(f"{'variant':<20} {'fixed us/call':>14} {'us/timestep':>12} {'ms at T=' + str(sizes[0]):>12} "
          f"{'ms at T=' + str(sizes[-1]):>12} {'calls at T=1':>13} {'CDF evals/tail':>15}")
    costs = {}
    for variant in args.variants:
        cost = costs[variant] = call_costs(variant, sizes, args.repeats, args.seed)
        first, last = (1e3 * cost["seconds"][str(t)] for t in (sizes[0], sizes[-1]))
        print(f"{variant:<20} {cost['fixed_us']:>14.0f} {cost['marginal_us']:>12.1f} {first:>12.2f} {last:>12.2f} "
              f"{cost['python_calls_one_timestep']:>13} {cost['cdf_evals_per_quantile']:>15.2f}")

    if args.json is not None:
        args.json.write_text(json.dumps(costs, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
