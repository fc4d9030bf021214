"""Sweep estimator miscalibration over the bound variants on one synthetic drive.

Generates one urban scenario and, for each miscalibration factor, scales the
noise level the synthetic estimator reports (the true noise is unchanged),
then runs each chosen variant over the scenario and prints its failure
rate, mean bound gap and false-alarm rate per direction.  Factors below 1
simulate an overconfident error model: the reported-noise variant (VAR)
inherits the bad scale directly, so its failure rate climbs as the factor
drops, while the sampled variants measure the spread empirically and stay
near the target.  To compare all four variants at one factor:

    python3 scripts/sweep_miscalibration.py --factors 0.5 --variants VAR VAR_E VAR_EO VAR_EO_DIRECTIONAL
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from plbounds.estimator import SyntheticEstimator, SyntheticEstimatorConfig
from plbounds.metrics import DIRECTIONS, PerDirection
from plbounds.pipeline import VARIANTS, PipelineConfig, run_sequence
from plbounds.scenario import ScenarioConfig, generate_scenario

DEFAULT_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.5)
STATISTICS = ("failure_rate", "bound_gap", "false_alarm_rate")


def format_per_direction(values: PerDirection, width: int = 6) -> str:
    parts = []
    for direction in DIRECTIONS:
        value = values.get(direction)
        parts.append(" " * (width - 2) + "--" if value is None else f"{value:{width}.4f}")
    return "/".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timesteps", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--factors", nargs="+", type=float, default=list(DEFAULT_FACTORS),
        help="factors on the noise scale the estimator reports; below 1 is overconfident",
    )
    parser.add_argument(
        "--variants", nargs="+", choices=VARIANTS, default=["VAR", "VAR_EO"],
        help="pipeline variants to compare",
    )
    parser.add_argument("--json", type=Path, default=None, help="also write the sweep as JSON")
    args = parser.parse_args(argv)

    scenario = generate_scenario(ScenarioConfig(n_timesteps=args.timesteps), args.seed)

    print(f"{args.timesteps} timesteps, seed {args.seed}")
    header = "/".join(d[:4] for d in DIRECTIONS)
    print(f"{'factor':>8} {'variant':<20} {'failure rate':^20} {'bound gap':^20} {'false alarms':^20}")
    print(f"{'':>8} {'':<20} {header:^20} {header:^20} {header:^20}")
    rows = []
    for factor in args.factors:
        estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=args.seed, miscalibration=factor))
        for variant in args.variants:
            report = run_sequence(estimator, scenario, PipelineConfig(variant=variant, seed=args.seed)).report
            stats = {name: getattr(report, name) for name in STATISTICS}
            cells = " ".join(f"{format_per_direction(s):^20}" for s in stats.values())
            print(f"{factor:>8g} {variant:<20} {cells}")
            rows.append({"miscalibration": factor, "variant": variant, **{n: s.to_dict() for n, s in stats.items()}})

    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
