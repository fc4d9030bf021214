"""Compare the bound variants on a single synthetic drive.

Generates one urban scenario, runs every pipeline variant over it with the
same synthetic estimator, and prints a table of failure rate, mean bound
gap, and false-alarm rate per direction.  Pass --miscalibration 0.5 to see
how an overconfident error model separates the variants: the reported-noise
bound starts missing the true error while the sampled variants hold.
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
        "--miscalibration",
        type=float,
        default=1.0,
        help="factor on the noise scale the estimator reports; below 1 is overconfident",
    )
    parser.add_argument("--json", type=Path, default=None, help="also write the reports as JSON")
    args = parser.parse_args(argv)

    scenario = generate_scenario(ScenarioConfig(n_timesteps=args.timesteps), args.seed)
    estimator = SyntheticEstimator(
        SyntheticEstimatorConfig(seed=args.seed, miscalibration=args.miscalibration)
    )

    print(
        f"{args.timesteps} timesteps, seed {args.seed}, "
        f"miscalibration {args.miscalibration:g}"
    )
    header = "/".join(d[:4] for d in DIRECTIONS)
    print(f"{'variant':<20} {'failure rate':^20} {'bound gap':^20} {'false alarms':^20}")
    print(f"{'':<20} {header:^20} {header:^20} {header:^20}")
    reports = {}
    for variant in VARIANTS:
        config = PipelineConfig(variant=variant, seed=args.seed)
        report = run_sequence(estimator, scenario, config).report
        reports[variant] = report.to_dict()
        print(
            f"{variant:<20} {format_per_direction(report.failure_rate):^20}"
            f" {format_per_direction(report.bound_gap):^20}"
            f" {format_per_direction(report.false_alarm_rate):^20}"
        )

    if args.json is not None:
        args.json.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
