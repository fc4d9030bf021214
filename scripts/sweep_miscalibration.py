"""Sweep estimator miscalibration and track the failure rate.

Scales the noise level the synthetic estimator reports (the true noise is
unchanged) and reruns the pipeline at each factor.  Factors below 1 simulate
an overconfident error model.  The reported-noise variant inherits the bad
scale directly, so its failure rate climbs as the factor drops, while the
sampled variants measure the spread empirically and stay near the target.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from plbounds.estimator import SyntheticEstimator, SyntheticEstimatorConfig
from plbounds.metrics import DIRECTIONS
from plbounds.pipeline import VARIANTS, PipelineConfig, run_sequence
from plbounds.scenario import ScenarioConfig, generate_scenario

DEFAULT_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timesteps", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--factors", nargs="+", type=float, default=list(DEFAULT_FACTORS),
        help="miscalibration factors to sweep",
    )
    parser.add_argument(
        "--variants", nargs="+", choices=VARIANTS, default=["VAR", "VAR_EO"],
        help="pipeline variants to compare",
    )
    parser.add_argument("--json", type=Path, default=None, help="also write the sweep as JSON")
    args = parser.parse_args(argv)

    scenario = generate_scenario(ScenarioConfig(n_timesteps=args.timesteps), args.seed)

    print(f"{args.timesteps} timesteps, seed {args.seed}")
    print(f"{'factor':>8} {'variant':<20} failure rate " + "/".join(d[:4] for d in DIRECTIONS))
    rows = []
    for factor in args.factors:
        estimator = SyntheticEstimator(
            SyntheticEstimatorConfig(seed=args.seed, miscalibration=factor)
        )
        for variant in args.variants:
            config = PipelineConfig(variant=variant, seed=args.seed)
            report = run_sequence(estimator, scenario, config).report
            rates = {d: report.failure_rate.get(d) for d in DIRECTIONS}
            rows.append({"miscalibration": factor, "variant": variant, "failure_rate": rates})
            cells = "/".join(f"{rates[d]:.4f}" for d in DIRECTIONS)
            print(f"{factor:>8g} {variant:<20} {cells}")

    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
