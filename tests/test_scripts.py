"""The example scripts under scripts/ run end to end on a short drive."""

import importlib.util
import json
from pathlib import Path

from plbounds.estimator import SyntheticEstimator, SyntheticEstimatorConfig
from plbounds.pipeline import VARIANTS, PipelineConfig, run_sequence
from plbounds.scenario import ScenarioConfig, generate_scenario

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _assert_rows_are_the_reports(rows, n_timesteps):
    scenario = generate_scenario(ScenarioConfig(n_timesteps=n_timesteps), 0)
    for row in rows:
        estimator = SyntheticEstimator(SyntheticEstimatorConfig(seed=0, miscalibration=row.pop("miscalibration")))
        report = run_sequence(estimator, scenario, PipelineConfig(variant=row.pop("variant"), seed=0)).report.to_dict()
        assert row == {name: report[name] for name in ("failure_rate", "bound_gap", "false_alarm_rate")}


def test_run_ablation_reports_every_variant(tmp_path, capsys):
    # the ablation is the sweep at one overconfident factor over all four variants
    out = tmp_path / "ablation.json"
    argv = ["--timesteps", "5", "--factors", "0.5", "--variants", *VARIANTS, "--json", str(out)]
    assert _main("sweep_miscalibration")(argv) == 0
    rows = json.loads(out.read_text())
    assert [(row["miscalibration"], row["variant"]) for row in rows] == [(0.5, variant) for variant in VARIANTS]
    _assert_rows_are_the_reports(rows, 5)
    assert f"wrote {out}" in capsys.readouterr().out


def test_sweep_miscalibration_reports_every_factor_and_variant(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = ["--timesteps", "5", "--factors", "0.5", "1", "--json", str(out)]
    assert _main("sweep_miscalibration")(argv) == 0
    rows = json.loads(out.read_text())
    assert [(row["miscalibration"], row["variant"]) for row in rows] == [
        (factor, variant) for factor in (0.5, 1.0) for variant in ("VAR", "VAR_EO")
    ]
    _assert_rows_are_the_reports(rows, 5)
    assert f"wrote {out}" in capsys.readouterr().out


def test_call_cost_fits_every_variant(tmp_path, capsys):
    out = tmp_path / "cost.json"
    assert _main("call_cost")(["--sizes", "1", "3", "--repeats", "1", "--json", str(out)]) == 0
    costs = json.loads(out.read_text())
    assert sorted(costs) == sorted(VARIANTS)
    for cost in costs.values():
        assert sorted(cost["seconds"]) == ["1", "3"] and min(cost["seconds"].values()) > 0.0
        # two sizes: the line passes through both times
        assert abs(cost["fixed_us"] + 3 * cost["marginal_us"] - 1e6 * cost["seconds"]["3"]) < 1e-3
    # the sampled variants' mixtures need solver rounds; most VAR tails need none
    assert costs["VAR"]["cdf_evals_per_quantile"] < 1.0
    assert all(1.0 < costs[v]["cdf_evals_per_quantile"] <= 8.0 for v in VARIANTS if v != "VAR")
    assert f"wrote {out}" in capsys.readouterr().out
