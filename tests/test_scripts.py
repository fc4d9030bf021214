"""The example scripts under scripts/ run end to end on a short drive."""

import importlib.util
import json
from pathlib import Path

from plbounds.pipeline import VARIANTS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_run_ablation_reports_every_variant(tmp_path, capsys):
    out = tmp_path / "ablation.json"
    assert _main("run_ablation")(["--timesteps", "5", "--json", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert sorted(reports) == sorted(VARIANTS)
    assert all(report["n_records"] == 5 for report in reports.values())
    assert f"wrote {out}" in capsys.readouterr().out


def test_sweep_miscalibration_reports_every_factor_and_variant(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert _main("sweep_miscalibration")(["--timesteps", "5", "--factors", "0.5", "1", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [(row["miscalibration"], row["variant"]) for row in rows] == [
        (factor, variant) for factor in (0.5, 1.0) for variant in ("VAR", "VAR_EO")
    ]
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
    assert f"wrote {out}" in capsys.readouterr().out
