import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import plbounds
from plbounds import __version__, cli
from plbounds.cli import (
    CALIBRATION_COLUMNS,
    OUT_ENV_VAR,
    Settings,
    _apply_overrides,
    _estimator_config,
    load_config,
    main,
)
from plbounds.errors import ConfigError
from plbounds.gmm import ProtectionLevelQuery
from plbounds.io import read_quaternion_lines, write_results_csv
from plbounds.metrics import AlarmLimits
from plbounds.pipeline import VARIANTS, PipelineConfig
from plbounds.sampling import SamplingConfig
from plbounds.scenario import ScenarioConfig

import oracles

RUN_CONFIG = {
    "schema": 1,
    "seed": 4,
    "variant": "VAR_EO",
    "threads": 2,
    "sampling": {"t_max": 0.8, "r_max_deg": 3.0, "n_candidates": 6},
    "query": {"integrity_risk": 0.01},
    "estimator": {"sigma_noise": [0.05, 0.05, 0.05], "sigma_rot": 0.0},
    "rotation_uncertainty": {"source": "none"},
    "scenario": {
        "n_timesteps": 5,
        "blocks_x": 1,
        "blocks_y": 1,
        "wall_density": 0.2,
        "ground_density": 0.05,
        "estimate_offset_translation": 0.5,
        "estimate_offset_rotation_deg": 3.0,
    },
}


@pytest.fixture(autouse=True)
def _clean_out_env(monkeypatch):
    monkeypatch.delenv(OUT_ENV_VAR, raising=False)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(RUN_CONFIG))
    return path


def _gen(config_path, out_dir, *extra) -> int:
    return main(["gen-scenario", "--config", str(config_path), "--out", str(out_dir), *extra])


# ---------------------------------------------------------------------------
# configuration parsing


def test_load_config_defaults():
    settings = load_config(None)
    assert settings.seed == 0 and settings.threads == 1
    assert settings.variant == "VAR_EO"
    assert settings.sampling == SamplingConfig()
    assert settings.query == ProtectionLevelQuery()
    assert settings.limits == AlarmLimits()
    assert settings.estimator_kind == "synthetic" and settings.estimator.seed is None
    assert settings.rotation_source == "estimator" and settings.q_samples == 100000
    assert settings.scenario == ScenarioConfig()
    # the pipeline's configuration itself, with only the invocation's fields added
    assert isinstance(settings, PipelineConfig)
    assert not set(Settings.__annotations__) & {f.name for f in fields(PipelineConfig)}


def test_load_config_full_document(config_path):
    settings = load_config(config_path)
    assert settings.seed == 4 and settings.threads == 2
    assert settings.sampling.n_candidates == 6
    assert settings.sampling.r_max == math.radians(3.0)
    assert settings.estimator.sigma_noise == (0.05, 0.05, 0.05)
    assert settings.rotation_source == "none"
    assert settings.scenario.n_timesteps == 5
    assert settings.scenario.estimate_offset_rotation == math.radians(3.0)


def test_readme_config_document_is_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Configuration document", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert load_config(path) == load_config(None)


def test_import_does_not_load_scipy_spatial():
    # nor any of SciPy: only solving protection levels needs it, so commands
    # that never solve do not pay for loading it.  A fresh interpreter: this
    # one may have loaded it for another test.
    src = str(Path(plbounds.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import plbounds, plbounds.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_metrics_and_diagram_do_not_load_scipy_special(tmp_path):
    # SciPy's special functions are looked up once, on the first draw or
    # solve, so the commands that only read a results table never load them
    src = str(Path(plbounds.__file__).resolve().parents[1])
    results = tmp_path / "results.csv"
    write_results_csv(np.array([[0.0, 1.0, 1.0, 2.0, 0.1, -0.2, 0.3], [0.1, 3.0, 2.0, 2.0, 0.5, 2.5, -0.1]]), results)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import plbounds, plbounds.cli; "
        f"out = {str(tmp_path / 'out')!r}; "
        f"codes = [plbounds.cli.main([c, {str(results)!r}, '--out', out + c]) for c in ('metrics', 'diagram')]; "
        "print(codes, 'scipy.special' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0] False"
    assert (tmp_path / "outmetrics" / "report.json").exists() and (tmp_path / "outdiagram" / "diagram.json").exists()


def test_load_config_rejections(tmp_path):
    cases = [
        {"schema": 2},
        {"bogus_key": 1},
        {"sampling": {"t_max": 1.0, "bogus": 2}},
        {"variant": "VAR_X"},
        {"threads": "four"},
        {"estimator": {"kind": "file"}},
        {"estimator": {"kind": "nn"}},
        {"rotation_uncertainty": {"source": "file"}},
        {"sampling": {"n_candidates": 1}},
        {"query": {"integrity_risk": 2.0}},
        {"scenario": {"blocks_x": 0}},
        {"limits": {"lateral": -1.0}},
        {"threads": 0},
        {"estimator": {"sigma_noise": [0.1, "wide", 0.1]}},
        {"estimator": {"miscalibration": 0.0}},
        {"pipeline": {"diagram_bins": 0}},
        {"pipeline": {"min_candidates": 1}},
        # keys are the field names, except angles and the sample count
        {"sampling": {"r_max": 0.1}},
        {"scenario": {"estimate_offset_rotation": 0.1}},
        {"rotation_uncertainty": {"q_samples": 5}},
        {"rotation_uncertainty": {"n_samples": -5}},
        {"rotation_uncertainty": {"n_samples": 999}},
        {"pipeline": {"seed": 1}},
        {"sampling": {"include_estimate": 1}},
        {"estimator": {"corr": [0.0, 0.0]}},
        {"seed": -3},
        {"estimator": {"seed": -3}},
        # a value keeps its JSON type: no fraction, string or bool converts
        {"seed": 2.7},
        {"scenario": {"n_timesteps": 3.9}},
        {"seed": "5"},
        {"seed": True},
        {"limits": {"lateral": True}},
        {"query": {"tolerance": "1e-4"}},
        {"estimator": {"sigma_noise": [0.1, True, 0.1]}},
        {"estimator": {"kind": "file", "path": 5}},
        # a tolerance must be finite (Python's parser reads NaN and Infinity)
        {"query": {"tolerance": float("nan")}},
        {"query": {"tolerance": float("inf")}},
        # no sampled timestep could keep 30 of 24 candidates
        {"pipeline": {"min_candidates": 30}},
        # the solver has no iteration limit to set
        {"query": {"max_iterations": 200}},
    ]
    for idx, doc in enumerate(cases):
        path = tmp_path / f"bad{idx}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(path)
    for idx, text in enumerate(('{"estimator": {"miscalibration": 1%s}}', '{"estimator": {"corr": [1%s, 0, 0]}}')):
        path = tmp_path / f"huge{idx}.json"
        path.write_text(text % ("0" * 400))  # a JSON integer no float holds
        with pytest.raises(ConfigError):
            load_config(path)
    fewest = tmp_path / "fewest.json"
    fewest.write_text(json.dumps({"rotation_uncertainty": {"n_samples": 1000}}))
    assert load_config(fewest).q_samples == 1000
    integral = tmp_path / "integral.json"  # an integer written as a number with no fraction
    integral.write_text(json.dumps({"seed": 1e5, "query": {"tolerance": 1}, "variant": "VAR", "pipeline": {"min_candidates": 30}}))
    settings = load_config(integral)
    assert type(settings.seed) is int and settings.seed == 100000
    assert type(settings.query.tolerance) is float and settings.query.tolerance == 1.0
    with pytest.raises(ConfigError, match="command line: min_candidates"):
        _apply_overrides(settings, argparse.Namespace(variant="VAR_EO"))
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{broken")
    with pytest.raises(ConfigError):
        load_config(notjson)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_estimator_seed_follows_the_run_seed_unless_set(tmp_path):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"seed": 4, "estimator": {"seed": 3}}))
    override = argparse.Namespace(seed=9)
    assert _estimator_config(load_config(None)).seed == 0
    assert _estimator_config(_apply_overrides(load_config(None), override)).seed == 9
    assert _estimator_config(_apply_overrides(load_config(path), override)).seed == 3


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus_key": 1}))
    assert _gen(path, tmp_path / "out") == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"schema": 1}))
    assert main(["gen-scenario", "--config", str(good), "--out", str(tmp_path / "o2"), "--threads", "0"]) == 2


# ---------------------------------------------------------------------------
# gen-scenario


def test_gen_scenario_outputs_and_manifest(config_path, tmp_path, capsys):
    out = tmp_path / "scn"
    assert _gen(config_path, out) == 0
    assert (out / "scenario.json").is_file() and (out / "map.bin").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["command"] == "gen-scenario"
    assert manifest["version"] == __version__
    assert manifest["outputs"] == ["map.bin", "scenario.json"]
    assert manifest["started_utc"] and manifest["finished_utc"]
    assert "5 timesteps" in capsys.readouterr().out


def test_gen_scenario_rerun_is_byte_identical(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _gen(config_path, a) == 0
    assert _gen(config_path, b) == 0
    assert (a / "scenario.json").read_bytes() == (b / "scenario.json").read_bytes()
    assert (a / "map.bin").read_bytes() == (b / "map.bin").read_bytes()


def test_run_rejects_a_map_that_is_not_bin(config_path, tmp_path, capsys):
    out = tmp_path / "scn"
    assert _gen(config_path, out) == 0
    doc = json.loads((out / "scenario.json").read_text())
    doc["map"] = "map.xyz"
    scenario = out / "xyz_scenario.json"
    scenario.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", str(scenario), "--config", str(config_path), "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == f"input error: {scenario}: map 'map.xyz' is not a .bin point-cloud file\n"


@pytest.mark.parametrize(
    "command, doc, flags, message",
    [
        ("gen-scenario", {"seed": -3}, [], "config: seed must be non-negative, got -3"),
        ("run", {"estimator": {"seed": -3}}, [], "estimator: seed must be non-negative, got -3"),
        ("run", {}, ["--seed", "-4"], "command line: seed must be non-negative, got -4"),
    ],
    ids=["config", "estimator", "flag"],
)
def test_negative_seeds_exit_2_before_any_input_is_read(tmp_path, capsys, command, doc, flags, message):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(doc))
    inputs = [str(tmp_path / "missing.json")] if command == "run" else []
    assert main([command, *inputs, "--config", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


# ---------------------------------------------------------------------------
# run / metrics / diagram


@pytest.fixture
def scenario_dir(config_path, tmp_path):
    out = tmp_path / "scn"
    assert _gen(config_path, out) == 0
    return out


@pytest.mark.parametrize(
    "estimator",
    [
        '{"corr": [1.5, 0, 0]}', '{"corr": [NaN, 0, 0]}', '{"miscalibration": 1e309}', '{"sigma_noise": [0.1, 1e309, 0.1]}',
        '{"corr": [0.9, -0.9, 0.9]}',
    ],
)
def test_an_estimator_config_it_rejects_exits_2_and_writes_nothing(scenario_dir, tmp_path, capsys, estimator):
    path = tmp_path / "estimator.json"
    path.write_text(f'{{"estimator": {estimator}}}')
    out = tmp_path / "run"
    assert main(["run", str(scenario_dir / "scenario.json"), "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: estimator: ")
    assert not out.exists()


def test_run_outputs(config_path, scenario_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", str(scenario_dir / "scenario.json"), "--config", str(config_path), "--out", str(out)])
    assert code == 0
    for name in ("results.csv", "report.json", "diagram.json"):
        assert (out / name).is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["variant"] == "VAR_EO" and manifest["estimator"] == "synthetic"
    assert "failure rate" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["n_records"] == 5
    # every JSON document is its canonical encoding, and a newline
    for path in (out / "diagram.json", out / "report.json", out / "manifest.json", scenario_dir / "scenario.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path.name


def test_run_rerun_is_byte_identical(config_path, scenario_dir, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", str(scenario_dir / "scenario.json"), "--config", str(config_path), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("results.csv", "report.json", "diagram.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_seed_override_changes_results(config_path, scenario_dir, tmp_path):
    base, other = tmp_path / "base", tmp_path / "other"
    scenario = str(scenario_dir / "scenario.json")
    assert main(["run", scenario, "--config", str(config_path), "--out", str(base)]) == 0
    assert main(["run", scenario, "--config", str(config_path), "--out", str(other), "--seed", "9"]) == 0
    assert (base / "results.csv").read_bytes() != (other / "results.csv").read_bytes()


def test_metrics_reproduces_run_report(config_path, scenario_dir, tmp_path, capsys):
    run_out = tmp_path / "run"
    assert main(["run", str(scenario_dir / "scenario.json"), "--config", str(config_path), "--out", str(run_out)]) == 0
    met_out = tmp_path / "metrics"
    assert main(["metrics", str(run_out / "results.csv"), "--config", str(config_path), "--out", str(met_out)]) == 0
    # the CSV stores exact float reprs, so the re-derived report is identical
    assert (met_out / "report.json").read_bytes() == (run_out / "report.json").read_bytes()
    printed = capsys.readouterr().out.split("failure rate")[-1].split("\n", 1)[1]
    assert printed == (met_out / "report.json").read_text()  # the document, as it is written
    assert json.loads(printed)["n_records"] == 5


def test_diagram_reproduces_run_diagram(config_path, scenario_dir, tmp_path):
    run_out = tmp_path / "run"
    assert main(["run", str(scenario_dir / "scenario.json"), "--config", str(config_path), "--out", str(run_out)]) == 0
    dia_out = tmp_path / "diagram"
    assert main(["diagram", str(run_out / "results.csv"), "--config", str(config_path), "--out", str(dia_out)]) == 0
    assert (dia_out / "diagram.json").read_bytes() == (run_out / "diagram.json").read_bytes()


# ---------------------------------------------------------------------------
# output directory resolution


def test_out_env_var_used_when_flag_absent(config_path, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(OUT_ENV_VAR, str(target))
    assert main(["gen-scenario", "--config", str(config_path)]) == 0
    assert (target / "scenario.json").is_file()


def test_out_flag_beats_env_var(config_path, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
    assert _gen(config_path, flag_dir) == 0
    assert (flag_dir / "scenario.json").is_file()
    assert not env_dir.exists()


def test_out_defaults_to_local_directory(config_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-scenario", "--config", str(config_path)]) == 0
    assert (tmp_path / "plbounds_out" / "scenario.json").is_file()


# ---------------------------------------------------------------------------
# failure exit codes


def test_missing_inputs_exit_3(config_path, tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 3
    assert main(["metrics", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("not,the,right,header\n")
    assert main(["calibrate", str(bad), "--out", str(tmp_path / "o")]) == 3


def test_malformed_estimate_record_exits_3(scenario_dir, tmp_path, capsys):
    estimates = tmp_path / "estimates.jsonl"
    estimates.write_text('{"payload_key": "t000000", "candidate_index": 0}\n')
    cfg = dict(RUN_CONFIG)
    cfg["estimator"] = {"kind": "file", "path": str(estimates)}
    path = tmp_path / "file_config.json"
    path.write_text(json.dumps(cfg))
    argv = ["run", str(scenario_dir / "scenario.json"), "--config", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == 3
    assert f"{estimates}:1: malformed estimate record" in capsys.readouterr().err


def test_truncated_jsonl_inputs_exit_3(scenario_dir, tmp_path, capsys):
    # a file cut off mid-line: the error names the file and the line
    records = tmp_path / "estimates.jsonl"
    records.write_text('{"payload_key": "t000000", "candidate_index": 0}\n{"payload_key": "t0000')
    rotations = tmp_path / "rotations.jsonl"
    rotations.write_text("[1.0, 0.0, 0.0, 0.0]\n[0.0, 1.0, 0.0, 0.0]\n[1.0, 0.0,")
    for key, value, bad in (
        ("estimator", {"kind": "file", "path": str(records)}, f"{records}:2: Unterminated string"),
        ("rotation_uncertainty", {"source": "file", "path": str(rotations)}, f"{rotations}:3: Expecting value"),
    ):
        cfg = dict(RUN_CONFIG)
        cfg[key] = value
        path = tmp_path / "truncated_config.json"
        path.write_text(json.dumps(cfg))
        argv = ["run", str(scenario_dir / "scenario.json"), "--config", str(path), "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert f"input error: {bad}" in capsys.readouterr().err


def test_numerals_beyond_the_float_range_exit_3(scenario_dir, tmp_path, capsys):
    # an integer too large for a float, and an index of 1e400 (infinity)
    rotations = tmp_path / "rotations.jsonl"
    rotations.write_text("[1.0, 0.0, 0.0, 0.0]\n\n[1" + "0" * 400 + ", 0, 0, 0]\n")
    records = tmp_path / "estimates.jsonl"
    good = {"payload_key": "t000000", "candidate_index": 0, "translation_error": [0.0] * 3,
            "rotation_error": [1.0, 0.0, 0.0, 0.0], "sigma": [1.0] * 3, "corr": [0.0] * 3}
    infinite = json.dumps(good).replace('"candidate_index": 0', '"candidate_index": 1e400')
    records.write_text(json.dumps(good) + "\n" + infinite + "\n")
    for key, value, bad in (
        ("rotation_uncertainty", {"source": "file", "path": str(rotations)}, f"{rotations}:3: int too large to convert"),
        ("estimator", {"kind": "file", "path": str(records)}, f"{records}:2: malformed estimate record (OverflowError"),
    ):
        cfg = dict(RUN_CONFIG)
        cfg[key] = value
        path = tmp_path / "overflow_config.json"
        path.write_text(json.dumps(cfg))
        argv = ["run", str(scenario_dir / "scenario.json"), "--config", str(path), "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert f"input error: {bad}" in capsys.readouterr().err
    # a pose coordinate in the scenario document
    doc = json.loads((scenario_dir / "scenario.json").read_text())
    doc["timesteps"][1]["estimate_pose"]["position"][0] = 10**400
    scenario = scenario_dir / "overflow_scenario.json"
    scenario.write_text(json.dumps(doc))
    argv = ["run", str(scenario), "--config", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == 3
    assert f"input error: {scenario}: timestep 1: int too large to convert to float" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda doc: doc["timesteps"][1].pop("true_pose"), "timestep 1: missing key 'true_pose'"),
        (lambda doc: doc.pop("map"), "missing key 'map'"),
        (lambda doc: doc["timesteps"][2].pop("index"), "timestep 2: missing key 'index'"),
        (lambda doc: doc.pop("timesteps"), "missing key 'timesteps'"),
        (lambda doc: doc.pop("seed"), "missing key 'seed'"),
        (lambda doc: doc.update(timesteps=5), "expected a string 'map' and a list of 'timesteps'"),
        (None, "Expecting"),  # the document cut off halfway
        (
            lambda doc: doc["timesteps"][1].update(timestamp="abc"),
            "timestep 1: could not convert string to float: 'abc'",
        ),
        (
            lambda doc: doc["timesteps"][2].update(index="2a"),
            "timestep 2: invalid literal for int() with base 10: '2a'",
        ),
    ],
    ids=[
        "true_pose", "map", "index", "timesteps", "seed", "timesteps_not_a_list", "truncated", "timestamp", "index_text"
    ],
)
def test_malformed_scenario_documents_exit_3(config_path, scenario_dir, tmp_path, capsys, edit, where):
    text = (scenario_dir / "scenario.json").read_text()
    if edit is None:
        text = text[: len(text) // 2]
    else:
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
    scenario = scenario_dir / "malformed_scenario.json"
    scenario.write_text(text)
    argv = ["run", str(scenario), "--config", str(config_path), "--out", str(tmp_path / "run")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"input error: {scenario}: {where}")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("index", [-1, 2**63, 2**64 + 3])
def test_a_timestep_index_outside_int64_exits_3(config_path, scenario_dir, tmp_path, capsys, variant, index):
    # results hold the index as int64 and stream keys take it as a word, so
    # the scenario loader rejects it before any variant bounds a timestep
    doc = json.loads((scenario_dir / "scenario.json").read_text())
    doc["timesteps"][1]["index"] = index
    scenario = scenario_dir / "index_scenario.json"
    scenario.write_text(json.dumps(doc))
    argv = ["run", str(scenario), "--config", str(config_path), "--out", str(tmp_path / "run"), "--variant", variant]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"input error: {scenario}: timestep 1: index {index} is outside [0, 2**63)\n"


def test_pipeline_failure_exits_4(scenario_dir, tmp_path):
    # a file estimator with no records rejects every candidate
    empty = tmp_path / "estimates.jsonl"
    empty.write_text("")
    cfg = dict(RUN_CONFIG)
    cfg["estimator"] = {"kind": "file", "path": str(empty)}
    cfg["rotation_uncertainty"] = {"source": "none"}
    path = tmp_path / "file_config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["run", str(scenario_dir / "scenario.json"), "--config", str(path), "--out", str(out)]) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"


def test_var_estimate_errors_exit_4(scenario_dir, tmp_path, capsys):
    # VAR bounds the estimate alone: the first timestep whose record is
    # missing or indefinite fails the run with that record's error, the
    # timestep and its payload key named once in front
    record = {"candidate_index": 0, "translation_error": [0.1, 0.0, 0.0], "rotation_error": [1.0, 0.0, 0.0, 0.0],
              "sigma": [0.1, 0.1, 0.1], "corr": [0.0, 0.0, 0.0]}
    cases = (
        (None, "timestep 2 (payload_key t000002): no estimate recorded for ('t000002', 0)"),
        (
            {"corr": [0.9, -0.9, 0.9]},
            "timestep 2 (payload_key t000002): correlations [0.9, -0.9, 0.9] give an indefinite covariance",
        ),
    )
    for k, (third, message) in enumerate(cases):
        rows = [{**record, "payload_key": f"t{t:06d}"} for t in range(5)]
        rows[2:3] = [{**rows[2], **third}] if third else []
        table = tmp_path / f"estimates{k}.jsonl"
        table.write_text("".join(json.dumps(row) + "\n" for row in rows))
        cfg = {**RUN_CONFIG, "variant": "VAR", "estimator": {"kind": "file", "path": str(table)}}
        path = tmp_path / f"var_config{k}.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        argv = ["run", str(scenario_dir / "scenario.json"), "--config", str(path), "--out", str(tmp_path / f"run{k}")]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"pipeline failure: {message}\n"


class _SpoiledSigma:
    """Synthetic batch answers with a sigma of -1 for candidate 1 of the
    timestep at ``timestamp``."""

    def __init__(self, inner, timestamp):
        self.inner, self.timestamp = inner, timestamp

    def estimate_batch(self, ctxs, positions, orientations, cloud=None):
        fields = [np.array(a) for a in self.inner.estimate_batch(ctxs, positions, orientations, cloud)]
        for t, ctx in enumerate(ctxs):
            if ctx.timestamp == self.timestamp:
                fields[2][t, 1, 0] = -1.0
        return tuple(fields)


def test_a_bad_estimator_row_exits_3_naming_its_timestep(scenario_dir, config_path, tmp_path, capsys, monkeypatch):
    build = cli._build_estimator
    timestamp = plbounds.load_scenario(scenario_dir / "scenario.json").timesteps[3].timestamp
    monkeypatch.setattr(cli, "_build_estimator", lambda settings: _SpoiledSigma(build(settings), timestamp))
    capsys.readouterr()
    argv = ["run", str(scenario_dir / "scenario.json"), "--config", str(config_path), "--out", str(tmp_path / "run")]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "input error: timestep 3 (payload_key t000003): sigma must be finite and strictly positive\n"
    )


@pytest.mark.parametrize("variant, huge", [("VAR", [0, 1]), ("VAR_E", [1])])
def test_an_error_beyond_the_lattice_range_exits_4(tmp_path, capsys, variant, huge):
    # 1e305 m is finite, but not in lattice units of the 1e-4 m tolerance:
    # under VAR the estimate's start bracket overflows, under VAR_E the
    # width of the bracket spanning candidates 0 and 1
    cfg = {**RUN_CONFIG, "variant": variant, "sampling": {"n_candidates": 2},
           "scenario": {**RUN_CONFIG["scenario"], "n_timesteps": 1}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert _gen(path, tmp_path / "scn") == 0
    record = {"payload_key": "t000000", "rotation_error": [1.0, 0.0, 0.0, 0.0], "sigma": [0.1] * 3, "corr": [0.0] * 3}
    rows = [{**record, "candidate_index": i, "translation_error": [1e305 if i in huge else 0.5, 0.0, 0.0]} for i in range(2)]
    table = tmp_path / "estimates.jsonl"
    table.write_text("".join(json.dumps(row) + "\n" for row in rows))
    path.write_text(json.dumps({**cfg, "estimator": {"kind": "file", "path": str(table)}}))
    capsys.readouterr()
    argv = ["run", str(tmp_path / "scn" / "scenario.json"), "--config", str(path), "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would escape main
        assert main(argv) == 4
    assert capsys.readouterr().err == (
        "pipeline failure: timestep 0 (payload_key t000000): "
        "could not bracket probability 0.995: the start bracket is not finite\n"
    )


def test_version_and_bad_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# the rotation-tensor cache

OUTPUTS = ("results.csv", "report.json", "diagram.json")


@pytest.fixture
def rotation_file(tmp_path):
    path = tmp_path / "rotations.jsonl"
    estimator = plbounds.SyntheticEstimator(plbounds.SyntheticEstimatorConfig(seed=4, sigma_rot=0.05))
    plbounds.io.write_quaternion_lines(estimator.rotation_residual_samples(1200, 4), path)
    return path


def _file_run(scenario_dir, tmp_path, rotations, name):
    """Exit code, output bytes and the manifest's ``rotation_file`` record of
    a VAR_EO_DIRECTIONAL run with its rotation tensor from ``rotations``."""
    cfg = dict(RUN_CONFIG, variant="VAR_EO_DIRECTIONAL")
    cfg["rotation_uncertainty"] = {"source": "file", "path": str(rotations)}
    config = tmp_path / f"{name}_config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = main(["run", str(scenario_dir / "scenario.json"), "--config", str(config), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text()) if (out / "manifest.json").is_file() else {}
    return code, {f: (out / f).read_bytes() for f in OUTPUTS if (out / f).is_file()}, manifest.get("rotation_file")


def _entries(cache_home: Path) -> list[Path]:
    return sorted((cache_home / "plbounds").glob("*"))


def test_a_warm_run_writes_the_bytes_of_a_cold_one(scenario_dir, tmp_path, rotation_file):
    cold = _file_run(scenario_dir, tmp_path, rotation_file, "cold")
    warm = _file_run(scenario_dir, tmp_path, rotation_file, "warm")
    sha = hashlib.sha256(rotation_file.read_bytes()).hexdigest()
    assert cold[:2] == (0, warm[1]) and warm[0] == 0 and len(cold[1]) == 3
    assert cold[2] == {"sha256": sha, "hashed": "read", "samples": 1200, "cache": "miss"}
    assert warm[2] == {"sha256": sha, "hashed": "read", "samples": 1200, "cache": "hit"}
    entry, = _entries(Path(os.environ["XDG_CACHE_HOME"]))
    assert entry.name.startswith("rotation-") and entry.suffix == ".entry"
    assert oracles.read_entry(entry)[0]["key"] == sha
    # the bytes of a run that derives the tensor itself, with no cache to use
    settings = load_config(tmp_path / "cold_config.json")
    scenario = plbounds.load_scenario(scenario_dir / "scenario.json")
    tensor = plbounds.precompute_q(read_quaternion_lines(rotation_file))
    sequence = plbounds.run_sequence(plbounds.SyntheticEstimator(_estimator_config(settings)), scenario, settings, tensor)
    write_results_csv(sequence.result_rows(), tmp_path / "direct.csv")
    assert (tmp_path / "direct.csv").read_bytes() == warm[1]["results.csv"]


def test_a_changed_rotation_file_misses(scenario_dir, tmp_path, rotation_file, monkeypatch):
    _file_run(scenario_dir, tmp_path, rotation_file, "first")
    text = rotation_file.read_text()
    last = text.index(",") - 1  # the last digit of the first numeral
    changed = tmp_path / "changed.jsonl"
    changed.write_text(text[:last] + ("5" if text[last] != "5" else "6") + text[last + 1 :])
    code, outputs, record = _file_run(scenario_dir, tmp_path, changed, "changed")
    assert code == 0 and record["cache"] == "miss"
    assert record["sha256"] == hashlib.sha256(changed.read_bytes()).hexdigest()
    assert len(_entries(Path(os.environ["XDG_CACHE_HOME"]))) == 2
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh_cache"))
    assert _file_run(scenario_dir, tmp_path, changed, "fresh")[:2] == (0, outputs)


def _rewritten(entry: Path, doc=lambda doc: doc, q=lambda q: q) -> None:
    header, arrays = oracles.read_entry(entry)
    oracles.write_entry(entry, doc(header), {"q": q(arrays["q"])})


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entry: entry.write_bytes(entry.read_bytes()[: len(entry.read_bytes()) // 2]),
        lambda entry: entry.write_bytes(b"not json"),
        lambda entry: _rewritten(entry, q=lambda q: q.reshape(9, 9)),
        lambda entry: _rewritten(entry, q=lambda q: q + np.eye(81)[1].reshape(3, 3, 3, 3)),
        lambda entry: _rewritten(entry, q=lambda q: np.full((3, 3, 3, 3), np.nan)),
        lambda entry: _rewritten(entry, doc=lambda doc: dict(doc, key="0" * 64)),
        lambda entry: _rewritten(entry, doc=lambda doc: dict(doc, values={"samples": "1200"})),
        lambda entry: entry.write_bytes(json.dumps(list(oracles.read_entry(entry)[0].values())).encode() + b"\n"),
    ],
    ids=["truncated", "not_json", "wrong_shape", "asymmetric", "not_finite", "other_file", "samples_text", "not_a_dict"],
)
def test_a_corrupt_cache_entry_is_replaced(scenario_dir, tmp_path, rotation_file, corrupt):
    cold = _file_run(scenario_dir, tmp_path, rotation_file, "cold")
    entry, = _entries(Path(os.environ["XDG_CACHE_HOME"]))
    stored = entry.read_bytes()
    corrupt(entry)
    assert entry.read_bytes() != stored
    code, outputs, record = _file_run(scenario_dir, tmp_path, rotation_file, "again")
    assert (code, outputs, record["cache"]) == (0, cold[1], "miss")
    assert _entries(Path(os.environ["XDG_CACHE_HOME"])) == [entry] and entry.read_bytes() == stored
    assert _file_run(scenario_dir, tmp_path, rotation_file, "warm")[2]["cache"] == "hit"


def test_an_unusable_cache_directory_changes_no_byte(scenario_dir, tmp_path, rotation_file, monkeypatch):
    cold = _file_run(scenario_dir, tmp_path, rotation_file, "cold")
    # a cache home that is a file, then a cache directory that is a file:
    # neither can hold an entry, whoever runs the test
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    (tmp_path / "file_home").mkdir()
    (tmp_path / "file_home" / "plbounds").write_text("")
    for home in (blocked, tmp_path / "file_home"):
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        for name in ("unavailable1", "unavailable2"):
            code, outputs, record = _file_run(scenario_dir, tmp_path, rotation_file, name)
            assert (code, outputs, record) == (0, cold[1], dict(cold[2], cache="unavailable"))
    assert blocked.read_text() == "" and (tmp_path / "file_home" / "plbounds").read_text() == ""


def test_a_malformed_rotation_file_exits_3_and_leaves_no_entry(scenario_dir, tmp_path, rotation_file, capsys):
    lines = rotation_file.read_text().splitlines()
    lines[6] = lines[6][:-1]  # the closing bracket of line 7 cut off
    rotation_file.write_text("\n".join(lines) + "\n")
    code, outputs, record = _file_run(scenario_dir, tmp_path, rotation_file, "malformed")
    assert (code, outputs, record) == (3, {}, None)
    assert capsys.readouterr().err.startswith(f"input error: {rotation_file}:7: ")
    assert _entries(Path(os.environ["XDG_CACHE_HOME"])) == []
    # too few samples: a pipeline failure, not stored either
    rotation_file.write_text("\n".join(lines[:6] + lines[7:999]) + "\n")  # 998 samples
    assert _file_run(scenario_dir, tmp_path, rotation_file, "short")[0] == 4
    assert _entries(Path(os.environ["XDG_CACHE_HOME"])) == []


# ---------------------------------------------------------------------------
# the estimate-table cache


class _Recorder:
    """Synthetic answers through ``estimate`` alone, kept under the key a file
    table looks them up by."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = {}

    def estimate(self, ctx, candidate, cloud=None):
        self.rows[ctx.payload_key, ctx.candidate_index] = raw = self.inner.estimate(ctx, candidate, cloud)
        return raw


@pytest.fixture
def estimate_table(scenario_dir, tmp_path, config_path):
    """What the synthetic estimator answers on the scenario, less candidate 1
    of ``t000002``, as a table."""
    settings = load_config(config_path)
    recorder = _Recorder(plbounds.SyntheticEstimator(_estimator_config(settings)))
    plbounds.run_sequence(recorder, plbounds.load_scenario(scenario_dir / "scenario.json"), settings)
    path = tmp_path / "estimates.jsonl"
    rows = [(key, i, raw) for (key, i), raw in sorted(recorder.rows.items()) if (key, i) != ("t000002", 1)]
    plbounds.write_estimate_records(rows, path)
    return path


def _table_run(scenario_dir, tmp_path, table, name):
    """Exit code, output bytes and the manifest's ``estimator_file`` record
    of a run that reads its estimates from ``table``."""
    cfg = dict(RUN_CONFIG, estimator={"kind": "file", "path": str(table)})
    config = tmp_path / f"{name}_config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = main(["run", str(scenario_dir / "scenario.json"), "--config", str(config), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text()) if (out / "manifest.json").is_file() else {}
    return code, {f: (out / f).read_bytes() for f in OUTPUTS if (out / f).is_file()}, manifest.get("estimator_file")


def test_the_manifest_records_the_table_cold_warm_and_unavailable(
    scenario_dir, tmp_path, estimate_table, rotation_file, monkeypatch
):
    cold = _table_run(scenario_dir, tmp_path, estimate_table, "cold")
    warm = _table_run(scenario_dir, tmp_path, estimate_table, "warm")
    sha = hashlib.sha256(estimate_table.read_bytes()).hexdigest()
    assert cold[:2] == (0, warm[1]) and warm[0] == 0 and len(cold[1]) == 3
    assert cold[2] == {"sha256": sha, "hashed": "read", "records": 29, "cache": "miss"}
    assert warm[2] == {"sha256": sha, "hashed": "read", "records": 29, "cache": "hit"}
    entry, = _entries(Path(os.environ["XDG_CACHE_HOME"]))
    assert entry.name.startswith("table-") and entry.suffix == ".entry"
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    unavailable = _table_run(scenario_dir, tmp_path, estimate_table, "unavailable")
    assert unavailable == (0, cold[1], dict(cold[2], cache="unavailable"))
    # a run on the synthetic estimator records no table
    code, outputs, record = _file_run(scenario_dir, tmp_path, rotation_file, "synthetic")
    assert code == 0 and record["cache"] == "unavailable"
    manifest = json.loads((tmp_path / "synthetic" / "manifest.json").read_text())
    assert "estimator_file" not in manifest and manifest["estimator"] == "synthetic"


def test_settled_inputs_are_hashed_from_their_memos(scenario_dir, tmp_path, estimate_table, rotation_file, monkeypatch):
    # the manifest says where each input's hash came from; a memo changes no byte
    monkeypatch.setattr(plbounds.io, "_SETTLED_NS", 0)  # every file is settled
    cfg = dict(RUN_CONFIG, variant="VAR_EO_DIRECTIONAL", estimator={"kind": "file", "path": str(estimate_table)})
    cfg["rotation_uncertainty"] = {"source": "file", "path": str(rotation_file)}
    config = tmp_path / "settled_config.json"
    config.write_text(json.dumps(cfg))
    runs = []
    for name in ("cold", "warm"):
        out = tmp_path / name
        assert main(["run", str(scenario_dir / "scenario.json"), "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        records = [manifest[key] for key in ("estimator_file", "rotation_file")]
        runs.append(({f: (out / f).read_bytes() for f in OUTPUTS}, [(r["hashed"], r["cache"]) for r in records]))
    assert runs[0][0] == runs[1][0] and len(runs[0][0]) == 3
    assert runs[0][1] == [("read", "miss")] * 2 and runs[1][1] == [("memo", "hit")] * 2
    assert len([e for e in _entries(Path(os.environ["XDG_CACHE_HOME"])) if e.name.startswith("stat-")]) == 2


def test_a_malformed_table_exits_3_and_leaves_no_entry(scenario_dir, tmp_path, estimate_table, capsys):
    lines = estimate_table.read_text().splitlines()
    lines[6] = lines[6].replace('"corr": [', '"corr": [7')  # a correlation of 7 or more
    estimate_table.write_text("\n".join(lines) + "\n")
    assert _table_run(scenario_dir, tmp_path, estimate_table, "malformed") == (3, {}, None)
    assert capsys.readouterr().err.startswith(f"input error: {estimate_table}:7: malformed estimate record")
    assert _entries(Path(os.environ["XDG_CACHE_HOME"])) == []


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_known_losses(tmp_path, capsys):
    # row 1: perfect prediction, zero losses; row 2: unit translation miss
    # (huber 0.5, likelihood 0.5) and a 90 degree yaw miss (half-angle pi/4)
    c45 = math.cos(math.pi / 4)
    rows = [
        [0.2, -0.3, 0.4, 0.2, -0.3, 0.4, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, c45, 0, 0, c45],
    ]
    path = tmp_path / "predictions.csv"
    lines = [",".join(CALIBRATION_COLUMNS)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cal"
    assert main(["calibrate", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "calibration.json").read_text())
    assert doc["n_rows"] == 2
    assert doc["mean_huber"] == 0.25
    assert doc["mean_mle"] == 0.25
    assert abs(doc["mean_angular"] - math.pi / 8) <= 1e-15
    assert abs(doc["mean_total"] - (0.5 + math.pi / 8)) <= 1e-15
    residuals = read_quaternion_lines(out / "rotation_residuals.jsonl")
    assert np.array_equal(residuals[0], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(residuals[1], [c45, 0.0, 0.0, c45], atol=1e-12)
    assert "2 rows" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cells, message",
    [
        (["1"] * 19, "expected 20 values, got 19"),
        (["1"] * 5 + ["x"] + ["1"] * 14, "could not convert string to float: 'x'"),
        (["0"] * 6 + ["1"] * 3 + ["0"] * 3 + ["2", "0", "0", "0"] * 2, "quaternion norm 2.0 too far from 1"),
    ],
    ids=["short_row", "not_a_number", "quaternion_norm"],
)
def test_calibrate_names_the_line_of_a_bad_row(tmp_path, capsys, cells, message):
    good = ["0"] * 6 + ["1"] * 3 + ["0"] * 3 + ["1", "0", "0", "0", "1", "0", "0", "0"]
    path = tmp_path / "predictions.csv"
    path.write_text("\n".join([",".join(CALIBRATION_COLUMNS), ",".join(good), "", ",".join(cells)]) + "\n")
    assert main(["calibrate", str(path), "--out", str(tmp_path / "cal")]) == 3
    assert capsys.readouterr().err == f"input error: {path}:4: {message}\n"


def test_calibrate_indefinite_correlation_exits_4(tmp_path, capsys):
    good = ["0"] * 6 + ["1"] * 3 + ["0", "0", "0"] + ["1", "0", "0", "0", "1", "0", "0", "0"]
    row = ["0"] * 6 + ["1"] * 3 + ["0.9", "-0.9", "0.9"] + ["1", "0", "0", "0", "1", "0", "0", "0"]
    path = tmp_path / "predictions.csv"
    path.write_text(",".join(CALIBRATION_COLUMNS) + "\n" + ",".join(good) + "\n" + ",".join(row) + "\n")
    out = tmp_path / "cal"
    assert main(["calibrate", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"pipeline failure: {path}:3: correlations [0.9, -0.9, 0.9] give an indefinite covariance")
    assert not (out / "manifest.json").exists()


def test_calibrate_rejects_empty_table(tmp_path):
    path = tmp_path / "predictions.csv"
    path.write_text(",".join(CALIBRATION_COLUMNS) + "\n")
    assert main(["calibrate", str(path), "--out", str(tmp_path / "cal")]) == 3
