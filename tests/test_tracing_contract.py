"""The benchmark's tracer finds plbounds entry points by module and name.

A name it cannot find is noted as missing and every layer metric that needs
it is left out of the traced run's report, so a rename would silently drop
metrics; these tests make it fail here instead.  ``perfbench/tracing.py`` is
imported by path and used as it is.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from plbounds.estimator import SyntheticEstimator, SyntheticEstimatorConfig
from plbounds.pipeline import VARIANTS, PipelineConfig, run_sequence
from plbounds.sampling import SamplingConfig
from plbounds.scenario import ScenarioConfig, generate_scenario

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_the_tracer_wraps_resolves():
    # its SPANS, plbounds.cli.FileEstimator, plbounds.gmm.gmm_quantile and
    # plbounds.gmm.gmm_cdf
    tracer = _tracing().Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_traced_run_reports_every_declared_layer_metric_finite(variant):
    tracing = _tracing()
    tracer = tracing.Tracer()
    scenario = generate_scenario(ScenarioConfig(n_timesteps=3, blocks_x=1, blocks_y=1, wall_density=0.2), 5)
    config = PipelineConfig(variant=variant, sampling=SamplingConfig(n_candidates=6), seed=5, q_samples=1000)
    estimator = tracer.estimator(SyntheticEstimator(SyntheticEstimatorConfig(seed=5)))
    with tracer.installed():
        tracer.call("pipeline.run_sequence", run_sequence, estimator, scenario, config)
    values, _ = tracing.layer_metrics(tracer, len(scenario.timesteps), 1, 0)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # the worker adds the overhead from its untraced calls
    assert declared - {"trace.overhead_pct"} <= set(values)
    assert all(math.isfinite(v) for v in values.values())
