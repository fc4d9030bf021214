"""Spans and counters recorded from outside plbounds, and the per-layer
metrics derived from them.

The tracer replaces names that plbounds modules look up at call time with
wrappers that record a span (name, start, end, parent) or add to a counter,
and puts the originals back afterwards; nothing in plbounds changes.  Spans
stay in memory, one list per thread, until the run ends.  A name that a
later version of plbounds no longer has is noted as missing, and every
metric that needs it is left out instead of being reported wrong.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  The span name's prefix is the layer the
# call enters, named after the plbounds module that implements it.
SPANS = (
    ("plbounds.pipeline", "run_timestep", "pipeline.run_timestep"),
    ("plbounds.pipeline", "sample_candidates", "sampling.sample_candidates"),
    ("plbounds.pipeline", "apply_offset", "sampling.apply_offset"),
    ("plbounds.pipeline", "to_vehicle_frame", "estimator.to_vehicle_frame"),
    ("plbounds.pipeline", "transform_error", "uncertainty.transform_error"),
    ("plbounds.pipeline", "outlier_weights", "uncertainty.outlier_weights"),
    ("plbounds.pipeline", "project_directional", "uncertainty.project_directional"),
    ("plbounds.pipeline", "precompute_q", "uncertainty.precompute_q"),
    ("plbounds.pipeline", "protection_levels_all", "gmm.solve"),
    ("plbounds.pipeline", "protection_level", "gmm.solve"),
    ("plbounds.pipeline", "vehicle_frame_error", "scenario.vehicle_frame_error"),
    ("plbounds.pipeline", "summarize", "metrics.summarize"),
    ("plbounds.pipeline", "integrity_diagram", "metrics.diagram"),
    ("plbounds.cli", "load_config", "cli.load_config"),
    ("plbounds.cli", "load_scenario", "scenario.load"),
    ("plbounds.cli", "precompute_q", "uncertainty.precompute_q"),
    ("plbounds.cli", "run_sequence", "pipeline.run_sequence"),
    ("plbounds.io", "read_jsonl", "io.read_jsonl"),
    ("plbounds.io", "read_quaternion_lines", "io.read_quaternion_lines"),
    ("plbounds.io", "write_results_csv", "io.write"),
    ("plbounds.io", "write_json", "io.write"),
)

# Spans whose children may run on pool threads: a span opened on a thread
# with nothing open gets the innermost open root as its parent.
ROOTS = {"pipeline.run_sequence"}


class _ThreadState:
    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class NullTracer:
    """Stands in for the tracer when tracing is off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def estimator(self, inner):
        return inner

    @contextmanager
    def installed(self):
        yield


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._roots: list[int] = []
        self.missing: set[str] = set()
        self.missing_spans: set[str] = set()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name, fn, note=None):
        """``fn`` with a span named ``name`` around every call; ``note`` gets
        the thread state and the result, to add counters."""
        root = name in ROOTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            parent = st.stack[-1] if st.stack else (self._roots[-1] if self._roots else None)
            st.stack.append(sid)
            if root:
                self._roots.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if root:
                    self._roots.remove(sid)
                st.stack.pop()
                st.spans.append((sid, parent, name, start, end))
            if note is not None:
                note(st, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def estimator(self, inner):
        return TracedEstimator(inner, self)

    def _counted_quantile(self, fn):
        @functools.wraps(fn)
        def counted(mixture, *args, **kwargs):
            st = self._state()
            st.add("gmm.quantiles")
            size = getattr(mixture, "means", None)
            if size is None:
                self.missing_spans.add("gmm.components")
            else:
                st.add("gmm.components", len(size))
            return fn(mixture, *args, **kwargs)

        return counted

    def _counted_cdf(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._state().add("gmm.cdf_evals")
            return fn(*args, **kwargs)

        return counted

    def _traced_file_estimator(self, cls):
        def make(*args, **kwargs):
            return self.estimator(self.call("estimator.load", cls, *args, **kwargs))

        return make

    def _note_kept(self, st, result):
        kept = getattr(result, "n_candidates", None)
        if kept is None:
            self.missing_spans.add("pipeline.candidates_kept")
        else:
            st.add("pipeline.candidates_kept", kept)

    def _replacements(self):
        for module, attr, name in SPANS:
            note = self._note_kept if name == "pipeline.run_timestep" else None
            yield module, attr, name, lambda fn, name=name, note=note: self.wrap(name, fn, note)
        yield "plbounds.cli", "FileEstimator", "estimator.load", self._traced_file_estimator
        yield "plbounds.gmm", "gmm_quantile", "gmm.quantiles", self._counted_quantile
        yield "plbounds.gmm", "gmm_cdf", "gmm.cdf_evals", self._counted_cdf

    @contextmanager
    def installed(self):
        """Put the wrappers in place for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, make in self._replacements():
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.add(f"{module_name}.{attr}")
                    self.missing_spans.add(name)
                    continue
                setattr(module, attr, make(original))
                undo.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def spans(self) -> list[tuple]:
        return [s for st in self._threads for s in st.spans]

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for st in self._threads:
            for name, value in st.counts.items():
                total[name] = total.get(name, 0) + value
        return total


class TracedEstimator:
    """Delegating Estimator that records a span around every estimator call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.estimate = tracer.wrap("estimator.estimate", inner.estimate)

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        return self._tracer.wrap(f"estimator.{name}", value) if callable(value) else value


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


_PIPELINE_CHILDREN = tuple(n for m, _, n in SPANS if m == "plbounds.pipeline")

# metric: (unit, span or counter names it needs).  The first name is the
# call that marks the layer as entered on a workload.
LAYER_METRICS = {
    "sampling.us_per_timestep": ("us", ("sampling.sample_candidates",)),
    "sampling.apply_offset_us_per_candidate": ("us", ("sampling.apply_offset",)),
    "estimator.calls_per_timestep": ("count", ("estimator.estimate",)),
    "estimator.us_per_call": ("us", ("estimator.estimate",)),
    "estimator.to_vehicle_frame_us_per_call": ("us", ("estimator.to_vehicle_frame",)),
    "estimator.useful_ratio": ("ratio", ("estimator.estimate", "pipeline.candidates_kept")),
    "estimator.load_s": ("s", ("estimator.load",)),
    "uncertainty.transform_error_us_per_candidate": ("us", ("uncertainty.transform_error",)),
    "uncertainty.outlier_weights_us_per_timestep": ("us", ("uncertainty.outlier_weights",)),
    "uncertainty.project_directional_us_per_timestep": ("us", ("uncertainty.project_directional",)),
    "uncertainty.precompute_q_s": ("s", ("uncertainty.precompute_q",)),
    "gmm.solve_us_per_timestep": ("us", ("gmm.solve",)),
    "gmm.cdf_evals_per_quantile": ("count", ("gmm.cdf_evals", "gmm.quantiles")),
    "gmm.components_per_mixture": ("count", ("gmm.quantiles", "gmm.components")),
    "pipeline.timestep_ms_p50": ("ms", ("pipeline.run_timestep",)),
    "pipeline.timestep_ms_p99": ("ms", ("pipeline.run_timestep",)),
    "pipeline.self_us_per_timestep": (
        "us",
        ("pipeline.run_timestep", "pipeline.run_sequence", "estimator.estimate", *_PIPELINE_CHILDREN),
    ),
    "pipeline.busy_frac": ("ratio", ("pipeline.run_timestep", "pipeline.run_sequence")),
    "scenario.vehicle_frame_error_us_per_timestep": ("us", ("scenario.vehicle_frame_error",)),
    "scenario.load_s": ("s", ("scenario.load",)),
    "metrics.summarize_ms": ("ms", ("metrics.summarize",)),
    "metrics.diagram_ms": ("ms", ("metrics.diagram",)),
    "io.read_jsonl_s": ("s", ("io.read_jsonl", "io.read_quaternion_lines")),
    "io.read_quaternion_lines_s": ("s", ("io.read_quaternion_lines",)),
    "io.results_write_ms": ("ms", ("io.write", "pipeline.run_sequence")),
    "io.bytes_written": ("B", ("io.write",)),
    "cli.load_config_ms": ("ms", ("cli.load_config",)),
    "trace.overhead_pct": ("%", ()),
}


# The ROADMAP's cProfile split of a VAR_EO run, as shares of its time, and
# the spans that make up each part.
CPROFILE_SPLIT = {
    "estimator": (37, ("estimator.estimate",)),
    "sampling": (18, ("sampling.sample_candidates", "sampling.apply_offset")),
    "transforms": (18, ("estimator.to_vehicle_frame", "uncertainty.transform_error")),
    "solver": (13, ("gmm.solve",)),
}


def split(tracer: Tracer, threads: int) -> dict[str, tuple[float, float]]:
    """Share of pipeline time (run_sequence wall × threads) in each part of
    the cProfile split, with the cProfile share: {part: (traced %, cProfile %)}."""
    spans = tracer.spans()
    busy = threads * sum(s[4] - s[3] for s in spans if s[2] == "pipeline.run_sequence")
    out = {}
    for part, (profiled, names) in CPROFILE_SPLIT.items():
        spent = sum(s[4] - s[3] for s in spans if s[2] in names)
        out[part] = (100.0 * spent / busy if busy else 0.0, profiled)
    return out


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    tracer: Tracer, timesteps: int, threads: int, bytes_written: int
) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics from everything the tracer recorded.

    ``timesteps`` is the number of timesteps the traced calls bounded and
    ``bytes_written`` what one call left in its output directory.  A
    layer the workload never enters reads 0; the second value returned
    names those layers.  Metrics that need a missing entry point are left
    out.
    """
    spans = tracer.spans()
    counts = tracer.counts()
    durations: dict[str, list[float]] = {}
    by_id = {}
    for sid, parent, name, start, end in spans:
        durations.setdefault(name, []).append(end - start)
        by_id[sid] = name
    own = self_times(spans)

    def total(*names):
        return sum(sum(durations.get(n, ())) for n in names)

    def per_call(name, scale):
        values = durations.get(name)
        return scale * sum(values) / len(values) if values else 0.0

    def median(name, scale=1.0, keep=lambda span: True):
        values = [s[4] - s[3] for s in spans if s[2] == name and keep(s)]
        return scale * statistics.median(values) if values else 0.0

    steps = durations.get("pipeline.run_timestep", [])
    calls = len(durations.get("estimator.estimate", ()))
    busy = total("pipeline.run_sequence") * threads
    n = max(timesteps, 1)
    values = {
        "sampling.us_per_timestep": 1e6 * total("sampling.sample_candidates") / n,
        "sampling.apply_offset_us_per_candidate": per_call("sampling.apply_offset", 1e6),
        "estimator.calls_per_timestep": calls / n,
        "estimator.us_per_call": per_call("estimator.estimate", 1e6),
        "estimator.to_vehicle_frame_us_per_call": per_call("estimator.to_vehicle_frame", 1e6),
        "estimator.useful_ratio": counts.get("pipeline.candidates_kept", 0) / calls if calls else 0.0,
        "estimator.load_s": median("estimator.load"),
        "uncertainty.transform_error_us_per_candidate": per_call("uncertainty.transform_error", 1e6),
        "uncertainty.outlier_weights_us_per_timestep": 1e6 * total("uncertainty.outlier_weights") / n,
        "uncertainty.project_directional_us_per_timestep": 1e6 * total("uncertainty.project_directional") / n,
        "uncertainty.precompute_q_s": median("uncertainty.precompute_q"),
        "gmm.solve_us_per_timestep": 1e6 * total("gmm.solve") / n,
        "gmm.cdf_evals_per_quantile": (
            counts.get("gmm.cdf_evals", 0) / counts["gmm.quantiles"] if counts.get("gmm.quantiles") else 0.0
        ),
        "gmm.components_per_mixture": (
            counts.get("gmm.components", 0) / counts["gmm.quantiles"] if counts.get("gmm.quantiles") else 0.0
        ),
        "pipeline.timestep_ms_p50": 1e3 * statistics.median(steps) if steps else 0.0,
        "pipeline.timestep_ms_p99": 1e3 * _quantile(steps, 0.99) if steps else 0.0,
        "pipeline.self_us_per_timestep": 1e6
        * sum(own[s[0]] for s in spans if s[2] in ("pipeline.run_timestep", "pipeline.run_sequence"))
        / n,
        "pipeline.busy_frac": sum(steps) / busy if busy else 0.0,
        "scenario.vehicle_frame_error_us_per_timestep": 1e6 * total("scenario.vehicle_frame_error") / n,
        "scenario.load_s": median("scenario.load"),
        "metrics.summarize_ms": per_call("metrics.summarize", 1e3),
        "metrics.diagram_ms": per_call("metrics.diagram", 1e3),
        # the JSONL parse behind the file estimator, not the one inside
        # read_quaternion_lines
        "io.read_jsonl_s": median(
            "io.read_jsonl", keep=lambda s: by_id.get(s[1]) != "io.read_quaternion_lines"
        ),
        "io.read_quaternion_lines_s": median("io.read_quaternion_lines"),
        "io.results_write_ms": (
            1e3 * total("io.write") / len(durations["pipeline.run_sequence"])
            if durations.get("pipeline.run_sequence")
            else 0.0
        ),
        "cli.load_config_ms": median("cli.load_config", 1e3),
        "io.bytes_written": float(bytes_written),
    }
    values = {
        m: v for m, v in values.items() if not set(LAYER_METRICS[m][1]) & tracer.missing_spans
    }
    entered = set(durations) | set(counts)
    idle = {m for m in values if LAYER_METRICS[m][1][0] not in entered}
    return values, idle
