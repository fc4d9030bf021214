"""Protection levels for map-based localization.

The package turns per-candidate-state error estimates into probabilistic
bounds on the lateral, longitudinal and vertical position error of a
vehicle: candidate poses around the estimate are scored by a pluggable
estimator, the per-candidate errors are combined into an outlier-weighted
Gaussian mixture, and the mixture's two-sided probability intervals are
solved numerically.  Supporting modules provide pose geometry, integrity
metrics and a synthetic evaluation scenario.
"""

__version__ = "0.1.0"

from .errors import (
    BracketingFailure,
    ConfigError,
    CorrectionNotPSD,
    InfeasibleContext,
    InsufficientSamples,
    LengthMismatch,
    MissingRecord,
    NonConvergence,
    NotPositiveDefinite,
    PlboundsError,
    TimestepFailure,
    WeightSumViolation,
)
from .geometry import (
    PointCloud,
    Pose,
    matrix_to_quat,
    quat_conjugate,
    quat_from_axis_angle,
    quat_from_euler_zyx,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
)
from .estimator import (
    LOSS_WEIGHTS,
    Estimator,
    FileEstimator,
    MeasurementContext,
    RawEstimate,
    SyntheticEstimator,
    SyntheticEstimatorConfig,
    assemble_covariance,
    gaussian_nll,
    huber_loss,
    to_vehicle_frame,
    write_estimate_records,
)
from .sampling import SamplingConfig, apply_offset, sample_candidates
from .uncertainty import (
    EXCLUDED_AXES,
    DirectionalErrors,
    RotationUncertainty,
    outlier_weights,
    precompute_q,
    project_directional,
    rotation_uncertainty_from_file,
    transform_error,
)
from .gmm import (
    GaussianMixture,
    ProtectionLevelQuery,
    gmm_cdf,
    gmm_quantile,
    protection_level,
    protection_levels_all,
)
from .metrics import (
    AlarmLimits,
    IntegrityDiagram,
    IntegrityReport,
    PerDirection,
    bound_gap,
    failure_rate,
    false_alarm_rate,
    integrity_diagram,
    summarize,
)
from .scenario import (
    Scenario,
    ScenarioConfig,
    Timestep,
    generate_city_cloud,
    generate_scenario,
    load_scenario,
    save_scenario,
    vehicle_frame_error,
)
from .pipeline import (
    VARIANTS,
    BlockResult,
    PipelineConfig,
    SequenceResult,
    run_block,
    run_sequence,
    run_timestep,
)

__all__ = [
    "__version__",
    # errors
    "PlboundsError",
    "NotPositiveDefinite",
    "MissingRecord",
    "InfeasibleContext",
    "InsufficientSamples",
    "CorrectionNotPSD",
    "LengthMismatch",
    "WeightSumViolation",
    "BracketingFailure",
    "NonConvergence",
    "TimestepFailure",
    "ConfigError",
    # geometry
    "Pose",
    "PointCloud",
    "quat_normalize",
    "quat_multiply",
    "quat_conjugate",
    "quat_to_matrix",
    "matrix_to_quat",
    "quat_from_axis_angle",
    "quat_from_euler_zyx",
    # estimator
    "RawEstimate",
    "Estimator",
    "MeasurementContext",
    "SyntheticEstimator",
    "SyntheticEstimatorConfig",
    "FileEstimator",
    "assemble_covariance",
    "to_vehicle_frame",
    "LOSS_WEIGHTS",
    "huber_loss",
    "gaussian_nll",
    "write_estimate_records",
    # sampling
    "SamplingConfig",
    "sample_candidates",
    "apply_offset",
    # uncertainty
    "RotationUncertainty",
    "precompute_q",
    "rotation_uncertainty_from_file",
    "EXCLUDED_AXES",
    "transform_error",
    "outlier_weights",
    "DirectionalErrors",
    "project_directional",
    # mixture solver
    "GaussianMixture",
    "gmm_cdf",
    "gmm_quantile",
    "protection_level",
    "protection_levels_all",
    "ProtectionLevelQuery",
    # metrics
    "AlarmLimits",
    "PerDirection",
    "IntegrityReport",
    "IntegrityDiagram",
    "bound_gap",
    "failure_rate",
    "false_alarm_rate",
    "summarize",
    "integrity_diagram",
    # scenario
    "ScenarioConfig",
    "Timestep",
    "Scenario",
    "generate_city_cloud",
    "generate_scenario",
    "save_scenario",
    "load_scenario",
    "vehicle_frame_error",
    # pipeline
    "VARIANTS",
    "PipelineConfig",
    "BlockResult",
    "SequenceResult",
    "run_block",
    "run_timestep",
    "run_sequence",
]
