"""Ornstein-Uhlenbeck simulation, drift-rate MLE, and functional prediction.

The package treats the process as an order-one autoregression between
consecutive blocks of length h, both in the endpoint-weighted L2 geometry
and under the sup norm, and ships a deterministic Monte Carlo harness for
the estimator's coverage, efficiency, and prediction-bound experiments.
"""

__version__ = "0.1.0"

from .errors import DomainError, GridMismatch, ZeroDenominator
from .experiments import (
    EXPERIMENTS,
    CellData,
    ExperimentConfig,
    ExperimentReport,
    derive_replicate_seed,
    run_experiment,
)
from .functional import (
    FunctionalSegment,
    apply_rho_power,
    atom_indicator,
    b_norm,
    h_norm,
    innovation,
    k0,
    operator_distance_b,
    operator_distance_b_grid,
    operator_distance_h,
    operator_distance_h_bound,
    rho_norm_b,
    rho_norm_h,
    rho_norm_h_discrete,
    segment_path,
    trapezoid_quad,
)
from .mle import (
    ThetaEstimate,
    asymptotic_std,
    confidence_band,
    estimate_theta_endpoint,
    estimate_theta_ito,
    lil_envelope,
    theta_endpoint_from_values,
    theta_ito_from_values,
)
from .ou_process import (
    OuParams,
    SamplePath,
    TimeGrid,
    conditional_moments,
    covariance,
    exact_transition,
    gaussian_tail_bound,
    sample_euler,
    sample_exact,
    stationary_density,
)
from .predict import (
    PredictionRecord,
    error_bound_b,
    error_bound_h,
    plug_in_predict,
    predict_segment,
    prediction_error_b,
    prediction_error_h,
)

__all__ = [
    "__version__",
    "DomainError",
    "GridMismatch",
    "ZeroDenominator",
    "OuParams",
    "TimeGrid",
    "SamplePath",
    "stationary_density",
    "covariance",
    "conditional_moments",
    "gaussian_tail_bound",
    "sample_euler",
    "sample_exact",
    "exact_transition",
    "ThetaEstimate",
    "estimate_theta_ito",
    "estimate_theta_endpoint",
    "theta_ito_from_values",
    "theta_endpoint_from_values",
    "asymptotic_std",
    "confidence_band",
    "lil_envelope",
    "FunctionalSegment",
    "segment_path",
    "h_norm",
    "b_norm",
    "atom_indicator",
    "trapezoid_quad",
    "apply_rho_power",
    "rho_norm_h",
    "rho_norm_h_discrete",
    "rho_norm_b",
    "k0",
    "operator_distance_h",
    "operator_distance_h_bound",
    "operator_distance_b",
    "operator_distance_b_grid",
    "innovation",
    "PredictionRecord",
    "plug_in_predict",
    "predict_segment",
    "prediction_error_h",
    "prediction_error_b",
    "error_bound_h",
    "error_bound_b",
    "ExperimentConfig",
    "ExperimentReport",
    "CellData",
    "derive_replicate_seed",
    "EXPERIMENTS",
    "run_experiment",
]
