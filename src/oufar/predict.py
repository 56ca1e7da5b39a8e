"""Plug-in one-block-ahead predictor and its error functionals.

The forecast of the next block is X_hat_n(t) = exp(-theta_hat t) X_{n-1}(h).
Because the operator is rank-one, the exact prediction errors in both norms
are |X_{n-1}(h)| times the corresponding operator distance, and each is
dominated by a linear-in-|theta - theta_hat| bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functional import (
    FunctionalSegment,
    apply_rho_power,
    operator_distance_b,
    operator_distance_h,
)
from .ou_process import check_positive


@dataclass(eq=False)
class PredictionRecord:
    """One forecast with optional exact errors; ``predict_segment`` fills them given theta_true."""

    theta_hat: float
    x_prev_h: float
    predicted: FunctionalSegment
    theta_true: float | None = None
    err_h: float | None = None
    err_b: float | None = None


def plug_in_predict(theta_hat: float, x_prev: FunctionalSegment) -> FunctionalSegment:
    """Forecast exp(-theta_hat t) x_prev(h): ``apply_rho_power(theta_hat, 1, x_prev)``.

    Its factor 1.0 x_prev(h) is exact.  A theta_hat that is not positive and finite
    raises DomainError.
    """
    return apply_rho_power(theta_hat, 1, x_prev)


def predict_segment(
    theta_hat: float, x_prev: FunctionalSegment, theta_true: float | None = None
) -> PredictionRecord:
    """Build a PredictionRecord; with theta_true given, fills the exact errors."""
    predicted = plug_in_predict(theta_hat, x_prev)
    h = x_prev.grid.t_end
    err_h = err_b = None
    if theta_true is not None:
        err_h = prediction_error_h(theta_true, theta_hat, x_prev.end_value, h)
        err_b = prediction_error_b(theta_true, theta_hat, x_prev.end_value, h)
    return PredictionRecord(
        theta_hat=theta_hat,
        x_prev_h=x_prev.end_value,
        predicted=predicted,
        theta_true=theta_true,
        err_h=err_h,
        err_b=err_b,
    )


def prediction_error_h(theta: float, theta_hat: float, x_prev_h: float, h: float) -> float:
    """Exact h_norm of (rho_theta - rho_theta_hat)(X_{n-1}): |x(h)| * distance."""
    return abs(x_prev_h) * operator_distance_h(theta, theta_hat, h)


def prediction_error_b(theta: float, theta_hat: float, x_prev_h: float, h: float) -> float:
    """Exact sup-norm prediction error: |x(h)| * sup |exp(-theta t) - exp(-theta_hat t)|."""
    return abs(x_prev_h) * operator_distance_b(theta, theta_hat, h)


def error_bound_h(theta: float, theta_hat: float, x_prev_h: float, h: float) -> float:
    """Bound |x(h)| |theta - theta_hat| h sqrt(h/3 + 1) >= prediction_error_h.

    theta_hat and x_prev_h may be arrays: the bound is then elementwise.
    """
    return error_bound_b(theta, theta_hat, x_prev_h, h) * np.sqrt(h / 3.0 + 1.0)


def error_bound_b(theta: float, theta_hat: float, x_prev_h: float, h: float) -> float:
    """Bound |x(h)| |theta - theta_hat| h >= prediction_error_b, elementwise on arrays."""
    check_positive(theta=theta, h=h)
    return abs(x_prev_h) * abs(theta - theta_hat) * h
