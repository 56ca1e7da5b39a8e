import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oufar import (
    DomainError,
    FunctionalSegment,
    TimeGrid,
    apply_rho_power,
    b_norm,
    error_bound_b,
    error_bound_h,
    h_norm,
    plug_in_predict,
    predict_segment,
    prediction_error_b,
    prediction_error_h,
)

rates = st.floats(0.05, 5.0)
lengths = st.floats(0.1, 5.0)
endpoints = st.floats(-10.0, 10.0)


def _segment(h, m, fn):
    grid = TimeGrid(t_end=h, dt=h / m)
    return FunctionalSegment(grid=grid, values=fn(grid.times()))


class TestPlugInPredict:
    def test_zero_endpoint_zero_forecast(self):
        x = _segment(1.0, 20, lambda t: t * (1.0 - t))  # ends at 0
        x.values[-1] = 0.0
        assert np.all(plug_in_predict(0.8, x).values == 0.0)

    def test_forecast_starts_at_endpoint(self):
        x = _segment(1.0, 20, lambda t: np.cos(t))
        assert plug_in_predict(2.0, x).values[0] == x.values[-1]

    def test_matches_operator_at_true_rate(self):
        x = _segment(1.0, 20, lambda t: np.sin(t) + 0.5)
        expected = apply_rho_power(0.9, 1, x).values
        assert plug_in_predict(0.9, x).values.tobytes() == expected.tobytes()

    def test_rejects_nonpositive_rate(self):
        x = _segment(1.0, 10, lambda t: np.ones_like(t))
        for bad in (0.0, -0.4):
            with pytest.raises(DomainError):
                plug_in_predict(bad, x)

    def test_record_fields(self):
        x = _segment(1.0, 10, lambda t: np.ones_like(t) * 2.0)
        rec = predict_segment(0.8, x, theta_true=1.0)
        assert rec.x_prev_h == 2.0
        assert rec.theta_hat == 0.8
        assert rec.err_h == pytest.approx(prediction_error_h(1.0, 0.8, 2.0, 1.0))
        assert rec.err_b == pytest.approx(prediction_error_b(1.0, 0.8, 2.0, 1.0))
        no_truth = predict_segment(0.8, x)
        assert no_truth.err_h is None and no_truth.err_b is None

    @given(theta_hat=rates, endpoint=endpoints)
    def test_forecast_magnitude_decays_from_endpoint(self, theta_hat, endpoint):
        x = _segment(1.0, 25, lambda t: np.sin(t))
        x.values[-1] = endpoint
        predicted = plug_in_predict(theta_hat, x)
        assert predicted.values[0] == endpoint
        magnitudes = np.abs(predicted.values)
        assert np.all(np.diff(magnitudes) <= 1e-15 * magnitudes[0])


class TestExactErrors:
    def test_zero_at_matching_rates(self):
        assert prediction_error_h(1.0, 1.0, 3.0, 1.0) == 0.0
        assert prediction_error_b(1.0, 1.0, 3.0, 1.0) == 0.0

    @pytest.mark.parametrize("theta,theta_hat", [(1.0, 1.2), (0.5, 0.4), (2.0, 2.5)])
    def test_h_error_matches_norm_of_difference(self, theta, theta_hat):
        x = _segment(1.0, 1000, lambda t: np.sin(3.0 * t) + 1.5)
        diff = FunctionalSegment(
            x.grid,
            apply_rho_power(theta, 1, x).values - apply_rho_power(theta_hat, 1, x).values,
        )
        exact = prediction_error_h(theta, theta_hat, x.values[-1], 1.0)
        assert h_norm(diff) == pytest.approx(exact, rel=1e-5)

    @pytest.mark.parametrize("theta,theta_hat", [(1.0, 1.2), (0.5, 0.4), (2.0, 2.5)])
    def test_b_error_matches_norm_of_difference(self, theta, theta_hat):
        x = _segment(1.0, 1000, lambda t: np.cos(t) - 2.0)
        diff = FunctionalSegment(
            x.grid,
            apply_rho_power(theta, 1, x).values - apply_rho_power(theta_hat, 1, x).values,
        )
        exact = prediction_error_b(theta, theta_hat, x.values[-1], 1.0)
        assert b_norm(diff) == pytest.approx(exact, abs=1e-4 * abs(x.values[-1]))


class TestBounds:
    def test_zero_at_matching_rates(self):
        assert error_bound_h(1.0, 1.0, 5.0, 1.0) == 0.0
        assert error_bound_b(1.0, 1.0, 5.0, 1.0) == 0.0

    def test_values(self):
        assert error_bound_h(1.0, 1.01, 1.0, 1.0) == pytest.approx(0.011547005, rel=1e-7)
        assert error_bound_b(1.0, 1.01, 1.0, 1.0) == pytest.approx(0.01, rel=1e-12)

    @given(theta=rates, theta_hat=rates, x=endpoints, h=lengths)
    def test_bounds_dominate_exact_errors(self, theta, theta_hat, x, h):
        assert prediction_error_h(theta, theta_hat, x, h) <= error_bound_h(theta, theta_hat, x, h)
        assert prediction_error_b(theta, theta_hat, x, h) <= error_bound_b(theta, theta_hat, x, h)

    @given(theta=rates, theta_hat=rates, x=endpoints, h=lengths, scale=st.floats(-20.0, 20.0))
    def test_degree_one_homogeneity(self, theta, theta_hat, x, h, scale):
        for fn in (prediction_error_h, prediction_error_b, error_bound_h, error_bound_b):
            assert fn(theta, theta_hat, scale * x, h) == pytest.approx(
                abs(scale) * fn(theta, theta_hat, x, h), rel=1e-12, abs=1e-300
            )
