"""Each closed form checks its arguments once and keeps the bits of its former body.

The rejection table calls every public closed form with one rate, length or
horizon made infinite, NaN, zero or negative, or with a power that is not an
integer >= 1: each call must raise DomainError.  The oracles keep the bodies
of ``rho_norm_h``, ``apply_rho_power``, ``coverage_cell`` and
``error_bound_h`` from before they shared one copy of their formulas, and
compare the two bit for bit on valid inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oufar import (
    DomainError,
    ExperimentConfig,
    FunctionalSegment,
    GridMismatch,
    OuParams,
    RhoOperator,
    SegmentGrid,
    apply_rho_power,
    asymptotic_std,
    confidence_band,
    error_bound_b,
    error_bound_h,
    gaussian_tail_bound,
    k0,
    lil_envelope,
    operator_distance_b,
    operator_distance_h,
    operator_distance_h_bound,
    prediction_error_b,
    prediction_error_h,
    rho_norm_b,
    rho_norm_h,
    rho_norm_h_discrete,
)
from oufar.experiments import coverage_cell, lil_cell, z_scores
from oufar.functional import _check_same_grid

_GRID = SegmentGrid(h=1.0, m=8)
_X = FunctionalSegment(_GRID, np.linspace(-1.0, 1.0, 9))

# closed form -> (callable, a valid call's keyword arguments, its rates, lengths and
# horizons, its powers)
_CLOSED_FORMS = {
    "OuParams": (OuParams, dict(theta=1.0, sigma=1.0), ("theta", "sigma"), ()),
    "gaussian_tail_bound": (gaussian_tail_bound, dict(sigma=1.0, x=0.5), ("sigma",), ()),
    "RhoOperator": (RhoOperator, dict(theta=1.0, grid=_GRID), ("theta",), ()),
    "apply_rho_power": (apply_rho_power, dict(op=RhoOperator(1.0, _GRID), k=2, x=_X), (), ("k",)),
    "rho_norm_h": (rho_norm_h, dict(theta=1.0, k=2, h=1.0), ("theta", "h"), ("k",)),
    "rho_norm_b": (rho_norm_b, dict(theta=1.0, k=2, h=1.0), ("theta", "h"), ("k",)),
    "rho_norm_h_discrete": (rho_norm_h_discrete, dict(theta=1.0, k=2, grid=_GRID), ("theta",),
                            ("k",)),
    "k0": (k0, dict(theta=1.0), ("theta",), ()),
    **{
        fn.__name__: (fn, dict(theta=1.0, theta_hat=1.5, h=1.0), ("theta", "theta_hat", "h"), ())
        for fn in (operator_distance_h, operator_distance_b, operator_distance_h_bound)
    },
    **{
        fn.__name__: (fn, dict(theta=1.0, theta_hat=1.5, x_prev_h=2.0, h=1.0),
                      ("theta", "theta_hat", "h"), ())
        for fn in (prediction_error_h, prediction_error_b)
    },
    # the experiments pass theta_hat and x_prev_h as arrays: only the rates are checked
    **{
        fn.__name__: (fn, dict(theta=1.0, theta_hat=1.5, x_prev_h=2.0, h=1.0), ("theta", "h"), ())
        for fn in (error_bound_h, error_bound_b)
    },
    "asymptotic_std": (asymptotic_std, dict(theta=1.0, t_end=100.0), ("theta", "t_end"), ()),
    "confidence_band": (confidence_band, dict(theta=1.0, t_end=100.0, k=3.0), ("theta", "t_end"),
                        ()),
    "lil_envelope": (lil_envelope, dict(theta=1.0, t_end=100.0), ("theta", "t_end"), ()),
    "coverage_cell": (coverage_cell, dict(theta=1.0, t_end=100.0, theta_hats=np.ones(3),
                                          band_k=3.0), ("theta", "t_end"), ()),
    "z_scores": (z_scores, dict(theta=1.0, t_end=100.0, theta_hats=np.ones(3)),
                 ("theta", "t_end"), ()),
    "lil_cell": (lil_cell, dict(theta=1.0, t_end=100.0, theta_hats=np.ones(3), multiplier=1.5),
                 ("theta", "t_end"), ()),
    "ExperimentConfig": (ExperimentConfig, dict(thetas=(0.7,), horizons=(10.0,)),
                         ("dt", "h", "epsilon", "lil_multiplier"), ()),
}
_BAD = (math.inf, -math.inf, math.nan, 0.0, -1.0)
_BAD_POWERS = (0, 1.5, True)
# a band multiplier may be 0.0
_BAND_KS = {"confidence_band": "k", "coverage_cell": "band_k", "ExperimentConfig": "band_k"}
_BAD_BAND_KS = (math.inf, -math.inf, math.nan, -1.0)


def _rejected_calls():
    for name, (fn, valid, rates, powers) in _CLOSED_FORMS.items():
        bad = [(arg, v) for arg in rates for v in _BAD]
        bad += [(arg, v) for arg in powers for v in _BAD_POWERS]
        bad += [(_BAND_KS[name], v) for v in _BAD_BAND_KS] if name in _BAND_KS else []
        for arg, v in bad:
            yield pytest.param(fn, {**valid, arg: v}, id=f"{name}-{arg}={v!r}")


class TestRejection:
    @pytest.mark.parametrize("name", list(_CLOSED_FORMS))
    def test_valid_call_passes(self, name):
        fn, valid, _, _ = _CLOSED_FORMS[name]
        fn(**valid)

    @pytest.mark.parametrize("fn, kwargs", list(_rejected_calls()))
    def test_raises_domain_error(self, fn, kwargs):
        with pytest.raises(DomainError):
            fn(**kwargs)

    def test_message_names_every_bad_value(self):
        with pytest.raises(DomainError, match=r"theta=inf, h=nan"):
            rho_norm_b(math.inf, 1, math.nan)

    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1.0])
    def test_segment_grid_raises_grid_mismatch(self, h):
        with pytest.raises(GridMismatch):
            SegmentGrid(h=h, m=4)

    @pytest.mark.parametrize("theta", [2.47e-318, 5e-324])
    def test_k0_of_a_subnormal_rate(self, theta):
        with pytest.raises(DomainError, match="1/theta overflows"):
            k0(theta)

    def test_k0_of_the_smallest_normal_rate(self):
        assert k0(2.2250738585072014e-308) > 10**307

    def test_lil_envelope_keeps_its_words(self):
        with pytest.raises(DomainError, match="exceed e"):
            lil_envelope(1.0, math.inf)

    @pytest.mark.parametrize("k", [1, np.int64(3), 2**70])
    def test_integral_powers_pass(self, k):
        assert rho_norm_b(1.0, k, 1e-30) == math.exp(-1.0 * (k - 1) * 1e-30)


class TestEqualRates:
    @pytest.mark.parametrize("theta", [1.3, 2.2e61, 2.3e61, 1e100, 1e300])
    def test_h_distance_is_zero(self, theta):
        # from about 2.24e61 on, the Taylor form's (2 theta) ** 5 overflows
        assert operator_distance_h(theta, theta, 1.0) == 0.0
        assert operator_distance_b(theta, theta, 1.0) == 0.0


def _bits(value):
    """The bytes of a float or an array: equal bits, ±0.0 and NaN payloads included."""
    return np.asarray(value, dtype=float).tobytes()


def _reference_rho_norm_h(theta: float, k: int, h: float) -> float:
    """rho_norm_h before it took its decay from rho_norm_b, kept verbatim."""
    if not (theta > 0.0 and h > 0.0):
        raise DomainError("theta and h must be positive")
    if k < 1:
        raise DomainError(f"power must be >= 1, got {k}")
    base = math.sqrt((1.0 + math.exp(-2.0 * theta * h) * (2.0 * theta - 1.0)) / (2.0 * theta))
    return math.exp(-theta * (k - 1) * h) * base


def _reference_apply_rho_power(op: RhoOperator, k: int, x: FunctionalSegment) -> FunctionalSegment:
    """apply_rho_power before it took its decay from rho_norm_b, kept verbatim."""
    if k < 1:
        raise DomainError(f"power must be >= 1, got {k}")
    _check_same_grid(op.grid, x.grid)
    factor = math.exp(-op.theta * (k - 1) * op.grid.h) * x.end_value
    values = np.exp(-op.theta * op.grid.times()) * factor
    return FunctionalSegment(grid=x.grid, values=values)


def _reference_coverage_cell(theta: float, t_end: float, theta_hats: np.ndarray,
                             band_k: float) -> float:
    """coverage_cell before it took its half-width from confidence_band, kept verbatim."""
    half_width = band_k * asymptotic_std(theta, t_end)
    return float(np.mean(np.abs(theta_hats - theta) <= half_width))


def _reference_error_bound_h(theta: float, theta_hat: float, x_prev_h: float, h: float) -> float:
    """error_bound_h before it took its product from error_bound_b, kept verbatim."""
    return abs(x_prev_h) * abs(theta - theta_hat) * h * np.sqrt(h / 3.0 + 1.0)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_MODERATE = st.floats(1e-3, 1e3)
_RATES = st.one_of(_MODERATE, _POSITIVE)
_ZEROS = st.sampled_from([0.0, -0.0])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ENDPOINTS = st.one_of(_ZEROS, st.floats(-1e3, 1e3), _FINITE)


class TestFormerBodies:
    """The shared copies give the bits of the bodies they replaced."""

    @settings(max_examples=300)
    @given(theta=_RATES, k=st.integers(1, 10**6), h=_RATES)
    @example(theta=0.5, k=1, h=1.0)
    @example(theta=1e308, k=2, h=1e308)  # NaN in both
    def test_rho_norm_h(self, theta, k, h):
        assert _bits(rho_norm_h(theta, k, h)) == _bits(_reference_rho_norm_h(theta, k, h))

    @settings(max_examples=300)
    @given(theta=_RATES, k=st.integers(1, 200), h=_RATES, m=st.integers(1, 40),
           end=_ENDPOINTS, inner=_FINITE)
    @example(theta=0.7, k=1, h=1.0, m=4, end=-0.0, inner=1.0)
    @example(theta=0.7, k=3, h=1.0, m=4, end=0.0, inner=-1.0)
    def test_apply_rho_power(self, theta, k, h, m, end, inner):
        grid = SegmentGrid(h=h, m=m)
        values = np.full(m + 1, inner)
        values[-1] = end
        op, x = RhoOperator(theta, grid), FunctionalSegment(grid, values)
        with np.errstate(all="ignore"):
            got = apply_rho_power(op, k, x).values
            expected = _reference_apply_rho_power(op, k, x).values
        assert _bits(got) == _bits(expected)

    @settings(max_examples=300)
    @given(theta=_RATES, t_end=_RATES,
           band_k=st.one_of(_ZEROS, st.floats(0.0, 10.0), st.floats(0.0, allow_infinity=False)),
           hats=st.lists(st.one_of(_FINITE, st.just(math.nan)), min_size=1, max_size=20))
    def test_coverage_cell(self, theta, t_end, band_k, hats):
        theta_hats = np.array(hats)
        with np.errstate(all="ignore"):
            got = coverage_cell(theta, t_end, theta_hats, band_k)
            expected = _reference_coverage_cell(theta, t_end, theta_hats, band_k)
        assert _bits(got) == _bits(expected)

    @settings(max_examples=300)
    @given(theta=_RATES, theta_hat=st.one_of(_RATES, _FINITE), x=_ENDPOINTS, h=_RATES,
           arrays=st.booleans())
    @example(theta=0.7, theta_hat=0.7, x=-0.0, h=1.0, arrays=False)
    @example(theta=0.7, theta_hat=0.9, x=-0.0, h=1.0, arrays=True)
    def test_error_bound_h(self, theta, theta_hat, x, h, arrays):
        if arrays:  # the experiments pass theta_hat and x_prev_h as arrays
            theta_hat = np.array([theta_hat, theta, -theta_hat])
            x = np.array([x, -x, 0.0])
        with np.errstate(all="ignore"):
            got = error_bound_h(theta, theta_hat, x, h)
            expected = _reference_error_bound_h(theta, theta_hat, x, h)
        assert type(got) is type(expected)
        assert _bits(got) == _bits(expected)
