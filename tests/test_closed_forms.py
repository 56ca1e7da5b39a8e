"""Each closed form checks its arguments once and keeps the bits of its former body.

The rejection table calls every public closed form with one rate, length or
horizon made infinite, NaN, zero or negative, or with a power that is not an
integer >= 1: each call must raise DomainError.  The validation table calls
the other argument checks once each and matches their messages.  The oracles
keep the bodies of ``apply_rho_power``, ``rho_norm_h_discrete``, ``coverage_cell``
and ``error_bound_h`` from before they shared one copy of their formulas, and
compare the two bit for bit on valid inputs, ``apply_rho_power`` where theta (k-1)
is finite and ``rho_norm_h_discrete`` where 2 theta is finite too.
``plug_in_predict`` keeps the bits of its former body, ``apply_rho_power`` at
k = 1.  ``_rate_gap`` keeps its former bits where the first rate is the
smaller.  ``rho_norm_h`` agrees with its former body within 5e-15 where that
body does not cancel.  The near-rate branch of ``operator_distance_h`` keeps
its former body too: the unit-interval moments give its bits at h = 1 and
agree within 1e-15 elsewhere.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from oufar import (
    DomainError,
    ExperimentConfig,
    FunctionalSegment,
    GridMismatch,
    OuParams,
    SamplePath,
    TimeGrid,
    apply_rho_power,
    asymptotic_std,
    confidence_band,
    error_bound_b,
    error_bound_h,
    exact_transition,
    gaussian_tail_bound,
    k0,
    lil_envelope,
    operator_distance_b,
    operator_distance_h,
    operator_distance_h_bound,
    plug_in_predict,
    prediction_error_b,
    prediction_error_h,
    rho_norm_b,
    rho_norm_h,
    rho_norm_h_discrete,
    trapezoid_quad,
)
from oufar.experiments import coverage_cell, lil_cell, z_scores
from oufar.functional import _rate_gap
from oufar.ou_process import _special_ufunc, check_positive
from oufar.reporting import profile_config

_GRID = TimeGrid(t_end=1.0, dt=1.0 / 8)
_X = FunctionalSegment(_GRID, np.linspace(-1.0, 1.0, 9))

# closed form -> (callable, a valid call's keyword arguments, its rates, lengths and
# horizons, its powers)
_CLOSED_FORMS = {
    "OuParams": (OuParams, dict(theta=1.0, sigma=1.0), ("theta", "sigma"), ()),
    "gaussian_tail_bound": (gaussian_tail_bound, dict(sigma=1.0, x=0.5), ("sigma",), ()),
    "apply_rho_power": (apply_rho_power, dict(theta=1.0, k=2, x=_X), ("theta",), ("k",)),
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


# the remaining argument checks: callable, its arguments, the error and its words
_VALIDATIONS = {
    "OuParams-mu=inf": (OuParams, dict(theta=1.0, mu=math.inf), DomainError, "mu must be finite"),
    "OuParams-mu=nan": (OuParams, dict(theta=1.0, mu=math.nan), DomainError, "mu must be finite"),
    "gaussian_tail_bound-x<0": (gaussian_tail_bound, dict(sigma=1.0, x=[0.5, -1e-300]),
                                DomainError, "requires x >= 0"),
    "exact_transition-dt<0": (exact_transition, dict(params=OuParams(theta=1.0), dt=-0.02),
                              DomainError, "step length must be nonnegative"),
    "TimeGrid-shorter-than-a-step": (TimeGrid, dict(t_end=1.0, dt=2.0), GridMismatch,
                                     "not an integer multiple of dt"),
    "FunctionalSegment-count": (FunctionalSegment, dict(grid=_GRID, values=np.zeros(8)),
                                GridMismatch, "path needs 9 values"),
    "FunctionalSegment-nan": (FunctionalSegment, dict(grid=_GRID, values=np.full(9, math.nan)),
                              DomainError, "path values must be finite"),
    "trapezoid_quad-one-node": (trapezoid_quad, dict(values=[1.0], dx=0.5), GridMismatch,
                                "at least two nodes"),
    "ExperimentConfig-h": (ExperimentConfig, dict(thetas=(0.7,), horizons=(10.0,), h=0.03),
                           DomainError, "must be an integer multiple of dt"),
    "profile_config-kind": (profile_config, dict(kind="no-such-kind", profile="desk"),
                            ValueError, "unknown experiment kind"),
}


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

    @pytest.mark.parametrize("name", list(_VALIDATIONS))
    def test_validation_keeps_its_words(self, name):
        fn, kwargs, error, words = _VALIDATIONS[name]
        with pytest.raises(error, match=words):
            fn(**kwargs)

    def test_message_names_every_bad_value(self):
        with pytest.raises(DomainError, match=r"theta=inf, h=nan"):
            rho_norm_b(math.inf, 1, math.nan)

    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1.0])
    def test_segment_grid_raises_grid_mismatch(self, h):
        with pytest.raises(GridMismatch):
            TimeGrid(t_end=h, dt=h / 4)

    @pytest.mark.parametrize("theta", [2.47e-318, 5e-324])
    def test_k0_of_a_subnormal_rate(self, theta):
        # 1/theta overflows a double, not an integer
        assert k0(theta) == math.ceil(1 / Fraction(theta)) + 1

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


def _block_grid(h: float, m: int) -> TimeGrid:
    """TimeGrid(t_end=h, dt=h / m), or a rejected example where no such grid exists.

    That is where h / m underflows to 0, or to a subnormal too coarse for m steps to make h.
    """
    try:
        return TimeGrid(t_end=h, dt=h / m)
    except GridMismatch:
        assume(False)


def _reference_rho_norm_h(theta: float, k: int, h: float) -> float:
    """rho_norm_h before it took its decay from rho_norm_b, kept verbatim."""
    if not (theta > 0.0 and h > 0.0):
        raise DomainError("theta and h must be positive")
    if k < 1:
        raise DomainError(f"power must be >= 1, got {k}")
    base = math.sqrt((1.0 + math.exp(-2.0 * theta * h) * (2.0 * theta - 1.0)) / (2.0 * theta))
    return math.exp(-theta * (k - 1) * h) * base


def _reference_rho_norm_h_discrete(theta: float, k: int, grid: TimeGrid) -> float:
    """rho_norm_h_discrete before it took its decay from rho_norm_b, its formula kept verbatim.

    Its h is ``grid.t_end``.
    """
    t = grid.times()
    q = trapezoid_quad(np.exp(-2.0 * theta * t), grid.dt)
    return math.sqrt(q + math.exp(-2.0 * theta * grid.t_end)) * math.exp(
        -theta * (k - 1) * grid.t_end
    )


def _reference_rate_gap(a: float, b: float, t: float) -> float:
    """_rate_gap before it always factored out the smaller rate, kept verbatim."""
    try:
        return abs(math.exp(-a * t) * math.expm1((a - b) * t))
    except OverflowError:
        return math.exp(-b * t) * -math.expm1((b - a) * t)


def _reference_apply_rho_power(theta: float, k: int, x: FunctionalSegment) -> FunctionalSegment:
    """apply_rho_power before it took its decay from rho_norm_b, its formula kept verbatim."""
    if k < 1:
        raise DomainError(f"power must be >= 1, got {k}")
    factor = math.exp(-theta * (k - 1) * x.grid.t_end) * x.end_value
    values = np.exp(-theta * x.grid.times()) * factor
    return FunctionalSegment(grid=x.grid, values=values)


def _reference_coverage_cell(theta: float, t_end: float, theta_hats: np.ndarray,
                             band_k: float) -> float:
    """coverage_cell before it took its half-width from confidence_band, kept verbatim."""
    half_width = band_k * asymptotic_std(theta, t_end)
    return float(np.mean(np.abs(theta_hats - theta) <= half_width))


def _reference_error_bound_h(theta: float, theta_hat: float, x_prev_h: float, h: float) -> float:
    """error_bound_h before it took its product from error_bound_b, kept verbatim."""
    return abs(x_prev_h) * abs(theta - theta_hat) * h * np.sqrt(h / 3.0 + 1.0)


# _exp_moment before the unit-interval moment replaced it, kept verbatim
def _reference_exp_moment(k: int, c: float, h: float) -> float:
    """int_0^h t^k exp(-c t) dt = k! P(k+1, c h) / c^(k+1), stable for any c h."""
    # the extension alone, not scipy.special (0.3 s and 20 MiB to import)
    gammainc = _special_ufunc("gammainc")
    x = c * h
    if c ** (k + 1) > 0.0:
        return math.factorial(k) * float(gammainc(k + 1, x)) / c ** (k + 1)
    # c^(k+1) underflows: the same integral as h^(k+1) int_0^1 s^k exp(-x s) ds
    if x < 2.0**-53:  # exp(-x s) is 1 to rounding
        return h ** (k + 1) / (k + 1)
    return h ** (k + 1) * math.factorial(k) * float(gammainc(k + 1, x)) / x ** (k + 1)


def _reference_operator_distance_h(theta: float, theta_hat: float, h: float) -> float:
    """operator_distance_h before its near-rate branch took unit-interval moments, kept verbatim.

    Its Taylor powers raise OverflowError at extreme rates and lengths.
    """
    check_positive(theta=theta, theta_hat=theta_hat, h=h)
    if theta == theta_hat:
        return 0.0
    a, b = theta, theta_hat
    delta = b - a
    endpoint = _rate_gap(a, b, h) ** 2
    if abs(delta) * h <= 1e-3:
        # (1 - e^{-x})^2 = x^2 - x^3 + 7 x^4 / 12 - ... with x = delta t
        integral = (
            delta**2 * _reference_exp_moment(2, 2.0 * a, h)
            - delta**3 * _reference_exp_moment(3, 2.0 * a, h)
            + (7.0 / 12.0) * delta**4 * _reference_exp_moment(4, 2.0 * a, h)
        )
    else:
        integral = (
            -math.expm1(-2.0 * a * h) / (2.0 * a)
            + 2.0 * math.expm1(-(a + b) * h) / (a + b)
            - math.expm1(-2.0 * b * h) / (2.0 * b)
        )
    # roundoff can push the cancelling integral a hair below zero at a ~ b
    return math.sqrt(max(integral, 0.0) + endpoint)


def _former_near_rate(theta: float, theta_hat: float, h: float) -> float:
    """The former body's value, or a rejected example where it raises."""
    try:
        return _reference_operator_distance_h(theta, theta_hat, h)
    except OverflowError:
        assume(False)


@st.composite
def _near_rates(draw, thetas, lengths):
    """(theta, theta_hat, h) with theta_hat != theta and |theta_hat - theta| h <= 1e-3."""
    theta, h = draw(thetas), draw(lengths)
    if draw(st.booleans()):
        theta_hat = theta + draw(st.floats(-1e-3, 1e-3)) / h
    else:  # a few doubles away, where no scaled gap reaches
        theta_hat = theta
        toward = draw(st.sampled_from([0.0, math.inf]))
        for _ in range(draw(st.integers(1, 4))):
            theta_hat = math.nextafter(theta_hat, toward)
    assume(0.0 < theta_hat != theta and abs(theta_hat - theta) * h <= 1e-3)
    return theta, theta_hat, h


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
    @example(theta=1e308, k=2, h=1e308)  # NaN in the former body
    @example(theta=2.225073858507e-311, k=1, h=9.006490688420996e+307)  # -expm1(-x) / theta = inf
    def test_rho_norm_h(self, theta, k, h):
        # the former body cancels at small 2 theta h: by 7.6e-15 just above 1e-2, by 1.0e-15
        # above 0.1 (400,000 draws).  Below 0.1 tests/test_accuracy.py is the oracle.
        got, expected = rho_norm_h(theta, k, h), _reference_rho_norm_h(theta, k, h)
        assert math.isfinite(got)
        # a subnormal product keeps fewer digits than the 5e-15 the check allows
        if theta * h * 2.0 >= 0.1 and sys.float_info.min <= expected < math.inf:
            assert abs(got - expected) <= 5e-15 * expected

    @settings(max_examples=300)
    @given(theta=_RATES, k=st.integers(1, 10**6), h=_RATES, m=st.integers(1, 40))
    @example(theta=0.7, k=3, h=1.0, m=4)
    @example(theta=8e307, k=1, h=1e-308, m=4)  # 2 theta is finite, theta (k - 1) = 0
    def test_rho_norm_h_discrete(self, theta, k, h, m):
        # where 2 theta or theta (k - 1) overflows, the former body is NaN or its decay 0.0
        assume(theta * 2.0 < math.inf and theta * (k - 1) < math.inf)
        grid = _block_grid(h, m)
        with np.errstate(all="ignore"):
            got = rho_norm_h_discrete(theta, k, grid)
            expected = _reference_rho_norm_h_discrete(theta, k, grid)
        assert _bits(got) == _bits(expected)

    @settings(max_examples=300)
    @given(a=_RATES, b=_RATES, t=_RATES)
    @example(a=0.7, b=0.9, t=1.5)
    @example(a=1.0, b=800.0, t=1.0)
    def test_rate_gap_below_the_larger_rate(self, a, b, t):
        # a < b: the smaller rate was already factored out, by abs() of a negative expm1
        a, b = min(a, b), max(a, b)
        assume(a < b)
        assert _bits(_rate_gap(a, b, t)) == _bits(_reference_rate_gap(a, b, t))

    @settings(max_examples=300)
    @given(theta=_RATES, k=st.integers(1, 200), h=_RATES, m=st.integers(1, 40),
           end=_ENDPOINTS, inner=_FINITE)
    @example(theta=0.7, k=1, h=1.0, m=4, end=-0.0, inner=1.0)
    @example(theta=0.7, k=3, h=1.0, m=4, end=0.0, inner=-1.0)
    def test_apply_rho_power(self, theta, k, h, m, end, inner):
        # where theta (k - 1) overflows, the former body's decay is 0.0 and wrong
        assume(theta * (k - 1) < math.inf)
        grid = _block_grid(h, m)
        values = np.full(m + 1, inner)
        values[-1] = end
        x = FunctionalSegment(grid, values)
        with np.errstate(all="ignore"):
            got = apply_rho_power(theta, k, x).values
            expected = _reference_apply_rho_power(theta, k, x).values
        assert _bits(got) == _bits(expected)

    @settings(max_examples=300)
    @given(theta_hat=_RATES, h=_RATES, m=st.integers(1, 40), end=_ENDPOINTS, inner=_FINITE)
    @example(theta_hat=0.7, h=1.0, m=4, end=-0.0, inner=1.0)
    def test_plug_in_predict(self, theta_hat, h, m, end, inner):
        # the former body applied rho_theta_hat once through apply_rho_power at k = 1
        grid = _block_grid(h, m)
        values = np.full(m + 1, inner)
        values[-1] = end
        x = FunctionalSegment(grid, values)
        with np.errstate(all="ignore"):
            got = plug_in_predict(theta_hat, x).values
            expected = _reference_apply_rho_power(theta_hat, 1, x).values
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

    @settings(max_examples=500)
    @given(rates=_near_rates(st.one_of(st.floats(2.0**-54, 1e3), st.floats(2.0**-54, 1e70)),
                             st.just(1.0)))
    @example(rates=(0.7, 0.7001, 1.0))
    @example(rates=(2.0**-54, 2.0**-54 + 1e-3, 1.0))
    def test_operator_distance_h_near_rates_at_unit_length(self, rates):
        # u = delta and x = 2 theta exactly: the same operations on the same doubles
        expected = _former_near_rate(*rates)
        assert _bits(operator_distance_h(*rates)) == _bits(expected)

    @settings(max_examples=500)
    @given(rates=_near_rates(st.one_of(st.floats(1e-60, 1e3), st.floats(1e-60, 1e70)),
                             st.one_of(_MODERATE, _POSITIVE)))
    @example(rates=(0.7, 0.7001, 1.5))
    def test_operator_distance_h_near_rates(self, rates):
        theta, _, h = rates
        assume(theta * h * 2.0 >= 2.0**-53)  # below it the former moments lose their digits
        expected = _former_near_rate(*rates)
        assert abs(operator_distance_h(*rates) - expected) <= 1e-15 * expected

    @settings(max_examples=200)
    @given(log_x=st.floats(-290.0, -17.0), h_at=st.floats(0.0, 1.0), gap_at=st.floats(0.0, 1.0),
           below=st.booleans())
    @example(log_x=math.log10(1.0483e-106), h_at=0.5, gap_at=0.3, below=True)
    @example(log_x=math.log10(3.7956e-162), h_at=0.9, gap_at=0.0, below=False)
    def test_operator_distance_h_at_tiny_rate_lengths(self, log_x, h_at, gap_at, below):
        # 2 theta h = x < 2^-53: e^{-2 theta t} is 1 to rounding on [0, h], so the squared
        # distance is u^2 (h int_0^1 (expm1(-u s) / u)^2 ds + (expm1(-u) / u)^2), up to the
        # series' truncation of order u^3; |u| stays outside the root, where u^2 underflows.
        # Logarithms place h and theta in [1e-300, 1e300], and u from a few doubles of theta
        # up to 1e-3 above it or x / 5 below it.
        h = 10.0 ** (-300.0 + h_at * (log_x + 600.0))
        theta = 10.0**log_x / h / 2.0
        lo_gap, hi_gap = max(-300.0, log_x - 15.5), log_x - 0.7 if below else -3.0
        u = 10.0 ** (lo_gap + gap_at * (hi_gap - lo_gap))
        theta_hat = theta - u / h if below else theta + u / h
        assume(0.0 < theta_hat != theta)
        u = (theta_hat - theta) * h
        assume(theta * h * 2.0 < 2.0**-53 and 1e-300 <= abs(u) <= 1e-3)  # u stays normal
        scaled, _ = integrate.quad(lambda s: (math.expm1(-u * s) / u) ** 2, 0.0, 1.0,
                                   epsabs=0.0, epsrel=2e-14)
        expected = abs(u) * math.sqrt(h * scaled + (math.expm1(-u) / u) ** 2)
        got = operator_distance_h(theta, theta_hat, h)
        assert got == pytest.approx(expected, rel=1e-13 + abs(u) ** 3, abs=0.0)
