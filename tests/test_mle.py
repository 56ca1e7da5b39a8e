import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oufar import (
    DomainError,
    OuParams,
    TimeGrid,
    ZeroDenominator,
    asymptotic_std,
    confidence_band,
    estimate_theta_endpoint,
    estimate_theta_ito,
    lil_envelope,
    sample_exact,
    theta_endpoint_from_values,
    theta_ito_from_values,
)
from oufar.mle import ThetaEstimate, theta_ito_from_sums
from oufar.ou_process import SCRATCH_VALUES, scratch

BAND_3SIGMA_T2000 = 3.0 * math.sqrt(2.0 / 2000.0)  # 0.0949 for theta = 1


def _exact_path(theta, t_end, dt, seed):
    return sample_exact(
        OuParams(theta=theta), TimeGrid(t_end, dt), np.random.default_rng(seed), stationary=True
    )


class TestItoForm:
    def test_constant_path_gives_zero_flagged(self):
        est = theta_ito_from_values(np.full(101, 3.0), 0.02)
        assert est.theta_hat == 0.0
        assert est.nonpositive
        assert est.numerator == 0.0 and est.denominator > 0.0

    def test_zero_path_raises(self):
        with pytest.raises(ZeroDenominator):
            theta_ito_from_values(np.zeros(101), 0.02)

    def test_too_short(self):
        with pytest.raises(DomainError):
            theta_ito_from_values(np.array([1.0]), 0.02)

    def test_fixed_seed_path_within_band(self):
        est = estimate_theta_ito(_exact_path(1.0, 2000.0, 0.02, seed=7))
        assert est.form == "ito_discrete"
        assert abs(est.theta_hat - 1.0) <= BAND_3SIGMA_T2000
        assert est.theta_hat == pytest.approx(est.numerator / est.denominator, rel=1e-15)


class TestEndpointForm:
    def test_synthetic_plugin_arithmetic(self):
        # xi_0 = xi_T and sum xi_i^2 dt = T/2 force the estimate to 1
        t_end, dt = 2.0, 0.02
        values = np.full(101, math.sqrt(0.5))
        est = theta_endpoint_from_values(values, dt)
        assert est.t_end == pytest.approx(t_end)
        assert est.theta_hat == pytest.approx(1.0, rel=1e-12)

    def test_zero_path_raises(self):
        with pytest.raises(ZeroDenominator):
            theta_endpoint_from_values(np.zeros(101), 0.02)

    def test_fixed_seed_path_within_band(self):
        est = estimate_theta_endpoint(_exact_path(1.0, 2000.0, 0.02, seed=7))
        assert est.form == "endpoint"
        assert abs(est.theta_hat - 1.0) <= BAND_3SIGMA_T2000


def _reference_theta_endpoint_from_values(values: np.ndarray, dt: float) -> ThetaEstimate:
    """The endpoint form before it took its sums from the Ito kernel, kept verbatim."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DomainError("need at least two path values")
    t_end = (values.size - 1) * dt
    left = values[:-1]
    sum_sq = float(np.sum(left * left))
    riemann = sum_sq * dt
    if riemann == 0.0:
        raise ZeroDenominator("sum of squared path values vanishes")
    num = float(1.0 + values[0] ** 2 / t_end - values[-1] ** 2 / t_end)
    den = 2.0 / t_end * riemann
    return ThetaEstimate(num / den, t_end, dt, num, den, "endpoint", sum_sq)


def _outcome(estimate, values, dt):
    """The bits of every ThetaEstimate field, or the error type and message raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            est = estimate(values, dt)
    except (DomainError, ZeroDenominator) as exc:
        return type(exc), str(exc)
    return tuple(v if isinstance(v, str) else struct.pack("<d", v) for v in vars(est).values())


_SPECIALS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308])


@st.composite
def _endpoint_paths(draw, sizes=st.one_of(
        st.integers(2, 300), st.integers(SCRATCH_VALUES - 1, SCRATCH_VALUES + 2))):
    """Normal paths at scales from subnormal to overflowing squares, with ±0.0 and
    subnormals written in; lengths short or around the scratch buffer's size."""
    size = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(size) * draw(st.sampled_from([1.0, 1e-3, 1e-312, 1e154]))
    for i, v in draw(st.lists(st.tuples(st.integers(0, size - 1), _SPECIALS), max_size=20)):
        values[i] = v
    return values


class TestEndpointOracle:
    """The endpoint form on the Ito kernel's sums gives the bits of its former body."""

    @settings(max_examples=200, deadline=None)
    @given(values=_endpoint_paths(), dt=st.sampled_from([0.02, 0.5, 1e-3, 3.0]))
    def test_matches_former_body(self, values, dt):
        expected = _outcome(_reference_theta_endpoint_from_values, values, dt)
        assert _outcome(theta_endpoint_from_values, values, dt) == expected

    @pytest.mark.parametrize("values, error", [
        (np.zeros(101), ZeroDenominator),
        (np.array([-0.0, 0.0, -0.0, 2.0]), ZeroDenominator),  # only the last value is nonzero
        (np.array([1.5]), DomainError),
    ])
    def test_raises_what_the_former_body_raises(self, values, error):
        expected = _outcome(_reference_theta_endpoint_from_values, values, 0.02)
        assert expected[0] is error
        assert _outcome(theta_endpoint_from_values, values, 0.02) == expected


def _reference_theta_ito_from_values(values: np.ndarray, dt: float) -> ThetaEstimate:
    """The Ito form before it reduced its sums leaf by leaf, kept verbatim."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DomainError("need at least two path values")
    left = values[:-1]
    # one scratch array: the same products numpy would build, summed in the same order
    d = np.subtract(values[1:], left, out=scratch(values.size - 1))
    num = -float(np.sum(np.multiply(left, d, out=d)))
    sum_sq = float(np.sum(np.multiply(left, left, out=d)))
    return theta_ito_from_sums(num, sum_sq, values.size - 1, dt)


# path lengths whose steps make one leaf (2, 3, 2^16 and 2^16 + 1 values, the last
# filling the scratch buffer), two leaves (2^16 + 2 and 2^17 + 1), three of unequal
# size (2^17 - 1) and four (the desk round trip's 2.5e5 + 1 values)
_LEAF_SIZES = st.sampled_from([2, 3, 2**16, 2**16 + 1, 2**16 + 2, 2**17 - 1, 2**17 + 1, 250001])


class TestItoOracle:
    """The Ito form reduced leaf by leaf gives the bits of its former one-array body."""

    @settings(max_examples=100, deadline=None)
    @given(values=_endpoint_paths(sizes=_LEAF_SIZES), dt=st.sampled_from([0.02, 0.5, 1e-3, 3.0]))
    def test_matches_former_body(self, values, dt):
        expected = _outcome(_reference_theta_ito_from_values, values, dt)
        assert _outcome(theta_ito_from_values, values, dt) == expected

    @pytest.mark.parametrize("values, error", [
        (np.zeros(2**17 + 1), ZeroDenominator),
        (np.tile([0.0, -0.0], 2**16 + 1), ZeroDenominator),  # every product is -0.0
        (np.array([1.5]), DomainError),
    ])
    def test_raises_what_the_former_body_raises(self, values, error):
        expected = _outcome(_reference_theta_ito_from_values, values, 0.02)
        assert expected[0] is error
        assert _outcome(theta_ito_from_values, values, 0.02) == expected

    def test_long_path_allocates_no_path_sized_temporary(self):
        values = np.random.default_rng(3).standard_normal(10**6 + 1)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            theta_ito_from_values(values, 0.02)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # one 2^16-value leaf in the thread's scratch buffer (512 KiB if this call makes
        # it); the one-array body took an 8 MB temporary
        assert peak < 2**20


class TestFormAgreement:
    @pytest.mark.parametrize("i,dt", [(0, 0.02), (1, 0.01), (2, 0.005)])
    def test_forms_converge_as_dt_shrinks(self, i, dt):
        path = _exact_path(1.0, 2000.0, dt, seed=97 + i)
        ito = estimate_theta_ito(path).theta_hat
        endpoint = estimate_theta_endpoint(path).theta_hat
        # Ito-correction residual is O(dt); 5 dt was calibrated on this family
        assert abs(ito - endpoint) / abs(endpoint) <= 5.0 * dt

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("t_end", [100.0, 500.0])
    def test_sign_agreement_on_corpus(self, theta, t_end):
        path = _exact_path(theta, t_end, 0.02, seed=int(theta * 1000 + t_end))
        ito = estimate_theta_ito(path).theta_hat
        endpoint = estimate_theta_endpoint(path).theta_hat
        assert math.copysign(1.0, ito) == math.copysign(1.0, endpoint)


class TestAsymptoticStd:
    def test_values(self):
        assert asymptotic_std(0.1, 12000.0) == pytest.approx(4.0824829e-3, rel=1e-7)
        assert asymptotic_std(1.0, 2000.0) == pytest.approx(0.0316227766, rel=1e-9)

    @given(theta=st.floats(0.01, 10.0), t_end=st.floats(1.0, 1e6))
    def test_halves_when_t_quadruples(self, theta, t_end):
        assert asymptotic_std(theta, 4.0 * t_end) == pytest.approx(
            0.5 * asymptotic_std(theta, t_end), rel=1e-12
        )

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            asymptotic_std(0.0, 100.0)


class TestConfidenceBand:
    def test_degenerate(self):
        assert confidence_band(1.0, 100.0, k=0.0) == (0.0, 0.0)

    def test_value(self):
        lo, hi = confidence_band(5.0, 18000.0, k=3.0)
        assert hi == pytest.approx(0.070710678, rel=1e-8)
        assert lo == -hi


class TestLilEnvelope:
    def test_forced_by_composition(self):
        t_end = math.e**math.e  # log log T = 1
        assert lil_envelope(1.0, t_end) == pytest.approx(math.sqrt(4.0 / t_end), rel=1e-12)

    def test_value(self):
        assert lil_envelope(0.4, 1e6) == pytest.approx(2.0497e-3, rel=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            lil_envelope(1.0, math.e)

    @given(theta=st.floats(0.01, 10.0), t_end=st.floats(16.0, 1e9))
    def test_ratio_to_asymptotic_std(self, theta, t_end):
        ratio = lil_envelope(theta, t_end) / asymptotic_std(theta, t_end)
        assert ratio == pytest.approx(math.sqrt(2.0 * math.log(math.log(t_end))), rel=1e-9)

    def test_ratio_grows_without_bound(self):
        ratios = [
            lil_envelope(1.0, t) / asymptotic_std(1.0, t) for t in (1e2, 1e4, 1e8, 1e16)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestStandardizedInvariants:
    """Desk-scale checks of the sqrt(T)-normality of the estimator."""

    def test_standardized_errors_exact_scheme(self):
        # small theta keeps the Ito-discretization bias well inside the gate
        theta, t_end, n = 0.4, 2000.0, 300
        z = np.empty(n)
        for r in range(n):
            est = estimate_theta_ito(_exact_path(theta, t_end, 0.02, seed=300_000 + r))
            z[r] = (est.theta_hat - theta) / asymptotic_std(theta, t_end)
        assert abs(z.mean()) <= 0.15
        assert 0.8 <= z.var(ddof=1) <= 1.2

    def test_emse_ratio_exact_scheme(self):
        theta, t_end, n = 0.4, 2000.0, 200
        sq = np.empty(n)
        for r in range(n):
            est = estimate_theta_ito(_exact_path(theta, t_end, 0.02, seed=400_000 + r))
            sq[r] = (theta - est.theta_hat) ** 2
        assert 0.6 <= sq.mean() * t_end / (2.0 * theta) <= 1.5
