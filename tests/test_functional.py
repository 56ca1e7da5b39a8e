import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from oufar import (
    DomainError,
    FunctionalSegment,
    GridMismatch,
    OuParams,
    TimeGrid,
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
    sample_exact,
    segment_path,
    trapezoid_quad,
)
from oufar.functional import _unit_moment

rates = st.floats(0.05, 5.0)
lengths = st.floats(0.1, 5.0)


@st.composite
def _near_reciprocals(draw):
    """The double nearest 1/n, n < 2000, or one of the few doubles beside it."""
    theta = 1.0 / draw(st.integers(1, 1999))
    for _ in range(draw(st.integers(0, 3))):
        theta = math.nextafter(theta, draw(st.sampled_from([0.0, math.inf])))
    return theta


def _segment(h, m, fn):
    grid = TimeGrid(t_end=h, dt=h / m)
    return FunctionalSegment(grid=grid, values=fn(grid.times()))


class TestSegmentation:
    def _path(self, theta=1.0, t_end=5.0, dt=0.02, seed=3):
        return sample_exact(
            OuParams(theta=theta), TimeGrid(t_end, dt), np.random.default_rng(seed), stationary=True
        )

    def test_whole_path_single_segment(self):
        path = self._path(t_end=2.0)
        segs = segment_path(path, 2.0)
        assert len(segs) == 1
        np.testing.assert_array_equal(segs[0].values, path.values)

    def test_counting(self):
        segs = segment_path(self._path(), 1.0)
        assert len(segs) == 5
        assert all(s.values.shape == (51,) for s in segs)

    def test_boundary_continuity_bit_exact(self):
        segs = segment_path(self._path(), 1.0)
        for prev, cur in zip(segs, segs[1:]):
            assert cur.values[0] == prev.values[-1]

    def test_misaligned_h_rejected(self):
        with pytest.raises(GridMismatch):
            segment_path(self._path(), 0.03)

    def test_too_short_rejected(self):
        with pytest.raises(GridMismatch):
            segment_path(self._path(t_end=2.0), 4.0)


class TestNorms:
    def test_h_norm_zero(self):
        assert h_norm(_segment(1.0, 50, lambda t: 0.0 * t)) == 0.0

    def test_h_norm_constant_one(self):
        # int_0^1 1 dt + 1^2 = 2
        assert h_norm(_segment(1.0, 50, lambda t: np.ones_like(t))) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_atom_indicator_norm(self):
        grid = TimeGrid(t_end=1.0, dt=1.0 / 10**4)
        x0 = atom_indicator(grid)
        # full quadrature picks up half a trapezoid cell from the last interval
        assert h_norm(x0) == pytest.approx(math.sqrt(1.0 + grid.dt / 2.0), rel=1e-12)

    def test_b_norm_zero(self):
        assert b_norm(_segment(1.0, 50, lambda t: 0.0 * t)) == 0.0

    def test_b_norm_decaying_exponential(self):
        assert b_norm(_segment(1.0, 50, lambda t: np.exp(-0.7 * t))) == 1.0

    def test_b_norm_sine_amplitude(self):
        # peak falls between nodes; recovered up to node resolution
        seg = _segment(1.0, 101, lambda t: 2.0 * np.sin(2.0 * math.pi * t))
        assert b_norm(seg) == pytest.approx(2.0, abs=5e-3)

    def test_trapezoid_matches_closed_form(self):
        grid = TimeGrid(t_end=2.0, dt=2.0 / 10**4)
        q = trapezoid_quad(np.exp(grid.times()), grid.dt)
        assert q == pytest.approx(math.exp(2.0) - 1.0, rel=1e-8)


class TestRhoOperator:
    def test_rejects_nonpositive_rate(self):
        x = atom_indicator(TimeGrid(1.0, 1.0 / 10))
        with pytest.raises(DomainError):
            apply_rho_power(0.0, 1, x)
        with pytest.raises(DomainError):
            apply_rho_power(-0.3, 1, x)

    def test_zero_endpoint_gives_zero_segment(self):
        x = _segment(1.0, 20, lambda t: np.sin(math.pi * t))  # sin(pi) node is ~0 but not exact
        x.values[-1] = 0.0
        out = apply_rho_power(1.0, 1, x)
        assert np.all(out.values == 0.0)

    def test_output_at_zero_is_endpoint(self):
        x = _segment(1.0, 20, lambda t: t + 0.3)
        out = apply_rho_power(2.3, 1, x)
        assert out.values[0] == x.values[-1]

    def test_point_value(self):
        x = _segment(1.0, 10, lambda t: 2.0 * np.ones_like(t))
        out = apply_rho_power(1.0, 1, x)
        assert out.values[-1] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_rank_one_ignores_interior(self):
        x = _segment(1.0, 30, lambda t: np.cos(t))
        y = FunctionalSegment(x.grid, x.values.copy())
        y.values[1:-1] = 1e6  # perturb everything except the endpoint
        out_x, out_y = apply_rho_power(0.8, 1, x), apply_rho_power(0.8, 1, y)
        assert out_x.values.tobytes() == out_y.values.tobytes()


class TestRhoPower:
    def test_power_one_matches_apply(self):
        x = _segment(1.0, 25, lambda t: t**2 + 1.0)
        np.testing.assert_array_equal(
            apply_rho_power(1.3, 1, x).values, np.exp(-1.3 * x.grid.times()) * x.end_value
        )

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_composition_oracle(self, k):
        x = _segment(0.5, 40, lambda t: np.sin(t) + 2.0)
        composed = x
        for _ in range(k):
            composed = apply_rho_power(0.9, 1, composed)
        np.testing.assert_allclose(
            apply_rho_power(0.9, k, x).values, composed.values, rtol=1e-12, atol=1e-15
        )

    def test_point_value(self):
        x = _segment(1.0, 10, lambda t: np.ones_like(t))
        out = apply_rho_power(0.4, 4, x)
        assert out.values[0] == pytest.approx(0.30119421, rel=1e-7)

    def test_rejects_bad_power(self):
        with pytest.raises(DomainError):
            apply_rho_power(1.0, 0, atom_indicator(TimeGrid(1.0, 1.0 / 10)))


class TestOperatorNormH:
    def test_value_one_at_half(self):
        for h in (0.5, 1.0, 5.0):
            assert rho_norm_h(0.5, 1, h) == 1.0

    def test_small_rate_limit(self):
        assert rho_norm_h(1e-8, 1, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_closed_form_point(self):
        assert rho_norm_h(0.4, 4, 1.0) == pytest.approx(0.3212582926823431, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.4, 1.0, 2.0])
    def test_discrete_oracle_agreement(self, theta):
        grid = TimeGrid(t_end=1.0, dt=1.0 / 10**4)
        for k in (1, 2, 5):
            closed = rho_norm_h(theta, k, 1.0)
            oracle = rho_norm_h_discrete(theta, k, grid)
            assert abs(oracle - closed) / closed <= 1e-6

    @pytest.mark.parametrize("k, norm", [(1, 0.3678794411714424), (3, 0.049787068367863965)])
    def test_discrete_oracle_where_twice_the_rate_overflows(self, k, norm):
        # 2 theta = inf: (2 theta) t was inf * 0 = NaN at t = 0, and theta (k - 1) inf
        grid = TimeGrid(t_end=1e-308, dt=1e-308 / 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = rho_norm_h_discrete(1e308, k, grid)
        assert rho_norm_h(1e308, k, 1e-308) == norm
        assert abs(oracle - norm) <= 1e-12 * norm

    def test_oracle_k_scaling_exact(self):
        grid = TimeGrid(t_end=1.0, dt=1.0 / 100)
        for k in (2, 3, 7):
            ratio = rho_norm_h_discrete(0.7, k, grid) / rho_norm_h_discrete(0.7, 1, grid)
            assert ratio == pytest.approx(math.exp(-0.7 * (k - 1)), rel=1e-14)

    def test_witness_attains_oracle(self):
        # indicator mass at the atom realizes the norm up to O(1/m)
        for theta in (0.4, 1.0, 2.0):
            grid = TimeGrid(t_end=1.0, dt=1.0 / 10**4)
            x0 = atom_indicator(grid)
            ratio = h_norm(apply_rho_power(theta, 1, x0)) / h_norm(x0)
            oracle = rho_norm_h_discrete(theta, 1, grid)
            assert abs(ratio - oracle) / oracle <= 1e-4

    @given(theta=rates, k=st.integers(1, 8), h=lengths)
    def test_k_scaling_identity(self, theta, k, h):
        lhs = rho_norm_h(theta, k, h)
        rhs = math.exp(-theta * (k - 1) * h) * rho_norm_h(theta, 1, h)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(theta=rates, k=st.integers(2, 8), h=lengths)
    def test_submultiplicative(self, theta, k, h):
        assert rho_norm_h(theta, k, h) <= rho_norm_h(theta, 1, h) ** k

    @pytest.mark.parametrize("h", [0.5, 1.0, 5.0])
    def test_contraction_threshold_equivalence(self, h):
        for theta in np.linspace(0.01, 5.0, 200):
            assert (rho_norm_h(float(theta), 1, h) < 1.0) == (theta > 0.5)


class TestOperatorNormB:
    def test_power_one_is_one(self):
        for theta in (0.1, 0.5, 1.0, 5.0):
            assert rho_norm_b(theta, 1, 2.0) == 1.0

    @given(theta=rates, k=st.integers(1, 10), h=lengths)
    def test_never_exceeds_one(self, theta, k, h):
        value = rho_norm_b(theta, k, h)
        assert value <= 1.0
        assert (value == 1.0) == (k == 1)

    def test_point_value(self):
        assert rho_norm_b(1.0, 3, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


class TestContractionPower:
    def test_examples(self):
        assert k0(0.4) == 4
        assert k0(1.0) == 2
        assert k0(2.0) == 2
        # the doubles nearest 1/3 and 1/7 lie below them: 1/theta is just above 3 and 7
        assert k0(0.3333333333333333) == 5
        assert k0(0.14285714285714285) == 9
        # the float 1/theta + 1 rounds to 1.0 from theta = 2^53 on
        assert k0(2.0**52) == k0(2.0**53) == k0(1e100) == 2

    def test_contract_holds(self):
        assert rho_norm_h(0.4, 4, 1.0) < 1.0
        for h in (0.1, 1.0, 10.0):
            assert rho_norm_h(2.0, 2, h) < 1.0

    @settings(max_examples=500)
    @given(theta=st.one_of(_near_reciprocals(), st.floats(-744.44, 709.78).map(math.exp)))
    @example(theta=0.3333333333333333)  # 1/theta rounds to 3.0: ceil(3.0) + 1 is one short
    @example(theta=0.14285714285714285)
    @example(theta=5e-324)
    def test_k0_of_the_double_it_is_given(self, theta):
        assume(0.0 < theta < math.inf)
        assert k0(theta) == math.ceil(1 / Fraction(theta)) + 1

    @given(theta=st.floats(0.01, 10.0), h=lengths)
    def test_norm_below_one_from_k0(self, theta, h):
        assert rho_norm_h(theta, k0(theta), h) < 1.0


class TestOperatorDistanceH:
    def test_zero_at_equal_rates(self):
        assert operator_distance_h(1.3, 1.3, 2.0) == 0.0

    def test_quadrature_oracle(self):
        theta, theta_hat, h = 1.0, 1.1, 1.0
        m = 10**5
        t = np.linspace(0.0, h, m + 1)
        g = (np.exp(-theta * t) - np.exp(-theta_hat * t)) ** 2
        quad = trapezoid_quad(g, h / m)
        brute = math.sqrt(quad + (math.exp(-theta * h) - math.exp(-theta_hat * h)) ** 2)
        assert operator_distance_h(theta, theta_hat, h) == pytest.approx(brute, rel=1e-8)

    @given(theta=rates, theta_hat=rates, h=lengths)
    def test_bounded_by_linear_bound(self, theta, theta_hat, h):
        assert operator_distance_h(theta, theta_hat, h) <= operator_distance_h_bound(
            theta, theta_hat, h
        )

    def test_tiny_rates(self):
        # (2 theta)^3 underflows to 0 in the Taylor moments; the distance tends to the bound
        assert operator_distance_h(1e-120, 2e-120, 1.0) == pytest.approx(
            operator_distance_h_bound(1e-120, 2e-120, 1.0), rel=1e-12
        )

    @pytest.mark.parametrize(
        "k, c, h", [(2, 1.0, 1.0), (2, 1e-120, 1.0), (2, 1e-120, 1e100), (4, 1e-70, 1e60)]
    )
    def test_exp_moment_quadrature_oracle(self, k, c, h):
        # int_0^h t^k e^{-c t} dt = h^(k+1) int_0^1 s^k e^{-c h s} ds, the latter by quadrature
        scaled, _ = integrate.quad(lambda s: s**k * math.exp(-c * h * s), 0.0, 1.0, epsrel=1e-13)
        moment = h ** (k + 1) * _unit_moment(k, c * h)  # int_0^h t^k e^{-c t} dt
        assert moment == pytest.approx(h ** (k + 1) * scaled, rel=1e-12)

    def test_bound_value(self):
        assert operator_distance_h_bound(1.0, 1.1, 1.0) == pytest.approx(0.11547005, rel=1e-7)
        assert operator_distance_h_bound(2.0, 2.0, 3.0) == 0.0


class TestOperatorDistanceB:
    def test_zero_at_equal_rates(self):
        assert operator_distance_b(0.7, 0.7, 1.0) == 0.0

    def test_grid_search_oracle(self):
        analytic = operator_distance_b(0.7, 1.0, 1.0)
        brute = operator_distance_b_grid(0.7, 1.0, 1.0, nodes=10**6)
        assert abs(analytic - brute) <= 1e-9

    def test_critical_point_beyond_h(self):
        # rates close together push t* past h; sup then sits at the endpoint
        theta, theta_hat, h = 1.0, 1.001, 0.1
        analytic = operator_distance_b(theta, theta_hat, h)
        brute = operator_distance_b_grid(theta, theta_hat, h, nodes=10**5)
        assert abs(analytic - brute) <= 1e-12

    def test_rate_ratio_underflows(self):
        # theta_hat / theta rounds to 0, whose logarithm is undefined
        analytic = operator_distance_b(1e300, 1e-30, 1e-298)
        brute = operator_distance_b_grid(1e300, 1e-30, 1e-298, nodes=10**4)
        assert analytic == pytest.approx(brute, abs=1e-12)

    @given(theta=rates, theta_hat=rates, h=lengths)
    def test_bounded_by_h_times_gap(self, theta, theta_hat, h):
        assert operator_distance_b(theta, theta_hat, h) <= h * abs(theta - theta_hat)


class TestFarApartRates:
    """(theta - theta_hat) h beyond ~709.78, where e^{(theta - theta_hat) h} overflows."""

    def test_h_quadrature_oracle(self):
        theta, theta_hat, h = 800.0, 1.0, 1.0
        integral, _ = integrate.quad(
            lambda t: (math.exp(-theta * t) - math.exp(-theta_hat * t)) ** 2, 0.0, h,
            points=[0.01], epsabs=0.0, epsrel=1e-13,
        )
        endpoint = (math.exp(-theta * h) - math.exp(-theta_hat * h)) ** 2
        expected = math.sqrt(integral + endpoint)
        assert operator_distance_h(theta, theta_hat, h) == pytest.approx(expected, rel=1e-10)

    def test_b_grid_search_oracle(self):
        # the sup sits at t* = ln 800 / 799, far inside [0, h]
        analytic = operator_distance_b(800.0, 1.0, 1.0)
        assert analytic == pytest.approx(operator_distance_b_grid(800.0, 1.0, 1.0), abs=1e-9)

    @example(theta=800.0, theta_hat=1.0, h=1.0)
    @given(theta=st.floats(0.05, 2000.0), theta_hat=st.floats(0.05, 2000.0), h=lengths)
    def test_linear_bounds_dominate(self, theta, theta_hat, h):
        # |theta - theta_hat| h up to 1e4; each distance also stays within its trivial bound
        dist_h = operator_distance_h(theta, theta_hat, h)
        dist_b = operator_distance_b(theta, theta_hat, h)
        assert dist_h <= operator_distance_h_bound(theta, theta_hat, h)
        assert dist_h <= math.sqrt(h + 1.0)
        assert dist_b <= min(h * abs(theta - theta_hat), 1.0)


class TestExponentialLipschitz:
    @given(u=st.floats(0.0, 50.0), v=st.floats(0.0, 50.0), t=st.floats(0.0, 100.0))
    def test_lipschitz_inequality(self, u, v, t):
        lhs = abs(math.exp(-u * t) - math.exp(-v * t))
        rhs = abs(u - v) * t
        # slack of a few ulps covers the two exp roundings at razor-thin gaps
        assert lhs <= rhs + 4e-16 * (1.0 + lhs)


class TestInnovation:
    def test_exact_autoregression_gives_zero(self):
        x_prev = _segment(1.0, 30, lambda t: np.cos(t) + 1.0)
        x_n = apply_rho_power(0.6, 1, x_prev)
        eps = innovation(x_n, x_prev, 0.6)
        assert np.all(eps.values == 0.0)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            innovation(_segment(1.0, 10, np.cos), _segment(1.0, 20, np.cos), 1.0)

    def test_starts_at_zero_for_path_segments(self):
        path = sample_exact(
            OuParams(theta=1.0), TimeGrid(20.0, 0.02), np.random.default_rng(5), stationary=True
        )
        segs = segment_path(path, 1.0)
        for n in range(1, len(segs)):
            assert innovation(segs[n], segs[n - 1], 1.0).values[0] == 0.0

    def test_variance_profile_matches_ito_isometry(self):
        # Var eps_n(t) = (1 - exp(-2 theta t)) / (2 theta) for unit scale
        theta = 1.0
        path = sample_exact(
            OuParams(theta=theta), TimeGrid(2000.0, 0.02), np.random.default_rng(11), stationary=True
        )
        segs = segment_path(path, 1.0)
        eps = np.array([innovation(segs[n], segs[n - 1], theta).values for n in range(1, len(segs))])
        times = segs[0].grid.times()
        for j in (10, 25, 50):
            theory = (1.0 - math.exp(-2.0 * theta * times[j])) / (2.0 * theta)
            se = theory * math.sqrt(2.0 / (eps.shape[0] - 1))
            assert abs(eps[:, j].var(ddof=1) - theory) <= 3.0 * se


class TestTruncatedMovingAverage:
    def test_block_average_residual_decays_geometrically(self):
        theta = 1.0
        path = sample_exact(
            OuParams(theta=theta), TimeGrid(2000.0, 0.02), np.random.default_rng(11), stationary=True
        )
        segs = segment_path(path, 1.0)
        grid = segs[0].grid
        eps = [None] + [innovation(segs[n], segs[n - 1], theta) for n in range(1, len(segs))]
        k_max = 5 * k0(theta)
        start = k_max + 1
        mean_residual = []
        for trunc in range(k_max + 1):
            total = 0.0
            for n in range(start, len(segs)):
                acc = np.zeros(grid.n_steps + 1)
                for k in range(trunc + 1):
                    e = eps[n - k]
                    acc += e.values if k == 0 else apply_rho_power(theta, k, e).values
                total += h_norm(FunctionalSegment(grid, segs[n].values - acc))
            mean_residual.append(total / (len(segs) - start))
        assert all(b < a for a, b in zip(mean_residual, mean_residual[1:]))
        quad_tol = grid.dt**2  # trapezoid error scale O((h/m)^2)
        assert mean_residual[-1] <= 10.0 * quad_tol
