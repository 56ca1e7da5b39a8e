import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import oufar
import oufar.ou_process as ou_process
from oufar import (
    DomainError,
    GridMismatch,
    OuParams,
    TimeGrid,
    conditional_moments,
    covariance,
    exact_transition,
    gaussian_tail_bound,
    sample_euler,
    sample_exact,
    stationary_density,
)
from oufar.ou_process import SCRATCH_VALUES, grid_multiple, scratch
from negated_noise import NegatedNoise
from zero_noise import ZeroNoise

params_st = st.builds(
    OuParams,
    theta=st.floats(0.05, 10.0),
    mu=st.floats(-5.0, 5.0),
    sigma=st.floats(0.1, 5.0),
)


class TestParams:
    def test_defaults(self):
        p = OuParams(theta=0.5)
        assert p.mu == 0.0 and p.sigma == 1.0

    @pytest.mark.parametrize("kwargs", [dict(theta=0.0), dict(theta=-1.0), dict(theta=1.0, sigma=0.0)])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(DomainError):
            OuParams(**kwargs)


class TestTimeGrid:
    def test_step_count(self):
        g = TimeGrid(t_end=5.0, dt=0.02)
        assert g.n_steps == 250
        assert g.times().shape == (251,)
        assert math.isclose(g.n_steps * g.dt, g.t_end, rel_tol=1e-12)

    def test_rejects_misaligned(self):
        with pytest.raises(GridMismatch):
            TimeGrid(t_end=1.0, dt=0.3)

    @given(
        st.one_of(st.floats(1e-6, 1e6), st.integers(1, 10**6).map(lambda n: n * 0.02)),
        st.sampled_from([0.02, 0.1, 0.3, 1.0, 7.0, 1e-3]),
    )
    def test_grid_multiple_matches_former_checks(self, value, step):
        # the rule TimeGrid, segment_path and the experiment config each spelled out before
        ratio = value / step
        n = int(round(ratio))
        expected = n if n >= 1 and abs(ratio - n) <= 1e-9 * max(ratio, 1.0) else None
        assert grid_multiple(value, step) == expected

    @pytest.mark.parametrize("value, step", [(1e300, 1e-10), (1e308, 1e-308), (1.0, 5e-324)])
    def test_grid_multiple_of_an_infinite_ratio_is_none(self, value, step):
        assert math.isinf(value / step)
        assert grid_multiple(value, step) is None
        with pytest.raises(GridMismatch):
            TimeGrid(t_end=value, dt=step)

    def test_path_length_validated(self):
        from oufar import SamplePath

        with pytest.raises(GridMismatch):
            SamplePath(TimeGrid(1.0, 0.5), np.zeros(5))
        with pytest.raises(ValueError):
            SamplePath(TimeGrid(1.0, 0.5), np.array([0.0, np.inf, 0.0]))


class TestStationaryDensity:
    def test_value_at_mean(self):
        assert stationary_density(OuParams(theta=0.5), 0.0) == pytest.approx(
            math.sqrt(0.5 / math.pi), rel=1e-12
        )

    @given(params=params_st, a=st.floats(0.0, 10.0))
    def test_symmetric_about_mu(self, params, a):
        assert stationary_density(params, params.mu + a) == pytest.approx(
            stationary_density(params, params.mu - a), rel=1e-12
        )

    @pytest.mark.parametrize("theta,sigma", [(0.5, 1.0), (2.0, 0.7), (0.1, 3.0)])
    def test_integrates_to_one(self, theta, sigma):
        p = OuParams(theta=theta, mu=0.3, sigma=sigma)
        lim = 10.0 * p.stationary_std
        total, _ = integrate.quad(lambda x: stationary_density(p, x), p.mu - lim, p.mu + lim)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("theta,sigma", [(0.5, 1.0), (5.0, 1.0), (0.3, 2.0)])
    def test_variance_by_quadrature(self, theta, sigma):
        p = OuParams(theta=theta, sigma=sigma)
        lim = 12.0 * p.stationary_std
        var, _ = integrate.quad(lambda x: x * x * stationary_density(p, x), -lim, lim)
        assert var == pytest.approx(p.stationary_variance, rel=1e-7)
        assert covariance(p, 3.0, 3.0) == pytest.approx(var, rel=1e-7)


class TestCovariance:
    def test_equal_times(self):
        assert covariance(OuParams(theta=5.0), 2.0, 2.0) == pytest.approx(0.1, rel=1e-12)

    @given(params=params_st, t=st.floats(-50.0, 50.0), s=st.floats(-50.0, 50.0))
    def test_symmetric(self, params, t, s):
        assert covariance(params, t, s) == covariance(params, s, t)


class TestConditionalMoments:
    def test_conditioning_point(self):
        mean, _ = conditional_moments(OuParams(theta=0.7, mu=1.5), c=-2.0, t=0.0, s=0.0)
        assert mean == pytest.approx(-2.0, rel=1e-12)

    def test_long_run_limits(self):
        p = OuParams(theta=1.0, mu=0.5)
        mean, cov = conditional_moments(p, c=4.0, t=500.0, s=500.0)
        assert mean == pytest.approx(p.mu, abs=1e-12)
        assert cov == pytest.approx(p.stationary_variance, abs=1e-12)

    def test_closed_form_point(self):
        mean, cov = conditional_moments(OuParams(theta=1.0), c=2.0, t=1.0, s=1.0)
        assert mean == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        assert cov == pytest.approx(0.5 * (1.0 - math.exp(-2.0)), rel=1e-12)

    def test_no_variance_at_the_conditioning_time(self):
        # 0 whatever c: an expanded (c - mu)^2 would also lose c - mu = 1 beside mu = 1e8
        assert conditional_moments(OuParams(theta=1.0, mu=1e8), c=1e8 + 1, t=0.0, s=0.0)[1] == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            conditional_moments(OuParams(theta=1.0), c=0.0, t=-1.0, s=0.0)


class TestGaussianTailBound:
    def test_boundary(self):
        assert gaussian_tail_bound(1.0, 0.0) == 1.0

    def test_against_normal_cdf(self):
        assert gaussian_tail_bound(1.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert gaussian_tail_bound(1.0, 1.0) >= 2.0 * stats.norm.cdf(-1.0)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_dominates_exact_tail_on_grid(self, sigma):
        x = np.arange(0.0, 5.0001, 0.1)
        exact = 2.0 * stats.norm.sf(x / sigma)
        assert np.all(gaussian_tail_bound(sigma, x) >= exact)


class TestSamplers:
    def test_drift_skeleton(self):
        # with increments forced to zero the recursion is xi_i = x0 (1 - theta dt)^i
        p = OuParams(theta=0.5)
        g = TimeGrid(t_end=1.0, dt=0.1)
        path = sample_euler(p, g, ZeroNoise(np.random.default_rng(0)), x0=2.0)
        expected = 2.0 * (1.0 - 0.5 * 0.1) ** np.arange(11)
        np.testing.assert_allclose(path.values, expected, rtol=1e-12)

    def test_euler_tail_variance(self):
        path = sample_euler(OuParams(theta=5.0), TimeGrid(5.0, 0.02), np.random.default_rng(42))
        tail_var = float(np.var(path.values[50:]))
        # stationary variance is 0.1; one short path has ~20 effective samples
        assert 0.05 <= tail_var <= 0.2

    def test_euler_terminal_mean_matches_conditional_oracle(self):
        p = OuParams(theta=1.0)
        g = TimeGrid(1.0, 0.005)
        terminal = np.array(
            [sample_euler(p, g, np.random.default_rng(1000 + r), x0=2.0).values[-1] for r in range(10_000)]
        )
        mean_oracle, _ = conditional_moments(p, c=2.0, t=1.0, s=1.0)
        se = terminal.std(ddof=1) / math.sqrt(terminal.size)
        assert abs(terminal.mean() - mean_oracle) <= 3.0 * se

    def test_exact_transition_degenerate_step(self):
        decay, sd = exact_transition(OuParams(theta=3.0), 0.0)
        assert decay == 1.0 and sd == 0.0
        # one step with these coefficients leaves the state unchanged
        assert decay * 1.7 + sd * 0.0 == 1.7

    def test_exact_stationary_lag_covariance(self):
        p = OuParams(theta=1.0)
        g = TimeGrid(5.0, 0.02)
        reps = 4000
        values = np.empty((reps, g.n_steps + 1))
        for r in range(reps):
            values[r] = sample_exact(p, g, np.random.default_rng(50_000 + r), stationary=True).values
        for lag in (0.0, 0.5, 1.0, 2.0, 5.0):
            j = int(round(lag / g.dt))
            products = values[:, 0] * values[:, j]
            se = products.std(ddof=1) / math.sqrt(reps)
            assert abs(products.mean() - covariance(p, 0.0, lag)) <= 3.0 * se

    def test_exact_paths_from_a_point_match_the_conditional_moments(self):
        p = OuParams(theta=1.0, mu=0.5, sigma=1.3)
        g = TimeGrid(2.0, 0.02)
        reps, c = 4000, 2.0
        values = np.empty((reps, g.n_steps + 1))
        for r in range(reps):
            values[r] = sample_exact(p, g, np.random.default_rng(70_000 + r), x0=c).values
        for t, s in ((1.0, 1.0), (0.5, 2.0)):
            i, j = int(round(t / g.dt)), int(round(s / g.dt))
            mean_t, cov_ts = conditional_moments(p, c, t, s)
            mean_s, _ = conditional_moments(p, c, s, s)
            products = (values[:, i] - mean_t) * (values[:, j] - mean_s)
            se = products.std(ddof=1) / math.sqrt(reps)
            assert abs(products.mean() - cov_ts) <= 3.0 * se

    @pytest.mark.parametrize("sampler,kwargs", [(sample_euler, {"x0": 0.0}), (sample_exact, {"stationary": True})])
    def test_bit_determinism(self, sampler, kwargs):
        p = OuParams(theta=0.7)
        g = TimeGrid(10.0, 0.02)
        a = sampler(p, g, np.random.default_rng(123), **kwargs)
        b = sampler(p, g, np.random.default_rng(123), **kwargs)
        assert a.values.tobytes() == b.values.tobytes()

    def test_exact_zero_noise_decays_deterministically(self):
        p = OuParams(theta=2.0)
        g = TimeGrid(1.0, 0.25)
        path = sample_exact(p, g, ZeroNoise(np.random.default_rng(0)), x0=1.0)
        np.testing.assert_allclose(path.values, np.exp(-2.0 * g.times()), rtol=1e-12)


def _loop_values(params, grid, seed, scheme, x0, stationary, zero_noise):
    """xi_{i+1} = a xi_i + u_i in a plain Python loop, u_i in the whole-block operation order.

    Euler: u_i = theta mu dt + sigma (Z_i sqrt(dt)); exact: u_i = mu (1 - decay) + Z_i sd,
    with a zero in place of the noise term under zero_noise.
    """
    rng = np.random.default_rng(seed)
    n, dt = grid.n_steps, grid.dt
    if scheme == "euler":
        a, shift, scale = 1.0 - params.theta * dt, params.theta * params.mu * dt, math.sqrt(dt)
        noise = lambda z: params.sigma * (z * scale)  # noqa: E731
    else:
        a, sd = exact_transition(params, dt)
        shift = params.mu * (1.0 - a)
        noise = lambda z: z * sd  # noqa: E731
        if stationary:
            x0 = params.mu + params.stationary_std * rng.standard_normal()
    x = float(x0)
    out = [x]
    draws = [0.0] * n if zero_noise else [float(z) for z in rng.standard_normal(n)]
    for z in draws:
        x = a * x + (shift + (0.0 if zero_noise else noise(z)))
        out.append(x)
    return np.array(out)


@st.composite
def _loop_cases(draw):
    params = OuParams(
        theta=draw(st.floats(0.05, 10.0)),
        mu=draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0))),
        sigma=draw(st.one_of(st.just(1.0), st.floats(0.1, 5.0))),
    )
    n = draw(st.integers(1, 300))
    x0 = draw(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10.0, 10.0)))
    scheme = draw(st.sampled_from(["euler", "exact"]))
    stationary = scheme == "exact" and draw(st.booleans())
    return params, n, x0, scheme, stationary, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def _documented_loop(x0, a, u, n):
    """The arithmetic ``_ar1.c`` documents: y_0 = 0.0 + x0, y_i = a y_{i-1} + (u_{i-1} 0.0 + u_i).

    u_0 is x0, and xi_0 is x0 itself, -0.0 included.
    """
    y, prev, out = 0.0 + x0, x0, [x0]
    for _ in range(n):
        y = a * y + (prev * 0.0 + u)
        prev = u
        out.append(y)
    return np.array(out)


def _plain_loop(x0, a, u, n):
    x, out = x0, [x0]
    for _ in range(n):
        x = a * x + u
        out.append(x)
    return np.array(out)


# (scheme, theta, x0) at dt = 0.02: Euler a = 1 - theta dt > 0 and < 0 (theta dt = 1.5),
# exact a > 0, each from both zeros
_NEGATIVE_ZERO_CASES = [(scheme, theta, x0) for scheme, theta in
                        (("euler", 1.0), ("euler", 75.0), ("exact", 1.0)) for x0 in (0.0, -0.0)]


def _negative_zero_path(scheme, theta, x0, n=6):
    """(values, a, u) of a path with mu = -0.0 and every normal -0.0: every innovation u is -0.0."""
    params, grid = OuParams(theta=theta, mu=-0.0), TimeGrid(t_end=n * 0.02, dt=0.02)
    rng = NegatedNoise(ZeroNoise(np.random.default_rng(0)))
    if scheme == "euler":
        a = 1.0 - theta * grid.dt
        u = -0.0 * math.sqrt(grid.dt) * params.sigma + theta * params.mu * grid.dt
        path = sample_euler(params, grid, rng, x0=x0)
    else:
        a, sd = exact_transition(params, grid.dt)
        u = -0.0 * sd + params.mu * (1.0 - a)
        path = sample_exact(params, grid, rng, x0=x0)
    assert math.copysign(1.0, u) == -1.0
    return path.values, a, u


class TestLoopOracle:
    """Both samplers equal a scalar recursion bit for bit, signed zeros included.

    The plain loop ``x = a x + u`` holds where no innovation is -0.0; where every
    one is, the loop that ``_ar1.c`` documents holds and the plain one may not.
    """

    @settings(max_examples=300, deadline=None)
    @given(_loop_cases())
    def test_sampler_matches_python_loop(self, case):
        params, n, x0, scheme, stationary, zero_noise, seed = case
        grid = TimeGrid(t_end=n * 0.02, dt=0.02)
        rng = np.random.default_rng(seed)
        if zero_noise:
            rng = ZeroNoise(rng)
        if scheme == "euler":
            path = sample_euler(params, grid, rng, x0=x0)
        else:
            path = sample_exact(params, grid, rng, x0=x0, stationary=stationary)
        expected = _loop_values(params, grid, seed, scheme, x0, stationary, zero_noise)
        assert path.values.tobytes() == expected.tobytes()
        if not stationary:
            assert math.copysign(1.0, path.values[0]) == math.copysign(1.0, x0)

    @pytest.mark.parametrize("scheme,theta,x0", _NEGATIVE_ZERO_CASES)
    def test_negative_zero_innovations_follow_the_documented_loop(self, scheme, theta, x0):
        values, a, u = _negative_zero_path(scheme, theta, x0)
        assert values.tobytes() == _documented_loop(x0, a, u, values.size - 1).tobytes()

    def test_the_plain_loop_differs_in_a_zero_sign(self):
        # the cases above pin the sign rule: the plain loop misses it in some zero's sign
        differ = []
        for scheme, theta, x0 in _NEGATIVE_ZERO_CASES:
            values, a, u = _negative_zero_path(scheme, theta, x0)
            plain = _plain_loop(x0, a, u, values.size - 1)
            assert np.array_equal(values, plain)  # every value is a zero
            differ.append(values.tobytes() != plain.tobytes())
        assert any(differ)


def _run_fresh(code: str):
    """Run ``code`` in a fresh interpreter that imports oufar from this tree; its last stdout line as JSON."""
    src = str(Path(oufar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_HEAVY = ("scipy.signal", "scipy.stats", "scipy.special")


class TestLeanImports:
    """Each command loads only the scipy code it runs."""

    def test_cli_import_and_predictor_bound_load_no_scipy_subpackage(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"thetas": [1.0], "horizons": [10.0], "replicates": 2}))
        loaded = _run_fresh(f"""
import json, sys
import oufar.cli
def heavy():
    return sorted(m for m in sys.modules if m.startswith({_HEAVY!r}))
after_import = heavy()
code = oufar.cli.main(["experiment", "predictor-bound", "--config", {str(tmp_path / "cfg.json")!r},
                       "--out", {str(tmp_path / "out")!r}, "--threads", "2"])
print(json.dumps([after_import, heavy(), code]))
""")
        # the experiment's one scipy module is the recursion's extension
        assert loaded == [[], ["scipy.signal._sigtools"], 0]

    def test_direct_filter_equals_public_lfilter_and_is_reused(self):
        same, reused, public_loaded_first = _run_fresh("""
import json, sys
import numpy as np
from oufar import ou_process
x = np.random.default_rng(5).standard_normal(100001)
x[::7] = -0.0
x[::11] = 0.0
b, a = [1.0], [1.0, -0.98]
direct = ou_process.lfilter(b, a, x)
zeros = ou_process.lfilter(b, a, np.full(9, -0.0))
loaded = sys.modules["scipy.signal._sigtools"]
public_loaded_first = "scipy.signal" in sys.modules
import scipy.signal
from scipy.signal import _sigtools
same = (direct.tobytes() == scipy.signal.lfilter(b, a, x).tobytes()
        and zeros.tobytes() == scipy.signal.lfilter(b, a, np.full(9, -0.0)).tobytes())
print(json.dumps([same, _sigtools is loaded, public_loaded_first]))
""")
        assert same and reused and not public_loaded_first

    def test_second_long_stream_barely_faults(self):
        # 2^21 steps = 32 chunks; chunk temporaries freed to the top of the heap
        # would be trimmed and faulted back in on every chunk
        faults, heavy = _run_fresh(f"""
import json, resource, sys
import numpy as np
from oufar.experiments import ExperimentConfig, _stream_path
from oufar.ou_process import OuParams
config = ExperimentConfig(thetas=(1.0,), horizons=(2.0**19,), dt=0.25)
def stream():
    return _stream_path(config, OuParams(theta=1.0), 2**21, 0, np.random.default_rng(3))
stream()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
stream()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([faults, sorted(m for m in sys.modules if m.startswith({_HEAVY!r}))]))
""")
        assert heavy == ["scipy.signal._sigtools"]
        assert faults < 500


class TestSpecialUfuncs:
    """ndtr and gammainc come from scipy.special's ufunc extension alone, with the bits
    of the public scipy.special, whether it loads by file or falls back."""

    @pytest.mark.parametrize("argv, expected", [
        (["experiment", "normality"], ["scipy.signal._sigtools", "scipy.special._special_ufuncs"]),
        (["norms", "--theta", "1", "--h", "1", "--theta-hat", "1.0001"],  # the gammainc form
         ["scipy.special._special_ufuncs"]),
        (["norms", "--theta", "1", "--h", "1", "--theta-hat", "1"], []),  # equal rates: 0.0
    ], ids=["normality", "norms-near-rates", "norms-equal-rates"])
    def test_commands_load_only_the_ufunc_extension(self, tmp_path, argv, expected):
        (tmp_path / "cfg.json").write_text(json.dumps({"thetas": [1.0], "horizons": [10.0], "replicates": 4}))
        if argv[0] == "experiment":
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        loaded = _run_fresh(f"""
import json, sys
import oufar.cli
code = oufar.cli.main({[*argv, "--out", str(tmp_path / "out")]!r})
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith({_HEAVY!r}))]))
""")
        assert loaded == [0, expected]

    def test_public_ufuncs_are_the_loaded_ones(self):
        same, equal = _run_fresh("""
import json, sys
import numpy as np
from oufar.ou_process import _special_ufunc
ndtr, gammainc = _special_ufunc("ndtr"), _special_ufunc("gammainc")
loaded = sys.modules["scipy.special._special_ufuncs"]
public_loaded_first = "scipy.special" in sys.modules
import scipy.special
x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 40.0, -40.0],
                    10.0 * np.random.default_rng(8).standard_normal(10**6)])
a = np.random.default_rng(9).uniform(0.5, 6.0, x.size)
x_pos = np.where(x < 0.0, -x, x)  # gammainc(a, x) needs x >= 0; keeps -0.0
same = [scipy.special.ndtr is ndtr, scipy.special.gammainc is gammainc,
        sys.modules["scipy.special._special_ufuncs"] is loaded, not public_loaded_first]
equal = [ndtr(x).tobytes() == scipy.special.ndtr(x).tobytes(),
         gammainc(a, x_pos).tobytes() == scipy.special.gammainc(a, x_pos).tobytes()]
print(json.dumps([same, equal]))
""")
        assert same == [True] * 4 and equal == [True, True]

    _CALLS = """
import importlib.machinery, json, sys
import numpy as np
from oufar.experiments import ks_distance
from oufar.functional import _unit_moment
if {hide}:
    find_spec = importlib.machinery.PathFinder.find_spec.__func__

    def hidden(cls, name, path=None, target=None):
        # oufar's by-file lookup finds nothing; the public import still finds the file
        if sys._getframe(1).f_globals.get("__name__") == "oufar.ou_process":
            return None
        return find_spec(cls, name, path, target)

    importlib.machinery.PathFinder.find_spec = classmethod(hidden)
z = np.random.default_rng(4).standard_normal(1001)
z[:4] = [0.0, -0.0, 5e-324, -40.0]
# the last moment's c^3 underflows, but not its x = c h
values = [ks_distance(z)] + [_unit_moment(k, c * h) for k, c, h in
                             [(2, 2.0, 1.0), (3, 0.5, 1.5), (4, 2e-3, 1.0), (2, 1e-110, 1e100)]]
print(json.dumps([[v.hex() for v in values], "scipy.special" in sys.modules]))
"""

    def test_missing_extension_falls_back_to_the_public_import(self):
        by_file, public_unused = _run_fresh(self._CALLS.format(hide=False))
        fallback, public_used = _run_fresh(self._CALLS.format(hide=True))
        assert not public_unused and public_used
        assert fallback == by_file


def _filter_cases():
    values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
    return st.tuples(
        st.lists(values, min_size=1, max_size=200),
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.5, 1.5)),
    )


class TestRecursionRoutes:
    """The directly loaded filter, the public fallback and scipy.signal.lfilter agree."""

    @settings(max_examples=200, deadline=None)
    @given(_filter_cases())
    def test_routes_agree_byte_for_byte(self, case):
        from scipy.signal import lfilter as public

        values, a = case
        x = np.array(values)
        direct = ou_process._scipy(ou_process._SIGTOOLS, "_linear_filter", "scipy.signal.lfilter")
        fallback = ou_process._scipy("scipy.signal._no_such_extension", "_linear_filter",
                                     "scipy.signal.lfilter")
        assert fallback is public and direct is not public
        expected = public([1.0], [1.0, -a], x).tobytes()
        # the positional arguments lfilter passes to either route
        args = (np.atleast_1d([1.0]), np.atleast_1d([1.0, -a]), x, -1)
        assert direct(*args).tobytes() == expected
        assert fallback(*args).tobytes() == expected
        assert ou_process.lfilter([1.0], [1.0, -a], x).tobytes() == expected


class TestScratch:
    """Chunk temporaries share one buffer per thread; nothing returned aliases it."""

    @staticmethod
    def _buffer():
        scratch(1)
        return ou_process._thread.buffer

    @pytest.mark.parametrize("n_steps", [10, SCRATCH_VALUES - 1, SCRATCH_VALUES + 5])
    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_paths_and_estimates_do_not_alias_scratch(self, n_steps, scheme):
        from oufar import theta_ito_from_values

        sampler = sample_euler if scheme == "euler" else sample_exact
        grid = TimeGrid(t_end=n_steps * 0.02, dt=0.02)
        first = sampler(OuParams(theta=1.0), grid, np.random.default_rng(1))
        kept = first.values.copy()
        est = theta_ito_from_values(first.values, grid.dt)
        second = sampler(OuParams(theta=1.0), grid, np.random.default_rng(2))
        buffer = self._buffer()
        assert not np.shares_memory(first.values, buffer)
        assert not np.shares_memory(second.values, buffer)
        assert first.values.tobytes() == kept.tobytes()
        assert est == theta_ito_from_values(kept, grid.dt)

    def test_long_requests_allocate(self):
        buffer = self._buffer()
        assert np.shares_memory(scratch(SCRATCH_VALUES), buffer)
        assert scratch(SCRATCH_VALUES).size == SCRATCH_VALUES
        assert not np.shares_memory(scratch(SCRATCH_VALUES + 1), buffer)
        assert scratch(SCRATCH_VALUES + 1).size == SCRATCH_VALUES + 1

    def test_each_thread_has_its_own_buffer(self):
        seen = []
        worker = threading.Thread(target=lambda: seen.append(self._buffer()))
        worker.start()
        worker.join(timeout=10)
        assert len(seen) == 1 and not np.shares_memory(seen[0], self._buffer())


def _fused_kernel():
    """This process's checked C functions of ``_ar1.c``; the caller is skipped only where no cc exists."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler cc on PATH")
    kernel = ou_process._ar1_kernel()
    assert kernel is not None, "cc is on PATH, but _ar1.c failed its build, load or probe"
    return kernel


def _fused_loop():
    """This process's checked C loop of ``_ar1.c`` (see ``_fused_kernel``)."""
    return _fused_kernel().ar1


@st.composite
def _route_cases(draw):
    n = draw(st.one_of(st.sampled_from([1, 2, 2**16]), st.integers(1, 2**16)))
    x0 = draw(st.one_of(st.sampled_from([0.0, -0.0, 1e6, -1e6]), st.floats(-10.0, 10.0)))
    a = draw(st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True)))
    dt = draw(st.floats(1e-4, 1.0))
    factors = draw(st.sampled_from(["euler", "exact", "underflow"]))
    if factors == "euler":
        scales = (math.sqrt(dt), draw(st.floats(0.1, 5.0)))  # sqrt(dt), then sigma
    elif factors == "exact":
        scales = (draw(st.floats(1e-3, 5.0)),)  # sd (the loop's second factor is 1.0)
    else:  # an innovation is the shift or a zero of Z's sign, which lfilter's delay state keeps
        scales = (1e-200, 1e-200)
    shift = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0)))
    return n, x0, a, scales, shift, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def _fake_cc(bin_dir: Path, body: str) -> None:
    """A ``cc`` in ``bin_dir`` that runs the sh ``body``."""
    bin_dir.mkdir(exist_ok=True)
    cc = bin_dir / "cc"
    cc.write_text(f"#!/bin/sh\n{body}\n")
    cc.chmod(0o755)


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _faulty_draw(load, fault):
    """A ``_load_ar1`` whose loop flips one value's last bit, lags one step, or (None) is right."""
    import ctypes

    def load_wrapped():
        kernel = load()

        def wrapped(a, s1, s2, shift, data, n, pcg):
            kernel.ar1(a, s1, s2, shift, data, n, pcg)
            if fault == "a flipped bit":
                ctypes.c_uint64.from_address(data + 8 * (n - 1)).value ^= 1
            elif fault:  # step back: state = (state - inc) / multiplier mod 2^128
                words = (ctypes.c_uint64 * 4).from_address(pcg)
                state, inc = words[1] << 64 | words[0], words[3] << 64 | words[2]
                state = (state - inc) * pow(_PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
                words[0], words[1] = state & (1 << 64) - 1, state >> 64
        return kernel._replace(ar1=wrapped)
    return load_wrapped


def _model_sum(terms, lanes=8, mod8=True):
    """float64 np.add.reduce's pairwise order over the list ``terms``, or a variant of it.

    ``lanes`` is the accumulator count of a run of 8-128 terms; ``mod8=False`` splits a
    longer run at n/2 instead of n/2 - (n/2) % 8.
    """
    n = len(terms)
    if n < 8:
        total = -0.0
        for t in terms:
            total += t
        return total
    if n <= 128:
        r, i = list(terms[:lanes]), lanes
        while i < n - n % lanes:
            for j in range(lanes):
                r[j] += terms[i + j]
            i += lanes
        while len(r) > 1:  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            r = [r[k] + r[k + 1] for k in range(0, len(r), 2)]
        total = r[0]
        for t in terms[i:]:
            total += t
        return total
    half = n // 2 - (n // 2) % 8 if mod8 else n // 2
    return _model_sum(terms[:half], lanes, mod8) + _model_sum(terms[half:], lanes, mod8)


def _sequential_sum(terms):
    total = 0.0
    for t in terms:
        total += t
    return total


# np.sum's order and seed (None), and four wrong ones
_SUM_FAULTS = {
    None: lambda terms: 0.0 + _model_sum(terms),
    "a split at n/2": lambda terms: 0.0 + _model_sum(terms, mod8=False),
    "4 accumulators": lambda terms: 0.0 + _model_sum(terms, lanes=4),
    "a sequential sum": _sequential_sum,
    "a -0.0 seed": lambda terms: -0.0 + _model_sum(terms),
}


def _python_sums(fault):
    """An ``oufar_ito_sums`` in Python that sums as np.sum does (fault None) or wrongly."""
    import ctypes

    def sums(data, n, out):
        v = np.ctypeslib.as_array((ctypes.c_double * (n + 1)).from_address(data))
        left = v[:-1]
        with np.errstate(all="ignore"):
            terms = (left * (v[1:] - left)).tolist(), (left * left).tolist()
        result = (ctypes.c_double * 2).from_address(out)
        result[0], result[1] = (_SUM_FAULTS[fault](t) for t in terms)
    return sums


def _bits(*xs) -> bytes:
    return np.array(xs, dtype=np.float64).tobytes()


def _numpy_estimate_bits(values) -> bytes:
    """The Ito numerator and sum of squares of one np.sum over numpy's products."""
    left = values[:-1]
    with np.errstate(all="ignore"):
        return _bits(-np.sum(left * (values[1:] - left)), np.sum(left * left))


# the ziggurat's tail starts at r: a normal at least this far from 0 came from the tail
_TAIL_START = 3.6541528853610088


def _probe_generator(seed):
    """The generator of the probe's case at ``seed``: seed 1's holds a buffered half word."""
    rng = np.random.default_rng(seed)
    if seed == 1:
        rng.integers(10, dtype=np.uint32)
    return rng


def _reference_draw(seed, n, x0, a, scales, shift, buffered):
    """(path, generator) of ``standard_normal(out=)``, ``_scipy_ar1``: the fused route's reference."""
    rng = np.random.default_rng(seed)
    if buffered:  # leaves half of a 64-bit word in the state's uinteger
        rng.integers(0, 10, dtype=np.uint32)
    v = np.empty(n + 1)
    v[0] = x0
    rng.standard_normal(out=v[1:])
    return ou_process._scipy_ar1(v, a, scales, shift), rng


class TestFusedDraw:
    """The loop's own PCG64 draw leaves the bits and the state of ``standard_normal``."""

    @settings(max_examples=200, deadline=None)
    @given(_route_cases())
    def test_fused_route_equals_standard_normal_then_the_scipy_route(self, case):
        n, x0, a, scales, shift, buffered, seed = case
        expected, numpy = _reference_draw(seed, n, x0, a, scales, shift, buffered)
        rng = np.random.default_rng(seed)
        if buffered:
            rng.integers(0, 10, dtype=np.uint32)
        v = np.full(n + 1, np.nan)  # v[1:] are not read
        v[0] = x0
        ou_process._fused_ar1(_fused_loop(), v, a, scales, shift, rng.bit_generator)
        assert v.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == numpy.bit_generator.state

    def test_the_probe_takes_the_wedge_and_the_tail(self, monkeypatch):
        _fused_loop()
        counts = []
        fused_ar1 = ou_process._fused_ar1

        def counted(*args):
            counts.append(fused_ar1(*args))
            return counts[-1]

        monkeypatch.setattr(ou_process, "_fused_ar1", counted)
        monkeypatch.setattr(ou_process, "_kernel", [])
        assert ou_process.ar1_route() == "fused"
        assert len(counts) == len(ou_process._PROBE_CASES)
        for (seed, steps, *_), (wedges, tails) in zip(ou_process._PROBE_CASES, counts):
            # every tail draw, and no other, is at least r = 3.654... from 0
            z = _probe_generator(seed).standard_normal(steps)
            assert wedges > 0 and tails > 0
            assert tails == np.count_nonzero(np.abs(z) >= _TAIL_START)

    def test_the_probe_draws_both_words_of_a_pair_slow_and_a_last_word_alone(self):
        # the loop draws steps 1-2, 3-4, ... as pairs: a slow path at an odd step moves the
        # second word of its pair, one at an even step the next pair; an odd count leaves
        # the last step alone
        tail_steps = []
        for seed, steps, *_ in ou_process._PROBE_CASES:
            z = _probe_generator(seed).standard_normal(steps)
            tail_steps.extend(np.flatnonzero(np.abs(z) >= _TAIL_START) + 1)
        assert {step % 2 for step in tail_steps} == {0, 1}
        odd = [case for case in ou_process._PROBE_CASES if case[1] % 2]
        assert len(odd) == 1
        seed, steps, a, scales, shift, x0 = odd[0]

        def slow_paths(n):
            v = np.empty(n + 1)
            v[0] = x0
            rng = _probe_generator(seed)
            return sum(ou_process._fused_ar1(_fused_loop(), v, a, scales, shift, rng.bit_generator))

        assert slow_paths(steps) == slow_paths(steps - 1) + 1  # the last word alone is slow

    @pytest.mark.parametrize("tail_step", [1, 2])
    def test_tiny_paths_that_start_in_the_tail(self, tail_step):
        # the first seed whose normal at tail_step comes from the tail, then 1, 2 and 3 steps:
        # a last word alone, a pair, a pair and a last word
        seed = next(s for s in itertools.count()
                    if abs(np.random.default_rng(s).standard_normal(tail_step)[-1]) >= _TAIL_START)
        for n in (1, 2, 3):
            expected, numpy = _reference_draw(seed, n, -0.0, 0.5, (1.3,), 0.0, False)
            rng = np.random.default_rng(seed)
            v = np.full(n + 1, np.nan)
            v[0] = -0.0
            _, tails = ou_process._fused_ar1(_fused_loop(), v, 0.5, (1.3,), 0.0, rng.bit_generator)
            assert v.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == numpy.bit_generator.state
            z = np.random.default_rng(seed).standard_normal(n)
            assert tails == np.count_nonzero(np.abs(z) >= _TAIL_START) >= (n >= tail_step)

    def test_underflowing_factors_keep_the_zero_signs(self):
        # the probe's last case: every innovation is a zero of Z's sign, every value a zero
        seed, steps, a, scales, shift, x0 = ou_process._PROBE_CASES[-1]
        assert scales == (1e-200, 1e-200) and steps == ou_process._PROBE_STEPS
        rng = np.random.default_rng(seed)
        v = np.empty(steps + 1)
        v[0] = x0
        ou_process._fused_ar1(_fused_loop(), v, a, scales, shift, rng.bit_generator)
        expected, _ = _reference_draw(seed, steps, x0, a, scales, shift, False)
        assert v.tobytes() == expected.tobytes()
        assert not v.any()
        assert np.count_nonzero(np.signbit(v)) == 1341  # and 6852 of +0.0
        y, plain = x0, [x0]  # y = a y + u without lfilter's delay state: a zero's sign moves
        for z in np.random.default_rng(seed).standard_normal(steps):
            y = a * y + (z * scales[0] * scales[1] + shift)
            plain.append(y)
        assert np.array(plain).tobytes() != v.tobytes()

    @pytest.mark.parametrize("kind", ["MT19937", "PCG64DXSM", "ZeroNoise", "NegatedNoise"])
    def test_other_generators_keep_numpy_draw(self, monkeypatch, kind):
        _fused_loop()

        def refused(*args):
            raise AssertionError("the fused draw was taken")

        monkeypatch.setattr(ou_process, "_fused_ar1", refused)

        def make():
            if kind in ("MT19937", "PCG64DXSM"):
                return np.random.Generator(getattr(np.random, kind)(9))
            wrapper = ZeroNoise if kind == "ZeroNoise" else NegatedNoise
            return wrapper(np.random.default_rng(9))

        params, grid = OuParams(theta=0.7, mu=0.3), TimeGrid(t_end=20.0, dt=0.02)
        rng, twin = make(), make()
        path = sample_exact(params, grid, rng, x0=-0.0)
        decay, sd = exact_transition(params, grid.dt)
        v = np.empty(grid.n_steps + 1)
        v[0] = -0.0
        twin.standard_normal(out=v[1:])
        expected = ou_process._scipy_ar1(v, decay, (sd,), params.mu * (1.0 - decay))
        assert path.values.tobytes() == expected.tobytes()
        if kind in ("MT19937", "PCG64DXSM"):  # the same state after: the same next words
            assert np.array_equal(rng.bit_generator.random_raw(4), twin.bit_generator.random_raw(4))


class TestCompiledRecursion:
    """The C loop of ``_ar1.c`` has the scipy route's bits, and is used only where it does."""

    @pytest.mark.parametrize("v", [np.zeros(0), np.zeros(9, dtype=np.float32), np.zeros(18)[::2],
                                   np.zeros((3, 3))], ids=["empty", "float32", "strided", "2-d"])
    def test_the_loop_takes_only_arrays_it_can_write(self, v):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="float64"):
            ou_process._fused_ar1(_fused_loop(), v, 0.5, (1.0,), 0.0, rng.bit_generator)
        assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state

    @pytest.mark.parametrize("flip, route", [(True, "scipy"), (False, "fused")])
    def test_a_loop_that_fails_the_probe_is_not_used(self, monkeypatch, flip, route):
        # a recursion that gets a zero's sign wrong: only the probe's signed-zero case sees it
        import ctypes

        _fused_loop()
        load = ou_process._load_ar1

        def load_wrapped():
            kernel = load()

            def wrapped(a, s1, s2, shift, data, n, pcg):
                kernel.ar1(a, s1, s2, shift, data, n, pcg)
                if flip:  # the sign of every zero after x0
                    path = np.ctypeslib.as_array((ctypes.c_double * n).from_address(data))
                    zeros = path[1:] == 0.0
                    path[1:][zeros] = -path[1:][zeros]
            return kernel._replace(ar1=wrapped)

        monkeypatch.setattr(ou_process, "_load_ar1", load_wrapped)
        monkeypatch.setattr(ou_process, "_kernel", [])
        assert ou_process.ar1_route() == route
        assert ou_process._probe_passes(load_wrapped()) == (route == "fused")
        monkeypatch.setattr(ou_process, "_PROBE_CASES", ou_process._PROBE_CASES[:-1])
        assert ou_process._probe_passes(load_wrapped())
        grid = TimeGrid(t_end=2.0, dt=0.02)
        path = sample_euler(OuParams(theta=0.7, mu=0.3), grid, np.random.default_rng(4), x0=-0.0)
        expected = _loop_values(OuParams(theta=0.7, mu=0.3), grid, 4, "euler", -0.0, False, False)
        assert path.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fault", [None, "a flipped bit", "the state one step behind"],
                             ids=["no fault", "a flipped bit", "the state one step behind"])
    def test_a_draw_that_fails_its_probe_is_not_used(self, monkeypatch, fault):
        # the wrapped loop with no fault is the control: its draw passes the probe and is used
        _fused_loop()
        monkeypatch.setattr(ou_process, "_load_ar1", _faulty_draw(ou_process._load_ar1, fault))
        monkeypatch.setattr(ou_process, "_kernel", [])
        assert ou_process.ar1_route() == ("fused" if fault is None else "scipy")
        grid = TimeGrid(t_end=2.0, dt=0.02)
        rng = np.random.default_rng(4)
        path = sample_euler(OuParams(theta=0.7, mu=0.3), grid, rng, x0=-0.0)
        expected = _loop_values(OuParams(theta=0.7, mu=0.3), grid, 4, "euler", -0.0, False, False)
        assert path.values.tobytes() == expected.tobytes()
        twin = np.random.default_rng(4)
        twin.standard_normal(grid.n_steps)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("fault", list(_SUM_FAULTS), ids=["no fault", *list(_SUM_FAULTS)[1:]])
    def test_sums_that_fail_the_probe_are_not_used(self, monkeypatch, fault):
        # numpy's order written in Python is the control: it passes the probe and is used
        _fused_loop()
        load = ou_process._load_ar1
        monkeypatch.setattr(ou_process, "_load_ar1",
                            lambda: load()._replace(ito_sums=_python_sums(fault)))
        monkeypatch.setattr(ou_process, "_kernel", [])
        assert ou_process.ar1_route() == ("fused" if fault is None else "scipy")
        values = np.cumsum(np.random.default_rng(8).standard_normal(1001))  # splits at 496
        est = oufar.theta_ito_from_values(values, 0.02)
        assert _bits(est.numerator, est.sum_sq) == _numpy_estimate_bits(values)
        if fault == "a split at n/2":  # n/2 of a power of two is a multiple of 8 down to 128
            monkeypatch.setattr(ou_process, "_PROBE_SUM_TERMS", (ou_process._PROBE_STEPS,))
            monkeypatch.setattr(ou_process, "_PROBE_CASES", [
                case for case in ou_process._PROBE_CASES if case[1] == ou_process._PROBE_STEPS])
            assert ou_process._probe_passes(ou_process._load_ar1())
        if fault == "a -0.0 seed":  # only the constant negative path's -0.0 terms see it
            kernel = ou_process._load_ar1()
            assert not ou_process._sums_agree(kernel, np.full(9, -1.0))
            assert all(ou_process._sums_agree(kernel, values[:n + 1]) for n in (5, 100, 1000))

    @pytest.mark.parametrize("failure", ["no compiler", "failing compiler", "unloadable output",
                                         "unwritable cache"])
    def test_a_failed_build_takes_the_scipy_route(self, monkeypatch, tmp_path, failure):
        cache = tmp_path / "cache"
        if failure == "no compiler":
            monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
        elif failure == "failing compiler":  # writes part of its output, then fails
            _fake_cc(tmp_path / "bin", 'while [ "$1" != -o ]; do shift; done\nprintf partial > "$2"\nexit 1')
        elif failure == "unloadable output":
            _fake_cc(tmp_path / "bin", 'while [ "$1" != -o ]; do shift; done\nprintf garbage > "$2"')
        else:
            cache.write_text("a file where the cache directory would be\n")
        monkeypatch.setenv("PATH", f"{tmp_path / 'bin'}{os.pathsep}{os.environ['PATH']}")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        monkeypatch.setattr(ou_process, "_kernel", [])
        assert ou_process.ar1_route() == "scipy"
        grid = TimeGrid(t_end=2.0, dt=0.02)
        path = sample_exact(OuParams(theta=0.7, mu=0.3), grid, np.random.default_rng(4), x0=1.5)
        expected = _loop_values(OuParams(theta=0.7, mu=0.3), grid, 4, "exact", 1.5, False, False)
        assert path.values.tobytes() == expected.tobytes()
        if failure == "failing compiler":  # nothing under the final name, no temporary file
            assert [p.suffix for p in (cache / "oufar").iterdir()] == [".lock"]

    def _counting_cc(self, tmp_path: Path, monkeypatch) -> Path:
        """Put a ``cc`` first on PATH that logs each build, waits, then runs the real one."""
        real = shutil.which("cc")
        if real is None:
            pytest.skip("no C compiler cc on PATH")
        log = tmp_path / "builds.log"
        _fake_cc(tmp_path / "bin", f'echo build >> "{log}"\nsleep 0.3\nexec "{real}" "$@"')
        monkeypatch.setenv("PATH", f"{tmp_path / 'bin'}{os.pathsep}{os.environ['PATH']}")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        return log

    def test_threads_sampling_at_first_use_build_one_file(self, monkeypatch, tmp_path):
        log = self._counting_cc(tmp_path, monkeypatch)
        monkeypatch.setattr(ou_process, "_kernel", [])
        grid = TimeGrid(t_end=20.0, dt=0.02)
        start = threading.Barrier(8)
        paths = [None] * 8

        def sample(i):
            start.wait()
            paths[i] = sample_euler(OuParams(theta=1.0), grid, np.random.default_rng(i)).values

        threads = [threading.Thread(target=sample, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert ou_process.ar1_route() == "fused"
        assert log.read_text() == "build\n"
        assert sorted(p.suffix for p in (tmp_path / "cache" / "oufar").iterdir()) == [".lock", ".so"]
        for i, values in enumerate(paths):
            expected = _loop_values(OuParams(theta=1.0), grid, i, "euler", 0.0, False, False)
            assert values.tobytes() == expected.tobytes()

    def test_racing_builders_build_once(self, monkeypatch, tmp_path):
        # the file lock, not this process's lock, makes the racers after the first wait
        log = self._counting_cc(tmp_path, monkeypatch)
        start = threading.Barrier(8)
        built = []

        def build():
            start.wait()
            built.append(ou_process._build_ar1())

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 8 and len(set(built)) == 1
        assert log.read_text() == "build\n"
        assert sorted(p.suffix for p in (tmp_path / "cache" / "oufar").iterdir()) == [".lock", ".so"]

    def test_only_commands_that_draw_or_estimate_run_the_loader(self, tmp_path):
        csv = tmp_path / "p.csv"
        csv.write_text("t,xi\n0,0\n0.5,0.25\n1,0.5\n1.5,0.125\n2,-0.25\n")
        argvs = [
            ["--version"],
            ["norms", "--theta", "1", "--h", "1"],
            ["norms", "--theta", "1", "--h", "1", "--theta-hat", "1.0001"],
            ["estimate", "--input", str(csv), "--form", "both", "--out", str(tmp_path / "e.json")],
            ["simulate", "--theta", "1", "--t-end", "2", "--dt", "0.5", "--seed", "1",
             "--out", str(tmp_path / "s.csv")],
        ]
        undecided, codes = _run_fresh(f"""
import contextlib, io, json
import oufar.cli
from oufar import ou_process
undecided, codes = [ou_process._kernel == []], []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(oufar.cli.main(argv))
        except SystemExit as exit:  # --version
            codes.append(exit.code)
    undecided.append(ou_process._kernel == [])
print(json.dumps([undecided, codes]))
""")
        assert codes == [0] * len(argvs)
        # estimate, whose Ito sums take the kernel's route, decides it; simulate finds it decided
        assert undecided == [True, True, True, True, False, False]


@st.composite
def _sum_cases(draw):
    """(n, seed, exponents, share of zeros) of a path of n + 1 values for the Ito sums."""
    n = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 127, 128, 129, 1000, 2**16]),
                       st.integers(1, 2**16)))
    # 1e-170 squared is subnormal, 1e160 and 1e200 squared overflow to inf
    exponents = draw(st.lists(st.sampled_from([0, -170, 160, 200]), min_size=1, max_size=3))
    zeros = draw(st.sampled_from([0.0, 0.25, 1.0]))
    return n, draw(st.integers(0, 2**32 - 1)), exponents, zeros


def _sum_values(n, seed, exponents, zeros):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n + 1) * 10.0 ** rng.choice(exponents, n + 1)
    signed_zeros = np.where(rng.random(n + 1) < 0.5, -0.0, 0.0)
    return np.where(rng.random(n + 1) < zeros, signed_zeros, v)


class TestItoSums:
    """The C sums of ``_ar1.c`` have the bits of np.sum over numpy's products."""

    @settings(max_examples=300, deadline=None)
    @given(_sum_cases())
    def test_c_sums_equal_np_sum(self, case):
        v = _sum_values(*case)
        left = v[:-1]
        with np.errstate(all="ignore"):
            expected = _bits(np.sum(left * (v[1:] - left)), np.sum(left * left))
            assert _bits(*ou_process._numpy_ito_sums(v)) == expected
        assert _bits(*ou_process._c_ito_sums(_fused_kernel().ito_sums, v)) == expected

    def test_sums_of_zeros_are_positive_zeros(self):
        # np.add.reduce adds its pairwise sum to +0.0, the identity of add
        for n in (1, 5, 8, 100, 1000):
            v = np.full(n + 1, -0.0)
            assert _bits(*ou_process._c_ito_sums(_fused_kernel().ito_sums, v)) == _bits(0.0, 0.0)

    @pytest.mark.parametrize("route", ["C sums", "numpy's leaf"])
    def test_a_2d_array_is_refused(self, monkeypatch, route):
        if route == "C sums":
            _fused_kernel()
        else:
            monkeypatch.setattr(ou_process, "_kernel", [None])
        with pytest.raises(ValueError):
            oufar.theta_ito_from_values(np.arange(6.0).reshape(3, 2), 0.1)

    @pytest.mark.parametrize("layout", ["read-only", "strided", "unaligned"])
    def test_every_layout_gives_numpys_bits(self, monkeypatch, layout):
        _fused_kernel()
        base = np.cumsum(np.random.default_rng(3).standard_normal(2 * 70001))
        if layout == "read-only":
            values = base[:70001]
            values.flags.writeable = False
        elif layout == "strided":
            values = base[::2]
        else:
            values = np.frombuffer(b"\0" + base[:70001].tobytes(), offset=1)
            assert not values.flags.aligned
        calls = []
        c_ito_sums = ou_process._c_ito_sums
        monkeypatch.setattr(ou_process, "_c_ito_sums", lambda *a: calls.append(1) or c_ito_sums(*a))
        est = oufar.theta_ito_from_values(values, 0.02)
        assert len(calls) == 2  # two leaves, on the C sums
        assert _bits(est.numerator, est.sum_sq) == _numpy_estimate_bits(values)
        monkeypatch.setattr(ou_process, "_kernel", [None])
        assert oufar.theta_ito_from_values(values, 0.02) == est
        assert len(calls) == 2
