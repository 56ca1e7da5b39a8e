import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oufar.experiments as exp
from oufar import (
    EXPERIMENTS,
    DomainError,
    ExperimentConfig,
    OuParams,
    TimeGrid,
    ZeroDenominator,
    derive_replicate_seed,
    run_experiment,
    sample_euler,
    sample_exact,
    theta_ito_from_values,
)
from oufar.experiments import (
    _replicate,
    _stream_path,
    collect_cells,
    coverage_cell,
    emse_cell,
    ks_distance,
    lil_cell,
    predictor_cell,
    z_scores,
)
from oufar.reporting import report_json_text
from zero_noise import ZeroNoise

SMALL = ExperimentConfig(
    thetas=(0.7,), horizons=(500.0,), dt=0.02, replicates=100, epsilon=0.05, master_seed=99
)


class TestSeedDerivation:
    def test_deterministic(self):
        a = derive_replicate_seed(12345, 1, 2, 3)
        b = derive_replicate_seed(12345, 1, 2, 3)
        assert a == b and 0 <= a < 2**64

    def test_injective_on_random_tuples(self):
        rng = np.random.default_rng(0)
        tuples = set(
            zip(
                rng.integers(0, 2**16, 10**6).tolist(),
                rng.integers(0, 2**16, 10**6).tolist(),
                rng.integers(0, 2**32, 10**6).tolist(),
            )
        )
        seeds = {derive_replicate_seed(42, *t) for t in tuples}
        assert len(seeds) == len(tuples)

    def test_single_index_changes_seed(self):
        base = derive_replicate_seed(7, 3, 4, 5)
        assert derive_replicate_seed(8, 3, 4, 5) != base
        assert derive_replicate_seed(7, 2, 4, 5) != base
        assert derive_replicate_seed(7, 3, 5, 5) != base
        assert derive_replicate_seed(7, 3, 4, 6) != base

    def test_avalanche_spot_check(self):
        # a one-bit change in the replicate index should flip ~half the output bits
        distances = []
        for r in range(64):
            a = derive_replicate_seed(7, 0, 0, r)
            b = derive_replicate_seed(7, 0, 0, r ^ 1)
            distances.append(bin(a ^ b).count("1"))
        assert 24 <= float(np.mean(distances)) <= 40

    def test_bounds_enforced(self):
        with pytest.raises(DomainError):
            derive_replicate_seed(1, 2**16, 0, 0)
        with pytest.raises(DomainError):
            derive_replicate_seed(1, 0, -1, 0)
        with pytest.raises(DomainError):
            derive_replicate_seed(1, 0, 0, 2**32)


class TestConfigValidation:
    def test_rejects_misaligned_horizon(self):
        with pytest.raises(DomainError):
            ExperimentConfig(thetas=(1.0,), horizons=(500.3,), dt=0.02, h=1.0)

    def test_rejects_horizon_not_multiple_of_h(self):
        with pytest.raises(DomainError):
            ExperimentConfig(thetas=(1.0,), horizons=(500.5,), dt=0.02, h=1.0)

    def test_rejects_bad_scheme(self):
        with pytest.raises(DomainError):
            ExperimentConfig(thetas=(1.0,), horizons=(500.0,), scheme="milstein")

    def test_rejects_empty_grids(self):
        with pytest.raises(DomainError):
            ExperimentConfig(thetas=(), horizons=(500.0,))

    def test_round_trip_dict(self):
        assert ExperimentConfig(**SMALL.to_dict()) == SMALL

    def test_rejects_diverging_euler(self):
        # theta*dt = 2 gives the Euler factor 1 - theta*dt = -1: no decay at all
        with pytest.raises(DomainError, match="euler"):
            ExperimentConfig(thetas=(1.0, 100.0), horizons=(500.0,), dt=0.02)
        ExperimentConfig(thetas=(1.0, 99.0), horizons=(500.0,), dt=0.02)
        ExperimentConfig(thetas=(200.0,), horizons=(500.0,), dt=0.02, scheme="exact")

    def test_rejects_exact_scheme_with_infinite_stationary_variance(self):
        # sigma^2 / (2 theta) overflows: the stationary start would not be finite
        with pytest.raises(DomainError, match="stationary variance"):
            ExperimentConfig(thetas=(1.0, 5e-324), horizons=(10.0,), scheme="exact")
        ExperimentConfig(thetas=(1e-300,), horizons=(10.0,), scheme="exact")


class TestRunExperiment:
    def test_kinds_on_one_grid_share_one_simulation(self, monkeypatch):
        config = ExperimentConfig(thetas=(0.7, 1.0), horizons=(100.0,), replicates=6, master_seed=53)
        kinds = ("band-coverage", "normality")
        fresh = {kind: [report_json_text(r) for r in exp.run_experiment(kind, config)]
                 for kind in kinds}
        calls = []
        real = exp.collect_cells

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(exp, "collect_cells", counting)
        simulated = {}
        for kind in kinds:
            reports = exp.run_experiment(kind, config, simulated=simulated)
            assert [r.kind for r in reports] == list(exp.EXPERIMENTS[kind].reports)
            assert [report_json_text(r) for r in reports] == fresh[kind]
        assert len(calls) == 1
        assert list(simulated) == [exp.simulation_grid(config)]

    def test_rejected_report_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(exp, "collect_cells", lambda *a, **k: pytest.fail("paths drawn"))
        config = ExperimentConfig(thetas=(1.0,), horizons=(2.0,), replicates=3)
        simulated = {}
        with pytest.raises(DomainError, match="exceed e"):
            exp.run_experiment("normality", config, simulated=simulated)
        assert simulated == {}


class TestDeterminism:
    def test_worker_count_does_not_change_report(self):
        config = ExperimentConfig(
            thetas=(0.7, 1.0), horizons=(200.0,), dt=0.02, replicates=20, master_seed=5
        )
        serial = report_json_text(run_experiment("band-coverage", config, 1)[0])
        threaded = report_json_text(run_experiment("band-coverage", config, 8)[0])
        assert serial == threaded

    def test_threads_do_not_share_scratch(self, monkeypatch):
        # 128-step chunks: many scratch uses per path, with frequent thread switches between them
        monkeypatch.setattr(exp, "_CHUNK_STEPS", 128)
        config = ExperimentConfig(thetas=(0.7, 1.0), horizons=(40.0,), replicates=12, master_seed=7)
        serial = collect_cells(config, n_workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = collect_cells(config, n_workers=8)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded, strict=True):
            assert a.theta_hats.tobytes() == b.theta_hats.tobytes()
            assert a.x_prev_h.tobytes() == b.x_prev_h.tobytes()

    def test_rerun_is_identical(self):
        a = report_json_text(run_experiment("emse", SMALL)[0])
        b = report_json_text(run_experiment("emse", SMALL)[0])
        assert a == b


class TestAggregationSeams:
    """The aggregators accept raw estimate arrays, so forced values test them."""

    def test_emse_zero_when_estimates_equal_truth(self):
        assert emse_cell(0.7, np.full(10, 0.7)) == 0.0

    def test_z_scores_zero_when_estimates_equal_truth(self):
        assert np.all(z_scores(0.7, 500.0, np.full(10, 0.7)) == 0.0)

    def test_zero_band_has_zero_coverage(self):
        theta_hats = 0.7 + 0.01 * np.arange(1, 11)
        assert coverage_cell(0.7, 500.0, theta_hats, band_k=0.0) == 0.0

    def test_huge_epsilon_gives_probability_one(self):
        rng = np.random.default_rng(3)
        p_h, p_b = predictor_cell(1.0, rng.normal(1, 0.1, 50), rng.normal(0, 1, 50), 1.0, 1e9)
        assert p_h == 1.0 and p_b == 1.0

    def test_lil_coverage_monotone_in_multiplier(self):
        rng = np.random.default_rng(4)
        theta_hats = rng.normal(1.0, 0.05, 200)
        values = [lil_cell(1.0, 500.0, theta_hats, m) for m in (0.5, 1.0, 1.5, 1e9)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


class TestRunners:
    def test_band_coverage_cell(self):
        (report,) = run_experiment(
            "band-coverage",
            ExperimentConfig(thetas=(1.0,), horizons=(500.0,), replicates=100, master_seed=17),
        )
        (cell,) = report.cells
        assert cell["N"] == 100 and cell["failures"] == 0
        assert cell["coverage"] >= 0.97
        assert report.kind == "band_coverage"

    def test_emse_matches_direct_collection(self):
        (report,) = run_experiment("emse", SMALL)
        (cell,) = report.cells
        (data,) = collect_cells(SMALL)
        assert cell["emse"] == pytest.approx(float(np.mean((0.7 - data.ok_theta_hats) ** 2)))
        assert cell["two_theta_over_T"] == pytest.approx(2.0 * 0.7 / 500.0)

    def test_predictor_bound_ordering(self):
        (report,) = run_experiment(
            "predictor-bound",
            ExperimentConfig(
                thetas=(0.7, 1.0), horizons=(500.0, 1000.0), replicates=100, epsilon=0.05,
                master_seed=23,
            ),
        )
        for cell in report.cells:
            assert 0.0 <= cell["p_hat_H"] <= 1.0
            assert cell["p_hat_B"] >= cell["p_hat_H"]  # smaller bound exceeds less often

    def test_exceedance_nonincreasing_in_horizon_with_slack(self):
        config = ExperimentConfig(
            thetas=(1.0,), horizons=(500.0, 1000.0, 2000.0), replicates=100, epsilon=0.05,
            master_seed=31,
        )
        (report,) = run_experiment("predictor-bound", config)
        exceed = [1.0 - c["p_hat_H"] for c in report.cells]
        n = config.replicates
        for prev, cur in zip(exceed, exceed[1:]):
            slack = 3.0 * math.sqrt(
                prev * (1 - prev) / n + cur * (1 - cur) / n
            )
            assert cur <= prev + slack

    def test_normality_summary(self):
        report, _ = run_experiment(
            "normality",
            ExperimentConfig(thetas=(1.0,), horizons=(500.0,), replicates=100, master_seed=37),
        )
        (cell,) = report.cells
        assert len(cell["z"]) == 100
        assert abs(cell["z_mean"]) < 0.5
        assert 0.5 < cell["z_var"] < 1.6
        assert cell["z_ks"] < 0.2

    def test_lil_coverage_runner(self):
        _, report = run_experiment(
            "normality",
            ExperimentConfig(thetas=(1.0,), horizons=(500.0,), replicates=100, master_seed=41),
        )
        (cell,) = report.cells
        assert cell["multiplier"] == 1.5
        assert 0.9 <= cell["lil_coverage"] <= 1.0

    def test_lil_coverage_from_earlier_cells(self, monkeypatch):
        config = ExperimentConfig(thetas=(0.7, 1.0), horizons=(100.0,), replicates=6, master_seed=47)
        fresh = report_json_text(run_experiment("normality", config)[1])
        simulated = {}
        exp.run_experiment("normality", config, simulated=simulated)

        def no_simulation(*args, **kwargs):
            raise AssertionError("paths redrawn")

        monkeypatch.setattr(exp, "collect_cells", no_simulation)
        _, lil = exp.run_experiment("normality", config, simulated=simulated)
        assert report_json_text(lil) == fresh

    def test_lil_coverage_rejects_short_horizon_before_simulating(self, monkeypatch):
        monkeypatch.setattr(exp, "collect_cells", lambda *a, **k: pytest.fail("paths drawn"))
        config = ExperimentConfig(thetas=(1.0,), horizons=(2.0, 100.0), replicates=3)
        with pytest.raises(DomainError, match="exceed e"):
            run_experiment("normality", config)

    def test_no_failures_at_desk_scale(self):
        for theta in (0.1, 1.0):
            (report,) = run_experiment(
                "band-coverage",
                ExperimentConfig(thetas=(theta,), horizons=(500.0,), replicates=50, master_seed=43),
            )
            assert report.failures_total == 0

    def test_exact_scheme_runs(self):
        (report,) = run_experiment(
            "band-coverage",
            ExperimentConfig(
                thetas=(0.7,), horizons=(500.0,), replicates=50, scheme="exact", master_seed=47
            ),
        )
        assert report.cells[0]["coverage"] >= 0.9

    def test_desk_cell_coverage_euler(self):
        (report,) = run_experiment(
            "band-coverage",
            ExperimentConfig(thetas=(1.0,), horizons=(2000.0,), replicates=200,
                             master_seed=20260810),
        )
        assert report.cells[0]["coverage"] >= 0.98


class TestFailureAccounting:
    def test_failures_counted_not_dropped(self, monkeypatch):
        import oufar.experiments as exp

        def always_zero(values, dt):
            raise ZeroDenominator("forced failure")

        monkeypatch.setattr(exp, "theta_ito_from_values", always_zero)
        (report,) = run_experiment(
            "band-coverage",
            ExperimentConfig(thetas=(0.7,), horizons=(200.0,), replicates=10, master_seed=53),
        )
        (cell,) = report.cells
        assert cell["failures"] == 10
        assert cell["N"] == 10
        assert math.isnan(cell["coverage"])
        assert report.failures_total == 10
        # an all-failed cell still serializes as valid JSON (null, not NaN)
        import json as _json

        doc = _json.loads(report_json_text(report))
        assert doc["cells"][0]["coverage"] is None

    @pytest.mark.parametrize(
        "kind, index", [pytest.param(kind, i, id=name) for kind, e in EXPERIMENTS.items()
                        for i, name in enumerate(e.reports)]
    )
    def test_all_failed_cell_has_nan_stats(self, monkeypatch, kind, index):
        import json as _json
        import warnings

        def always_zero(values, dt):
            raise ZeroDenominator("forced failure")

        monkeypatch.setattr(exp, "theta_ito_from_values", always_zero)
        config = ExperimentConfig(thetas=(0.7,), horizons=(200.0,), replicates=4, master_seed=53)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no statistic of an empty array is taken
            report = run_experiment(kind, config)[index]
        (cell,) = _json.loads(report_json_text(report))["cells"]
        stats = exp.REPORTS[report.kind].stats
        assert stats and all(cell[name] is None for name in stats)
        assert cell["failures"] == cell["N"] == 4
        assert cell.get("z", []) == cell.get("z_replicates", []) == []

    def test_partial_failures_keep_replicate_indices(self, monkeypatch):
        import oufar.experiments as exp

        real = exp.theta_ito_from_values
        calls = {"n": 0}

        def flaky(values, dt):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise ZeroDenominator("forced failure")
            return real(values, dt)

        monkeypatch.setattr(exp, "theta_ito_from_values", flaky)
        report, _ = run_experiment(
            "normality",
            ExperimentConfig(thetas=(0.7,), horizons=(200.0,), replicates=9, master_seed=59),
        )
        (cell,) = report.cells
        assert cell["failures"] == 3
        assert cell["z_replicates"] == [0, 1, 3, 4, 6, 7]
        assert len(cell["z"]) == 6


def _one_shot(config, theta, n_steps, boundary, seed, zero_noise=False):
    """The whole path in one array, then the plain estimator: the streaming oracle."""
    rng = np.random.default_rng(seed)
    params, grid = OuParams(theta=theta), TimeGrid(t_end=n_steps * config.dt, dt=config.dt)
    if config.scheme == "euler":
        path = sample_euler(params, grid, ZeroNoise(rng) if zero_noise else rng, x0=0.0)
    else:
        path = sample_exact(params, grid, rng, stationary=True)
    try:
        theta_hat = theta_ito_from_values(path.values, config.dt).theta_hat
    except ZeroDenominator:
        theta_hat = math.nan
    return theta_hat, float(path.values[boundary])


@st.composite
def _stream_cases(draw):
    cap = draw(st.sampled_from([128, 136]))
    n = draw(
        st.one_of(
            st.integers(1, 6000),
            st.builds(lambda k, d: k * cap + d, st.integers(1, 40), st.sampled_from([-1, 0, 1])),
        )
    )
    boundary = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    theta = draw(st.floats(0.05, 20.0))
    scheme = draw(st.sampled_from(["euler", "exact"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return cap, n, boundary, theta, scheme, seed


class TestStreamingOracle:
    """Paths drawn and reduced chunk by chunk equal the one-shot path, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_stream_cases())
    def test_matches_one_shot(self, case):
        cap, n, boundary, theta, scheme, seed = case
        dt = 0.02
        config = ExperimentConfig(thetas=(theta,), horizons=(n * dt,), dt=dt, h=dt, scheme=scheme)
        expected = _one_shot(config, theta, n, boundary, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exp, "_CHUNK_STEPS", cap)  # multi-level trees, odd leaf sizes
            got = _stream_path(config, OuParams(theta=theta), n, boundary, np.random.default_rng(seed))
        # NaN (a failed estimate, e.g. n = 1 from xi_0 = 0) must match NaN
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    @pytest.mark.parametrize("h", [1.0, 12.0])  # h = T puts the last boundary at index 0
    def test_replicate_matches_one_shot(self, monkeypatch, scheme, h):
        monkeypatch.setattr(exp, "_CHUNK_STEPS", 128)
        config = ExperimentConfig(thetas=(0.7,), horizons=(12.0,), h=h, scheme=scheme)
        boundary = round((12.0 - h) / config.dt)
        assert _replicate(config, 0.7, 12.0, 61) == _one_shot(config, 0.7, 600, boundary, 61)

    def test_zero_path_is_a_counted_failure(self, monkeypatch):
        monkeypatch.setattr(exp, "_CHUNK_STEPS", 128)
        zero_euler = lambda p, g, rng, x0: sample_euler(p, g, ZeroNoise(rng), x0)  # noqa: E731
        monkeypatch.setattr(exp, "sample_euler", zero_euler)
        config = ExperimentConfig(thetas=(0.7,), horizons=(20.0,), replicates=4, master_seed=67)
        theta_hat, x_prev = _replicate(config, 0.7, 20.0, 1)
        expected_theta, expected_x = _one_shot(config, 0.7, 1000, 950, 1, zero_noise=True)
        assert math.isnan(theta_hat) and math.isnan(expected_theta)
        assert x_prev == expected_x == 0.0
        (cell,) = collect_cells(config)
        assert cell.failures == 4


@st.composite
def _ks_samples(draw):
    n = draw(st.integers(1, 400))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    z *= draw(st.sampled_from([1e-3, 1.0, 3.0, 40.0]))  # 40: ndtr saturates at 0 and 1
    decimals = draw(st.sampled_from([None, 0, 1, 2]))  # rounding makes ties
    if decimals is not None:
        z = np.round(z, decimals)
    if draw(st.booleans()):
        z[: draw(st.integers(0, n))] = draw(st.sampled_from([0.0, -0.0]))
    return z


class TestKsDistance:
    @settings(max_examples=300, deadline=None)
    @given(_ks_samples())
    def test_equals_kstest_statistic(self, z):
        from scipy import stats

        assert ks_distance(z) == float(stats.kstest(z, "norm").statistic)
        assert isinstance(ks_distance(z), float)


class TestGoldenBytes:
    """Report sha256 pinned from the whole-path sampler; each 6e5-step path spans 16 chunks.

    The band_coverage, emse and lil_coverage pins were taken from the per-report
    reducers that the shared table reducer replaced.
    """

    PINS = {
        ("euler", "band_coverage"): "726614d0d13573c522d5f26874f9edad8860436335c5b314e258a3a0e16e7159",
        ("euler", "emse"): "88fb86279d6f9017a9f326a91b5d2c6e677dfa5963be77fb0e987dd4be0fea34",
        ("euler", "predictor_bound"): "b4322c1d96ba7424cfe97334631fd2c84fe8be80df51f8b1484ae5eb834c4737",
        ("euler", "normality"): "7671a1eeaf4ac964d468e20fde363781f02b4af8b42addaff786f9845d22281d",
        ("euler", "lil_coverage"): "d2b0cedbae652150edf36b3a947038049dce66847f838ac373e4a91dde705060",
        ("exact", "band_coverage"): "66091602fde5f3f5522c10c6832687bab34ed8a209515ab3a35a6fa1868b4127",
        ("exact", "emse"): "6354e4b18a25b7363d9a2ed6e158bde1a74fd4e5a9f932cc209d57709a02f941",
        ("exact", "predictor_bound"): "e3009ba763b62e884f0b51f047826eba0353ba9cb77e9d4ad489219a415db3b8",
        ("exact", "normality"): "3094ce20a5429bdd2c96ffaf14c888289c50e2ea053173a2c8f66a38a6f6c16a",
        ("exact", "lil_coverage"): "6756f29342b833d775e543d6e3b3f62e6a738fbbe494c9b387ae23a289045185",
    }

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_report_sha256(self, scheme):
        config = ExperimentConfig(
            thetas=(0.4, 1.0), horizons=(12000.0,), replicates=3, scheme=scheme, master_seed=20260810
        )
        kinds = []
        for kind in EXPERIMENTS:
            for report in run_experiment(kind, config):
                kinds.append(report.kind)
                digest = hashlib.sha256(report_json_text(report).encode()).hexdigest()
                assert digest == self.PINS[scheme, report.kind]
        assert sorted(kinds) == sorted(k for s, k in self.PINS if s == scheme)
