"""Metamorphic relations of the simulate-and-estimate pipeline, checked bit for bit.

The centred model dxi = -theta xi dt + sigma dW is linear in its noise and
odd in it.  So at ``experiments._stream_path``, on both schemes:

* sigma -> 2^k sigma leaves theta_hat unchanged and scales the path, hence
  x_prev_h, by 2^k.  Multiplying by a power of two is exact away from
  overflow and subnormals, so the relation holds to the last bit.
* Negated noise leaves theta_hat unchanged and negates x_prev_h: negation
  commutes with every rounding step of the recursion and the Ito sums.
* Rescaling time, (theta, dt, h, T) -> (theta/4, 4 dt, 4 h, 4 T), divides
  theta_hat by 4 and doubles x_prev_h: theta dt and the AR(1) factor keep
  their bits, sqrt(4 dt) is exactly 2 sqrt(dt), and so is the exact
  transition's innovation scale.  At ``run_experiment`` it leaves the
  band coverage and the normality z values unchanged and divides the EMSE by
  exactly 16.  This needs the double 4 * dt to be exactly four times dt's,
  so it is built as a float product.

None of the relations needs an oracle of the estimator's value.  A sampler whose
path does not scale with sigma, or an estimator that changes when the path is
scaled, fails the first; a sampler that is not odd in the noise, or an
estimator that changes when the path is negated, fails the second; a
sampler or an estimator whose time step enters other than through theta dt
and sqrt(dt) fails the third.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oufar.experiments as exp
from negated_noise import NegatedNoise
from oufar import ExperimentConfig, OuParams
from oufar.experiments import _stream_path, run_experiment

_DT = 0.02


@st.composite
def _cases(draw):
    """(scheme, theta, sigma, steps, boundary, seed, chunk cap)."""
    scheme = draw(st.sampled_from(["euler", "exact"]))
    theta = draw(st.floats(0.05, 20.0))
    sigma = draw(st.floats(0.1, 10.0))
    # short paths cut into leaves of 128 steps, or a long one at the default cap
    steps, cap = draw(st.one_of(st.tuples(st.integers(2, 3000), st.just(128)),
                                st.just((150_000, exp._CHUNK_STEPS))))
    boundary = draw(st.one_of(st.just(steps), st.integers(1, steps)))
    return scheme, theta, sigma, steps, boundary, draw(st.integers(0, 2**32 - 1)), cap


def _stream(case, sigma, negate=False, slow=1):
    """(theta_hat, x_prev_h) of ``case``'s path at this sigma, its noise negated or not,
    at theta / slow and time step slow * dt."""
    scheme, theta, _, steps, boundary, seed, cap = case
    dt = slow * _DT
    config = ExperimentConfig(thetas=(theta / slow,), horizons=(steps * dt,), dt=dt, h=dt,
                              scheme=scheme)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp, "_CHUNK_STEPS", cap)
        return _stream_path(config, OuParams(theta=theta / slow, sigma=sigma), steps, boundary,
                            NegatedNoise(rng) if negate else rng)


def _cells(scheme, seed, slow):
    """{report name: cells} of band coverage, EMSE and normality on one small grid, at
    the rates divided by ``slow`` and dt, h and the horizons multiplied by it."""
    config = ExperimentConfig(thetas=tuple(t / slow for t in (0.4, 0.7, 1.0, 2.0)),
                              horizons=(100.0 * slow, 200.0 * slow), dt=slow * _DT,
                              h=slow * 1.0, replicates=20, scheme=scheme, master_seed=seed)
    simulated = {}  # the three kinds share one simulation
    return {report.kind: report.cells for kind in ("band-coverage", "emse", "normality")
            for report in run_experiment(kind, config, simulated=simulated)}


class TestMetamorphic:
    """Bits compared through float.hex or tobytes: -0.0 differs from 0.0."""

    @settings(max_examples=60, deadline=None)
    @given(case=_cases(), k=st.sampled_from([-3, 1, 5]))
    def test_scaling_sigma_scales_the_path(self, case, k):
        theta_hat, x_prev_h = _stream(case, case[2])
        scaled_theta_hat, scaled_x_prev_h = _stream(case, 2.0**k * case[2])
        assert scaled_theta_hat.hex() == theta_hat.hex()
        assert scaled_x_prev_h.hex() == (2.0**k * x_prev_h).hex()

    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_negated_noise_negates_the_path(self, case):
        theta_hat, x_prev_h = _stream(case, case[2])
        negated_theta_hat, negated_x_prev_h = _stream(case, case[2], negate=True)
        assert negated_theta_hat.hex() == theta_hat.hex()
        assert negated_x_prev_h.hex() == (-x_prev_h).hex()

    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_rescaling_time_rescales_the_path(self, case):
        theta_hat, x_prev_h = _stream(case, case[2])
        slow_theta_hat, slow_x_prev_h = _stream(case, case[2], slow=4)
        assert slow_theta_hat.hex() == (theta_hat / 4).hex()
        assert slow_x_prev_h.hex() == (2 * x_prev_h).hex()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_rescaling_time_keeps_the_reports(self, scheme, seed):
        cells, slow_cells = _cells(scheme, seed, 1), _cells(scheme, seed, 4)
        for name, key, divisor in [("band_coverage", "coverage", 1), ("emse", "emse", 16),
                                   ("normality", "z", 1), ("normality", "z_mean", 1),
                                   ("normality", "z_var", 1), ("normality", "z_ks", 1)]:
            got = np.hstack([cell[key] for cell in slow_cells[name]])
            expected = np.hstack([cell[key] for cell in cells[name]]) / divisor
            assert got.size and got.tobytes() == expected.tobytes(), (name, key)
