"""Metamorphic relations of the simulate-and-estimate pipeline, checked bit for bit.

The centred model dxi = -theta xi dt + sigma dW is linear in its noise and
odd in it.  So at ``experiments._stream_path``, on both schemes:

* sigma -> 2^k sigma leaves theta_hat unchanged and scales the path, hence
  x_prev_h, by 2^k.  Multiplying by a power of two is exact away from
  overflow and subnormals, so the relation holds to the last bit.
* Negated noise leaves theta_hat unchanged and negates x_prev_h: negation
  commutes with every rounding step of the recursion and the Ito sums.

Neither relation needs an oracle of the estimator's value.  A sampler whose
path does not scale with sigma, or an estimator that changes when the path is
scaled, fails the first; a sampler that is not odd in the noise, or an
estimator that changes when the path is negated, fails the second.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oufar.experiments as exp
from negated_noise import NegatedNoise
from oufar import ExperimentConfig, OuParams
from oufar.experiments import _stream_path

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


def _stream(case, sigma, negate=False):
    """(theta_hat, x_prev_h) of ``case``'s path at this sigma, its noise negated or not."""
    scheme, theta, _, steps, boundary, seed, cap = case
    config = ExperimentConfig(thetas=(theta,), horizons=(steps * _DT,), dt=_DT, h=_DT,
                              scheme=scheme)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp, "_CHUNK_STEPS", cap)
        return _stream_path(config, OuParams(theta=theta, sigma=sigma), steps, boundary,
                            NegatedNoise(rng) if negate else rng)


class TestMetamorphic:
    """Bits compared through float.hex: -0.0 differs from 0.0."""

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
