"""A stand-in random generator that negates every standard normal it hands out."""

import numpy as np


class NegatedNoise:
    """Wraps a numpy Generator; every draw, scalar or block into ``out``, comes out negated.

    The samplers draw their innovations with ``standard_normal(out=...)`` and
    the stationary start as one scalar: with this, a centred path from xi_0 = 0
    is the negation of the one the real generator gives.
    """

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, size=None, out=None):
        if out is None:
            return -self._rng.standard_normal(size)
        self._rng.standard_normal(out=out)
        return np.negative(out, out=out)
