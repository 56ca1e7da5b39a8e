"""A stand-in random generator that exposes a sampler's drift skeleton."""


class ZeroNoise:
    """Wraps a numpy Generator; block draws into ``out`` come out as zeros.

    The samplers draw their innovations with ``standard_normal(out=...)`` and
    the stationary start as one scalar, which this passes to the real
    generator: the path is the noise-free recursion from the same start.
    """

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self._rng.standard_normal(size)
        out[...] = 0.0
        return out
