"""Fingerprints of the upstream streams that the desk report pins rest on.

The desk pins (CI step "Desk report pins", perfbench) were taken with numpy
2.4.6 and scipy 1.17.1.  They depend on numpy's PCG64 seeding and
``Generator.standard_normal`` stream, which numpy does not promise to keep
across feature releases (NEP 19), and on the arithmetic of scipy's
``_linear_filter``.  oufar's fused route copies both in one C loop: it draws
numpy's stream itself and recurses with the filter's bits.  When a pin fails
and these tests pass, oufar moved; when one of these fails too, it names
what moved: numpy's stream, if its normal stream test fails; scipy's
arithmetic, if the linear filter test fails; the copy, if only the fused
route's tests fail.
"""

import hashlib
import shutil

import numpy as np
import pytest

from oufar import derive_replicate_seed
from oufar import ou_process


def _sha256(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()


_NORMAL_SHA256 = "b4ebc06c8044fc67ae4e1c4f97bd07b28365ead2724429951b908839bb895b39"


def _first_desk_replicate_rng():
    return np.random.default_rng(derive_replicate_seed(20260810, 0, 0, 0))


def _fused_loop():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler cc on PATH")
    kernel = ou_process._ar1_kernel()
    assert kernel is not None
    return kernel.ar1


def test_normal_stream_of_the_first_desk_replicate():
    assert _sha256(_first_desk_replicate_rng().standard_normal(2**16)) == _NORMAL_SHA256


def test_fused_draw_copies_the_normal_stream():
    # a = 0, unit scales, no shift: each path value is its normal, a nonzero one exactly
    v = np.zeros(2**16 + 1)
    ou_process._fused_ar1(_fused_loop(), v, 0.0, (1.0,), 0.0,
                          _first_desk_replicate_rng().bit_generator)
    assert _sha256(v[1:]) == _NORMAL_SHA256


# exactly rounded input (integers over 97), so only the recursion's arithmetic is pinned
_FILTER_INPUT = ((np.arange(2**16) * 7919) % 1000 - 499.5) / 97.0
_FILTER_SHA256 = "3c139b036f72e905ed096f14b5688baa0aab7e1779a7d3a8760c00f329940071"


def test_linear_filter_arithmetic():
    assert _sha256(ou_process.lfilter([1.0], [1.0, -0.986], _FILTER_INPUT)) == _FILTER_SHA256


def test_fused_route_has_the_linear_filter_arithmetic():
    # the fused path at a = 0.986, unit scales and no shift, from x0 = 0, against lfilter
    # over the same generator's numpy normals
    v = np.zeros(2**16 + 1)
    ou_process._fused_ar1(_fused_loop(), v, 0.986, (1.0,), 0.0,
                          _first_desk_replicate_rng().bit_generator)
    w = np.zeros(2**16 + 1)
    _first_desk_replicate_rng().standard_normal(out=w[1:])
    assert v.tobytes() == ou_process.lfilter([1.0], [1.0, -0.986], w).tobytes()
