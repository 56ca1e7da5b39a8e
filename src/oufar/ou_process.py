"""Ornstein-Uhlenbeck process: parameters, exact moments, and path samplers.

The process solves the Langevin equation

    d xi_t = theta * (mu - xi_t) dt + sigma dW_t,    theta, sigma > 0,

and is stationary Gaussian with mean ``mu`` and covariance
``sigma^2/(2 theta) * exp(-theta |t - s|)``.  Every variance here is sigma^2 times
D(theta, t) = int_0^t exp(-2 theta s) ds, taken from the one helper
``_decay_integral`` at t = dt (the exact transition), t = min(t, s) (the
conditional covariance) or t = inf (the stationary law, D = 0.5/theta), and
multiplied by sigma one factor at a time: no sigma^2 is formed, so no moment
raises for a positive finite sigma, and the sds keep their digits where sigma^2
would overflow or underflow.  Two samplers are provided: the
Euler-Maruyama discretization (the scheme used by the Monte Carlo harness)
and the exact Gaussian transition (used as a distributional oracle).  Each returns
a ``SamplePath``, a grid and its values alone: a caller keeps what drew the path.

Both samplers are thin calls of one kernel, ``_ar1``: it draws a block of
standard normals, scales and shifts them into the innovations, and runs the
AR(1) recursion xi_{i+1} = a xi_i + u_i with the Euler factor a = 1 - theta dt
or the exact decay a = exp(-theta dt).  It has two routes with the same bits.
The fused route is one pass of the C loop in ``_ar1.c`` that draws the normals
itself from the generator's PCG64 state, as ``Generator.standard_normal``
does, and recurses as it goes; it is taken for a ``np.random.Generator`` on
an ``np.random.PCG64`` bit generator (the harness's ``default_rng``).  The
loop draws the normals in pairs from two PCG64 states, each stepped two
words at a time so that neither waits on the other's 128-bit multiply; the
words are the stream's own, so the bits are too (the header of ``_ar1.c``
says how).  The loop is built once per machine into the user's cache directory
(``$XDG_CACHE_HOME/oufar``, default ``~/.cache/oufar``) with the platform
``cc`` and loaded with ctypes on the first ``_ar1`` or Ito-sum call, never
on import, and used only where it passes a probe against
``standard_normal`` followed by the scipy route, bits and generator state
after.  The same file holds the Ito sums of ``mle.theta_ito_from_values``
(``ito_sums_leaf``), which the same probe holds to numpy's leaf, so one
decision gives both their route.  The scipy route draws
the normals with ``standard_normal`` into the thread's ``scratch`` buffer,
scales and shifts them with numpy and runs the recursion through
``lfilter``, which calls scipy's compiled ``_linear_filter``.  It is taken
for every other generator, and for all of them where there is no compiler,
the build or the load fails, or the loop fails its probe.  ``ar1_route``
names the route of PCG64 draws, which is decided once per process.

The scipy code this package runs comes in by one cached lookup,
``_scipy(extension, name, public)``, made on first use: it takes the
routine ``name`` from one extension module, which ``_scipy_extension``
loads by file, under its real name, without running its subpackage's
``__init__`` (a later public import of the subpackage finds it in
``sys.modules`` and reuses it).  Where the extension cannot be found or
loaded, the lookup imports the public routine ``public`` instead, which
runs the same code.  ``lfilter`` takes ``_linear_filter`` from
``scipy.signal._sigtools`` (``import scipy.signal`` costs about 1.2 s and
75 MiB that nothing here uses), and ``_special_ufunc`` the ufuncs ``ndtr``
and ``gammainc`` from ``scipy.special._special_ufuncs`` (after ``import
oufar.cli``, +1.1 MiB peak RSS and 2 ms, against +20 MiB and 0.25-0.33 s
for ``import scipy.special``).  Importing this module loads no scipy code
at all; with the other modules doing the same, a fresh ``oufar simulate``
or ``oufar --version`` starts in about 0.3 s instead of 1.5 s (2-vCPU
Intel Xeon; README, "Start-up cost").

On the scipy route, a path chunk's temporaries live in ``scratch``: one
reusable buffer per thread (see there for why).
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, GridMismatch

SCHEMES = ("euler", "exact")

# values of one path chunk of the Monte Carlo harness (2^16 steps): the
# temporaries of chunks up to this size live in a thread's scratch buffer
SCRATCH_VALUES = (1 << 16) + 1

_thread = threading.local()


def scratch(n: int) -> np.ndarray:
    """A float64 work array of n values, reused by every call on this thread.

    For n <= SCRATCH_VALUES it is a view of the calling thread's one
    buffer, so the next call on the thread overwrites it: nothing a function
    returns may be a view of it.  Longer arrays are allocated per call.

    Why a kept buffer: a 2^16-step chunk's temporaries are 512 KiB each.
    glibc hands freed memory at the top of its heap back to the kernel once
    it exceeds a trim threshold, which rises only after a large mapped block
    has been freed, as importing scipy.signal happens to do.  Without that
    import, a new set of temporaries per chunk was trimmed and page-faulted
    back in on every chunk: 3.4k minor faults per million steps on one
    thread, against none with this buffer.
    """
    if n > SCRATCH_VALUES:
        return np.empty(n)
    buffer = getattr(_thread, "buffer", None)
    if buffer is None:
        buffer = _thread.buffer = np.empty(SCRATCH_VALUES)
    return buffer[:n]


_SIGTOOLS = "scipy.signal._sigtools"
# not scipy.special._ufuncs, which cannot load without the rest of scipy.special
_SPECIAL_UFUNCS = "scipy.special._special_ufuncs"
_extension_lock = threading.Lock()


def _scipy_extension(name: str):
    """The compiled scipy module ``name``, loaded by file under its real name.

    A module already in ``sys.modules`` is reused; otherwise the file is
    looked up in its scipy subpackage's directory and executed without
    running that subpackage's ``__init__``, then put in ``sys.modules``, so
    a later public import of the subpackage finds and reuses it.  Raises
    ImportError when there is no such file or it cannot be loaded alone.
    """
    with _extension_lock:
        module = sys.modules.get(name)
        if module is None:
            subpackage = name.split(".")[1]
            scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
            spec = importlib.machinery.PathFinder.find_spec(
                name, [os.path.join(d, subpackage) for d in scipy_dirs]
            )
            if spec is None:
                raise ImportError(f"no extension module {name}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    return module


@functools.cache
def _scipy(extension: str, name: str, public: str):
    """The routine ``name`` of the compiled scipy module ``extension``, looked up once.

    Where the extension or the name is missing (older scipy), the routine is
    the attribute named by the dotted ``public``, whose module is imported.
    Threads racing on a first call may each look the routine up; the
    extension loader's lock and its ``sys.modules`` reuse give them one object.
    """
    try:
        return getattr(_scipy_extension(extension), name)
    except (ImportError, AttributeError):
        module, _, attribute = public.rpartition(".")
        return getattr(importlib.import_module(module), attribute)


def _special_ufunc(name: str):
    """The ufunc ``scipy.special.<name>``, from the extension ``_special_ufuncs`` alone.

    The public ``scipy.special`` holds the same ufunc object.
    """
    return _scipy(_SPECIAL_UFUNCS, name, f"scipy.special.{name}")


def lfilter(b, a, x) -> np.ndarray:
    """``scipy.signal.lfilter(b, a, x)`` from a zero state, for 1-D x and len(a) >= 2.

    The AR(1) recursion of the scipy route (``_scipy_ar1``), and so the
    reference that the probe holds the C loop to; the fused route does not
    call it.  It calls scipy's ``_linear_filter`` with the arrays
    ``scipy.signal.lfilter`` passes it for a denominator of two or more taps
    and no initial state; the public ``scipy.signal.lfilter`` takes the same
    positional arguments where the extension is missing.
    """
    linear_filter = _scipy(_SIGTOOLS, "_linear_filter", "scipy.signal.lfilter")
    return linear_filter(np.atleast_1d(b), np.atleast_1d(a), np.asarray(x), -1)


# -ffp-contract=off: GCC fuses a * y + w into one rounding on some targets by default;
# -lm (log1p and exp of the ziggurat's slow paths) comes after the source
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CC_LIBS = ("-lm",)
_kernel_lock = threading.Lock()
# empty until the first _ar1_kernel call, then [the checked _Kernel or None]
_kernel: list = []


class _Kernel(NamedTuple):
    """The C functions of the built ``_ar1.c``: the AR(1) loop and the Ito sums."""

    ar1: Callable
    ito_sums: Callable


def _build_ar1() -> str:
    """The file of ``_ar1.c`` built with ``_CC_FLAGS`` and ``_CC_LIBS``, in the cache if not there.

    The cache is ``$XDG_CACHE_HOME/oufar``, or ``~/.cache/oufar`` where that
    is unset or relative, and the name holds the sha256 of the source (the
    ziggurat's tables included) and the flags, so an edit of either builds a
    new file.  A cached file is used without a compiler.  Otherwise the
    platform ``cc`` writes a temporary file that ``os.replace`` renames,
    under an exclusive lock on a file beside it, so processes and threads
    racing on a first build build once, and an interrupted build leaves
    nothing under the final name.  Raises OSError where it cannot.
    """
    import hashlib

    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ar1.c")
    with open(source, "rb") as f:
        digest = hashlib.sha256(f.read() + " ".join(_CC_FLAGS + _CC_LIBS).encode()).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    target = os.path.join(cache, "oufar", f"ar1-{digest[:16]}.so")
    if os.path.exists(target):
        return target
    import fcntl
    import shutil
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler cc on PATH")
    os.makedirs(os.path.dirname(target), exist_ok=True)
    with open(f"{target}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(target):
            temp = f"{target}.{os.getpid()}.tmp"
            try:
                subprocess.run([cc, *_CC_FLAGS, "-o", temp, source, *_CC_LIBS], check=True,
                               capture_output=True, timeout=120)
                os.replace(temp, target)
            except subprocess.SubprocessError as error:
                raise OSError(f"cc did not build {source}: {error}") from error
            finally:
                if os.path.exists(temp):
                    os.unlink(temp)
    return target


def _load_ar1() -> _Kernel:
    """``oufar_ar1`` and ``oufar_ito_sums`` of the built ``_ar1.c``, loaded by ctypes, unchecked."""
    import ctypes

    library = ctypes.CDLL(_build_ar1())
    loop, sums = library.oufar_ar1, library.oufar_ito_sums
    loop.argtypes = (ctypes.c_double,) * 4 + (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
    sums.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
    loop.restype = sums.restype = None
    return _Kernel(loop, sums)


def _scipy_ar1(v: np.ndarray, a: float, scales: tuple[float, ...], shift: float) -> np.ndarray:
    """The path from v = [x0, Z_1, ..., Z_n] by numpy passes and ``lfilter``: a new array.

    The Z_i are multiplied by the factors of ``scales`` one at a time, in
    order (the order fixes the rounding), then shifted, all in place in v.
    lfilter with b=[1], a=[1, -a] runs the recursion over
    [x0, u_1, ..., u_n] in C, one multiply and one add per step, so the
    result is bit-identical to the plain Python loop wherever no u_i is
    -0.0 (where one is, a zero value may differ in sign; see ``_ar1.c``).
    From a zero initial state its first output is 0.0 + x0, which carries
    x0 into the recursion but turns -0.0 into +0.0, so xi_0 is put back
    afterwards.
    """
    u = v[1:]
    for factor in scales:
        np.multiply(u, factor, out=u)
    np.add(u, shift, out=u)
    path = lfilter([1.0], [1.0, -a], v)
    path[0] = v[0]
    return path


def _loop_array(v: np.ndarray) -> tuple:
    """The address and size of v, which the C loop rewrites in place; ValueError unless it can."""
    if not (v.dtype == np.float64 and v.ndim == 1 and v.size and v.flags.c_contiguous
            and v.flags.writeable):
        raise ValueError("the AR(1) loop needs x0 and room for the path in a writable "
                         "contiguous 1-D float64 array")
    return v.ctypes.data, v.size


_U64 = (1 << 64) - 1


def _fused_ar1(loop, v: np.ndarray, a: float, scales: tuple[float, ...], shift: float,
               bit_generator: np.random.PCG64) -> tuple[int, int]:
    """The path from x0 = v[0], in place in v, by the C ``loop`` drawing from ``bit_generator``.

    v[1:] are not read.  Where the loop passes ``_probe_passes``, v and the
    generator end as ``bit_generator``'s ``standard_normal(out=v[1:])``
    followed by ``_scipy_ar1`` leave them; a missing second factor is 1.0,
    by which multiplying is exact.  The 128-bit state and increment go in
    and the advanced state comes back through the ``state`` dict, so
    ``has_uint32`` and ``uinteger`` are kept, and no numpy struct layout is
    relied on; the generator's ``lock`` is held across the read, the call
    and the write, as numpy's own fill holds it.  Returns how often the
    ziggurat entered its wedge and its tail.
    """
    data, size = _loop_array(v)
    s1, s2 = (*scales, 1.0)[:2]
    with bit_generator.lock:
        state = bit_generator.state
        pcg = state["state"]
        words = np.array([pcg["state"] & _U64, pcg["state"] >> 64, pcg["inc"] & _U64,
                          pcg["inc"] >> 64, 0, 0], dtype=np.uint64)
        loop(a, s1, s2, shift, data, size, words.ctypes.data)
        pcg["state"] = int(words[1]) << 64 | int(words[0])
        bit_generator.state = state
    return int(words[4]), int(words[5])


def _numpy_ito_sums(v: np.ndarray) -> tuple[float, float]:
    """(sum v_i (v_{i+1} - v_i), sum v_i^2) over i < n for v = v[0..n]: numpy's leaf.

    The differences and then the products are formed in ``scratch(n)`` and
    summed with np.sum.
    """
    left = v[:-1]
    d = np.subtract(v[1:], left, out=scratch(left.size))
    ito_sum = float(np.sum(np.multiply(left, d, out=d)))
    return ito_sum, float(np.sum(np.multiply(left, left, out=d)))


def _c_ito_sums(sums, v: np.ndarray) -> tuple[float, float]:
    """``_numpy_ito_sums(v)`` by the C ``sums``, where it passes ``_probe_passes``.

    One pass over v, which is only read: a view that is not contiguous or
    not aligned is first copied into this thread's ``scratch``.  ValueError
    unless v is 1-D float64, as numpy's leaf raises on a 2-D array.
    """
    if v.dtype != np.float64 or v.ndim != 1:
        raise ValueError("the Ito sums need a 1-D float64 array")
    if not (v.flags.c_contiguous and v.flags.aligned):
        piece = scratch(v.size)
        piece[...] = v
        v = piece
    out = np.empty(2)
    sums(v.ctypes.data, v.size - 1, out.ctypes.data)
    return float(out[0]), float(out[1])


def ito_sums_leaf() -> Callable[[np.ndarray], tuple[float, float]]:
    """The function that takes a path piece's two Ito sums on this process's route.

    ``_c_ito_sums`` with the checked kernel's ``oufar_ito_sums`` where
    ``_ar1_kernel`` has one, else ``_numpy_ito_sums``; either gives the bits
    of numpy's leaf.  Decided with the AR(1) route, once per process.
    """
    kernel = _ar1_kernel()
    return _numpy_ito_sums if kernel is None else functools.partial(_c_ito_sums, kernel.ito_sums)


# 2^13 steps a path of the probe, but for one odd count
_PROBE_STEPS = 1 << 13

# (seed, steps, a, scales, shift, x0) of the probe: both schemes' factors, signed zero
# shifts and starts, zero and negative a, and factors whose product underflows, so that
# every innovation is a zero of either sign; that case runs at seed 6, as seed 5 draws no
# normal from the ziggurat's tail.  The C loop draws its normals in pairs: seed 2's odd
# count leaves it a last normal alone, whose word at these steps enters the wedge
_PROBE_CASES = [
    (0, _PROBE_STEPS, 1.0 - 0.7 * 0.02, (math.sqrt(0.02), 1.3), 0.0, 0.0),
    (1, _PROBE_STEPS, math.exp(-0.02), (0.14,), -0.0, -0.0),
    (2, 8111, -0.0, (1.0,), -0.0, 1e6),
    (3, _PROBE_STEPS, 0.0, (0.5, 2.0), 0.25, -0.0),
    (4, _PROBE_STEPS, -1.3, (1e-3, 3.0), -0.0, -2.5),
    (6, _PROBE_STEPS, -0.0, (1e-200, 1e-200), -0.0, -0.0),
]
# 49071 normals in all: at these seeds the ziggurat enters its wedge 697 times and its
# tail 13 times, each case both, the tail at odd and at even steps

# the term counts of the Ito sums' probe, each cut from the start of every probe path: a
# run of fewer than 8 terms, a run of 8-128 with a remainder after its 8 accumulators,
# runs whose n/2 is not a multiple of 8 (1000 and the odd 8189), and the whole path (seed
# 2's 8111 steps are cut whole by 8189 too)
_PROBE_SUM_TERMS = (5, 100, 1000, 8189, _PROBE_STEPS)


def _sums_agree(kernel: _Kernel, v: np.ndarray) -> bool:
    """Whether ``kernel``'s Ito sums of v have the bits of numpy's leaf."""
    with np.errstate(all="ignore"):  # a probe path at a = -1.3 overflows to +-inf
        numpy_sums = _numpy_ito_sums(v)
    return np.array(_c_ito_sums(kernel.ito_sums, v)).tobytes() == np.array(numpy_sums).tobytes()


def _probe_passes(kernel: _Kernel) -> bool:
    """Whether ``kernel`` draws as ``standard_normal``, ``_scipy_ar1`` and sums as numpy's leaf.

    Each case of ``_PROBE_CASES`` draws one path from a fixed seed with
    ``_fused_ar1``, and the same seed's ``standard_normal`` followed by
    ``_scipy_ar1`` must give the same bytes and leave the same generator
    state; one generator first draws a 32-bit integer, so its
    state holds a buffered half word, and one path has an odd step count, so
    the loop draws its last normal alone, not in a pair.  The probe also
    requires that its draws entered the ziggurat's wedge and its tail.  On
    the first ``_PROBE_SUM_TERMS`` terms of each path, the last one all zeros of either
    sign, and on a constant negative path, whose every term is -0.0 and whose
    sums are +0.0, ``_c_ito_sums`` must have the bits of ``_numpy_ito_sums``.
    """
    slow = np.zeros(2, dtype=np.int64)
    for seed, steps, a, scales, shift, x0 in _PROBE_CASES:
        fused, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed == 1:
            fused.integers(10, dtype=np.uint32)
            numpy.integers(10, dtype=np.uint32)
        v = np.empty(steps + 1)
        v[0] = x0
        slow += _fused_ar1(kernel.ar1, v, a, scales, shift, fused.bit_generator)
        w = np.empty_like(v)
        w[0] = x0
        numpy.standard_normal(out=w[1:])
        if (v.tobytes() != _scipy_ar1(w, a, scales, shift).tobytes()
                or fused.bit_generator.state != numpy.bit_generator.state):
            return False
        if not all(_sums_agree(kernel, v[:n + 1]) for n in _PROBE_SUM_TERMS):
            return False
    return bool(slow.all()) and _sums_agree(kernel, np.full(9, -1.0))


def _ar1_kernel() -> _Kernel | None:
    """The C functions of ``_ar1.c`` that draw PCG64 paths and take Ito sums, or None.

    They are there where ``_ar1.c`` is built, loads and passes
    ``_probe_passes``.  Decided on the first call in a process and kept; a
    missing compiler, a failed build, an unwritable cache, a load error or a
    failed probe gives None, and then ``_ar1`` takes the scipy route and the
    Ito sums numpy's leaf.
    """
    with _kernel_lock:
        if not _kernel:
            try:
                kernel = _load_ar1()
            except (OSError, AttributeError, ImportError):  # ImportError: no fcntl
                kernel = None
            _kernel.append(kernel if kernel is not None and _probe_passes(kernel) else None)
    return _kernel[0]


def ar1_route() -> str:
    """The route of this process's AR(1) paths: ``"fused"`` or ``"scipy"``.

    It is the route of paths drawn from a PCG64 ``Generator``; paths from any
    other generator take the scipy route either way.  It is also the route
    of every Ito sum: the C sums on ``"fused"``, numpy's leaf on ``"scipy"``.
    """
    return "scipy" if _ar1_kernel() is None else "fused"


def positive_finite(x: float) -> bool:
    """x > 0 and finite; false for NaN, which fails every comparison."""
    return x > 0.0 and math.isfinite(x)


def check_positive(**values: float) -> None:
    """Raise DomainError naming every one of ``values`` that is not positive and finite."""
    bad = [f"{name}={value!r}" for name, value in values.items() if not positive_finite(value)]
    if bad:
        raise DomainError(f"must be positive and finite: {', '.join(bad)}")


def _decay_integral(rate: float, h: float) -> float:
    """int_0^h exp(-2 rate t) dt = -expm1(-x) / 2 / rate with x = rate h 2; h below x = 2^-53.

    x is formed without 2 rate, which may overflow where x does not, and the halving comes
    first, so the quotient is finite wherever the integral is.  Below x = 2^-53 the integral
    is h (1 - x/2 + ...), so h is its correctly rounded value, also where rate h is subnormal.
    """
    x = rate * h * 2.0
    return -math.expm1(-x) / 2.0 / rate if x >= 2.0**-53 else h


@dataclass(frozen=True)
class OuParams:
    """Drift/scale parameters (theta, mu, sigma), theta and sigma positive.

    The stationary variance is sigma (sigma D(theta, inf)) and the std
    sigma sqrt(D(theta, inf)), with D(theta, inf) = 0.5/theta from ``_decay_integral``;
    both are inf below theta = 2.8e-309, where 0.5/theta overflows.
    """

    theta: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_positive(theta=self.theta, sigma=self.sigma)
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")

    @property
    def stationary_variance(self) -> float:
        return self.sigma * (self.sigma * _decay_integral(self.theta, math.inf))

    @property
    def stationary_std(self) -> float:
        return self.sigma * math.sqrt(_decay_integral(self.theta, math.inf))


def check_euler_stable(thetas, dt: float) -> None:
    """Raise DomainError unless theta dt < 2, for theta and dt positive.

    That is the Euler factor 1 - theta dt strictly inside (-1, 1), tested on the
    product: below theta dt = 2^-54 the factor rounds to 1.0, which the product does
    not.  Outside it the Euler recursion does not contract and its paths grow
    without bound; the one test for experiment configs and ``simulate``.
    """
    unstable = [t for t in thetas if t * dt >= 2.0]
    if unstable:
        raise DomainError(f"euler scheme diverges: theta*dt >= 2 for theta={unstable} at dt={dt}")


def grid_multiple(value: float, step: float) -> int | None:
    """n >= 1 when ``value`` is n times ``step`` within 1e-9 relative, else None.

    The one test of "integer multiple" for grids, segment lengths and
    experiment horizons.
    """
    ratio = value / step
    if not math.isfinite(ratio):  # e.g. 1e300 / 1e-10 overflows
        return None
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1e-9 * max(ratio, 1.0):
        return None
    return n


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with step dt; t_end/dt must be integral.

    The ratio t_end/dt has to round to an integer within 1e-9 relative
    tolerance, otherwise the constructor raises GridMismatch.  The grid
    stores n_steps + 1 nodes, both endpoints included.
    """

    t_end: float
    dt: float
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not (self.t_end > 0.0) or not (self.dt > 0.0):
            raise GridMismatch(f"t_end and dt must be positive, got {self.t_end}, {self.dt}")
        n = grid_multiple(self.t_end, self.dt)
        if n is None:
            raise GridMismatch(f"t_end={self.t_end} is not an integer multiple of dt={self.dt}")
        object.__setattr__(self, "n_steps", n)

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(eq=False)
class SamplePath:
    """Values at the nodes of a TimeGrid, first at t=0: a path, or a block (FunctionalSegment).

    A wrong count of values raises GridMismatch, a non-finite value DomainError.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_steps + 1,):
            raise GridMismatch(f"path needs {self.grid.n_steps + 1} values, got {values.shape}")
        # min and max propagate NaN, so both are finite iff every value is
        if not (math.isfinite(values.min()) and math.isfinite(values.max())):
            raise DomainError("path values must be finite")
        self.values = values

    @property
    def end_value(self) -> float:
        """The last value: a block's f(h), the coordinate the autocorrelation operator acts on."""
        return float(self.values[-1])


def stationary_density(params: OuParams, x):
    """Stationary probability density exp(-z^2/2) / (std sqrt(2 pi)), z = (x - mu)/std.

    This is the N(mu, std^2) density, std = ``params.stationary_std``, so
    std^2 = sigma^2/(2 theta); it integrates to one.  Taken through std, it forms no
    sigma^2, which overflows or underflows beyond sigma = 1e+-154.
    """
    std = params.stationary_std
    z = (np.asarray(x, dtype=float) - params.mu) / std
    out = np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


def covariance(params: OuParams, t, s):
    """Stationary covariance sigma^2/(2 theta) * exp(-theta |t - s|)."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    out = params.stationary_variance * np.exp(-params.theta * np.abs(t - s))
    return out if out.ndim else float(out)


def conditional_moments(params: OuParams, c: float, t: float, s: float):
    """Mean and covariance of (xi_t, xi_s) given xi_0 = c, for t, s >= 0.

    Returns ``(mean_t, cov_ts)`` with

        mean_t = mu + exp(-theta t) (c - mu)
        cov_ts = sigma^2 D(theta, min(t, s)) exp(-theta |t-s|)
               = sigma^2/(2 theta) (exp(-theta |t-s|) - exp(-theta (t+s))),

    which does not depend on c, and is 0 at t = s = 0.
    """
    if t < 0.0 or s < 0.0:
        raise DomainError("conditional moments require t, s >= 0")
    th, mu, sigma = params.theta, params.mu, params.sigma
    mean_t = mu + math.exp(-th * t) * (c - mu)
    cov_ts = sigma * (sigma * _decay_integral(th, min(t, s))) * math.exp(-th * abs(t - s))
    return mean_t, cov_ts


def gaussian_tail_bound(sigma: float, x):
    """Upper bound exp(-z^2/2), z = x/sigma, for P(|N(0, sigma^2)| >= x), x >= 0.

    Taken through z, it forms no 2 sigma^2, which underflows to 0 below sigma = 1e-162.
    """
    check_positive(sigma=sigma)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("tail bound requires x >= 0")
    z = x / sigma
    out = np.exp(-0.5 * z * z)
    return out if out.ndim else float(out)


def _ar1(n: int, x0: float, a: float, scales: tuple[float, ...], shift: float,
         rng: np.random.Generator) -> np.ndarray:
    """Values of xi_0 = x0, xi_i = a xi_{i-1} + u_i, with u_i = Z_i * scales + shift.

    The one kernel of both samplers.  The n standard normals Z_i are drawn
    in one block from ``rng``, after x0, by one of two routes: on the fused
    route (``ar1_route``), for a ``np.random.Generator`` on
    ``np.random.PCG64`` only, the C loop draws them itself and recurses in
    a new path array; otherwise ``standard_normal`` fills this thread's
    ``scratch`` and ``_scipy_ar1`` works from there into a new array.
    Either way the path and the generator's state after have the bits of
    ``standard_normal`` followed by ``_scipy_ar1``, xi_0 = x0 included
    (-0.0 stays -0.0), and the path is a new array.
    """
    kernel = _ar1_kernel()
    if (kernel is not None and type(rng) is np.random.Generator
            and type(rng.bit_generator) is np.random.PCG64):
        v = np.empty(n + 1)
        v[0] = x0
        _fused_ar1(kernel.ar1, v, a, scales, shift, rng.bit_generator)
        return v
    v = scratch(n + 1)
    v[0] = x0
    rng.standard_normal(out=v[1:])
    return _scipy_ar1(v, a, scales, shift)


def sample_euler(
    params: OuParams, grid: TimeGrid, rng: np.random.Generator, x0: float = 0.0
) -> SamplePath:
    """Euler-Maruyama path: xi_{i+1} = xi_i - theta (xi_i - mu) dt + sigma dW_i.

    The increments dW_i are i.i.d. N(0, dt), drawn in one block from ``rng``;
    the same seed therefore reproduces the same path byte for byte.  The
    innovations are u_i = theta mu dt + sigma (Z_i sqrt(dt)).
    """
    dt, theta = grid.dt, params.theta
    shift = theta * params.mu * dt
    values = _ar1(grid.n_steps, x0, 1.0 - theta * dt, (math.sqrt(dt), params.sigma), shift, rng)
    return SamplePath(grid, values)


def exact_transition(params: OuParams, dt: float) -> tuple[float, float]:
    """One-step coefficients of the exact transition over a step of length dt.

    Returns ``(decay, innovation_sd)`` such that
    xi_{t+dt} = mu + decay * (xi_t - mu) + innovation_sd * Z with Z ~ N(0,1):
    decay = exp(-theta dt) and innovation_sd = sigma sqrt(D(theta, dt)), which keeps
    its digits at a small theta dt (it is sigma sqrt(dt) below theta dt = 2^-54) and
    is finite wherever the sd is.  At dt = 0 this degenerates to (1, 0): the state
    passes through unchanged.
    """
    if dt < 0.0:
        raise DomainError("step length must be nonnegative")
    return math.exp(-params.theta * dt), params.sigma * math.sqrt(_decay_integral(params.theta, dt))


def sample_exact(
    params: OuParams,
    grid: TimeGrid,
    rng: np.random.Generator,
    x0: float = 0.0,
    stationary: bool = False,
) -> SamplePath:
    """Path drawn from the exact Gaussian transition of the process.

    With ``stationary=True`` the initial state is drawn from the stationary
    law N(mu, sigma^2/(2 theta)) before the innovation block, so the whole
    path is a stationary Gaussian sequence.  Otherwise the path starts at
    ``x0``.  Deterministic given the seeded ``rng``.
    """
    decay, sd = exact_transition(params, grid.dt)
    if stationary:
        x0 = params.mu + params.stationary_std * rng.standard_normal()
    values = _ar1(grid.n_steps, float(x0), decay, (sd,), params.mu * (1.0 - decay), rng)
    return SamplePath(grid, values)
