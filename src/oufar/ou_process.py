"""Ornstein-Uhlenbeck process: parameters, exact moments, and path samplers.

The process solves the Langevin equation

    d xi_t = theta * (mu - xi_t) dt + sigma dW_t,    theta, sigma > 0,

and is stationary Gaussian with mean ``mu`` and covariance
``sigma^2/(2 theta) * exp(-theta |t - s|)``.  Two samplers are provided: the
Euler-Maruyama discretization (the scheme used by the Monte Carlo harness)
and the exact Gaussian transition (used as a distributional oracle).

Both samplers are thin calls of one kernel, ``_ar1``: it draws a block of
standard normals into the thread's ``scratch`` buffer, scales and shifts
them in place into the innovations, and runs the AR(1) recursion
xi_{i+1} = a xi_i + u_i with the Euler factor a = 1 - theta dt or the exact
decay a = exp(-theta dt).  The recursion goes through ``lfilter``, which calls
scipy's compiled ``_linear_filter``.  Its extension module
``scipy.signal._sigtools`` is loaded by file on the first call, under its
real name, without running ``scipy/signal/__init__`` (about 1.2 s and
75 MiB of imports that nothing here uses); a later ``import scipy.signal``
finds it in ``sys.modules`` and reuses it.  Where the extension cannot be
found or loaded, ``lfilter`` falls back to the public
``scipy.signal.lfilter``, which runs the same routine.  Importing this
module loads no scipy code at all; with the other modules doing the same,
a fresh ``oufar simulate`` or ``oufar --version`` starts in about 0.3 s
instead of 1.5 s (2-vCPU Intel Xeon; README, "Start-up cost").

A path chunk's temporaries live in ``scratch``: one reusable buffer per
thread (see there for why).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field

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
_filter = None  # bound by the first lfilter call
_filter_lock = threading.Lock()


def _load_filter():
    """(b, a, x) -> y through scipy's ``_linear_filter``, else ``scipy.signal.lfilter``."""
    try:
        module = sys.modules.get(_SIGTOOLS)
        if module is None:
            scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
            spec = importlib.machinery.PathFinder.find_spec(
                _SIGTOOLS, [os.path.join(d, "signal") for d in scipy_dirs]
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_SIGTOOLS] = module
        linear_filter = module._linear_filter
    except (ImportError, AttributeError):  # no spec (None) or no such routine
        from scipy.signal import lfilter as public

        return public
    # what scipy.signal.lfilter runs for a denominator of two or more taps and no zi
    return lambda b, a, x: linear_filter(np.atleast_1d(b), np.atleast_1d(a), np.asarray(x), -1)


def lfilter(b, a, x) -> np.ndarray:
    """``scipy.signal.lfilter(b, a, x)`` from a zero state, for 1-D x and len(a) >= 2.

    The one call of the AR(1) recursion; the scipy code behind it is loaded
    on the first call (see the module docstring).
    """
    global _filter
    if _filter is None:
        with _filter_lock:
            if _filter is None:
                _filter = _load_filter()
    return _filter(b, a, x)


def positive_finite(x: float) -> bool:
    """x > 0 and finite; false for NaN, which fails every comparison."""
    return x > 0.0 and math.isfinite(x)


@dataclass(frozen=True)
class OuParams:
    """Drift/scale parameters (theta, mu, sigma), theta and sigma positive."""

    theta: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not positive_finite(self.theta):
            raise DomainError(f"theta must be positive, got {self.theta}")
        if not positive_finite(self.sigma):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")

    @property
    def stationary_variance(self) -> float:
        return self.sigma**2 / (2.0 * self.theta)

    @property
    def stationary_std(self) -> float:
        return math.sqrt(self.stationary_variance)


def check_euler_stable(thetas, dt: float) -> None:
    """Raise DomainError unless the Euler factor 1 - theta dt lies strictly inside (-1, 1).

    Outside it the Euler recursion does not contract and its paths grow
    without bound; the one test for experiment configs and ``simulate``.
    """
    unstable = [t for t in thetas if abs(1.0 - t * dt) >= 1.0]
    if unstable:
        raise DomainError(
            f"euler scheme diverges for theta={unstable} at dt={dt}: need |1 - theta*dt| < 1"
        )


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
    """Discretized trajectory on a TimeGrid, first value at t=0."""

    grid: TimeGrid
    values: np.ndarray
    params: OuParams | None
    scheme: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_steps + 1,):
            raise GridMismatch(
                f"path needs {self.grid.n_steps + 1} values, got {self.values.shape}"
            )
        # min and max propagate NaN, so both are finite iff every value is
        if not (math.isfinite(self.values.min()) and math.isfinite(self.values.max())):
            raise DomainError("path values must be finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")


def stationary_density(params: OuParams, x):
    """Stationary probability density sqrt(theta/(pi sigma^2)) exp(-theta (x-mu)^2/sigma^2).

    This is the N(mu, sigma^2/(2 theta)) density; it integrates to one.
    """
    x = np.asarray(x, dtype=float)
    z = np.sqrt(params.theta / (math.pi * params.sigma**2))
    out = z * np.exp(-params.theta * (x - params.mu) ** 2 / params.sigma**2)
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
        cov_ts = sigma^2/(2 theta) exp(-theta |t-s|) + (c^2 - 2 c mu + mu^2) exp(-theta (s+t))
    """
    if t < 0.0 or s < 0.0:
        raise DomainError("conditional moments require t, s >= 0")
    th, mu = params.theta, params.mu
    mean_t = mu + math.exp(-th * t) * (c - mu)
    cov_ts = params.stationary_variance * math.exp(-th * abs(t - s)) + (
        c * c - 2.0 * c * mu + mu * mu
    ) * math.exp(-th * (s + t))
    return mean_t, cov_ts


def gaussian_tail_bound(sigma: float, x):
    """Upper bound exp(-x^2/(2 sigma^2)) for P(|N(0, sigma^2)| >= x), x >= 0."""
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("tail bound requires x >= 0")
    out = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return out if out.ndim else float(out)


def _ar1(n: int, x0: float, a: float, scales: tuple[float, ...], shift: float,
         rng: np.random.Generator) -> np.ndarray:
    """Values of xi_0 = x0, xi_{i+1} = a xi_i + u_i, with u_i = Z_i * scales + shift.

    The one kernel of both samplers.  The n standard normals Z_i are drawn
    in one block from ``rng`` into this thread's ``scratch``, after x0, and
    multiplied by the factors of ``scales`` one at a time, in order (the
    order fixes the rounding), then shifted, all in place.  lfilter with
    b=[1], a=[1, -a] runs the recursion over [x0, u_0, ..., u_{n-1}] in C,
    one multiply and one add per step, so the result is bit-identical to the
    plain Python loop.  From a zero initial state its first output is
    0.0 + x0, which carries x0 into the recursion but turns -0.0 into +0.0,
    so xi_0 is put back afterwards.  The path is a new array.
    """
    v = scratch(n + 1)
    v[0] = x0
    u = v[1:]
    rng.standard_normal(out=u)
    for factor in scales:
        np.multiply(u, factor, out=u)
    np.add(u, shift, out=u)
    path = lfilter([1.0], [1.0, -a], v)
    path[0] = x0
    return path


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
    return SamplePath(grid=grid, values=values, params=params, scheme="euler")


def exact_transition(params: OuParams, dt: float) -> tuple[float, float]:
    """One-step coefficients of the exact transition over a step of length dt.

    Returns ``(decay, innovation_sd)`` such that
    xi_{t+dt} = mu + decay * (xi_t - mu) + innovation_sd * Z with Z ~ N(0,1).
    At dt = 0 this degenerates to (1, 0): the state passes through unchanged.
    """
    if dt < 0.0:
        raise DomainError("step length must be nonnegative")
    decay = math.exp(-params.theta * dt)
    try:
        var = params.sigma**2 * (1.0 - math.exp(-2.0 * params.theta * dt)) / (2.0 * params.theta)
    except OverflowError:  # float ** raises where * would give inf
        raise DomainError(f"sigma={params.sigma}: sigma^2 overflows") from None
    return decay, math.sqrt(max(var, 0.0))


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
    return SamplePath(grid=grid, values=values, params=params, scheme="exact")
