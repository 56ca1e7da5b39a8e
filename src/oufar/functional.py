"""Functional layer: path segmentation, norms, and the autocorrelation operator.

A path on [0, T] is cut into blocks X_n(t) = xi_{nh + t}, 0 <= t <= h.  A block
is a ``FunctionalSegment``, the paper's name for ``ou_process.SamplePath``, the
type of the path itself: its values at the m + 1 nodes of a ``TimeGrid`` on
[0, h] with step h/m, and ``end_value``, its f(h).  The blocks form an
autoregression X_n = rho_theta(X_{n-1}) + eps_n driven by the rank-one operator
(rho_theta x)(t) = exp(-theta t) x(h).  Two norms are used:

* ``h_norm``: sqrt(int_0^h f^2 dt + f(h)^2), the L2 norm under Lebesgue
  measure plus a unit point mass at the right endpoint.  The atom is carried
  by the final grid node and added outside the quadrature sum.
* ``b_norm``: the supremum norm over the nodes.

Closed-form operator norms and operator distances come with brute-force
discrete oracles so every formula is checked by an independent route.  Their
int_0^h exp(-2 rate t) dt is ``ou_process._decay_integral``, the helper every OU
variance is taken from.
Only ``operator_distance_h`` at distinct but nearly equal rates needs scipy: the ufunc
``gammainc`` for its unit-interval moments, taken on that first use from the extension
``scipy.special._special_ufuncs`` alone (``ou_process._special_ufunc``).  A moment at
2 theta h below 2^-53 is 1/(k+1) and needs no scipy.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError, GridMismatch
from .ou_process import (
    SamplePath,
    TimeGrid,
    _decay_integral,
    _special_ufunc,
    check_positive,
    grid_multiple,
)


# a block is a path on [0, h]: the paper's name for the one value type
FunctionalSegment = SamplePath


def trapezoid_quad(values: np.ndarray, dx: float) -> float:
    """Composite trapezoid sum; the one quadrature used across the package."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise GridMismatch("quadrature needs at least two nodes")
    return float(dx * (0.5 * values[0] + np.sum(values[1:-1]) + 0.5 * values[-1]))


def h_norm(seg: FunctionalSegment) -> float:
    """sqrt(Q(f^2) + f(h)^2) with Q the trapezoid rule on the segment's grid."""
    interior = trapezoid_quad(seg.values**2, seg.grid.dt)
    return math.sqrt(interior + seg.end_value**2)


def b_norm(seg: FunctionalSegment) -> float:
    """Supremum norm over the nodes."""
    return float(np.max(np.abs(seg.values)))


def atom_indicator(grid: TimeGrid) -> FunctionalSegment:
    """Indicator of a Lebesgue-null set containing h: zero except at the last node.

    It has unit norm under the endpoint-atom measure and attains the
    operator norm of the autocorrelation operator.
    """
    values = np.zeros(grid.n_steps + 1)
    values[-1] = 1.0
    return FunctionalSegment(grid=grid, values=values)


def _check_power(k: int) -> None:
    """Raise DomainError unless the operator power k is an integer >= 1 (bool excluded)."""
    if not (isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 1):
        raise DomainError(f"power must be an integer >= 1, got {k!r}")


def apply_rho_power(theta: float, k: int, x: FunctionalSegment) -> FunctionalSegment:
    """(rho^k x)(t) = exp(-theta t) rho_norm_b(theta, k, h) x(h) at the nodes of x's grid.

    h is ``x.grid.t_end``.  The checks of theta and k are ``rho_norm_b``'s; at k = 1 its
    factor 1.0 x(h) is exact.
    """
    factor = rho_norm_b(theta, k, x.grid.t_end) * x.end_value
    return FunctionalSegment(grid=x.grid, values=np.exp(-theta * x.grid.times()) * factor)


def rho_norm_h(theta: float, k: int, h: float) -> float:
    """Exact operator norm of rho^k on L2([0,h], dt + endpoint atom):

        exp(-theta (k-1) h) * sqrt(int_0^h exp(-2 theta t) dt + exp(-2 theta h))

    with the integral from ``_decay_integral``: no cancellation at small theta h, and
    finite where 2 theta overflows.  It is < 1 for k = 1 iff theta > 1/2, and < 1 for
    every theta once k >= k0(theta).  The decay factor and the checks are ``rho_norm_b``'s.
    """
    decay = rho_norm_b(theta, k, h)
    return decay * math.sqrt(_decay_integral(theta, h) + math.exp(-theta * h * 2.0))


def rho_norm_h_discrete(theta: float, k: int, grid: TimeGrid) -> float:
    """Discrete-grid oracle for ``rho_norm_h`` on the block grid [0, h], h = grid.t_end.

    rho^k(x) depends on x only through x(h), so the discrete operator norm is
    attained by the atom indicator and equals

        rho_norm_b(theta, k, h) * sqrt(Q(exp(-2 theta t)) + exp(-2 theta h))

    with Q the trapezoid rule on the grid.  Agreement with the closed form is
    O((h/m)^2), the quadrature error, with m = grid.n_steps.  The exponents are
    (theta t) 2, not (2 theta) t, which overflows above theta = 9e307, and the decay
    and the checks of theta and k are ``rho_norm_b``'s.
    """
    h = grid.t_end
    decay = rho_norm_b(theta, k, h)
    q = trapezoid_quad(np.exp(-(theta * grid.times()) * 2.0), grid.dt)
    return decay * math.sqrt(q + math.exp(-(theta * h) * 2.0))


def rho_norm_b(theta: float, k: int, h: float) -> float:
    """Operator norm of rho^k on C([0,h]) with the sup norm: exp(-theta (k-1) h).

    The constant function 1 attains it (the sup of exp(-theta t) sits at
    t = 0), so the value is <= 1 always and equals 1 exactly for k = 1.
    The exact value for k >= 2 follows from the same witness; only the
    upper bound <= 1 is classical.  ``rho_norm_h`` and ``apply_rho_power``
    take the decay of rho^k from here.  The exponent is theta (k-1) h, or
    (theta h) (k-1) where theta (k-1) overflows and the exponent need not.
    """
    check_positive(theta=theta, h=h)
    _check_power(k)
    rate = theta * (k - 1)
    return math.exp(-(rate * h if rate < math.inf else theta * h * (k - 1)))


def k0(theta: float) -> int:
    """Smallest power ceil(1/theta + 1) making rho^k a strict contraction in h_norm.

    It is taken in exact integers from theta = n/d, so it is exact for every positive double.
    """
    check_positive(theta=theta)
    n, d = theta.as_integer_ratio()
    return -(-d // n) + 1


def _unit_moment(k: int, x: float) -> float:
    """int_0^1 s^k exp(-x s) ds = k! P(k+1, x) / x^(k+1); 1/(k+1) below x = 2^-53."""
    if x < 2.0**-53:  # exp(-x s) is 1 to rounding, and x^(k+1) may underflow
        return 1.0 / (k + 1)
    # the extension alone, not scipy.special (0.3 s and 20 MiB to import)
    gammainc = _special_ufunc("gammainc")
    return math.factorial(k) * float(gammainc(k + 1, x)) / x ** (k + 1)


def _rate_gap(a: float, b: float, t: float) -> float:
    """|exp(-a t) - exp(-b t)| as exp(-lo t) (-expm1(-(hi - lo) t)): no exponent is positive."""
    lo, hi = min(a, b), max(a, b)
    return math.exp(-lo * t) * -math.expm1((lo - hi) * t)


def operator_distance_h(theta: float, theta_hat: float, h: float) -> float:
    """Exact operator-norm distance between rho_theta and rho_theta_hat on H:

        sqrt(I + (exp(-theta h) - exp(-theta_hat h))^2),
        I = int_0^h (exp(-theta t) - exp(-theta_hat t))^2 dt.

    With lo < hi the two rates, d = hi - lo and the scaled gap u = (theta_hat - theta) h,
    I is the integral of exp(-2 lo t) (1 - exp(-d t))^2.  Above |u| = 1e-3 it is that
    integral over [0, inf) less the one over [h, inf):

        I = r (d/hi) D - exp(-2 lo h) (p/hi) (r + p/2),
        r = d/(lo + hi),  p = -expm1(-|u|),  D = int_0^h exp(-2 lo t) dt,

    two positive terms.  The first is r (d/hi) <= 1 times D, the first term of the
    three-term form D - 2 (1 - e^{-(lo+hi) h})/(lo + hi) + D(hi), so it cancels less.
    Up to |u| = 1e-3 the same integral is evaluated through its Taylor form in u
    (relative truncation error below 1e-9):

        I = h (u^2 J_2 - u^3 J_3 + 7/12 u^4 J_4),  J_k = int_0^1 s^k e^{-2 theta h s} ds.

    No power in it overflows: |u| <= 1e-3, and since two distinct doubles
    differ by at least 2^-53 of the larger, 2 theta h < 2e13.  Below
    |u| = 2^-500, where u^2 could underflow and the distance need not, u and
    2 theta h vanish beside 1 and the distance is ``operator_distance_h_bound``
    to rounding.  That linear bound dominates the result for every
    representable input, matching the underlying inequality.  Equal rates give
    0.0 at once.
    """
    check_positive(theta=theta, theta_hat=theta_hat, h=h)
    if theta == theta_hat:
        return 0.0
    a, b = theta, theta_hat
    u = (b - a) * h
    if abs(u) < 2.0**-500:
        # the linear bound to rounding: below, u^2 would underflow where the distance does not
        return operator_distance_h_bound(theta, theta_hat, h)
    endpoint = _rate_gap(a, b, h) ** 2
    if abs(u) <= 1e-3:
        # (1 - e^{-y})^2 = y^2 - y^3 + 7 y^4 / 12 - ... with y = u s at t = s h;
        # a h * 2, not 2 a * h: 2 a may overflow where 2 a h < 2e13
        j2, j3, j4 = (_unit_moment(k, a * h * 2.0) for k in (2, 3, 4))
        integral = h * (u**2 * j2 - u**3 * j3 + (7.0 / 12.0) * u**4 * j4)
    else:
        lo, hi = min(a, b), max(a, b)
        d = hi - lo
        r, p = d / (lo + hi), -math.expm1(-abs(u))
        tail = math.exp(-lo * h * 2.0) * (p / hi) * (r + p / 2.0)
        integral = r * (d / hi) * _decay_integral(lo, h) - tail
    # roundoff can push the integral a hair below zero where 2 lo h is subnormal
    return math.sqrt(max(integral, 0.0) + endpoint)


def operator_distance_h_bound(theta: float, theta_hat: float, h: float) -> float:
    """Upper bound |theta - theta_hat| * h * sqrt(h/3 + 1) for the H distance."""
    check_positive(theta=theta, theta_hat=theta_hat, h=h)
    return abs(theta - theta_hat) * h * math.sqrt(h / 3.0 + 1.0)


def operator_distance_b(theta: float, theta_hat: float, h: float) -> float:
    """sup_{0<=t<=h} |exp(-theta t) - exp(-theta_hat t)|, computed analytically.

    With lo < hi the two rates, the difference rises from 0 at t = 0 to its one peak at

        t* = ln(hi/lo) / (hi - lo) = log1p((hi - lo)/lo) / (hi - lo)

    and falls after it, so the sup is its value at min(t*, h).  ``log1p`` of the relative
    gap keeps the digits of near rates; where that gap overflows, ln hi - ln lo exceeds
    709 and cannot cancel.  ``_rate_gap`` evaluates the difference, so nearly-equal rates
    do not cancel and far-apart ones do not overflow.
    """
    check_positive(theta=theta, theta_hat=theta_hat, h=h)
    if theta == theta_hat:
        return 0.0
    lo, hi = min(theta, theta_hat), max(theta, theta_hat)
    relative_gap = (hi - lo) / lo
    log_ratio = math.log1p(relative_gap) if relative_gap < math.inf else math.log(hi) - math.log(lo)
    return _rate_gap(lo, hi, min(log_ratio / (hi - lo), h))


def operator_distance_b_grid(
    theta: float, theta_hat: float, h: float, nodes: int = 10**6
) -> float:
    """Brute-force oracle for ``operator_distance_b``: dense grid search."""
    t = np.linspace(0.0, h, nodes)
    return float(np.max(np.abs(np.exp(-theta * t) - np.exp(-theta_hat * t))))


def innovation(x_n: FunctionalSegment, x_prev: FunctionalSegment, theta: float) -> FunctionalSegment:
    """Autoregression residual eps_n = X_n - rho_theta(X_{n-1}).

    For consecutive blocks of one path, eps_n(0) = X_n(0) - X_{n-1}(h) = 0
    exactly because the boundary sample is shared.
    """
    a, b = x_n.grid, x_prev.grid
    if a != b:
        raise GridMismatch(f"segment grids differ: {a} vs {b}")
    values = x_n.values - apply_rho_power(theta, 1, x_prev).values
    return FunctionalSegment(grid=x_n.grid, values=values)


def segment_path(path: SamplePath, h: float) -> list[FunctionalSegment]:
    """Cut a path into blocks X_n(t) = xi_{nh+t}, n = 0 .. floor(T/h) - 1.

    ``h`` must be an integer multiple m of the path step (1e-9 relative) and
    T >= h.  Every block is on ``TimeGrid(t_end=h, dt=h / m)``, whose nodes are
    j (h/m), j = 0..m.  Consecutive blocks share the boundary sample, so
    X_n(0) == X_{n-1}(h) bit-exactly.
    """
    dt = path.grid.dt
    m = grid_multiple(h, dt)
    if m is None:
        raise GridMismatch(f"segment length {h} is not a multiple of path step {dt}")
    n_segments = path.grid.n_steps // m
    if n_segments < 1:
        raise GridMismatch(f"path of length {path.grid.t_end} too short for segments of {h}")
    grid = TimeGrid(t_end=h, dt=h / m)
    return [
        FunctionalSegment(grid=grid, values=path.values[n * m : (n + 1) * m + 1])
        for n in range(n_segments)
    ]
