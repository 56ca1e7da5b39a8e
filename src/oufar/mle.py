"""Maximum-likelihood estimation of the mean-reversion rate theta.

Both discretizations of the continuous-record MLE
``theta_hat = -int xi dxi / int xi^2 dt`` are provided: the Ito-sum form
(left endpoint in both sums) and the closed endpoint form
``(1 + xi_0^2/T - xi_T^2/T) / ((2/T) int xi^2 dt)``, which assumes unit
diffusion scale.  Asymptotics: sqrt(T) (theta_hat - theta) -> N(0, 2 theta),
and the iterated-logarithm fluctuation scale sqrt(4 theta log log T / T).

Both forms fit the centred model dxi = -theta xi dt + sigma dW (mu = 0), unchecked: a
path with mean mu != 0 gives a meaningless estimate.  On an exact-transition path with
step dt, theta_hat converges to (1 - exp(-theta dt)) / dt, not to theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ZeroDenominator
from .ou_process import SCRATCH_VALUES, SamplePath, check_positive, ito_sums_leaf


@dataclass(frozen=True)
class ThetaEstimate:
    """MLE of theta with its building blocks for diagnostics.

    ``theta_hat = numerator / denominator`` for the ito_discrete form; the
    endpoint form stores its own numerator/denominator pair.  ``sum_sq`` is
    the raw sum of squared left values, before the factor dt: the Ito
    numerators and ``sum_sq`` of consecutive pieces of one path add up to
    those of the whole path.  A nonpositive estimate is representable
    (flagged via ``nonpositive``); operator constructions downstream reject
    it explicitly.
    """

    theta_hat: float
    t_end: float
    dt: float
    numerator: float
    denominator: float
    form: str  # "ito_discrete" | "endpoint"
    sum_sq: float

    @property
    def nonpositive(self) -> bool:
        return bool(self.theta_hat <= 0.0)


def _pairwise(n: int, leaf: Callable[[int], tuple[float, float]], cap: int) -> tuple[float, float]:
    """Two sums of n terms in numpy's pairwise order; ``leaf(m)`` sums the next m terms.

    numpy sums a float64 array pairwise: a run longer than 128 terms is split
    at n2 = n//2 - (n//2) % 8 and the sums of its two halves are added.  This
    walks the same tree down to runs of at most ``cap`` (>= 128) terms, the
    leaves, whose sums follow the tree below them (np.sum's, or the C sums
    of ``_ar1.c``, which follow the same order); adding the leaf sums back
    up the tree gives the one-shot sums bit for bit.  The one implementation
    of the tree above the leaves, for ``theta_ito_from_values`` and the Monte
    Carlo harness's chunked paths.
    """
    if n <= cap:
        return leaf(n)
    half = n // 2
    half -= half % 8
    first = _pairwise(half, leaf, cap)
    second = _pairwise(n - half, leaf, cap)
    return first[0] + second[0], first[1] + second[1]


def theta_ito_from_values(values: np.ndarray, dt: float) -> ThetaEstimate:
    """Ito-sum estimate from raw grid values (left-endpoint convention).

    The sums are reduced leaf by leaf over numpy's pairwise tree and equal
    those of one np.sum over all products.  A leaf's sums are
    taken by ``ou_process.ito_sums_leaf()``: one pass of the C sums of
    ``_ar1.c`` where they passed the AR(1) kernel's probe, else numpy's
    passes in the thread's ``scratch`` buffer; on either route no
    temporary grows with the path.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DomainError("need at least two path values")
    sums, start = ito_sums_leaf(), 0

    def leaf(m: int) -> tuple[float, float]:
        nonlocal start
        piece = values[start:start + m + 1]
        start += m
        return sums(piece)

    # a leaf's m products, or its m + 1 values copied for the C sums, fit the scratch buffer
    ito_sum, sum_sq = _pairwise(values.size - 1, leaf, SCRATCH_VALUES - 1)
    return theta_ito_from_sums(-ito_sum, sum_sq, values.size - 1, dt)


def theta_ito_from_sums(numerator: float, sum_sq: float, n_steps: int, dt: float) -> ThetaEstimate:
    """Ito-sum estimate from -sum xi_i (xi_{i+1} - xi_i) and sum xi_i^2 over n_steps steps.

    Pieces of a path merge here: adding their ``numerator`` and ``sum_sq``
    in the order numpy's pairwise sum would add them gives the one-shot
    estimate bit for bit (negation is exact, so adding numerators is adding
    the sums they negate).
    """
    den = sum_sq * dt
    if den == 0.0:
        raise ZeroDenominator("sum of squared path values vanishes")
    return ThetaEstimate(numerator / den, n_steps * dt, dt, numerator, den, "ito_discrete", sum_sq)


def _endpoint_form(ito: ThetaEstimate, values: np.ndarray) -> ThetaEstimate:
    """Endpoint-form estimate from ``ito``, the Ito-sum estimate of the float64 ``values``.

    T, the sum of squares and the Riemann denominator are taken from ``ito``.
    """
    t_end = ito.t_end
    num = float(1.0 + values[0] ** 2 / t_end - values[-1] ** 2 / t_end)
    den = 2.0 / t_end * ito.denominator
    return ThetaEstimate(num / den, t_end, ito.dt, num, den, "endpoint", ito.sum_sq)


def theta_endpoint_from_values(values: np.ndarray, dt: float) -> ThetaEstimate:
    """Endpoint-form estimate (1 + xi_0^2/T - xi_T^2/T) / ((2/T) sum xi_i^2 dt).

    T, the sum of squares and its checks are those of the Ito-sum kernel.
    """
    values = np.asarray(values, dtype=float)
    return _endpoint_form(theta_ito_from_values(values, dt), values)


def estimate_theta_ito(path: SamplePath) -> ThetaEstimate:
    """MLE via Ito sums: -sum xi_i (xi_{i+1} - xi_i) / sum xi_i^2 dt."""
    return theta_ito_from_values(path.values, path.grid.dt)


def estimate_theta_endpoint(path: SamplePath) -> ThetaEstimate:
    """MLE via the endpoint closed form with a left-Riemann integral."""
    return theta_endpoint_from_values(path.values, path.grid.dt)


def asymptotic_std(theta: float, t_end: float) -> float:
    """Asymptotic standard deviation sqrt(2 theta / T) of theta_hat - theta."""
    check_positive(theta=theta, T=t_end)
    return math.sqrt(2.0 * theta / t_end)


def _check_band_k(k: float) -> None:
    """Raise DomainError unless the band multiplier k is finite and >= 0."""
    if not 0.0 <= k < math.inf:
        raise DomainError(f"band k must be finite and >= 0, got {k!r}")


def confidence_band(theta: float, t_end: float, k: float = 3.0) -> tuple[float, float]:
    """Symmetric band +-k sqrt(2 theta / T) around zero for theta_hat - theta."""
    _check_band_k(k)
    half = k * asymptotic_std(theta, t_end)
    return -half, half


def lil_envelope(theta: float, t_end: float) -> float:
    """Iterated-logarithm fluctuation scale sqrt(4 theta log(log T) / T), e < T < inf."""
    check_positive(theta=theta)
    if not math.e < t_end < math.inf:
        raise DomainError(f"T must exceed e for log log T > 0 and be finite, got {t_end}")
    return math.sqrt(4.0 * theta * math.log(math.log(t_end)) / t_end)
