"""Monte Carlo harness: band coverage, EMSE, predictor-bound exceedance, normality.

Replicates are independent work items.  Each one derives its own 64-bit seed
from (master_seed, theta_index, horizon_index, replicate_index) through a
splitmix64-based injective mixer, simulates a path, and estimates theta with
the Ito-sum MLE.  A path is drawn and reduced in chunks of at most 2^16
steps, so a worker's memory does not grow with the horizon, and the result
is bit-identical to drawing the whole path at once.  One pool of worker
threads runs every replicate of a grid, whatever the worker count, one
included; results are stored by replicate index and reduced in index order,
so reports are byte-identical for any worker count.

Importing this module loads no scipy code.  The normality report's
Kolmogorov-Smirnov distance (``ks_distance``) repeats the operations of
``scipy.stats.kstest``; its one scipy routine, the normal CDF ``ndtr``,
comes from the extension ``scipy.special._special_ufuncs``, loaded by file
on the first call (``ou_process._special_ufunc``).

Estimation failures (identically-zero paths) are excluded from the cell
statistics but counted and reported; they are never resampled, which would
bias coverage.

``EXPERIMENTS`` is the one table of experiment kinds: each kind simulates
one grid of replicates and reduces it to one or more reports, and each
report entry holds its cell fields and CSV columns.  The CLI's kinds, the
reports and CSV schemas of ``reporting`` and the desk/full profiles all
come from it.  ``run_experiment`` is the one runner and the one caller of
``collect_cells``: it returns every report of a kind, in table order, from
one simulation of its grid, sizes that simulation's pool, and draws no path
when ``simulated`` already holds its config.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from itertools import count, product
from typing import Callable

import numpy as np

from .errors import DomainError, ZeroDenominator
from .mle import (
    _check_band_k,
    _pairwise,
    asymptotic_std,
    confidence_band,
    lil_envelope,
    theta_ito_from_sums,
    theta_ito_from_values,
)
from .ou_process import (
    SCHEMES,
    SCRATCH_VALUES,
    OuParams,
    TimeGrid,
    _special_ufunc,
    check_euler_stable,
    check_positive,
    grid_multiple,
    positive_finite,
    sample_euler,
    sample_exact,
)
from .predict import error_bound_b, error_bound_h

_MASK64 = (1 << 64) - 1
# field widths of the packed replicate address: 16 + 16 + 32 bits
_MAX_THETA_INDEX = 1 << 16
_MAX_T_INDEX = 1 << 16
_MAX_REPLICATE_INDEX = 1 << 32

RNG_ALGORITHM = "numpy default_rng (PCG64); normal variates via Generator.standard_normal"


def _splitmix64(x: int) -> int:
    """One splitmix64 step: add the golden gamma, then finalize (bijective)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_replicate_seed(
    master_seed: int, theta_index: int, t_index: int, replicate_index: int
) -> int:
    """Stateless 64-bit seed for one replicate.

    The three indices are packed into disjoint bit fields (16+16+32) and the
    packed word is passed through xor-with-mixed-master and a second
    splitmix64 finalizer.  Both steps are bijections on 64-bit words, so for
    a fixed master seed the map from (theta_index, t_index, replicate_index)
    to the seed is injective.  Identical across platforms: pure integer
    arithmetic mod 2^64.
    """
    if not 0 <= theta_index < _MAX_THETA_INDEX:
        raise DomainError(f"theta_index out of range [0, {_MAX_THETA_INDEX}): {theta_index}")
    if not 0 <= t_index < _MAX_T_INDEX:
        raise DomainError(f"t_index out of range [0, {_MAX_T_INDEX}): {t_index}")
    if not 0 <= replicate_index < _MAX_REPLICATE_INDEX:
        raise DomainError(
            f"replicate_index out of range [0, {_MAX_REPLICATE_INDEX}): {replicate_index}"
        )
    packed = (theta_index << 48) | (t_index << 32) | replicate_index
    return _splitmix64(_splitmix64(master_seed & _MASK64) ^ packed)


def _is_count(x) -> bool:
    """A Python int that is not a bool (JSON true would otherwise pass as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A real number that is not a bool (nor a string such as JSON "0.02")."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and budget of one Monte Carlo experiment.

    Every horizon T must be an integer multiple of both dt and the segment
    length h (1e-9 relative), and h a multiple of dt, so segment boundaries
    fall on grid nodes.  ``scheme`` picks the path sampler; the exact scheme
    starts from the stationary law, whose variance must be finite, the Euler
    scheme from xi_0 = 0, and its recursion factor 1 - theta dt must lie
    strictly inside (-1, 1), otherwise its paths grow without bound.
    """

    thetas: tuple[float, ...]
    horizons: tuple[float, ...]
    dt: float = 0.02
    replicates: int = 200
    h: float = 1.0
    epsilon: float = 0.008
    band_k: float = 3.0
    scheme: str = "euler"
    master_seed: int = 20260810
    lil_multiplier: float = 1.5

    def __post_init__(self):
        for name in ("thetas", "horizons"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple, np.ndarray)) or not all(map(_is_number, grid)):
                raise DomainError(f"{name} must be a list of numbers, got {grid!r}")
            grid = tuple(float(t) for t in grid)
            if not grid or not all(map(positive_finite, grid)):
                raise DomainError(f"{name} must be positive and finite: {grid}")
            object.__setattr__(self, name, grid)
        floats = (self.dt, self.h, self.epsilon, self.band_k, self.lil_multiplier)
        if not all(map(_is_number, floats)):
            raise DomainError("dt, h, epsilon, band_k and lil_multiplier must be numbers")
        check_positive(dt=self.dt, h=self.h, epsilon=self.epsilon, lil_multiplier=self.lil_multiplier)
        _check_band_k(self.band_k)
        # each replicate's seed packs its indices into 16 + 16 + 32 bits
        if len(self.thetas) > _MAX_THETA_INDEX or len(self.horizons) > _MAX_T_INDEX:
            raise DomainError(
                f"at most {_MAX_THETA_INDEX} thetas and {_MAX_T_INDEX} horizons, got "
                f"{len(self.thetas)} and {len(self.horizons)}"
            )
        if not _is_count(self.replicates) or not 1 <= self.replicates <= _MAX_REPLICATE_INDEX:
            raise DomainError(
                f"replicates must be an integer in [1, {_MAX_REPLICATE_INDEX}], "
                f"got {self.replicates!r}"
            )
        if self.scheme not in SCHEMES:
            raise DomainError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "euler":
            check_euler_stable(self.thetas, self.dt)
        elif not all(math.isfinite(OuParams(theta=t).stationary_std) for t in self.thetas):
            # the exact scheme starts every path from the stationary law
            raise DomainError(f"the stationary variance overflows for a theta in {self.thetas}")
        if not _is_count(self.master_seed) or not 0 <= self.master_seed <= _MASK64:
            raise DomainError("master_seed must be an integer in [0, 2^64)")
        if grid_multiple(self.h, self.dt) is None:
            raise DomainError(f"h={self.h} must be an integer multiple of dt={self.dt}")
        for t_end in self.horizons:
            if grid_multiple(t_end, self.dt) is None:
                raise DomainError(f"T={t_end} is not a multiple of dt={self.dt}")
            if grid_multiple(t_end, self.h) is None:
                raise DomainError(f"T={t_end} is not a multiple of h={self.h}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class CellData:
    """Raw per-replicate results for one (theta, T) cell, index order preserved.

    ``failures`` is counted from ``theta_hats``, so the two cannot disagree.
    """

    theta: float
    t_end: float
    theta_hats: np.ndarray  # contiguous float64, NaN where estimation failed
    x_prev_h: np.ndarray  # path value at the last completed block boundary

    @property
    def failures(self) -> int:
        return int(np.isnan(self.theta_hats).sum())

    @property
    def completed(self) -> np.ndarray:
        return ~np.isnan(self.theta_hats)

    @property
    def ok_theta_hats(self) -> np.ndarray:
        return self.theta_hats[self.completed]


@dataclass
class ExperimentReport:
    """Aggregated cells plus full provenance; serialization lives in reporting."""

    kind: str
    config: ExperimentConfig
    cells: list[dict]
    failures_total: int
    wall_time_s: float = 0.0  # volatile, kept out of the deterministic report bytes
    n_workers: int = 1  # volatile


# Paths are drawn in chunks that are the leaves of numpy's pairwise tree over
# the path's steps (``mle._pairwise``), hence at most this long (>= 128) and
# never held whole in memory; a chunk's n+1 values fit a thread's scratch
# buffer.  Read at each call, so tests can shrink it to force deep trees.
_CHUNK_STEPS = SCRATCH_VALUES - 1


def _stream_path(
    config: ExperimentConfig, params: OuParams, n_steps: int, boundary: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(theta_hat, path value at step ``boundary``) of one path drawn chunk by chunk.

    Each chunk starts from the last value of the one before; chunked normal
    draws and the chained AR(1) recursion equal the one-shot path, and the
    chunks' Ito sums merge in numpy's own order, so the result equals
    sampling the whole path and calling ``theta_ito_from_values`` on it.
    theta_hat is NaN when a chunk's estimate has a vanishing denominator,
    which needs every squared value of the chunk (about 2^15 steps or more
    unless the whole path is shorter) to be zero.
    """
    dt = config.dt
    start, last, x_boundary = 0, 0.0, math.nan

    def leaf(m: int) -> tuple[float, float]:
        nonlocal start, last, x_boundary
        grid = TimeGrid(t_end=m * dt, dt=dt)
        if config.scheme == "euler":
            path = sample_euler(params, grid, rng, x0=last)
        else:
            path = sample_exact(params, grid, rng, x0=last, stationary=start == 0)
        values = path.values
        if start <= boundary <= start + m:
            x_boundary = float(values[boundary - start])
        start += m
        last = float(values[-1])
        try:
            est = theta_ito_from_values(values, dt)
        except ZeroDenominator:
            return math.nan, math.nan  # NaN sums make the merged theta_hat NaN
        return est.numerator, est.sum_sq

    # This cannot raise ZeroDenominator: a leaf whose denominator vanished
    # returned NaN sums, and NaN * dt != 0; otherwise every leaf's sum of
    # squares times dt is positive, and the merged sum of squares is no
    # smaller than any leaf's, so its product with dt is positive too.
    numerator, sum_sq = _pairwise(n_steps, leaf, _CHUNK_STEPS)
    return theta_ito_from_sums(numerator, sum_sq, n_steps, dt).theta_hat, x_boundary


def _grid_cells(config: ExperimentConfig) -> list[tuple[tuple[int, float], tuple[int, float]]]:
    """((theta_index, theta), (t_index, T)) of every cell: theta first, then T."""
    return list(product(enumerate(config.thetas), enumerate(config.horizons)))


def collect_cells(config: ExperimentConfig, n_workers: int = 1) -> list[CellData]:
    """Run all replicates of all cells; deterministic for any worker count.

    One pool of ``max(n_workers, 1)`` worker threads serves the whole grid,
    one worker included, so each thread and its scratch buffer live until the
    last replicate.  Each worker takes the next index j from one counter and
    writes (theta_hat, x_prev_h) of replicate j % N of cell j // N into one
    array, 16 bytes a replicate; the cells are built when the workers return.
    """
    n, cells = config.replicates, _grid_cells(config)
    n_jobs, results = len(cells) * n, np.empty((len(cells), 2, n))
    # per cell: its indices, its OuParams, T/dt steps and the step (T/h - 1) h/dt where the
    # last block starts; ExperimentConfig checked that each of these ratios is a grid multiple
    steps_per_block = grid_multiple(config.h, config.dt)
    cell_args = [(ti, hi, OuParams(theta=theta), grid_multiple(t_end, config.dt),
                  (grid_multiple(t_end, config.h) - 1) * steps_per_block)
                 for (ti, theta), (hi, t_end) in cells]
    indices = count()  # its next() runs in C under the interpreter lock: no j is taken twice

    def work() -> None:
        nonlocal n_jobs
        try:
            while (j := next(indices)) < n_jobs:
                c, r = divmod(j, n)
                ti, hi, params, n_steps, boundary = cell_args[c]
                rng = np.random.default_rng(derive_replicate_seed(config.master_seed, ti, hi, r))
                results[c, :, r] = _stream_path(config, params, n_steps, boundary, rng)
        except BaseException:
            # stop the other workers now: the caller may wait many switch intervals for the
            # interpreter lock before its own stop below
            n_jobs = j
            raise

    n_threads = max(n_workers, 1)
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        workers = [pool.submit(work) for _ in range(n_threads)]
        try:
            wait(workers, return_when=FIRST_EXCEPTION)
        finally:
            n_jobs = 0  # work() reads this cell: after an error or an interrupt, no j is taken
    for worker in workers:
        worker.result()  # re-raises a worker's exception
    return [CellData(theta, t_end, *results[c]) for c, ((_, theta), (_, t_end)) in enumerate(cells)]


# aggregation seams, also used directly by tests with synthetic estimates


def coverage_cell(theta: float, t_end: float, theta_hats: np.ndarray, band_k: float) -> float:
    """Fraction of |theta_hat - theta| <= band_k sqrt(2 theta / T), boundary included."""
    half_width = confidence_band(theta, t_end, band_k)[1]
    return float(np.mean(np.abs(theta_hats - theta) <= half_width))


def emse_cell(theta: float, theta_hats: np.ndarray) -> float:
    """(1/N) sum (theta - theta_hat)^2 over completed replicates."""
    return float(np.mean((theta - theta_hats) ** 2))


def predictor_cell(
    theta: float,
    theta_hats: np.ndarray,
    x_prev_h: np.ndarray,
    h: float,
    epsilon: float,
) -> tuple[float, float]:
    """(p_hat_H, p_hat_B): 1 - fraction of replicates whose bound exceeds epsilon.

    The sup-norm bound is the L2-with-atom one divided by sqrt(h/3 + 1) > 1,
    so p_hat_B >= p_hat_H.
    """
    bound_h = error_bound_h(theta, theta_hats, x_prev_h, h)
    bound_b = error_bound_b(theta, theta_hats, x_prev_h, h)
    p_h = 1.0 - float(np.mean(bound_h > epsilon))
    p_b = 1.0 - float(np.mean(bound_b > epsilon))
    return p_h, p_b


def z_scores(theta: float, t_end: float, theta_hats: np.ndarray) -> np.ndarray:
    """Standardized errors (theta_hat - theta) / sqrt(2 theta / T)."""
    return (theta_hats - theta) / asymptotic_std(theta, t_end)


def lil_cell(
    theta: float, t_end: float, theta_hats: np.ndarray, multiplier: float
) -> float:
    """Fraction of |theta_hat - theta| <= multiplier * sqrt(4 theta log log T / T)."""
    envelope = lil_envelope(theta, t_end)
    return float(np.mean(np.abs(theta_hats - theta) <= multiplier * envelope))


def ks_distance(z: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the sample z from N(0, 1).

    The same operations as ``scipy.stats.kstest(z, "norm").statistic``,
    without importing scipy.stats (1.3 s) or scipy.special (0.3 s): sort,
    F = ndtr(z), D+ = max(i/n - F), D- = max(F - (i-1)/n), and D+ where
    D+ > D-.  ``ndtr`` is the ufunc object of ``scipy.special.ndtr``.
    """
    n = z.size
    cdf = _special_ufunc("ndtr")(np.sort(z))
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _z_summary(config: ExperimentConfig, cd: CellData) -> tuple[float, float, float]:
    """Mean, variance and Kolmogorov-Smirnov distance of the standardized errors."""
    z = z_scores(cd.theta, cd.t_end, cd.ok_theta_hats)
    z_var = float(np.var(z, ddof=1)) if z.size > 1 else math.nan
    return float(np.mean(z)), z_var, ks_distance(z)


@dataclass(frozen=True)
class Report:
    """How one report reduces a cell of (theta, T) replicates.

    Every cell holds theta, T, N and failures, plus ``fields(config, cd)``,
    which must be defined even when no replicate completed, plus the
    ``stats`` that ``reduce(config, cd)`` computes from the completed
    replicates and that are NaN when none completed.  ``columns`` are the CSV
    columns between ``theta,T,N`` and ``failures``; None marks the
    per-replicate z table.
    """

    columns: tuple[str, ...] | None
    fields: Callable[[ExperimentConfig, CellData], dict]
    stats: tuple[str, ...]
    reduce: Callable[[ExperimentConfig, CellData], tuple]


@dataclass(frozen=True)
class Experiment:
    """One experiment kind: the reports reduced from its one simulation pass, its profiles."""

    reports: dict[str, Report]  # by report name; the first is the kind's main report
    profiles: dict[str, dict]  # profile name -> ExperimentConfig fields


PROFILES = ("desk", "full")

# one grid for two kinds: ``oufar experiment all --profile full`` simulates it once
_FULL_COVERAGE = dict(thetas=(0.1, 0.4, 0.7, 1.0, 2.0, 5.0),
                      horizons=tuple(12000.0 + 1000.0 * l for l in range(7)), replicates=1000)

# The experiment kinds, in the order ``oufar experiment all`` runs them.
# Profiles: "desk" finishes on a laptop in minutes, "full" mirrors the
# published tables (days of CPU; the CLI asks for confirmation first).
EXPERIMENTS = {
    "band-coverage": Experiment(
        reports={
            "band_coverage": Report(
                columns=("k", "coverage"),
                fields=lambda c, cd: {"k": c.band_k},
                stats=("coverage",),
                reduce=lambda c, cd: (coverage_cell(cd.theta, cd.t_end, cd.ok_theta_hats, c.band_k),),
            ),
        },
        profiles={
            "desk": dict(thetas=(0.4, 0.7, 1.0), horizons=(1000.0, 2000.0, 4000.0),
                         replicates=200, epsilon=0.05),
            "full": _FULL_COVERAGE,
        },
    ),
    "emse": Experiment(
        reports={
            "emse": Report(
                columns=("emse", "two_theta_over_T"),
                fields=lambda c, cd: {"two_theta_over_T": 2.0 * cd.theta / cd.t_end},
                stats=("emse",),
                reduce=lambda c, cd: (emse_cell(cd.theta, cd.ok_theta_hats),),
            ),
        },
        profiles={
            "desk": dict(thetas=(0.4, 0.7, 1.0), horizons=(500.0, 1000.0, 2000.0, 4000.0),
                         replicates=200, epsilon=0.05),
            "full": dict(thetas=(0.1, 0.4, 0.7, 1.0, 2.0),
                         horizons=tuple(50.0 + 250.0 * l for l in range(25)), replicates=1000),
        },
    ),
    "predictor-bound": Experiment(
        reports={
            "predictor_bound": Report(
                columns=("epsilon", "p_hat_H", "p_hat_B"),
                fields=lambda c, cd: {"epsilon": c.epsilon},
                stats=("p_hat_H", "p_hat_B"),
                reduce=lambda c, cd: predictor_cell(
                    cd.theta, cd.ok_theta_hats, cd.x_prev_h[cd.completed], c.h, c.epsilon
                ),
            ),
        },
        profiles={
            "desk": dict(thetas=(0.4, 0.7, 1.0), horizons=(2000.0, 4000.0, 8000.0),
                         replicates=200, epsilon=0.05),
            "full": dict(thetas=(0.4, 0.7, 1.0),
                         horizons=tuple(200000.0 * l for l in range(1, 6)), replicates=1000,
                         epsilon=0.008),
        },
    ),
    "normality": Experiment(
        reports={
            "normality": Report(
                columns=None,
                # original replicate indices; failed replicates simply have no z
                fields=lambda c, cd: {
                    "z_replicates": [int(i) for i in np.nonzero(cd.completed)[0]],
                    "z": [float(v) for v in z_scores(cd.theta, cd.t_end, cd.ok_theta_hats)],
                },
                stats=("z_mean", "z_var", "z_ks"),
                reduce=_z_summary,
            ),
            "lil_coverage": Report(
                columns=("multiplier", "lil_coverage"),
                # lil_envelope raises DomainError for T <= e
                fields=lambda c, cd: {
                    "multiplier": c.lil_multiplier,
                    "envelope": lil_envelope(cd.theta, cd.t_end),
                },
                stats=("lil_coverage",),
                reduce=lambda c, cd: (
                    lil_cell(cd.theta, cd.t_end, cd.ok_theta_hats, c.lil_multiplier),
                ),
            ),
        },
        profiles={
            "desk": dict(thetas=(1.0,), horizons=(2000.0, 4000.0), replicates=200, epsilon=0.05),
            "full": _FULL_COVERAGE,
        },
    ),
}

REPORTS = {name: r for e in EXPERIMENTS.values() for name, r in e.reports.items()}


def _cell(report: Report, config: ExperimentConfig, cd: CellData) -> dict:
    values = report.reduce(config, cd) if cd.completed.any() else (math.nan,) * len(report.stats)
    return {
        "theta": cd.theta,
        "T": cd.t_end,
        "N": config.replicates,
        **report.fields(config, cd),
        **dict(zip(report.stats, values)),
        "failures": cd.failures,
    }


def check_report(name: str, config: ExperimentConfig) -> None:
    """Raise DomainError unless report ``name`` is defined on every cell of the grid.

    Each cell is built from zero replicates, which needs no simulation; the
    iterated-logarithm envelope of ``lil_coverage``, for one, needs T > e.
    """
    empty = np.array([])
    for (_, theta), (_, t_end) in _grid_cells(config):
        _cell(REPORTS[name], config, CellData(theta, t_end, empty, empty))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(kind: str, config: ExperimentConfig, n_workers: int = 1,
                   simulated: dict[ExperimentConfig, list[CellData]] | None = None
                   ) -> list[ExperimentReport]:
    """Every report of experiment ``kind``, in table order, from one simulation.

    Each report is first checked on the grid (``check_report``), so a config
    that one of them rejects draws no path.  The pool's ``n_workers``, which
    each report records, is capped at the grid's replicates and the usable
    CPUs: more threads would only wait.  ``simulated`` maps earlier configs
    to their replicates: a config found there is not drawn again, and a
    config drawn here is added to it, so kinds on one config share one
    simulation.  The first report's wall time includes the simulation when
    this call draws it; each other report's time is its own reduction.
    """
    reports = EXPERIMENTS[kind].reports
    for name in reports:
        check_report(name, config)
    jobs = len(config.thetas) * len(config.horizons) * config.replicates
    n_workers = max(min(n_workers, jobs, _usable_cpus()), 1)
    simulated = {} if simulated is None else simulated
    start = time.perf_counter()
    if config not in simulated:
        simulated[config] = collect_cells(config, n_workers=n_workers)
    data = simulated[config]
    failures = sum(cd.failures for cd in data)
    done = []
    for name, report in reports.items():
        cells = [_cell(report, config, cd) for cd in data]
        end = time.perf_counter()
        done.append(ExperimentReport(name, config, cells, failures, end - start, n_workers))
        start = end
    return done


def lil_coverage(config: ExperimentConfig, n_workers: int = 1) -> ExperimentReport:
    """``run_experiment("normality", config, n_workers)[1]``, kept for one caller.

    The benchmark (perfbench/run.py) wraps ``oufar.cli.lil_coverage``; this
    function exists only for that wrap.
    """
    return run_experiment("normality", config, n_workers)[1]
