"""The benchmark's workloads: closed loops of oufar commands, with output checks.

One client issues one command after another through ``oufar.cli.main`` (and,
for forecasting, through ``segment_path``, ``h_norm``/``b_norm`` and
``predict_segment``).  A pass is one round of a workload's commands.  Every
command is timed around the call; the checks that follow it are not.

An operation is a command or a Monte Carlo replicate.  A nonzero exit, an
exception, a failed output check or a failed replicate counts as a failed
operation.  The workload seed becomes the experiments' ``--master-seed`` and
the path's ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oufar.cli
import oufar.functional
import oufar.predict
from oufar.functional import FunctionalSegment
from oufar.mle import theta_ito_from_values
from oufar.ou_process import OuParams, TimeGrid, sample_euler
from oufar.reporting import profile_config

KINDS = ("band-coverage", "emse", "predictor-bound", "normality")
# report basenames each experiment command writes (normality also redraws
# its grid for lil_coverage)
REPORTS = {
    "band-coverage": ("band_coverage",),
    "emse": ("emse",),
    "predictor-bound": ("predictor_bound",),
    "normality": ("normality", "lil_coverage"),
}
DT = 0.02  # ExperimentConfig's default step, used by every workload

# sha256 of the desk report JSON at master seed 20260810 (ROADMAP pins)
PIN_SEED = 20260810
DESK_PINS = {
    "band_coverage.json": "6e0a22ee38c06dd726c6c125188cc27805a852c2bb8866b0fa34317e4aa6ae1d",
    "emse.json": "e044f9cd8e3cd3e6f05708b46e10de39f3a3d91bea7daa575b99b3a994c117ba",
    "predictor_bound.json": "0380cda0522c6fea1613607f6b735fb117e8818cb9b7d766c0e53e91c831a360",
    "normality.json": "fbafeba8d419ed921fa8f7cdcb0b5ce66f9de6a10ba08f100774f17a2c822f19",
    "lil_coverage.json": "321b42007c6e9e5aa6fc62414b6f8523547da029248c80f5d9317e48fe09ea60",
}

# closed-form sanity limits, applied to cells with at least STAT_MIN_N replicates
STAT_MIN_N = 100
EMSE_FACTOR = 5.0  # EMSE within [1/5, 5] x 2 theta / T
MIN_BAND_COVERAGE = 0.9  # the k = 3 band has nominal coverage 0.9973

# path round trip: one Euler path of T/dt steps, forecast block by block
PATH_THETA = 1.0
PATH_H = 1.0


@dataclass(frozen=True)
class Context:
    work: Path  # holds the workload's config files
    seed: int
    threads: int
    tiny: bool = False  # smoke scale for the self-tests
    pins: dict | None = None  # expected sha256 by report file name


@dataclass
class Pass:
    wall_s: float = 0.0
    commands: dict = field(default_factory=dict)  # metric name -> seconds
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # output file -> sha256

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def timed(self, metric: str, seconds: float) -> None:
        self.commands[metric] = self.commands.get(metric, 0.0) + seconds
        self.wall_s += seconds


def _digest(p: Pass, path: Path) -> bytes:
    data = path.read_bytes()
    p.digests[path.name] = hashlib.sha256(data).hexdigest()
    return data


def run_cli(p: Pass, metric: str, argv: list[str]) -> bool:
    """One timed ``oufar.cli.main`` call; False (and a failed op) unless it exits 0."""
    p.attempted += 1
    start = time.perf_counter()
    try:
        code = oufar.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception:
        code = "exception:\n" + traceback.format_exc()
    p.timed(metric, time.perf_counter() - start)
    if code != 0:
        p.fail(f"oufar {' '.join(argv)} exited {code}")
        return False
    return True


# ---------------------------------------------------------------- Monte Carlo


def _bad(value) -> bool:
    return value is None or not math.isfinite(value)


def sanity_problems(basename: str, doc: dict) -> list[str]:
    """Closed-form sanity checks on one report's cells."""
    problems = []
    n = doc["config"]["replicates"]
    statistical = n >= STAT_MIN_N
    if sum(c["failures"] for c in doc["cells"]) != doc["failures_total"]:
        problems.append("cell failures do not add up to failures_total")
    for c in doc["cells"]:
        where = f"{basename} theta={c['theta']} T={c['T']}"
        if c["N"] != n:
            problems.append(f"{where}: N={c['N']} != {n}")
        if basename == "band_coverage":
            cov = c["coverage"]
            if _bad(cov) or not 0.0 <= cov <= 1.0 or (statistical and cov < MIN_BAND_COVERAGE):
                problems.append(f"{where}: coverage {cov}")
        elif basename == "emse":
            ratio = None if _bad(c["emse"]) else c["emse"] / c["two_theta_over_T"]
            if ratio is None or (statistical and not 1 / EMSE_FACTOR <= ratio <= EMSE_FACTOR):
                problems.append(f"{where}: emse / (2 theta / T) = {ratio}")
        elif basename == "predictor_bound":
            p_h, p_b = c["p_hat_H"], c["p_hat_B"]
            if _bad(p_h) or _bad(p_b) or not 0.0 <= p_h <= p_b <= 1.0:
                problems.append(f"{where}: need 0 <= p_hat_H={p_h} <= p_hat_B={p_b} <= 1")
        elif basename == "normality":
            if len(c["z"]) != n - c["failures"]:
                problems.append(f"{where}: {len(c['z'])} z values for {n - c['failures']} replicates")
            elif statistical and not (abs(c["z_mean"]) <= 1.0 and 0.5 <= c["z_var"] <= 2.0):
                problems.append(f"{where}: z mean {c['z_mean']} variance {c['z_var']}")
        elif basename == "lil_coverage":
            cov = c["lil_coverage"]
            if _bad(cov) or not 0.0 <= cov <= 1.0:
                problems.append(f"{where}: lil coverage {cov}")
    return problems


# what a missing or malformed output file raises while it is checked
UNREADABLE = (OSError, ValueError, KeyError, TypeError)


def _check_reports(p: Pass, ctx: Context, out: Path, kind: str) -> None:
    try:
        _check_report_files(p, ctx, out, kind)
    except UNREADABLE as exc:
        p.fail(f"{kind}: unreadable output ({exc!r})")


def _check_report_files(p: Pass, ctx: Context, out: Path, kind: str) -> None:
    problems = []
    for base in REPORTS[kind]:
        doc = json.loads(_digest(p, out / f"{base}.json"))
        _digest(p, out / f"{base}.csv")
        p.attempted += sum(c["N"] for c in doc["cells"])
        p.failed += doc["failures_total"]
        problems += sanity_problems(base, doc)
        expected = (ctx.pins or {}).get(f"{base}.json")
        if expected is not None and p.digests[f"{base}.json"] != expected:
            problems.append(f"{base}.json sha256 {p.digests[f'{base}.json']} != pinned {expected}")
    if kind == "normality":
        _digest(p, out / "standardized_errors.csv")
    if problems:
        p.fail(f"{kind}: " + "; ".join(problems))


def _experiment_pass(ctx: Context, out: Path, plan: list[tuple[str, list[str]]]) -> Pass:
    p = Pass()
    for kind, source in plan:
        argv = ["experiment", kind, *source, "--threads", str(ctx.threads),
                "--master-seed", str(ctx.seed), "--out", str(out)]
        if run_cli(p, kind.replace("-", "_") + "_s", argv):
            _check_reports(p, ctx, out, kind)
    return p


TINY_GRID = {"thetas": [1.0], "horizons": [100.0], "replicates": 4}


def _desk_configs(tiny: bool) -> dict:
    return {f"desk-{kind}.json": TINY_GRID for kind in KINDS} if tiny else {}


def _desk_pass(ctx: Context, out: Path) -> Pass:
    plan = [
        (kind, ["--config", str(ctx.work / f"desk-{kind}.json")] if ctx.tiny else ["--profile", "desk"])
        for kind in KINDS
    ]
    p = _experiment_pass(ctx, out, plan)
    try:
        _roundtrip(p, ctx, out)
    except UNREADABLE as exc:
        p.fail(f"path round trip: unreadable output ({exc!r})")
    return p


def _desk_steps(tiny: bool) -> int:
    horizons = TINY_GRID["horizons"] if tiny else [t for k in KINDS for t in profile_config(k, "desk").horizons]
    return max(round(t / DT) for t in [*horizons, _path_t_end(tiny)])


def _long_configs(tiny: bool) -> dict:
    # the full predictor-bound profile's first column, a few replicates
    return {"long_horizon.json": {
        "thetas": [0.4, 0.7, 1.0],
        "horizons": [2000.0 if tiny else 200000.0],
        "epsilon": 0.008,
        "replicates": 1 if tiny else 2,
    }}


def _long_pass(ctx: Context, out: Path) -> Pass:
    return _experiment_pass(ctx, out, [("predictor-bound", ["--config", str(ctx.work / "long_horizon.json")])])


# ------------------------------------------------------------ path round trip
# Part of every desk pass, after the experiments.  As a workload of its own,
# this single-threaded text processing spread by 0.17-0.30 of its median from
# run to run on a shared 2-vCPU host, where desk and long_horizon runs stayed
# within 0.04-0.15; inside desk its commands are still timed and traced
# (simulate_s, estimate_s, forecast_s, norms_s).


def _path_t_end(tiny: bool) -> float:
    return 200.0 if tiny else 5000.0


def forecast(path, theta_hat: float) -> list:
    """Forecast every block from its predecessor; realized error norms per block."""
    blocks = oufar.functional.segment_path(path, PATH_H)
    out = []
    for prev, actual in zip(blocks, blocks[1:]):
        record = oufar.predict.predict_segment(theta_hat, prev, theta_true=PATH_THETA)
        residual = FunctionalSegment(grid=actual.grid, values=actual.values - record.predicted.values)
        out.append((record, oufar.functional.h_norm(residual), oufar.functional.b_norm(residual)))
    return out


def _roundtrip(p: Pass, ctx: Context, out: Path) -> None:
    t_end = _path_t_end(ctx.tiny)
    csv, est, norms = out / "path.csv", out / "estimate.json", out / "norms.json"
    if not run_cli(p, "simulate_s", ["simulate", "--theta", repr(PATH_THETA), "--t-end", repr(t_end),
                                     "--dt", repr(DT), "--seed", str(ctx.seed), "--out", str(csv)]):
        return
    _digest(p, csv)
    _digest(p, csv.with_suffix(".csv.meta.json"))
    if not run_cli(p, "estimate_s", ["estimate", "--input", str(csv), "--form", "both", "--out", str(est)]):
        return
    ito = json.loads(_digest(p, est))["ito"]
    # the same path in memory: the 17-digit CSV must round-trip it exactly
    path = sample_euler(OuParams(theta=PATH_THETA), TimeGrid(t_end=t_end, dt=DT),
                        np.random.default_rng(ctx.seed), x0=0.0)
    expected = theta_ito_from_values(path.values, DT).theta_hat
    if ito["theta_hat"] != expected:
        p.fail(f"estimate theta_hat {ito['theta_hat']!r} != in-memory {expected!r}")
    theta_hat = ito["theta_hat"]

    p.attempted += 1
    start = time.perf_counter()
    forecasts = forecast(path, theta_hat)
    p.timed("forecast_s", time.perf_counter() - start)
    bad = [
        n for n, (rec, _, _) in enumerate(forecasts, 1)
        if not (rec.err_h <= oufar.predict.error_bound_h(PATH_THETA, theta_hat, rec.x_prev_h, PATH_H)
                and rec.err_b <= oufar.predict.error_bound_b(PATH_THETA, theta_hat, rec.x_prev_h, PATH_H))
    ]
    expected_blocks = round(t_end / PATH_H) - 1
    if bad or len(forecasts) != expected_blocks:
        p.fail(f"forecast: {len(forecasts)} of {expected_blocks} blocks, error above bound at {bad[:5]}")

    if run_cli(p, "norms_s", ["norms", "--theta", repr(PATH_THETA), "--h", repr(PATH_H),
                              "--theta-hat", repr(theta_hat), "--out", str(norms)]):
        doc = json.loads(_digest(p, norms))
        values = [doc["operator_distance_H"], doc["operator_distance_B"]]
        values += [v for row in doc["norms"] for v in (row["rho_norm_H"], row["rho_norm_B"])]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            p.fail(f"norms: negative or non-finite value in {values}")


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    configs: Callable[[bool], dict]  # tiny -> {file name: config document}
    max_steps: Callable[[bool], int]  # tiny -> steps of the longest path
    run: Callable[[Context, Path], Pass]

    def write_configs(self, work: Path, tiny: bool) -> None:
        work.mkdir(parents=True, exist_ok=True)
        for name, doc in self.configs(tiny).items():
            (work / name).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _config_steps(configs: Callable[[bool], dict]) -> Callable[[bool], int]:
    return lambda tiny: max(round(t / DT) for doc in configs(tiny).values() for t in doc["horizons"])


WORKLOADS = {
    "desk": Workload(_desk_configs, _desk_steps, _desk_pass),
    "long_horizon": Workload(_long_configs, _config_steps(_long_configs), _long_pass),
}
