"""Command-line interface.

Subcommands: ``simulate`` (write a path CSV + provenance sidecar),
``estimate`` (MLE of theta from a path CSV), ``norms`` (operator norm /
distance tables), and ``experiment`` (Monte Carlo reports of one experiment
kind, or of ``all`` kinds in turn).

Exit codes.  A command returns nothing on success and raises one of the
package's errors on failure; ``main`` alone turns it into an exit code and
prints one ``error:`` line:

    0  success
    2  DomainError      invalid flags or configuration (argparse also
                        exits with 2 on flags it cannot parse)
    3  GridMismatch     grid mismatch or unreadable input
    4  ZeroDenominator  the estimator denominator vanished
    5  OSError          output could not be written

Every read converts its own OSError first, so an OSError that reaches
``main`` is a failed write.  Any other exception is a bug and keeps its
traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, GridMismatch, ZeroDenominator
from .experiments import (
    EXPERIMENTS,
    PROFILES,
    # unused here: perfbench/run.py wraps cli.lil_coverage, and experiments keeps
    # lil_coverage only for that wrap (ROADMAP item 1 removes both)
    lil_coverage,  # noqa: F401
    run_experiment,
    simulation_grid,
)
from .functional import k0, operator_distance_b, operator_distance_h, rho_norm_b, rho_norm_h
from .mle import theta_endpoint_from_values, theta_ito_from_values
from .ou_process import (
    SCHEMES,
    OuParams,
    TimeGrid,
    check_euler_stable,
    positive_finite,
    sample_euler,
    sample_exact,
)
from .reporting import (
    SCHEMA_VERSION,
    atomic_write,
    csv_text,
    estimated_steps,
    json_text,
    read_path_csv,
    resolve_cli_config,
    write_path_csv,
    write_report,
)

# the exit code each of the package's errors ends a run with
_EXIT_CODES = {DomainError: 2, GridMismatch: 3, ZeroDenominator: 4, OSError: 5}

# beyond this many simulation steps the experiment command requires --yes
_COST_GUARD_STEPS = 5 * 10**9

_K_MAX = 10**5  # norms rows are held in memory; enough for k0 of any theta >= 2e-5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oufar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--version", action="version", version=f"oufar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one path and write a CSV")
    p_sim.add_argument("--theta", type=float, required=True)
    p_sim.add_argument("--mu", type=float, default=0.0)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--t-end", type=float, required=True)
    p_sim.add_argument("--dt", type=float, required=True)
    p_sim.add_argument("--scheme", choices=SCHEMES, default="euler")
    init = p_sim.add_mutually_exclusive_group()
    init.add_argument("--x0", type=float, default=0.0)
    init.add_argument(
        "--stationary",
        action="store_true",
        help="draw the initial state from the stationary law (exact scheme only)",
    )
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(run=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate theta from a path CSV")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--form", choices=("ito", "endpoint", "both"), default="ito")
    p_est.add_argument("--out", help="write JSON here instead of stdout")
    p_est.set_defaults(run=_cmd_estimate)

    p_norms = sub.add_parser("norms", help="operator norms, contraction power, distances")
    p_norms.add_argument("--theta", type=float, required=True)
    p_norms.add_argument("--h", type=float, required=True)
    p_norms.add_argument("--k-max", type=int, default=10)
    p_norms.add_argument("--theta-hat", type=float)
    p_norms.add_argument("--format", choices=("json", "csv"), default="json")
    p_norms.add_argument("--out", help="write here instead of stdout")
    p_norms.set_defaults(run=_cmd_norms)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument(
        "kind", choices=(*EXPERIMENTS, "all"),
        help="an experiment kind, or all of them in turn (each distinct grid simulated once)",
    )
    src = p_exp.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="JSON config file (keys mirror ExperimentConfig)")
    src.add_argument("--profile", choices=PROFILES)
    p_exp.add_argument("--out", help="output directory (overrides the config out_dir)")
    p_exp.add_argument(
        "--threads", type=int, default=1,
        help="worker threads, capped at the replicates of a grid (thetas x horizons x "
        "replicates) and the CPUs this process may use",
    )
    p_exp.add_argument("--master-seed", type=int, help="override the config master seed")
    p_exp.add_argument("--replicates", type=int, help="override the replicate count")
    p_exp.add_argument("--yes", action="store_true", help="confirm an expensive run")
    p_exp.set_defaults(run=_cmd_experiment)
    return parser


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf


def _all_finite(doc: dict | list) -> bool:
    """True when every float in ``doc``, nested dicts and lists included, is finite."""
    return all(
        _all_finite(v) if isinstance(v, (dict, list)) else math.isfinite(v)
        for v in (doc.values() if isinstance(doc, dict) else doc)
        if isinstance(v, (dict, list, float))
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write(out, [text])


def _cmd_simulate(args) -> None:
    flags = (args.theta, args.mu, args.sigma, args.t_end, args.dt, args.x0)
    if not all(map(math.isfinite, flags)):
        raise DomainError("--theta, --mu, --sigma, --t-end, --dt and --x0 must be finite")
    if args.seed < 0:
        raise DomainError("--seed must be a non-negative integer")
    if args.stationary and args.scheme != "exact":
        raise DomainError("--stationary requires --scheme exact")
    params = OuParams(theta=args.theta, mu=args.mu, sigma=args.sigma)
    grid = TimeGrid(t_end=args.t_end, dt=args.dt)
    # the sampler holds two float64 arrays of n_steps + 1 values: the noise and the path
    need, memory = 16 * (grid.n_steps + 1), _physical_memory()
    if need > memory:
        raise DomainError(f"{grid.n_steps} steps need {need / 2**30:.3g} GiB for the noise and "
                          f"the path, more than the {memory / 2**30:.3g} GiB of physical memory")
    if args.scheme == "euler":
        check_euler_stable((params.theta,), grid.dt)
    rng = np.random.default_rng(args.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # SamplePath rejects a non-finite path
        if args.scheme == "euler":
            path = sample_euler(params, grid, rng, x0=args.x0)
            init_doc = {"x0": args.x0}
        elif args.stationary:
            path = sample_exact(params, grid, rng, stationary=True)
            init_doc = {"init": "stationary"}
        else:
            path = sample_exact(params, grid, rng, x0=args.x0)
            init_doc = {"x0": args.x0}
    write_path_csv(path, args.out, seed=args.seed, extra=init_doc)


def _estimate_doc(values, dt, form: str) -> dict:
    est = (theta_ito_from_values if form == "ito" else theta_endpoint_from_values)(values, dt)
    return {
        "theta_hat": est.theta_hat,
        "form": est.form,
        "numerator": est.numerator,
        "denominator": est.denominator,
        "T": est.t_end,
        "dt": est.dt,
        "nonpositive": est.nonpositive,
    }


def _cmd_estimate(args) -> None:
    try:
        values, dt = read_path_csv(args.input)
    except OSError as exc:  # unreadable input, not an unwritable output
        raise GridMismatch(str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        if args.form == "both":
            ito = _estimate_doc(values, dt, "ito")
            endpoint = _estimate_doc(values, dt, "endpoint")
            doc = {
                "ito": ito,
                "endpoint": endpoint,
                "difference": ito["theta_hat"] - endpoint["theta_hat"],
            }
        else:
            doc = _estimate_doc(values, dt, args.form)
    if not _all_finite(doc):
        # finite values whose squares or products overflow
        raise GridMismatch(f"{args.input}: estimator sums are not finite")
    doc["schema_version"] = SCHEMA_VERSION
    _emit(json_text(doc), args.out)


def _cmd_norms(args) -> None:
    if not (positive_finite(args.theta) and positive_finite(args.h) and 1 <= args.k_max <= _K_MAX):
        raise DomainError(f"need finite theta > 0 and h > 0, k-max in [1, {_K_MAX}]")
    if args.theta_hat is not None and not positive_finite(args.theta_hat):
        raise DomainError("theta-hat must be positive and finite")
    try:
        rows = [
            {
                "k": k,
                "rho_norm_H": rho_norm_h(args.theta, k, args.h),
                "rho_norm_B": rho_norm_b(args.theta, k, args.h),
            }
            for k in range(1, args.k_max + 1)
        ]
        doc = {
            "theta": args.theta,
            "h": args.h,
            "k0": k0(args.theta),
            "norms": rows,
            "schema_version": SCHEMA_VERSION,
        }
        if args.theta_hat is not None:
            doc["theta_hat"] = args.theta_hat
            doc["operator_distance_H"] = operator_distance_h(args.theta, args.theta_hat, args.h)
            doc["operator_distance_B"] = operator_distance_b(args.theta, args.theta_hat, args.h)
    except OverflowError:  # e.g. k0 = ceil(1/theta + 1) of a subnormal theta
        doc = None
    if doc is None or not _all_finite(doc):
        raise DomainError("theta, h or theta-hat out of range: the norms are not finite")
    if args.format == "json":
        text = json_text(doc)
    else:
        text = csv_text(
            ("theta", "h", "k", "k0", "rho_norm_H", "rho_norm_B"),
            ((args.theta, args.h, row["k"], doc["k0"], row["rho_norm_H"], row["rho_norm_B"])
             for row in rows),
        )
    _emit(text, args.out)


# every report of a kind, reduced from one simulation of its grid
_RUNNERS = {kind: functools.partial(run_experiment, kind) for kind in EXPERIMENTS}


def _cmd_experiment(args) -> None:
    kinds = tuple(EXPERIMENTS) if args.kind == "all" else (args.kind,)
    overrides = {"master_seed": args.master_seed, "replicates": args.replicates}
    if args.config is None:
        doc = {"profile": args.profile}
    else:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise DomainError(f"cannot read config {args.config}: {exc}") from exc
    try:  # every config is resolved and checked before the first path is drawn
        configs, out_dir, formats, profile = resolve_cli_config(kinds, doc, overrides)
    except ValueError as exc:  # DomainError included
        raise DomainError(f"bad config: {exc}") from exc
    args.out = args.out or out_dir  # main names it when a write fails
    if args.out is None:
        raise DomainError("no output directory (set --out or out_dir in the config)")

    grids = {simulation_grid(config): config for config in configs.values()}
    steps = sum(map(estimated_steps, grids.values()))
    if profile == "full" or steps > _COST_GUARD_STEPS:
        print(f"planned work: {steps:.3e} simulation steps on {len(grids)} grid(s)",
              file=sys.stderr)
        if not args.yes:
            raise DomainError("this is expensive; re-run with --yes to confirm")

    simulated = {}  # simulation grid -> its replicates: kinds on one grid share them
    for kind, config in configs.items():
        # one pool runs every replicate of the grid: more threads than those
        # jobs or than cores would only wait
        jobs = len(config.thetas) * len(config.horizons) * config.replicates
        n_workers = max(min(args.threads, jobs, _usable_cpus()), 1)
        reports = _RUNNERS[kind](config, n_workers=n_workers, simulated=simulated)
        paths = [write_report(r, args.out, formats=formats) for r in reports]
        print(
            f"wrote {paths[0].get('json') or paths[0].get('csv')} "
            f"({reports[0].failures_total} failed replicates, {reports[0].wall_time_s:.2f}s)",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        # an OSError here is a failed write (see the module docstring)
        message = f"cannot write {args.out or 'stdout'}: {exc}" if isinstance(exc, OSError) else exc
        print(f"error: {message}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
