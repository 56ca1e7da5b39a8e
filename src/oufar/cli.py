"""Command-line interface.

Subcommands: ``simulate`` (write a path CSV + provenance sidecar),
``estimate`` (MLE of theta from a path CSV), ``norms`` (operator norm /
distance tables), and ``experiment`` (Monte Carlo reports of one experiment
kind, or of ``all`` kinds in turn).  ``experiment`` hands ``--threads`` to
``run_experiment``, which sizes the pool, and simulates each distinct config
once.  Before drawing it prints a stderr ``note:`` for each exact-scheme
theta whose estimand (1 - exp(-theta dt)) / dt is more than one sd of
theta_hat from theta at the largest horizon; no exit code or report changes.
``estimate`` prints one such note where the path's mean is far from 0 for a
centred path (``_centring_note``); its JSON and exit code do not change.

Exit codes.  A command returns nothing on success and raises one of the
package's errors on failure; ``main`` alone turns it into an exit code and
prints one ``error:`` line:

    0  success
    2  DomainError      invalid flags or configuration (argparse also
                        exits with 2 on flags it cannot parse)
    3  GridMismatch     grid mismatch or unreadable input
    4  ZeroDenominator  the estimator denominator vanished
    5  OSError          output could not be written
  130  Ctrl-C           interrupted (KeyboardInterrupt); every file written
                        so far is complete, each renamed into place

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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, GridMismatch, ZeroDenominator
from .experiments import (
    EXPERIMENTS,
    PROFILES,
    run_experiment,
)
from .functional import k0, operator_distance_b, operator_distance_h, rho_norm_b, rho_norm_h
from .mle import (
    ThetaEstimate,
    _endpoint_form,
    asymptotic_std,
    theta_endpoint_from_values,
    theta_ito_from_values,
)
from .ou_process import (
    SCHEMES,
    OuParams,
    TimeGrid,
    check_euler_stable,
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

# estimate notes a path whose mean is more than this many sd from 0 for a centred
# path, once it spans this many relaxation times 1/theta (see _centring_note)
_CENTRING_SDS, _CENTRING_MIN_THETA_T = 6.0, 100.0


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

    p_est = sub.add_parser("estimate", help="estimate theta from a path CSV", description=(
        "Estimate theta of the centred model dxi = -theta xi dt + sigma dW (mu = 0; the endpoint "
        "form also assumes sigma = 1): a path with mu != 0 gives a meaningless estimate, and a "
        "stderr note where its mean is far from 0 for a centred path. On an "
        "exact-scheme path it converges to (1 - exp(-theta dt)) / dt, not to theta."))
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
        help="an experiment kind, or all of them in turn (each distinct config simulated once)",
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


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf


def _is_stdout(out: str) -> bool:
    """Whether ``out`` is the file this process's stdout is open on, as /dev/stdout is.

    Only the inherited descriptor keeps its O_APPEND: reopening the file by
    name truncates it, and renaming over it drops what was there.
    """
    try:
        return os.path.samestat(os.stat(out), os.fstat(1))
    except OSError:  # no such file, or no stdout
        return False


def _emit(text: str, out: str | None) -> None:
    if out is None or _is_stdout(out):
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
    out = Path(args.out)
    if out.exists() and not out.is_file() or _is_stdout(args.out):
        raise DomainError(f"--out {args.out} must be a regular file other than stdout: "
                          "the provenance sidecar is written beside it")
    params = OuParams(theta=args.theta, mu=args.mu, sigma=args.sigma)
    grid = TimeGrid(t_end=args.t_end, dt=args.dt)
    # 16 B a value, the scipy route's need: the noise in its scratch buffer and the new path.
    # The fused route holds the path alone, but the route is decided at the first draw
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
        else:  # a stationary start ignores x0
            path = sample_exact(params, grid, rng, x0=args.x0, stationary=args.stationary)
    init_doc = {"init": "stationary"} if args.stationary else {"x0": args.x0}
    provenance = {"seed": args.seed, "scheme": args.scheme, "params": asdict(params), **init_doc}
    write_path_csv(path, out, provenance)


def _estimate_doc(est: ThetaEstimate) -> dict:
    return {
        "theta_hat": est.theta_hat,
        "form": est.form,
        "numerator": est.numerator,
        "denominator": est.denominator,
        "T": est.t_end,
        "dt": est.dt,
        "nonpositive": est.nonpositive,
    }


def _centring_note(values: np.ndarray, dt: float) -> str | None:
    """A ``note:`` line where the path's mean is far from 0 for a centred path, else None.

    The mean x of the left values is compared with the sd sigma / (theta sqrt(T))
    of a centred OU path's mean, the long-run value for the process and for its
    Euler AR(1).  sigma^2 = sum (dxi)^2 / T; theta is the Ito estimate on the
    path less x, whose numerator -sum y_i dy_i equals (sum (dy)^2 + y_0^2 -
    y_n^2) / 2, so no centred copy is made.  A note needs |x| > 6 sd and theta
    T >= 100, which rules out theta <= 0 and NaN.  As theta T grows, x / sd of a
    centred path tends to N(0, 1): 6 sd is a false-alarm rate of 2e-9.  Centring
    a short path removes its slow part and overstates theta, so below theta T =
    100 no note is printed: 72,000 centred paths with theta T from 1 to 200
    (Euler from 0 and exact stationary, dt = 0.02) drew none.
    """
    n, left = values.size - 1, values[:-1]
    t_end = n * dt
    with np.errstate(all="ignore"):  # a constant or overflowing path fails the test below
        steps = np.diff(values)
        sum_dsq = np.dot(steps, steps)
        del steps  # one path-sized temporary at a time
        mean = np.mean(left)
        theta = (sum_dsq + (values[0] - mean) ** 2 - (values[-1] - mean) ** 2) / (
            2.0 * n * dt * np.var(left))
        sigma = np.sqrt(sum_dsq / t_end)
        sds = abs(mean) * theta * math.sqrt(t_end) / sigma
    if not (theta * t_end >= _CENTRING_MIN_THETA_T and sds > _CENTRING_SDS):
        return None
    return (f"note: the path's mean {mean:.4g} is {sds:.3g} sd from 0 (a centred path's mean "
            f"has sd sigma / (theta sqrt(T)); theta {theta:.4g} and sigma {sigma:.4g} fitted "
            "about the mean): estimate fits the centred model, mu = 0")


def _cmd_estimate(args) -> None:
    try:
        values, dt = read_path_csv(args.input)
    except OSError as exc:  # unreadable input, not an unwritable output
        raise GridMismatch(str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        if args.form == "both":  # one Ito pass: the endpoint form takes its sums
            ito = theta_ito_from_values(values, dt)
            endpoint = _endpoint_form(ito, values)
            doc = {
                "ito": _estimate_doc(ito),
                "endpoint": _estimate_doc(endpoint),
                "difference": ito.theta_hat - endpoint.theta_hat,
            }
        else:
            form = theta_ito_from_values if args.form == "ito" else theta_endpoint_from_values
            doc = _estimate_doc(form(values, dt))
    doc["schema_version"] = SCHEMA_VERSION
    try:
        text = json_text(doc)
    except ValueError as exc:  # finite values whose squares or products overflow
        raise GridMismatch(f"{args.input}: estimator sums are not finite") from exc
    note = _centring_note(values, dt)
    if note is not None:
        print(note, file=sys.stderr)
    _emit(text, args.out)


def _cmd_norms(args) -> None:
    if not 1 <= args.k_max <= _K_MAX:
        raise DomainError(f"k-max must be in [1, {_K_MAX}]")
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
    try:  # the JSON is built in either format: it is the one check that every norm is finite
        text = json_text(doc)
    except ValueError as exc:
        raise DomainError("theta, h or theta-hat out of range: the norms are not finite") from exc
    if args.format == "csv":
        text = csv_text(
            ("theta", "h", "k", "k0", "rho_norm_H", "rho_norm_B"),
            ((args.theta, args.h, row["k"], doc["k0"], row["rho_norm_H"], row["rho_norm_B"])
             for row in rows),
        )
    _emit(text, args.out)


# every report of a kind, reduced from one simulation of its grid
_RUNNERS = {kind: functools.partial(run_experiment, kind) for kind in EXPERIMENTS}
lil_coverage = _RUNNERS["normality"]  # only perfbench wraps it; ROADMAP item 1 drops both


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
    args.out = args.out or out_dir or None  # main names it when a write fails; "" is none
    if args.out is None:
        raise DomainError("no output directory (set --out or out_dir in the config)")

    distinct = dict.fromkeys(configs.values())  # each is simulated once, in kind order
    steps = sum(map(estimated_steps, distinct))
    for config in distinct:
        if config.scheme != "exact":
            continue
        # an exact-scheme theta_hat converges to (1 - exp(-theta dt)) / dt: say where that
        # bias exceeds the sd of theta_hat at the largest horizon, where the band is narrowest
        t_max = max(config.horizons)
        for theta in config.thetas:
            target = -math.expm1(-theta * config.dt) / config.dt
            bias, sd = abs(theta - target), asymptotic_std(theta, t_max)
            if bias > sd:
                sds = bias / sd if sd > 0.0 else math.inf
                print(f"note: theta={theta:g} on the exact scheme: theta_hat estimates "
                      f"(1 - exp(-theta dt)) / dt = {target:.4g}, {sds:.3g} sd of theta_hat "
                      f"from theta at T={t_max:g} (bias: Tang and Chen, J. Econometrics 149, "
                      "2009)", file=sys.stderr)
    if profile == "full" or steps > _COST_GUARD_STEPS:
        print(f"planned work: {steps:.3e} simulation steps on {len(distinct)} grid(s)",
              file=sys.stderr)
        if not args.yes:
            raise DomainError("this is expensive; re-run with --yes to confirm")

    simulated = {}  # config -> its replicates: kinds on one config share them
    for kind, config in configs.items():
        reports = _RUNNERS[kind](config, n_workers=args.threads, simulated=simulated)
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
    except KeyboardInterrupt:  # a pool stops before this, and every file is whole or absent
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
