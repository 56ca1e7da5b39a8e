#!/usr/bin/env python3
"""Run all four desk-profile experiments and write their reports.

Desk scale means laptop-class budgets: 200 replicates per cell and horizons
up to T = 8000 at dt = 0.02.  The whole set finishes in well under a minute
on one core.  Outputs land in results/desk/ by default, one JSON + CSV pair
per experiment plus a volatile .run.json with timing.
"""

import argparse
import sys
import time

from oufar.experiments import (
    ExperimentConfig,
    lil_coverage,
    run_band_coverage,
    run_emse,
    run_predictor_bound,
    standardized_errors,
)
from oufar.reporting import profile_config, write_report

RUNNERS = {
    "band-coverage": run_band_coverage,
    "emse": run_emse,
    "predictor-bound": run_predictor_bound,
    "normality": standardized_errors,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/desk")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--master-seed", type=int, default=None)
    args = parser.parse_args()

    for kind, runner in RUNNERS.items():
        config = profile_config(kind, "desk")
        if args.master_seed is not None:
            config = ExperimentConfig(**{**config.to_dict(), "master_seed": args.master_seed})
        start = time.perf_counter()
        report = runner(config, n_workers=args.threads)
        paths = write_report(report, args.out)
        print(
            f"{kind}: {len(report.cells)} cells, {report.failures_total} failures, "
            f"{time.perf_counter() - start:.1f}s -> {paths['json']}"
        )
        if kind == "normality":
            lil = lil_coverage(config, n_workers=args.threads, cell_data=report.cell_data)
            write_report(lil, args.out, basename="lil_coverage")
    return 0


if __name__ == "__main__":
    sys.exit(main())
