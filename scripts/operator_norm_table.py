#!/usr/bin/env python3
"""Print the operator-norm table: closed form vs the discrete quadrature oracle.

For each (theta, k) the table shows the exact norm of the k-th operator power
in the endpoint-weighted L2 geometry, the grid oracle at the requested
resolution, their relative gap, and the sup-norm value.  The contraction
power k0 = ceil(1/theta + 1) is marked.
"""

import argparse
import sys

from oufar import GridMismatch, TimeGrid
from oufar.functional import k0, rho_norm_b, rho_norm_h, rho_norm_h_discrete
from oufar.ou_process import positive_finite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=float, default=1.0)
    parser.add_argument("--m", type=int, default=10**4)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument(
        "--thetas", type=float, nargs="+", default=[0.1, 0.4, 0.7, 1.0, 2.0, 5.0]
    )
    args = parser.parse_args()
    if args.m < 1:
        parser.error(f"--m must be at least 1, got {args.m}")
    bad = [x for x in (args.h, *args.thetas) if not positive_finite(x)]
    if bad:
        parser.error(f"--h and --thetas must be positive and finite, got {bad}")
    try:
        grid = TimeGrid(t_end=args.h, dt=args.h / args.m)
    except GridMismatch as exc:  # h / m underflows
        parser.error(f"no grid of {args.m} steps on [0, {args.h}]: {exc}")
    print(f"h = {args.h}, oracle grid m = {args.m}")
    print(f"{'theta':>7} {'k':>3} {'norm_H':>12} {'oracle':>12} {'rel gap':>10} {'norm_B':>10}")
    for theta in args.thetas:
        cut = k0(theta)
        for k in range(1, args.k_max + 1):
            closed = rho_norm_h(theta, k, args.h)
            oracle = rho_norm_h_discrete(theta, k, grid)
            # the closed form underflows to 0 at a large theta (k - 1) h: the gap is then absolute
            gap = abs(oracle - closed) / closed if closed else abs(oracle - closed)
            mark = " <- k0" if k == cut else ""
            print(
                f"{theta:>7g} {k:>3} {closed:>12.6f} {oracle:>12.6f} "
                f"{gap:>10.2e} {rho_norm_b(theta, k, args.h):>10.6f}{mark}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
