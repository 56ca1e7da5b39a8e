#!/usr/bin/env python3
"""Cost of each stage of one path chunk of the Monte Carlo harness, in ns per step.

Run from the repository root:

    python3 scripts/bench_ar1.py                    # this tree's oufar
    python3 scripts/bench_ar1.py --src OTHER/src    # another tree's, same script

Each stage is timed on chunks of 2^16 Euler steps (theta = 1, dt = 2^-6),
the chunk length of ``experiments._stream_path``; the median over
``--chunks`` chunks is printed as one JSON object:

* ``draw``: numpy's ``standard_normal`` into the chunk's array.
* ``scale_shift``: the numpy passes that turn the normals into innovations.
* ``recursion``: ``lfilter`` over the innovations.  These three are the
  scipy route's stages.
* ``fused``: the C loop of ``_ar1.c`` drawing from PCG64 and recursing, in
  one call (``_fused_ar1``); null unless the route is ``fused``.
* ``ito_sums``: ``theta_ito_from_values`` on the chunk, whose leaf sums run
  on the process's route: the C sums of ``_ar1.c`` where the route is
  ``fused``, numpy's leaf where it is ``scipy``.
* ``ito_sums_numpy``: numpy's leaf (``ou_process._numpy_ito_sums``) on the
  chunk, whichever the route; null on trees without it.
* ``ar1``: one whole ``ou_process._ar1`` call, which draws, scales, shifts
  and recurses by the process's route.
* ``stream``: one 2^20-step replicate through ``_stream_path``.
* ``desk`` and ``desk_s``: the four distinct grids of the desk profile
  (``profile_config(kind, "desk")`` over the experiment kinds), each run
  once through ``collect_cells`` on one worker: ns per simulated step, and
  seconds in all.  One worker keeps the number free of how many CPUs the
  host lends the process at the time.  Null on trees without these names.

``route`` is ``ou_process.ar1_route()``.  A first chunk runs untimed, so a
build of the C loop is not counted.  The script also runs on older trees
(``--src``): on those whose ``_ar1_kernel()`` returns a (loop, fused) pair
or the bare loop, and on those without the fused draw, which report ``fused``
null.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

N = 1 << 16


def _median_ns_per_step(run, chunks: int, steps: int = N, setup=None) -> float:
    """The median time of ``run()`` per step over ``chunks`` calls, each after an untimed ``setup()``."""
    times = []
    for _ in range(chunks):
        if setup is not None:
            setup()
        start = time.perf_counter_ns()
        run()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / steps


def desk() -> tuple:
    """(ns per simulated step, seconds) of one run of the desk grids on one worker, or Nones."""
    try:
        from oufar.experiments import EXPERIMENTS, collect_cells
        from oufar.reporting import estimated_steps, profile_config
    except ImportError:
        return None, None
    grids = dict.fromkeys(profile_config(kind, "desk") for kind in EXPERIMENTS)
    start = time.perf_counter_ns()
    for config in grids:
        collect_cells(config, n_workers=1)
    elapsed = time.perf_counter_ns() - start
    return elapsed / sum(map(estimated_steps, grids)), elapsed / 1e9


def measure(chunks: int) -> dict:
    import numpy as np

    from oufar import ou_process
    from oufar.experiments import ExperimentConfig, _stream_path
    from oufar.mle import theta_ito_from_values

    theta, dt = 1.0, 2.0**-6  # a 2^20-step horizon is then a whole number of blocks
    a, scales, shift = 1.0 - theta * dt, (math.sqrt(dt), 1.0), 0.0
    rng = np.random.default_rng(20260810)
    ou_process._ar1(N, 0.0, a, scales, shift, rng)  # untimed: builds or loads the loop
    route = ou_process.ar1_route()
    kernel = ou_process._ar1_kernel() if route == "fused" else None
    loop = kernel[0] if isinstance(kernel, tuple) else kernel  # (loop, sums) or (loop, fused)
    numpy_leaf = getattr(ou_process, "_numpy_ito_sums", None)
    v = np.empty(N + 1)
    v[0] = 0.0

    def draw():
        rng.standard_normal(out=v[1:])

    def scale_shift():
        for factor in scales:
            np.multiply(v[1:], factor, out=v[1:])
        np.add(v[1:], shift, out=v[1:])

    def fused():
        ou_process._fused_ar1(loop, v, a, scales, shift, rng.bit_generator)

    # scale_shift, in place, starts from the same normals each time
    draw()
    normals = v.copy()
    scale_shift()
    innovations = v.copy()
    path = ou_process.lfilter([1.0], [1.0, -a], innovations)
    config = ExperimentConfig(thetas=(theta,), horizons=(16 * N * dt,), dt=dt)
    stream_rng = np.random.default_rng(1)
    stages = {
        "route": route,
        "draw": _median_ns_per_step(draw, chunks),
        "scale_shift": _median_ns_per_step(
            scale_shift, chunks, setup=lambda: np.copyto(v, normals)),
        "recursion": _median_ns_per_step(
            lambda: ou_process.lfilter([1.0], [1.0, -a], innovations), chunks),
        "fused": _median_ns_per_step(fused, chunks) if route == "fused" else None,
        "ito_sums": _median_ns_per_step(lambda: theta_ito_from_values(path, dt), chunks),
        "ito_sums_numpy": (_median_ns_per_step(lambda: numpy_leaf(path), chunks)
                           if numpy_leaf is not None else None),
        "ar1": _median_ns_per_step(lambda: ou_process._ar1(N, 0.0, a, scales, shift, rng), chunks),
        "stream": _median_ns_per_step(
            lambda: _stream_path(config, ou_process.OuParams(theta), 16 * N, 0, stream_rng),
            max(chunks // 16, 3), 16 * N),
    }
    stages["desk"], stages["desk_s"] = desk()
    return stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the oufar package to time (default: this tree's src)")
    parser.add_argument("--chunks", type=int, default=200, help="timed chunks per stage (default 200)")
    args = parser.parse_args(argv)
    if args.chunks < 1:
        parser.error("--chunks must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    print(json.dumps(measure(args.chunks)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
