#!/usr/bin/env python3
"""oufar benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 20260810 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Each workload runs in its own fresh Python process as a closed loop: one
client issues oufar commands one after another at ``--threads nproc``.
One untimed warm-up pass comes first; then whole passes repeat while the next
one is expected to end within ``--seconds`` (at least one pass).  Outputs of
every pass, the warm-up included, are checked.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs untraced passes, traced passes and untraced
1-thread passes, and prints the per-layer metrics.
Every metric is printed as ``name value unit``; the last line is one JSON
object with the metrics that BENCHMARK.json lists.
A full record (environment, every metric, per-pass samples, spans) goes to
``.perfbench_out/``.  The metric registry is ``perfbench/metrics.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REGISTRY = json.loads((HERE / "metrics.json").read_text())
METRICS = REGISTRY["metrics"]
SETUP_PROBES = 5


def applies(name: str, workload: str) -> bool:
    scope = METRICS[name]["workloads"]
    return scope == "all" or workload in scope


def gated(level: str) -> list[str]:
    return [n for n, m in METRICS.items() if m["gated"] and m["level"] == level]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cache_bytes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        sizes[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, tiny: bool) -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        **_cache_bytes(),
        # one float64 path array of the longest path the workload simulates
        "largest_replicate_array_bytes": (workload.max_steps(tiny) + 1) * 8,
    }
    if "l3_bytes" in env:
        env["largest_array_over_l3"] = env["largest_replicate_array_bytes"] / env["l3_bytes"]
    return env


# ------------------------------------------------------------------- set-up


def probe_setup(args) -> int:
    """Body of one set-up probe process: import, write configs, report the time."""
    import workloads

    workloads.WORKLOADS[args.workload].write_configs(Path(args.probe_setup), args.scale == "tiny")
    print(time.monotonic())
    return 0


def measure_setup(args, work: Path) -> list[float]:
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--scale", args.scale, "--probe-setup", str(work / f"probe{i}")]
        start = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


# ------------------------------------------------------------------- passes


def warm_up(workload, ctx, work: Path):
    """One untimed pass.  The first pass in a process pays for growing the
    allocator's arenas: on the desk profile it took ~2 million more page
    faults and ~25% longer than the next, and a run that timed it beside a
    warm pass read lower than a run that timed it alone."""
    out = work / "warm"
    try:
        return workload.run(ctx, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_passes(workload, ctx, budget: float, work: Path, tag: str) -> list:
    """Whole passes while another one of the last one's length fits in budget."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        out = work / f"{tag}{len(passes)}"
        passes.append(workload.run(ctx, out))
        shutil.rmtree(out, ignore_errors=True)
        now = time.perf_counter()
        if now - start + (now - began) > budget:
            return passes


def check_identical(passes: list) -> None:
    """Every pass of one seed must write byte-identical outputs (any thread count)."""
    first = passes[0].digests
    for i, p in enumerate(passes[1:], 1):
        for name, digest in sorted(p.digests.items()):
            if name in first and first[name] != digest:
                p.fail(f"{name} of pass {i} differs from pass 0")


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pass_metrics(passes: list) -> dict[str, list[float]]:
    samples = {"wall_s": [p.wall_s for p in passes]}
    for p in passes:
        for name, seconds in p.commands.items():
            samples.setdefault(name, []).append(seconds)
    return samples


# ------------------------------------------------------------------ tracing


def install_wraps(tracer) -> None:
    import oufar.cli
    import oufar.experiments
    import oufar.functional
    import oufar.ou_process
    import oufar.predict

    ex, cli, fn = oufar.experiments, oufar.cli, oufar.functional

    def steps_of_grid(args, kwargs, result):
        return {"steps": args[1].n_steps}

    def file_bytes(paths):
        return sum(Path(p).stat().st_size for p in paths)

    # every workload simulates with the Euler scheme
    tracer.wrap(ex, "sample_euler", "ou_process.sample", steps_of_grid)
    tracer.wrap(cli, "sample_euler", "ou_process.sample", steps_of_grid)
    tracer.wrap(oufar.ou_process, "lfilter", "ou_process.lfilter",
                lambda a, k, r: {"steps": len(a[2])})
    mle_steps = lambda a, k, r: {"steps": len(a[0]) - 1}  # noqa: E731
    tracer.wrap(ex, "theta_ito_from_values", "mle.estimate", mle_steps)
    tracer.wrap(cli, "theta_ito_from_values", "mle.estimate", mle_steps)
    tracer.wrap(cli, "theta_endpoint_from_values", "mle.estimate", mle_steps)
    tracer.wrap(ex, "collect_cells", "experiments.collect_cells",
                lambda a, k, r: {"workers": max(k.get("n_workers", a[1] if len(a) > 1 else 1), 1)},
                cpu=True)
    # cli dispatches through its _RUNNERS table and calls lil_coverage by name
    for kind in list(cli._RUNNERS):
        tracer.wrap(cli._RUNNERS, kind, "experiments.run")
    tracer.wrap(cli, "lil_coverage", "experiments.run")
    tracer.wrap(cli, "write_report", "reporting.write_report",
                lambda a, k, r: {"bytes": file_bytes(r.values())})
    tracer.wrap(cli, "write_path_csv", "reporting.write_path_csv",
                lambda a, k, r: {"rows": a[0].grid.n_steps + 1,
                                 "bytes": file_bytes([a[1], f"{a[1]}.meta.json"])})
    tracer.wrap(cli, "read_path_csv", "reporting.read_path_csv", lambda a, k, r: {"rows": len(r[0])})
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(fn, "segment_path", "functional.segment_path", lambda a, k, r: {"blocks": len(r)})
    tracer.wrap(fn, "h_norm", "functional.norm")
    tracer.wrap(fn, "b_norm", "functional.norm")
    tracer.wrap(oufar.predict, "predict_segment", "predict.predict_segment")


def layer_metrics(spans, n_passes: int, workload: str) -> dict:
    """Per-layer metrics from the traced passes' spans, per pass where counted."""
    from tracer import self_times

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, key=None, within=None):
        chosen = [s for s in by_name.get(name, []) if within is None or s.parent in within]
        return sum(s.attrs.get(key, 0) if key else s.duration for s in chosen)

    samplers = by_name.get("ou_process.sample", [])
    sampler_ids = {s.id for s in samplers}
    steps = total("ou_process.sample", "steps")
    sample_s = total("ou_process.sample")
    # the benchmark's own in-memory path also runs lfilter; only count calls
    # made inside a traced sampler
    recursion_s = total("ou_process.lfilter", within=sampler_ids)
    mle = by_name.get("mle.estimate", [])
    mle_steps = total("mle.estimate", "steps")
    m = {
        "ou_process.steps": steps // n_passes,
        "ou_process.ns_per_step": 1e9 * sample_s / steps,
        "ou_process.recursion_ns_per_step": 1e9 * recursion_s / steps,
        "ou_process.draw_ns_per_step": 1e9 * (sample_s - recursion_s) / steps,
        "mle.calls": len(mle) // n_passes,
        "mle.ns_per_step": 1e9 * total("mle.estimate") / mle_steps,
        "mle.zero_denominator": sum(s.attrs.get("error") == "ZeroDenominator" for s in mle) // n_passes,
        "reporting.serialize_s": (total("reporting.write_report") + total("reporting.write_path_csv")) / n_passes,
        "reporting.bytes_written": (total("reporting.write_report", "bytes")
                                    + total("reporting.write_path_csv", "bytes")) // n_passes,
    }
    own = self_times(spans)
    m["cli.self_s"] = sum(own[s.id] for s in by_name.get("cli.main", [])) / n_passes

    collects = by_name.get("experiments.collect_cells", [])
    if collects:
        collect_ids = {s.id for s in collects}
        replicates = sum(1 for s in samplers if s.parent in collect_ids)
        worker_s = sum(s.duration * s.attrs["workers"] for s in collects)
        covered = sum(s.duration for s in samplers + mle if s.parent in collect_ids)
        m["experiments.replicates"] = replicates // n_passes
        m["experiments.overhead_us_per_replicate"] = 1e6 * (worker_s - covered) / replicates
        m["experiments.cpu_util"] = sum(s.attrs["cpu_end"] - s.attrs["cpu_start"] for s in collects) / worker_s
        ends = {}
        for s in collects:
            ends[s.parent] = max(ends.get(s.parent, 0.0), s.end)
        m["experiments.reduce_s"] = sum(s.end - ends.get(s.id, s.start)
                                        for s in by_name.get("experiments.run", [])) / n_passes
    if workload == "long_horizon":
        from oufar.reporting import estimated_steps, profile_config
        from workloads import KINDS

        full_steps = sum(estimated_steps(profile_config(k, "full")) for k in KINDS)
        ns_per_step = 1e9 * (sample_s + total("mle.estimate")) / steps
        m["experiments.full_projected_core_h"] = full_steps * ns_per_step * 1e-9 / 3600
    if by_name.get("reporting.write_path_csv"):
        m["reporting.csv_write_ns_per_row"] = 1e9 * total("reporting.write_path_csv") / total(
            "reporting.write_path_csv", "rows")
    if by_name.get("reporting.read_path_csv"):
        m["reporting.csv_read_ns_per_row"] = 1e9 * total("reporting.read_path_csv") / total(
            "reporting.read_path_csv", "rows")
    forecasts = len(by_name.get("predict.predict_segment", []))
    if forecasts:
        m["functional.segment_us_per_block"] = 1e6 * total("functional.segment_path") / total(
            "functional.segment_path", "blocks")
        m["functional.norm_us_per_block"] = 1e6 * total("functional.norm") / forecasts
        m["predict.us_per_forecast"] = 1e6 * total("predict.predict_segment") / forecasts
    return m


# --------------------------------------------------------------------- main


def run_workload(args, pins=None) -> dict:
    """Run one workload in this process; returns the full result record."""
    import workloads
    from tracer import Tracer, layer_table

    workload = workloads.WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    if pins is None and not tiny and args.workload == "desk" and args.seed == workloads.PIN_SEED:
        pins = workloads.DESK_PINS
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = OUT / f"work-{run_id}"
    try:
        setup = [] if args.trace else measure_setup(args, work)
        workload.write_configs(work, tiny)
        ctx = workloads.Context(work=work, seed=args.seed, threads=nproc(), tiny=tiny, pins=pins)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "run": run_id,
                  "environment": environment(workload, tiny)}
        warm = warm_up(workload, ctx, work)
        if not args.trace:
            timed = run_passes(workload, ctx, args.seconds, work, "pass")
            passes = [warm, *timed]
            check_identical(passes)
            samples = pass_metrics(timed)
            samples["setup_s"] = setup
            metrics = {name: statistics.median(v) for name, v in samples.items()}
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            budget = args.seconds / 3
            before = resource.getrusage(resource.RUSAGE_SELF)
            untraced = run_passes(workload, ctx, budget, work, "untraced")
            after = resource.getrusage(resource.RUSAGE_SELF)
            with Tracer(run_id) as tracer:
                install_wraps(tracer)
                traced = run_passes(workload, ctx, budget, work, "traced")
            single = run_passes(workload, dataclasses.replace(ctx, threads=1), budget, work, "single")
            passes = [warm, *untraced, *traced, *single]
            check_identical(passes)
            samples = pass_metrics(untraced)
            metrics = layer_metrics(tracer.spans, len(traced), args.workload)
            wall = statistics.median(p.wall_s for p in untraced)
            metrics["trace.overhead_frac"] = statistics.median(p.wall_s for p in traced) / wall - 1
            metrics["experiments.thread_speedup"] = statistics.median(p.wall_s for p in single) / wall
            n = len(untraced)
            metrics["process.minor_faults_per_mstep"] = (
                (after.ru_minflt - before.ru_minflt) / (n * metrics["ou_process.steps"] / 1e6))
            metrics["process.user_cpu_s"] = (after.ru_utime - before.ru_utime) / n
            metrics["process.sys_cpu_s"] = (after.ru_stime - before.ru_stime) / n
            record["layers"] = layer_table(tracer.spans)
            OUT.mkdir(exist_ok=True)
            spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps({"run": run_id, "spans": tracer.to_json()}) + "\n")
            record["spans_file"] = str(spans_file.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["failed_ops_frac"] = failed / attempted
    level = "per_layer" if args.trace else "end_to_end"
    record.update(
        passes=len(passes),
        samples=samples,
        metrics={n: v for n, v in metrics.items() if n in METRICS},
        problems=[msg for p in passes for msg in p.problems],
        result={
            "correct": not any(p.problems for p in passes),
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": METRICS[n]["unit"]} for n in gated(level)},
        },
    )
    missing = [n for n in METRICS if METRICS[n]["level"] == level and applies(n, args.workload)
               and n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured on {args.workload}: {missing}")
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']} (the first an untimed warm-up)")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          f"cpu {env['cpu_model']}  L2 {env.get('l2_bytes')} B  L3 {env.get('l3_bytes')} B")
    print(f"# largest per-replicate array {env['largest_replicate_array_bytes']} B "
          f"= {env.get('largest_array_over_l3', float('nan')):.3g} x L3")
    for name, value in record["metrics"].items():
        line = f"{name:<40} {value:<14.6g} {METRICS[name]['unit']}"
        values = record["samples"].get(name)
        if values and len(values) > 1 and record["trace"] == 0:
            q1, q3 = quartiles(values)
            line += f"   median of {len(values)}: q1 {q1:.6g}  q3 {q3:.6g}"
        print(line)
    for name, row in sorted(record.get("layers", {}).items()):
        print(f"# layer {name:<12} spans {row['spans']:<8} total {row['total_s']:.4f} s  self {row['self_s']:.4f} s")
    for msg in record["problems"]:
        print(f"# CHECK FAILED: {msg.splitlines()[0]}")
    print(json.dumps(record["result"]))


def run_all(args) -> int:
    """Each workload in its own fresh process; a combined line closes the output."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in REGISTRY["workloads"]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *REGISTRY["workloads"]))
    parser.add_argument("--seed", type=int, default=20260810, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs for perfbench/selftest.py")
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oufar" / "__init__.py").is_file():
        print(f"error: no oufar sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
