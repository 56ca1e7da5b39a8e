"""Serialization, configuration files, and experiment profiles.

Every JSON and CSV text oufar writes is made here: strict, sorted, indent-2
JSON (``json_text``) and CSV whose numbers have 17 significant digits, so
every double round-trips exactly.  Deterministic artifacts (report JSON, CSV
tables, path CSVs) never contain volatile data; wall time and worker count
go to a separate ``*.run.json`` so re-running with the same master seed
produces byte-identical reports.

Every file is written atomically: into a temporary file beside the target,
then renamed over it, so an interrupted run leaves the old file or none.

CSV schemas (header line included, LF line endings):

* path:                ``t,xi``
* band_coverage:       ``theta,T,N,k,coverage,failures``
* emse:                ``theta,T,N,emse,two_theta_over_T,failures``
* predictor_bound:     ``theta,T,N,epsilon,p_hat_H,p_hat_B,failures``
* lil_coverage:        ``theta,T,N,multiplier,lil_coverage,failures``
* standardized_errors: ``theta,T,replicate,z`` (``normality.csv`` too)

The report tables take their columns from ``experiments.REPORTS``.

Experiment configuration files are JSON objects whose keys mirror
ExperimentConfig exactly (lists for the grids); unknown keys are rejected.
``resolve_cli_config`` resolves one such document once for all of a command's kinds.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import fields
from itertools import chain, dropwhile, islice
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GridMismatch
from .experiments import (
    EXPERIMENTS,
    PROFILES,
    REPORTS,
    RNG_ALGORITHM,
    ExperimentConfig,
    ExperimentReport,
    check_report,
)
from .ou_process import SamplePath, grid_multiple

SCHEMA_VERSION = 1


def fmt(x) -> str:
    """17 significant digits: enough to reproduce any IEEE double exactly."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return format(float(x), ".17g")


def json_text(doc) -> str:
    """Strict, sorted, indent-2 JSON plus a newline: NaN or infinity raises ValueError."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _sha256(doc) -> str:
    """sha256 of the canonical (sorted, compact) JSON encoding of ``doc``."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def csv_text(header: tuple[str, ...], rows) -> str:
    """A header line, then one line per row of ``fmt`` values, each ending in LF."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def atomic_write(target, chunks) -> None:
    """Write the text ``chunks`` to ``target`` through a temporary file beside it.

    Missing parent directories are created.  The temporary file is renamed
    over ``target`` only after every chunk is written, and removed if
    writing fails, so ``target`` is either complete or left as it was.  A
    target that exists and is not a regular file (a terminal or pipe such as
    /dev/stdout) cannot be replaced and is written in place.
    """
    target = Path(target)
    if target.exists() and not target.is_file():
        with target.open("w") as f:
            f.writelines(chunks)
        return
    target = Path(os.path.realpath(target))  # replace a symlink's target, not the link
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    # O_EXCL: never write through a file or link already there; 0o666 lets the
    # umask set the mode a plain open() would give the target
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical JSON encoding of the config."""
    return _sha256(config.to_dict())


def provenance(config: ExperimentConfig) -> dict:
    return {
        "master_seed": config.master_seed,
        "config_hash": config_hash(config),
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "schema_version": SCHEMA_VERSION,
    }


def _json_safe(value):
    """NaN (cells where every replicate failed) serializes as null."""
    if isinstance(value, float) and value != value:
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def report_json_text(report: ExperimentReport) -> str:
    """Deterministic JSON body of a report (volatile run data excluded)."""
    doc = {
        "kind": report.kind,
        "config": report.config.to_dict(),
        "cells": _json_safe(report.cells),
        "failures_total": report.failures_total,
        "provenance": provenance(report.config),
    }
    return json_text(doc)


def report_csv_text(report: ExperimentReport) -> str:
    """CSV table of the report cells, with the columns its table entry names."""
    columns = REPORTS[report.kind].columns
    if columns is None:  # one row per completed replicate
        rows = []
        for cell in report.cells:
            rows.extend(
                (cell["theta"], cell["T"], r, z)
                for r, z in zip(cell["z_replicates"], cell["z"])
            )
        return csv_text(("theta", "T", "replicate", "z"), rows)
    columns = ("theta", "T", "N", *columns, "failures")
    rows = [tuple(cell[c] for c in columns) for cell in report.cells]
    return csv_text(columns, rows)


def write_report(
    report: ExperimentReport, out_dir, formats: tuple[str, ...] = ("json", "csv")
) -> dict:
    """Write ``<kind>.json``, ``<kind>.csv`` and the volatile ``<kind>.run.json``.

    The z table of a normality report is also written as
    ``standardized_errors.csv``.  Returns the paths written.  The run file
    records wall time and worker count and is the only file allowed to
    differ between reruns.
    """
    out_dir = Path(out_dir)
    paths = {"run": out_dir / f"{report.kind}.run.json"}
    if "json" in formats:
        paths["json"] = out_dir / f"{report.kind}.json"
        atomic_write(paths["json"], [report_json_text(report)])
    if "csv" in formats:
        table = report_csv_text(report)
        paths["csv"] = out_dir / f"{report.kind}.csv"
        atomic_write(paths["csv"], [table])
        if REPORTS[report.kind].columns is None:
            paths["z_csv"] = out_dir / "standardized_errors.csv"  # its schema name
            atomic_write(paths["z_csv"], [table])
    run_doc = {
        "wall_time_s": report.wall_time_s,
        "n_workers": report.n_workers,
        "finished_unix": time.time(),
    }
    atomic_write(paths["run"], [json_text(run_doc)])
    return paths


# rows per block of the path CSV writer and reader: besides the path's own
# values they hold one block of text and row objects, never a string or a
# Python list for the whole path
_BLOCK_ROWS = 1 << 14

_PATH_ROW = "{:.17g},{:.17g}\n".format  # the same digits as fmt()


def _path_csv_blocks(path: SamplePath):
    """The ``t,xi`` CSV text of ``path``: the header, then one string per row block.

    The time column of rows i..j-1 is ``np.arange(i, j) * dt``, the same
    doubles as ``path.grid.times()[i:j]``.
    """
    yield "t,xi\n"
    values, dt = path.values, path.grid.dt
    for i in range(0, values.size, _BLOCK_ROWS):
        j = min(i + _BLOCK_ROWS, values.size)
        yield "".join(map(_PATH_ROW, (np.arange(i, j) * dt).tolist(), values[i:j].tolist()))


def path_csv_text(path: SamplePath) -> str:
    return "".join(_path_csv_blocks(path))


def path_sidecar(path: SamplePath, seed: int, extra: dict | None = None) -> dict:
    doc = {
        "seed": seed,
        "scheme": path.scheme,
        "params": None
        if path.params is None
        else {"theta": path.params.theta, "mu": path.params.mu, "sigma": path.params.sigma},
        "t_end": path.grid.t_end,
        "dt": path.grid.dt,
        "n_steps": path.grid.n_steps,
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "schema_version": SCHEMA_VERSION,
    }
    if extra:
        doc.update(extra)
    doc["config_hash"] = _sha256(doc)
    return doc


def write_path_csv(path: SamplePath, outfile, seed: int, extra: dict | None = None) -> None:
    """Write the ``t,xi`` CSV plus a ``.meta.json`` sidecar with full provenance."""
    outfile = Path(outfile)
    atomic_write(outfile, _path_csv_blocks(path))
    sidecar = outfile.with_suffix(outfile.suffix + ".meta.json")
    atomic_write(sidecar, [json_text(path_sidecar(path, seed, extra))])


def _line_blocks(f):
    """Lines of the text file ``f`` in blocks of up to _BLOCK_ROWS file lines.

    Each block is split with str.splitlines and ends at a newline, so the
    blocks hold the same lines as splitlines() of the whole text.
    """
    try:
        while lines := list(islice(f, _BLOCK_ROWS)):
            yield "".join(lines).splitlines()
    except UnicodeDecodeError as exc:
        raise GridMismatch(f"{f.name}: not UTF-8 text ({exc})") from exc


def _parse_rows(infile, lines: list[str]) -> np.ndarray:
    """(m, 2) float64 array of m ``t,xi`` rows, each field parsed by float()."""
    rows = [line.split(",") for line in lines]
    if set(map(len, rows)) != {2}:
        raise GridMismatch(f"{infile}: need exactly two fields per row")
    try:
        data = np.fromiter(map(float, chain.from_iterable(rows)), np.float64, 2 * len(rows))
    except ValueError as exc:
        raise GridMismatch(f"{infile}: malformed CSV row ({exc})") from exc
    return data.reshape(-1, 2)


def read_path_csv(infile) -> tuple[np.ndarray, float]:
    """Load a ``t,xi`` CSV; returns (values, dt) after checking uniform spacing.

    The file is parsed in blocks of rows, so memory holds the values (8
    bytes a row, twice while the blocks are joined) plus one block.  Blank
    lines before the header and after the last row are ignored, as are
    leading and trailing spaces; a blank line between rows is rejected.
    Checks, in order: UTF-8 text, the header, two fields per row, each
    value a float, every value finite, and a uniform positive time step
    (1e-9 relative).
    """
    infile = Path(infile)
    header = False
    blank = False  # whitespace-only lines since the last row
    xi_blocks, t_last, dt = [], None, None
    with infile.open(encoding="utf-8") as f:  # universal newlines, as Path.read_text
        for lines in _line_blocks(f):
            if not header:
                lines = list(dropwhile(lambda line: not line.strip(), lines))
                if not lines:
                    continue
                if lines[0].strip() != "t,xi":
                    break
                header, lines = True, lines[1:]
            n_rows = len(lines)  # up to the last line that is not blank
            while n_rows and not lines[n_rows - 1].strip():
                n_rows -= 1
            if n_rows and blank:
                raise GridMismatch(f"{infile}: blank line between rows")
            blank = blank or n_rows < len(lines)
            if not n_rows:
                continue
            data = _parse_rows(infile, lines[:n_rows])
            if not np.isfinite(data).all():
                raise GridMismatch(f"{infile}: values must be finite")
            t = data[:, 0]
            steps = np.diff(t) if t_last is None else np.diff(t, prepend=t_last)
            if dt is None and steps.size:
                dt = steps[0]
            if dt is not None and (dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(dt, 1.0))):
                raise GridMismatch(f"{infile}: time column is not uniformly spaced")
            t_last = t[-1]
            xi_blocks.append(data[:, 1].copy())
    if not header:
        raise GridMismatch(f"{infile}: expected header 't,xi'")
    if dt is None:
        raise GridMismatch(f"{infile}: need at least two rows")
    return np.concatenate(xi_blocks), float(dt)


def profile_config(kind: str, profile: str) -> ExperimentConfig:
    """Pre-filled ExperimentConfig for an experiment kind under a named profile."""
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}; expected one of {tuple(EXPERIMENTS)}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    return ExperimentConfig(**EXPERIMENTS[kind].profiles[profile])


def load_experiment_config(doc: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object, rejecting unknown keys.

    ``overrides`` (e.g. from command-line flags) win over file values.
    """
    allowed = {f.name for f in fields(ExperimentConfig)}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}; allowed: {sorted(allowed)}")
    merged = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    missing = {"thetas", "horizons"} - set(merged)
    if missing:
        raise ValueError(f"config must set {sorted(missing)}")
    return ExperimentConfig(**merged)


def resolve_cli_config(kinds, doc: dict, overrides: dict | None = None):
    """Resolve a full CLI configuration document once for experiment ``kinds``.

    Beyond the ExperimentConfig fields the document may carry ``profile``
    (desk | full | custom; desk/full pre-fill each kind's grids, remaining
    keys then override them), ``out_dir``, and ``formats`` (subset of
    ["json", "csv"]).  Every report of every kind is checked on its config,
    so no path is drawn for a document that any kind rejects.
    Returns ``({kind: config}, out_dir, formats, profile)``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
    body = dict(doc)
    profile = body.pop("profile", "custom")
    out_dir = body.pop("out_dir", None)
    formats = body.pop("formats", ["json", "csv"])
    if not isinstance(profile, str) or not isinstance(out_dir, (str, type(None))):
        raise ValueError(f"profile and out_dir must be strings: {profile!r}, {out_dir!r}")
    if not (isinstance(formats, (list, tuple)) and formats
            and all(f in ("json", "csv") for f in formats)):
        raise ValueError(f"formats must be a nonempty subset of ['json', 'csv']: {formats!r}")
    if profile not in (*PROFILES, "custom"):
        raise ValueError(f"unknown profile {profile!r}; expected desk, full, or custom")
    configs = {}
    for kind in kinds:
        defaults = EXPERIMENTS[kind].profiles.get(profile, {})
        configs[kind] = load_experiment_config(defaults | body, overrides)
        for name in EXPERIMENTS[kind].reports:
            check_report(name, configs[kind])  # lil_coverage needs every T > e
    return configs, out_dir, tuple(formats), profile


def estimated_steps(config: ExperimentConfig) -> int:
    """Total number of simulation steps the configuration will run."""
    per_replicate = sum(grid_multiple(t, config.dt) for t in config.horizons)
    return per_replicate * config.replicates * len(config.thetas)
