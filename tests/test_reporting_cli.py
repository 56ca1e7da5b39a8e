import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oufar.cli as cli
import oufar.mle as mle
import oufar.ou_process as ou_process
import oufar.reporting as reporting

from oufar import (
    ExperimentConfig,
    OuParams,
    TimeGrid,
    run_experiment,
    sample_euler,
)
from oufar.cli import main
from oufar.errors import GridMismatch
from oufar.experiments import EXPERIMENTS, PROFILES, CellData, check_report
from oufar.ou_process import SamplePath, grid_multiple
from oufar.reporting import (
    atomic_write,
    config_hash,
    estimated_steps,
    fmt,
    profile_config,
    read_path_csv,
    report_csv_text,
    report_json_text,
    resolve_cli_config,
    write_path_csv,
)

SMALL = {"thetas": [0.7], "horizons": [200.0], "replicates": 10, "master_seed": 5}


def _make_path(seed=1, t_end=5.0):
    return sample_euler(
        OuParams(theta=1.0), TimeGrid(t_end, 0.02), np.random.default_rng(seed)
    )


class TestFormatting:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_fmt_round_trips_doubles(self, x):
        assert float(fmt(x)) == x

    def test_fmt_integers(self):
        assert fmt(3) == "3"
        assert fmt(np.int64(7)) == "7"


class TestConfigHash:
    def test_stable_across_instances(self):
        a = ExperimentConfig(**SMALL | {"thetas": (0.7,), "horizons": (200.0,)})
        b = ExperimentConfig(**SMALL | {"thetas": (0.7,), "horizons": (200.0,)})
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_any_field(self):
        a = ExperimentConfig(thetas=(0.7,), horizons=(200.0,), master_seed=5)
        b = ExperimentConfig(thetas=(0.7,), horizons=(200.0,), master_seed=6)
        assert config_hash(a) != config_hash(b)


@pytest.fixture(scope="module")
def report():
    return run_experiment("band-coverage", ExperimentConfig(**SMALL))[0]


class TestReportSerialization:
    def test_json_embeds_provenance_not_wall_time(self, report):
        doc = json.loads(report_json_text(report))
        prov = doc["provenance"]
        assert prov["master_seed"] == 5
        assert prov["config_hash"] == config_hash(report.config)
        assert "version" in prov and "rng" in prov and prov["schema_version"] == 1
        assert "wall_time" not in json.dumps(doc)

    def test_csv_schema(self, report):
        lines = report_csv_text(report).splitlines()
        assert lines[0] == "theta,T,N,k,coverage,failures"
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.7

    def test_every_table_report_ends_in_failures(self):
        config = ExperimentConfig(**SMALL | {"thetas": (0.7,), "horizons": (200.0,)})
        headers = {
            report.kind: report_csv_text(report).splitlines()[0]
            for kind in ("emse", "predictor-bound")
            for report in run_experiment(kind, config)
        }
        assert headers == {
            "emse": "theta,T,N,emse,two_theta_over_T,failures",
            "predictor_bound": "theta,T,N,epsilon,p_hat_H,p_hat_B,failures",
        }

    def test_json_round_trips_cells(self, report):
        doc = json.loads(report_json_text(report))
        assert doc["cells"][0]["coverage"] == report.cells[0]["coverage"]


class TestPathCsv:
    def test_round_trip_exact(self, tmp_path):
        path = _make_path()
        out = tmp_path / "p.csv"
        write_path_csv(path, out, {"seed": 1})
        values, dt = read_path_csv(out)
        np.testing.assert_array_equal(values, path.values)
        assert dt == 0.02
        meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
        assert meta["seed"] == 1 and meta["n_steps"] == 250

    def test_sidecar_holds_the_given_provenance_and_the_grid(self, tmp_path):
        out = tmp_path / "p.csv"
        write_path_csv(_make_path(), out, {"seed": 3})
        meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
        assert set(meta) == {"seed", "t_end", "dt", "n_steps", "version", "rng",
                             "schema_version", "config_hash"}
        assert (meta["seed"], meta["t_end"], meta["dt"], meta["n_steps"]) == (3, 5.0, 0.02, 250)

    def test_rejects_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0,1\n")
        with pytest.raises(GridMismatch):
            read_path_csv(bad)

    def test_rejects_nonuniform_grid(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,xi\n0,1\n0.02,1\n0.05,1\n")
        with pytest.raises(GridMismatch):
            read_path_csv(bad)

    @pytest.mark.parametrize("text", ["t,xi\n0,1\n\n0.02,1\n0.04,1\n", "t,xi\n\n0,1\n0.02,1\n",
                                      "\nt,xi\n0,1\n \t\r\n0.02,1\n\n"])
    def test_rejects_a_blank_line_between_rows(self, tmp_path, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(GridMismatch, match="blank line between rows"):
            read_path_csv(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_nonfinite_values(self, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,xi\n0,1\n0.02,{value}\n0.04,1\n")
        with pytest.raises(GridMismatch, match="finite"):
            read_path_csv(bad)


def _reference_read_path_csv(infile) -> tuple[np.ndarray, float]:
    """The whole-text reader that the block reader replaced, kept verbatim as its oracle."""
    infile = Path(infile)
    raw = infile.read_text().strip().splitlines()
    if not raw or raw[0].strip() != "t,xi":
        raise GridMismatch(f"{infile}: expected header 't,xi'")
    try:
        data = np.array([[float(f) for f in line.split(",")] for line in raw[1:]])
    except ValueError as exc:
        raise GridMismatch(f"{infile}: malformed CSV row ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise GridMismatch(f"{infile}: need two columns and at least two rows")
    if not np.all(np.isfinite(data)):
        raise GridMismatch(f"{infile}: values must be finite")
    t, xi = data[:, 0], data[:, 1]
    steps = np.diff(t)
    dt = steps[0]
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(dt, 1.0)):
        raise GridMismatch(f"{infile}: time column is not uniformly spaced")
    return xi, float(dt)


def _read_outcome(read, infile):
    """(xi bytes, dt bytes) of a read, or None when it raises GridMismatch."""
    try:
        xi, dt = read(infile)
    except GridMismatch:
        return None
    return np.ascontiguousarray(xi).tobytes(), np.float64(dt).tobytes()


_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
_VALUE = st.one_of(
    st.floats(width=64).map("{:.17g}".format),  # nan, inf, -0, subnormals included
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "abc", " 1.5 ", "1_0", "1e400", "-0"]),
)


@st.composite
def _path_csv_files(draw):
    """Text of a path CSV, mostly valid, with the defects the reader must reject or accept."""
    dt = draw(st.sampled_from([0.02, 0.5, 1.0, 3e-7]))
    n_rows = draw(st.sampled_from([0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 40]))
    header = "t,xi" if draw(st.integers(0, 9)) else draw(st.sampled_from(["t,x", "time,xi", "xi,t"]))
    lines = [" " * draw(st.integers(0, 1)) + header]
    for i in range(n_rows):
        t = "{:.17g}".format(i * dt)
        if draw(st.integers(0, 63)) == 0:
            t = draw(st.one_of(_VALUE, st.just("{:.17g}".format((i + 0.5) * dt))))
        x = draw(_VALUE) if draw(st.integers(0, 31)) == 0 else "{:.17g}".format(draw(st.floats(-1e6, 1e6)))
        fields = [t, x]
        n_fields = 2 if draw(st.integers(0, 63)) else draw(st.sampled_from([1, 3]))
        lines.append(",".join((fields + [x])[:n_fields]))
        if draw(st.integers(0, 127)) == 0:
            lines.append(draw(_BLANK))  # a blank line between rows
    lead = draw(st.lists(_BLANK, max_size=3))
    trail = draw(st.lists(_BLANK, max_size=3))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = draw(st.sampled_from([eol, ""]))
    return eol.join(lead + lines + trail) + final


class TestPathCsvOracle:
    """The block reader accepts and rejects exactly what the whole-text reader did."""

    @settings(max_examples=400, deadline=None)
    @given(text=_path_csv_files(), block=st.sampled_from([1, 2, 3, 8, 16]))
    def test_matches_whole_text_reader(self, text, block):
        with tempfile.TemporaryDirectory() as tmp:
            csv = Path(tmp) / "p.csv"
            csv.write_bytes(text.encode())
            expected = _read_outcome(_reference_read_path_csv, csv)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reporting, "_BLOCK_ROWS", block)  # rows straddle block ends
                assert _read_outcome(read_path_csv, csv) == expected

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("blank_at", [None, "boundary", "end"])
    def test_rows_at_block_multiples(self, tmp_path, extra, blank_at):
        n = 2 * reporting._BLOCK_ROWS + extra
        rng = np.random.default_rng(n)
        lines = ["t,xi"] + [f"{0.02 * i:.17g},{x:.17g}" for i, x in enumerate(rng.standard_normal(n))]
        if blank_at == "boundary":
            lines.insert(reporting._BLOCK_ROWS, "")  # the last line of the first block
        elif blank_at == "end":
            lines += ["", "  "]
        csv = tmp_path / "p.csv"
        csv.write_text("\n".join(lines) + "\n")
        expected = _read_outcome(_reference_read_path_csv, csv)
        assert _read_outcome(read_path_csv, csv) == expected
        assert (expected is None) == (blank_at == "boundary")


def test_reader_helpers_are_gone():
    # read_path_csv is one loop over blocks of file lines, not a row filter and a parser
    assert not any(hasattr(reporting, name) for name in ("_rows", "_parse_rows"))


# a defect made of one row "t,1", each with its reader message: the lines that replace it
_DEFECTS = {
    "blank": (lambda t: ["", f"{t},1"], "blank line between rows"),
    "fields": (lambda t: [f"{t},1,1"], "need exactly two fields per row"),
    "float": (lambda t: [f"{t},abc"], "malformed CSV row"),
    "finite": (lambda t: [f"{t},nan"], "values must be finite"),
    "step": (lambda t: [f"{t + 0.25},1"], "time column is not uniformly spaced"),
    "utf8": (lambda t: [f"{t},1\udcff"], "not UTF-8 text"),  # the row ends in byte 0xff
    "ascii": (lambda t: [f"{t},\u0661"], r"not ASCII text \(character U\+0661\)"),  # Arabic-Indic 1
}


class TestDefectOrder:
    """Of two defects in two blocks, the reader reports the one earlier in the file."""

    @pytest.mark.parametrize("first,second", list(itertools.permutations(_DEFECTS, 2)))
    def test_first_defect_in_file_order(self, tmp_path, monkeypatch, first, second):
        monkeypatch.setattr(reporting, "_BLOCK_ROWS", 4)
        times = iter(range(10))
        lines = ["t,xi", f"{next(times)},1", *_DEFECTS[first][0](next(times))]
        while len(lines) < 4:  # the first block ends with the first defect's block
            lines.append(f"{next(times)},1")
        lines += _DEFECTS[second][0](next(times))  # the first line of the second block
        lines += [f"{t},1" for t in times]
        csv = tmp_path / "p.csv"
        csv.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        with pytest.raises(GridMismatch, match=_DEFECTS[first][1]):
            read_path_csv(csv)


class TestPathCsvStreaming:
    # sha256 of `oufar simulate --theta 0.7 --t-end 200 --dt 0.02 --seed 1` CSV bytes
    # with these extra flags; the first two were computed with the whole-text writer
    # before the block writer replaced it, the others before `simulate` had one
    # sampler call per scheme.  The exact pins were retaken when the exact innovation
    # sd became sigma sqrt(D(theta, dt)); the former sd brings back the former pins
    GOLDEN = {
        "--scheme euler": "48673391a9f30491ab92e8c89ad4a57bfd839eab0c8de4fa05fbc3ae3e990909",
        "--scheme exact": "c83d921d26b5b07bc4aeefeaa918dd9b47b635bc381bb18cbffec7208ab35e91",
        "--scheme exact --stationary":
            "f97b9ab0f9f2dcce08062fa9875408ee9648e04cbd221aaec69ea7b66fabe588",
        "--scheme exact --x0 0.5":
            "13b6cbd17f67a5fe937b76b797f0bc43cee4da694a337e297cd4daf43f5c1017",
        "--scheme euler --x0 -1.25 --mu 0.3 --sigma 2":
            "0142214902fca260a874345e37fc89cd26306a967a47a7d08923f714c6e1564a",
    }

    @pytest.mark.parametrize("block", [None, 999])  # 10001 rows: one block, or eleven
    @pytest.mark.parametrize("flags", list(GOLDEN), ids=[
        "euler", "exact", "exact-stationary", "exact-x0", "euler-x0-mu-sigma"])
    def test_simulate_golden_bytes(self, tmp_path, monkeypatch, flags, block):
        if block is not None:
            monkeypatch.setattr(reporting, "_BLOCK_ROWS", block)
        out = tmp_path / "p.csv"
        assert main(["simulate", "--theta", "0.7", "--t-end", "200", "--dt", "0.02",
                     *flags.split(), "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[flags]

    def test_extreme_values_round_trip(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([-0.0, 0.0, tiny, -tiny, 2.2250738585072009e-308, 1e308, -1e308,
                           np.finfo(float).max, -np.finfo(float).max, 1.0])
        path = SamplePath(grid=TimeGrid(0.5 * (values.size - 1), 0.5), values=values)
        out = tmp_path / "p.csv"
        write_path_csv(path, out, {"seed": 0})
        assert out.read_text() == "".join(reporting._path_csv_blocks(path))
        got, dt = read_path_csv(out)
        assert got.tobytes() == values.tobytes()  # the sign of -0.0 included
        assert dt == 0.5

    def test_reader_holds_the_values_and_one_block(self, tmp_path):
        out = tmp_path / "p.csv"
        write_path_csv(_make_path(t_end=5000.0), out, {"seed": 1})  # 2.5e5 + 1 rows
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            values, _ = read_path_csv(out)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert values.size == 250001
        # the values twice (2 MB each) while the blocks are joined, plus one block of
        # text and rows; 2^14-row blocks peaked at 10.1 MiB
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, existed):
        monkeypatch.setattr(reporting, "_BLOCK_ROWS", 16)
        calls = []

        def failing_row(t, x):
            calls.append(t)
            if len(calls) > 16:
                raise RuntimeError("formatter fails after the first block")
            return f"{t!r},{x!r}\n"

        monkeypatch.setattr(reporting, "_PATH_ROW", failing_row)
        out = tmp_path / "p.csv"
        if existed:
            out.write_text("old contents\n")
        with pytest.raises(RuntimeError):
            write_path_csv(_make_path(), out, {"seed": 1})
        assert len(calls) == 17
        assert sorted(p.name for p in tmp_path.iterdir()) == (["p.csv"] if existed else [])
        if existed:
            assert out.read_text() == "old contents\n"


class TestAtomicWrite:
    def test_a_fifo_is_written_in_place(self, tmp_path):
        # a target that is not a regular file is opened and written, never replaced
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        atomic_write(fifo, ["first\n", "second\n"])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ["first\nsecond\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]


_REFERENCE_DOC_ONLY_KEYS = ("profile", "out_dir", "formats")


def _reference_load_experiment_config(doc: dict, overrides: dict | None = None) -> ExperimentConfig:
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


def _reference_resolve_cli_config(kind: str, doc: dict, overrides: dict | None = None):
    """The per-kind resolver that the one-pass resolver replaced, kept verbatim as its oracle.

    It calls no resolver of the library: the profile comes from the table itself, and
    _reference_load_experiment_config is the document loader that resolve_cli_config
    absorbed, verbatim.  Only its key tuple is renamed, to _REFERENCE_DOC_ONLY_KEYS.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
    profile = doc.get("profile", "custom")
    out_dir = doc.get("out_dir")
    formats = doc.get("formats", ["json", "csv"])
    if not isinstance(profile, str) or not isinstance(out_dir, (str, type(None))):
        raise ValueError(f"profile and out_dir must be strings: {profile!r}, {out_dir!r}")
    if not (isinstance(formats, (list, tuple)) and formats
            and all(f in ("json", "csv") for f in formats)):
        raise ValueError(f"formats must be a nonempty subset of ['json', 'csv']: {formats!r}")
    body = {k: v for k, v in doc.items() if k not in _REFERENCE_DOC_ONLY_KEYS}
    if profile in PROFILES:
        body = ExperimentConfig(**EXPERIMENTS[kind].profiles[profile]).to_dict() | body
    elif profile != "custom":
        raise ValueError(f"unknown profile {profile!r}; expected desk, full, or custom")
    return _reference_load_experiment_config(body, overrides), out_dir, tuple(formats), profile


def _reference_resolve(kinds, doc, overrides):
    """The CLI's former loop: resolve each kind on its own, then check its reports."""
    configs = {}
    for kind in kinds:
        config, out_dir, formats, profile = _reference_resolve_cli_config(kind, doc, overrides)
        for name in EXPERIMENTS[kind].reports:
            check_report(name, config)
        configs[kind] = config
    return configs, out_dir, formats, profile


def _resolve_outcome(resolve, kinds, doc, overrides):
    """The resolved tuple, or None when the document is rejected with ValueError."""
    try:
        return resolve(kinds, doc, overrides)
    except ValueError:
        return None


# mostly valid values, and the ones a config or one of the kinds must reject
_DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "profile": st.sampled_from(["desk", "full", "custom", "custom", "bogus", 5]),
        "out_dir": st.sampled_from(["results", None, 5]),
        "formats": st.sampled_from([["json"], ["csv"], ["json", "csv"], [], ["xml"], "json"]),
        "thetas": st.one_of(st.lists(st.sampled_from([0.4, 0.7, 200.0, 5e-324]), max_size=2),
                            st.just([0.7]), st.just("0.7")),
        # T = 2 leaves the iterated-logarithm envelope undefined; 3 is no multiple of h = 2
        "horizons": st.lists(st.sampled_from([2.0, 3.0, 100.0, 4000.0, 4000.0]), max_size=2),
        "dt": st.sampled_from([0.02, 0.02, 0.5, 0.0, "0.02"]),
        "replicates": st.sampled_from([1, 200, 3, 0, 2.5, True]),
        "h": st.sampled_from([1.0, 1.0, 2.0]),
        "epsilon": st.sampled_from([0.05, 0.008, -1.0]),
        "band_k": st.sampled_from([3.0, 0.0]),
        "scheme": st.sampled_from(["euler", "euler", "exact", "milstein"]),
        "master_seed": st.sampled_from([7, 7, -1]),
        "lil_multiplier": st.sampled_from([1.5, 0.0]),
    },
).flatmap(lambda doc: st.sampled_from([doc] * 7 + [doc | {"bogus": 1}]))  # an unknown key


class TestResolverOracle:
    """One pass over the document resolves what the per-kind passes resolved."""

    @settings(max_examples=300, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(list(EXPERIMENTS)), min_size=1, unique=True).map(
            lambda chosen: tuple(k for k in EXPERIMENTS if k in chosen)
        ),
        doc=_DOCUMENTS,
        overrides=st.fixed_dictionaries({
            "master_seed": st.sampled_from([None, 11, -1]),
            "replicates": st.sampled_from([None, 3, 0]),
        }),
    )
    def test_matches_per_kind_resolver(self, kinds, doc, overrides):
        expected = _resolve_outcome(_reference_resolve, kinds, doc, overrides)
        assert _resolve_outcome(resolve_cli_config, kinds, doc, overrides) == expected

    @staticmethod
    def _draws(configs):
        """Simulations ``all`` runs keyed by config, and keyed by the former seven grid fields."""
        grids = {(c.thetas, c.horizons, c.dt, c.replicates, c.h, c.scheme, c.master_seed)
                 for c in configs.values()}
        return len(set(configs.values())), len(grids)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_config_key_shares_every_profile_grid(self, profile):
        configs = resolve_cli_config(tuple(EXPERIMENTS), {"profile": profile})[0]
        by_config, by_grid = self._draws(configs)
        assert by_config == by_grid

    # about 1 document in 35 is valid for every kind
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(doc=_DOCUMENTS)
    def test_config_key_shares_every_document_grid(self, doc):
        resolved = _resolve_outcome(resolve_cli_config, tuple(EXPERIMENTS), doc, {})
        assume(resolved is not None)
        by_config, by_grid = self._draws(resolved[0])
        assert by_config == by_grid

    def test_rejects_what_the_per_kind_resolver_rejects(self):
        doc = {"thetas": [1.0], "horizons": [2.0]}  # only normality rejects it
        assert _resolve_outcome(_reference_resolve, ("emse",), doc, {}) is not None
        for resolve in (_reference_resolve, resolve_cli_config):
            with pytest.raises(ValueError, match="log log T"):
                resolve(tuple(EXPERIMENTS), doc, {})


class TestProfilesAndConfigLoading:
    def test_desk_profiles_are_valid(self):
        for kind in ("band-coverage", "emse", "predictor-bound", "normality"):
            config = profile_config(kind, "desk")
            assert config.replicates == 200
        # the resolver's one-kind call gives the table's configs
        for kind in EXPERIMENTS:
            for profile in PROFILES:
                table = ExperimentConfig(**EXPERIMENTS[kind].profiles[profile])
                assert profile_config(kind, profile) == table

    def test_full_profile_mirrors_published_grids(self):
        band = profile_config("band-coverage", "full")
        assert band.thetas == (0.1, 0.4, 0.7, 1.0, 2.0, 5.0)
        assert band.horizons == tuple(12000.0 + 1000.0 * l for l in range(7))
        assert band.replicates == 1000
        predictor = profile_config("predictor-bound", "full")
        assert predictor.horizons == (200000.0, 400000.0, 600000.0, 800000.0, 1000000.0)
        assert predictor.epsilon == 0.008

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            profile_config("band-coverage", "galaxy")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            resolve_cli_config(("emse",), {"thetas": [1.0], "horizons": [100.0], "x": 1})

    def test_overrides_win(self):
        overrides = {"replicates": 99, "master_seed": None}
        config = resolve_cli_config(("emse",), SMALL, overrides)[0]["emse"]
        assert config.replicates == 99
        assert config.master_seed == 5

    def test_estimated_steps(self):
        config = ExperimentConfig(thetas=(1.0, 2.0), horizons=(100.0,), dt=0.02, replicates=10)
        assert estimated_steps(config) == 2 * 10 * 5000


class TestSimulateCommand:
    # sha256 of the .meta.json sidecars of CSVs pinned in TestPathCsvStreaming, by their
    # extra flags: the init record ("x0" or "init") and the params dict are in the bytes
    SIDECAR_GOLDEN = {
        "": "42a9ce2a417a3a36162740a2acd290f6a72a91cb86ebe9ef2b4192cd996f8c33",
        "--scheme exact --stationary":
            "7bf9083e05d0a856ea44cce6844b9a1a8ed4a4a430fd9b8310f67c07363849ea",
        "--scheme exact --x0 0.5":
            "af430ec7fac4c376d05deeb196ed168537e1dcc9be2fa01f167429ae160a96f1",
        "--scheme euler --x0 -1.25 --mu 0.3 --sigma 2":
            "00ed2d772909ff1ebf836d651aab45f41e475ca9f0f86263f4c8bb3e0d099155",
    }

    def test_sidecar_golden_bytes(self, tmp_path):
        out = tmp_path / "a" / "b" / "p.csv"  # missing directories are created
        for flags, golden in self.SIDECAR_GOLDEN.items():
            assert main(["simulate", "--theta", "0.7", "--t-end", "200", "--dt", "0.02",
                         *flags.split(), "--seed", "1", "--out", str(out)]) == 0
            sidecar = out.with_suffix(".csv.meta.json").read_bytes()
            assert hashlib.sha256(sidecar).hexdigest() == golden, flags

    def test_writes_rows_and_sidecar(self, tmp_path):
        out = tmp_path / "path.csv"
        code = main(
            ["simulate", "--theta", "5", "--t-end", "5", "--dt", "0.02", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,xi"
        assert len(lines) == 1 + 251
        assert out.with_suffix(".csv.meta.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["simulate", "--theta", "1", "--t-end", "2", "--dt", "0.02", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_theta_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--t-end", "5", "--dt", "0.02", "--seed", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_grid_mismatch_exits_3(self, tmp_path):
        code = main(["simulate", "--theta", "1", "--t-end", "1", "--dt", "0.3",
                     "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_overflowing_grid_ratio_exits_3(self, tmp_path):
        out = tmp_path / "p.csv"
        argv = ["simulate", "--theta", "1", "--t-end", "1e300", "--dt", "1e-10",
                "--seed", "1", "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()

    @pytest.mark.parametrize("t_end", ["1e10", "1e17"])
    def test_grid_beyond_memory_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys, t_end):
        import oufar.cli as cli

        # 5e11 and 5e18 steps: 7 TiB and 7e10 GiB for the noise and path arrays
        monkeypatch.setattr(cli, "sample_euler", lambda *a, **k: pytest.fail("path drawn"))
        argv = ["simulate", "--theta", "1", "--t-end", t_end, "--dt", "0.02", "--seed", "1",
                "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and f"{grid_multiple(float(t_end), 0.02)} steps" in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("missing", [AttributeError, ValueError, OSError])
    def test_physical_memory_unknown_is_unbounded(self, monkeypatch, missing):
        def sysconf(name):
            raise missing(name)

        monkeypatch.setattr(cli.os, "sysconf", sysconf)
        assert cli._physical_memory() == math.inf

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_out_that_is_no_regular_file_exits_2_before_drawing(
            self, tmp_path, monkeypatch, capsys, kind):
        out = tmp_path / kind
        if kind == "directory":
            out.mkdir()
        else:
            os.mkfifo(out)
        # a reader end held open, so that a write to the FIFO would not block
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK) if kind == "fifo" else None
        try:
            monkeypatch.setattr(cli, "sample_euler", lambda *a, **k: pytest.fail("path drawn"))
            assert main(["simulate", "--theta", "1", "--t-end", "1", "--dt", "0.02",
                         "--seed", "1", "--out", str(out)]) == 2
            if reader is not None:
                assert os.read(reader, 1) == b""  # no writer came
        finally:
            if reader is not None:
                os.close(reader)
        assert capsys.readouterr().err.startswith(f"error: --out {out} must be a regular file")
        assert list(tmp_path.iterdir()) == [out]

    def test_exact_scheme_takes_a_sigma_whose_square_overflows(self, tmp_path):
        # its innovation sd is sigma sqrt(D(theta, dt)) = 1.4e199: no sigma^2 is formed
        out = tmp_path / "out"
        assert main(["simulate", "--theta", "1", "--sigma", "1e200", "--t-end", "10",
                     "--dt", "0.02", "--scheme", "exact", "--seed", "1", "--out", str(out)]) == 0
        values, _ = read_path_csv(out)
        assert np.all(np.isfinite(values)) and np.max(np.abs(values)) > 1e198

    def test_both_schemes_draw_noise_at_a_tiny_theta_dt(self, tmp_path):
        # theta dt = 2e-19: the Euler factor and the exact decay round to 1.0, and the
        # exact sd is sqrt(dt) to rounding, so both schemes write the same random walk
        values = {}
        for scheme in ("euler", "exact"):
            out = tmp_path / f"{scheme}.csv"
            assert main(["simulate", "--theta", "1e-17", "--t-end", "0.1", "--dt", "0.02",
                         "--scheme", scheme, "--seed", "1", "--out", str(out)]) == 0
            values[scheme], _ = read_path_csv(out)
        assert np.any(values["exact"] != 0.0)
        assert values["euler"].tobytes() == values["exact"].tobytes()

    def test_stationary_requires_exact(self, tmp_path):
        code = main(["simulate", "--theta", "1", "--t-end", "1", "--dt", "0.02",
                     "--stationary", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unwritable_out_exits_5(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["simulate", "--theta", "1", "--t-end", "1", "--dt", "0.02",
                     "--seed", "1", "--out", str(blocker / "x.csv")])
        assert code == 5


class TestEstimateCommand:
    # sha256 of `estimate --form both` stdout on the Euler CSV pinned in TestPathCsvStreaming
    GOLDEN = "46dcd50995b57261d36e5a61f7b878fd1a026530689289c038be09264464c428"

    def test_golden_bytes(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        assert main(["simulate", "--theta", "0.7", "--t-end", "200", "--dt", "0.02",
                     "--seed", "1", "--out", str(csv)]) == 0
        assert main(["estimate", "--input", str(csv), "--form", "both"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.GOLDEN

    def test_both_forms_take_the_ito_sums_once(self, tmp_path, capsys, monkeypatch):
        csv = tmp_path / "p.csv"
        assert main(["simulate", "--theta", "0.7", "--t-end", "200", "--dt", "0.02",
                     "--seed", "1", "--out", str(csv)]) == 0
        capsys.readouterr()
        sizes, ito = [], mle.theta_ito_from_values

        def counted(values, dt):
            sizes.append(len(values))
            return ito(values, dt)

        monkeypatch.setattr(cli, "theta_ito_from_values", counted)
        monkeypatch.setattr(mle, "theta_ito_from_values", counted)  # the endpoint form's call
        assert main(["estimate", "--input", str(csv), "--form", "both"]) == 0
        assert sizes == [10001]
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.GOLDEN

    @pytest.mark.parametrize("mu,t_end", [("5", "2000"), ("0", "2000"), ("5", "20")])
    def test_a_path_far_from_centred_prints_one_note(self, tmp_path, capsys, monkeypatch, mu,
                                                     t_end):
        # mean 5.002: 224 sd of a centred path's mean from 0 (theta 1.006, sigma 1.004 fitted
        # about the mean); at mu = 0 the mean is 0.2 sd from 0, and at T = 20 the fitted
        # theta T is below 100, too short a path to judge
        csv = tmp_path / "p.csv"
        assert main(["simulate", "--theta", "1", "--mu", mu, "--t-end", t_end, "--dt", "0.02",
                     "--seed", "3", "--out", str(csv)]) == 0
        assert main(["estimate", "--input", str(csv), "--form", "both"]) == 0
        out, err = capsys.readouterr()
        if (mu, t_end) != ("5", "2000"):
            assert err == ""
            return
        (note,) = err.splitlines()
        assert note.startswith("note: the path's mean 5.002 is 224 sd from 0 ")
        assert "theta 1.006 and sigma 1.004" in note
        monkeypatch.setattr(cli, "_CENTRING_SDS", math.inf)  # the same run, with no note
        assert main(["estimate", "--input", str(csv), "--form", "both"]) == 0
        assert capsys.readouterr() == (out, "")

    def test_round_trip_recovers_theta(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        main(["simulate", "--theta", "1", "--t-end", "200", "--dt", "0.02",
              "--scheme", "exact", "--stationary", "--seed", "11", "--out", str(csv)])
        assert main(["estimate", "--input", str(csv)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["theta_hat"] - 1.0) <= 3.0 * math.sqrt(2.0 / 200.0)
        assert doc["form"] == "ito_discrete"
        assert doc["nonpositive"] is False

    def test_both_forms(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        main(["simulate", "--theta", "1", "--t-end", "100", "--dt", "0.02",
              "--seed", "13", "--out", str(csv)])
        assert main(["estimate", "--input", str(csv), "--form", "both"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["difference"] == pytest.approx(
            doc["ito"]["theta_hat"] - doc["endpoint"]["theta_hat"]
        )

    def test_endpoint_form(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        main(["simulate", "--theta", "1", "--t-end", "100", "--dt", "0.02",
              "--seed", "13", "--out", str(csv)])
        assert main(["estimate", "--input", str(csv), "--form", "endpoint"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["form"] == "endpoint"
        assert doc["denominator"] > 0.0

    def test_constant_path_flagged_nonpositive(self, tmp_path, capsys):
        csv = tmp_path / "const.csv"
        rows = "\n".join(f"{0.02 * i:.17g},0.5" for i in range(101))
        csv.write_text("t,xi\n" + rows + "\n")
        assert main(["estimate", "--input", str(csv)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta_hat"] == 0.0 and doc["nonpositive"] is True

    def test_zero_path_exits_4(self, tmp_path):
        csv = tmp_path / "zero.csv"
        rows = "\n".join(f"{0.02 * i:.17g},0" for i in range(101))
        csv.write_text("t,xi\n" + rows + "\n")
        assert main(["estimate", "--input", str(csv)]) == 4

    def test_unreadable_exits_3(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "missing.csv")]) == 3

    @pytest.mark.parametrize("text,char", [
        ("t,xi\n0,\u0661\n0.02,\u0662\n0.04,1\u00a0\n", "U+0661"),  # Arabic-Indic digits
        ("t,xi\n0,1\n0.02,2\n0.04,1\u00a0\n", "U+00A0"),  # a no-break space
    ], ids=["digits", "no-break-space"])
    def test_non_ascii_input_exits_3(self, tmp_path, capsys, text, char):
        csv = tmp_path / "unicode.csv"
        csv.write_text(text, encoding="utf-8")
        assert main(["estimate", "--input", str(csv)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"not ASCII text (character {char})" in captured.err

    def test_non_utf8_input_exits_3(self, tmp_path, capsys):
        csv = tmp_path / "binary.csv"
        csv.write_bytes(b"t,xi\n0,\xff\xfe\x80\n")
        assert main(["estimate", "--input", str(csv)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "UTF-8" in captured.err

    def test_malformed_exits_3(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("t,xi\n0,abc\n0.02,1\n")
        assert main(["estimate", "--input", str(csv)]) == 3

    @pytest.mark.parametrize("form", ["ito", "endpoint", "both"])
    def test_nan_value_exits_3(self, tmp_path, capsys, form):
        csv = tmp_path / "p.csv"
        main(["simulate", "--theta", "1", "--t-end", "2", "--dt", "0.02",
              "--seed", "3", "--out", str(csv)])
        lines = csv.read_text().splitlines()
        t = lines[40].split(",")[0]
        lines[40] = f"{t},nan"
        csv.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--input", str(csv), "--form", form]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("route", ["C sums", "numpy's leaf"])
    @pytest.mark.parametrize("form", ["ito", "endpoint", "both"])
    def test_overflowing_sums_exit_3(self, tmp_path, capsys, monkeypatch, form, route):
        # finite values whose squares overflow: the denominator would be infinite
        if route == "numpy's leaf":
            monkeypatch.setattr(ou_process, "_kernel", [None])
        elif shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH")
        else:
            assert ou_process._ar1_kernel() is not None
        csv = tmp_path / "big.csv"
        rows = "\n".join(f"{0.02 * i:.17g},{(-1) ** i * 1e308:.17g}" for i in range(101))
        csv.write_text("t,xi\n" + rows + "\n")
        assert main(["estimate", "--input", str(csv), "--form", form]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err


class TestNormsCommand:
    # sha256 of `norms --theta 0.7 --h 1.5 --k-max 7` stdout with these extra flags; the
    # last, |theta_hat - theta| h <= 1e-3 (the gammainc form), was computed before
    # gammainc came from scipy.special's ufunc extension alone.  The first prints
    # operator_distance_H 0.129071579276214, the double nearest its mpmath value
    GOLDEN = {
        ("--theta-hat", "0.9"): "0a23f1d93413451b78961b905e062ef4b626112e7e814af012c7d361150f908a",
        ("--format", "csv"): "4612ce0f60e79f47f92380ca0e08154c70b51beb393171d0161378a2e8e44fbd",
        ("--theta-hat", "0.7001"):
            "9e08fab65c53a43696c5491f4a0047eb118887c6c9c3de69ba3d7aa9de4a3c5e",
    }

    @pytest.mark.parametrize("extra", list(GOLDEN), ids=["theta-hat", "csv", "theta-hat-near"])
    def test_golden_bytes(self, capsys, extra):
        assert main(["norms", "--theta", "0.7", "--h", "1.5", "--k-max", "7", *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.GOLDEN[extra]

    def test_far_apart_rates(self, capsys):
        # (theta - theta_hat) h = 799: e^799 overflows a double; oracles in test_functional
        assert main(["norms", "--theta", "800", "--h", "1", "--theta-hat", "1", "--k-max", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator_distance_B"] == pytest.approx(0.9904290912, rel=1e-8)
        assert doc["operator_distance_H"] == pytest.approx(0.7521939662, rel=1e-8)

    def test_far_rates_whose_length_product_overflows(self, capsys):
        # theta h overflows and theta_hat h does not; references by mpmath
        assert main(["norms", "--theta", "8.878258163447155e+146", "--h", "1.1568154093207658e+222",
                     "--theta-hat", "1.135208346256096e-128", "--k-max", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator_distance_H"] == pytest.approx(6.6366240180620304e63, rel=1e-14)
        assert doc["operator_distance_B"] == 1.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rate_and_length_whose_product_overflows(self, capsys, fmt):
        # theta h = inf: the norm is 1/sqrt(2 theta) (mpmath), which the former form gave as NaN
        assert main(["norms", "--theta", "1e308", "--h", "1e308", "--format", fmt]) == 0
        text = capsys.readouterr().out
        if fmt == "json":
            norms = [row["rho_norm_H"] for row in json.loads(text)["norms"]]
        else:
            norms = [float(line.split(",")[4]) for line in text.splitlines()[1:]]
        assert norms[0] == pytest.approx(7.0710678118654752e-155, rel=1e-14, abs=0.0)
        assert norms[1:] == [0.0] * 9

    def test_rate_whose_power_multiple_overflows(self, capsys):
        # theta (k - 1) overflows at k = 3 and theta h (k - 1) = 2 does not (mpmath)
        assert main(["norms", "--theta", "1e308", "--h", "1e-308", "--k-max", "3"]) == 0
        row = json.loads(capsys.readouterr().out)["norms"][2]
        assert row["rho_norm_B"] == pytest.approx(0.13533528323661271, rel=1e-15, abs=0.0)
        assert row["rho_norm_H"] == pytest.approx(0.049787068367863955, rel=1e-15, abs=0.0)

    def test_subnormal_rate(self, capsys):
        # 1/theta overflows a double: k0 is taken in integers, the integral term is h
        assert main(["norms", "--theta", "1e-320", "--h", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k0"] == math.ceil(1 / Fraction(1e-320)) + 1
        assert doc["norms"][0]["rho_norm_H"] == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0.0)

    def test_out_creates_missing_directories(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "norms.csv"
        assert main(["norms", "--theta", "1", "--h", "1", "--format", "csv",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("theta,h,k,k0,rho_norm_H,rho_norm_B\n")

    def test_norm_table_values(self, capsys):
        assert main(["norms", "--theta", "0.5", "--h", "1", "--k-max", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["norms"][0]["rho_norm_H"] == 1.0
        assert doc["norms"][0]["rho_norm_B"] == 1.0
        assert doc["k0"] == 3

    def test_k0_of_a_huge_rate(self, capsys):
        assert main(["norms", "--theta", "1e100", "--h", "1"]) == 0
        assert '"k0": 2' in capsys.readouterr().out

    def test_k4_value_and_k0_column(self, capsys):
        assert main(["norms", "--theta", "0.4", "--h", "1", "--k-max", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k0"] == 4
        assert doc["norms"][3]["k"] == 4
        assert doc["norms"][3]["rho_norm_H"] == pytest.approx(0.32125829, rel=1e-7)

    def test_distances_on_request(self, capsys):
        assert main(["norms", "--theta", "0.7", "--h", "1", "--theta-hat", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator_distance_H"] <= 0.3 * math.sqrt(4.0 / 3.0) + 1e-12
        assert doc["operator_distance_B"] <= 0.3

    def test_csv_format(self, capsys):
        assert main(["norms", "--theta", "1", "--h", "1", "--k-max", "2",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theta,h,k,k0,rho_norm_H,rho_norm_B"
        assert len(lines) == 3

    def test_nonpositive_theta_exits_2(self):
        assert main(["norms", "--theta", "-1", "--h", "1"]) == 2

    def test_the_closed_forms_name_a_bad_flag(self, capsys):
        assert main(["norms", "--theta", "1", "--h", "nan", "--theta-hat", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: must be positive and finite: h=nan\n"

    def test_equal_huge_rates(self, capsys):
        # the Taylor form's (2 theta) ** 5 would overflow: equal rates never reach it
        assert main(["norms", "--theta", "1e100", "--h", "1", "--theta-hat", "1e100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator_distance_H"] == doc["operator_distance_B"] == 0.0

    # the near-rate Taylor form at extreme scales; references from 3000-digit closed forms
    @pytest.mark.parametrize("theta, h, theta_hat, expected", [
        ("9.37e144", "1.14e-270", "9.94e-236", 1.06818e-125),
        ("1e100", "1e-90", "1.0000000000000002e100", 9.7133444611286437e-67),
        ("1e-80", "1e65", "1.0000000001e-80", 18257426.824002865),
        ("1.5121120554493352e-108", "34.661129249710015", "1.5121116240742464e-108",
         5.2976566941961879e-113),
        ("3.1789936159351096e-284", "5.969738646060072e+121", "3.17899361593511e-284",
         1.590584184921474e-117),
    ], ids=["gap-cubed-overflowed", "rate-power-overflowed", "length-power-overflowed",
            "rate-power-subnormal", "gap-squared-underflows"])
    def test_near_rates_at_extreme_scales(self, capsys, theta, h, theta_hat, expected):
        assert main(["norms", "--theta", theta, "--h", h, "--theta-hat", theta_hat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator_distance_H"] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["norms", "--theta", "nan", "--h", "1"],
            ["norms", "--theta", "inf", "--h", "1"],
            ["norms", "--theta", "inf", "--h", "1", "--format", "csv"],
            ["norms", "--theta", "0.7", "--h", "1", "--theta-hat", "nan"],
            ["simulate", "--theta", "1", "--t-end", "1", "--dt", "0.02", "--x0", "nan",
             "--seed", "1"],
            ["simulate", "--theta", "1", "--t-end", "inf", "--dt", "0.02", "--seed", "1"],
            ["simulate", "--theta", "1", "--t-end", "1", "--dt", "0.02", "--seed", "-1"],
            ["norms", "--theta", "1", "--h", "1", "--k-max", "100001"],  # rows are held in memory
            # theta*dt = 2e8: the Euler factor 1 - theta*dt diverges
            ["simulate", "--theta", "1e10", "--t-end", "10", "--dt", "0.02", "--seed", "1"],
            # finite flags, an overflowing path
            ["simulate", "--theta", "1", "--sigma", "1e308", "--t-end", "10", "--dt", "0.02",
             "--seed", "1"],
        ],
    )
    def test_nonfinite_or_overflowing_flags_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2  # an exception would fail the test
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def _exact_estimates(config, n_workers=1):
    """``collect_cells`` without paths: every replicate estimates theta exactly."""
    r = config.replicates
    return [
        CellData(theta, t_end, np.full(r, theta), np.zeros(r))
        for theta in config.thetas
        for t_end in config.horizons
    ]


class TestExperimentCommand:
    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        out = tmp_path / "results"
        assert main(["experiment", "band-coverage", "--config", str(cfg),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "band_coverage.json").read_text())
        assert doc["provenance"]["master_seed"] == 5
        assert (out / "band_coverage.csv").exists()
        assert (out / "band_coverage.run.json").exists()

    @pytest.mark.parametrize("forced", [None, "scipy", "a failed probe"])
    def test_run_record_names_the_recursion_route(self, monkeypatch, tmp_path, forced):
        if forced == "scipy":
            monkeypatch.setattr(ou_process, "_kernel", [None])
        elif forced:  # the loop may build and load; its draw is still not used
            monkeypatch.setattr(ou_process, "_kernel", [])
            monkeypatch.setattr(ou_process, "_probe_passes", lambda loop: False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        out = tmp_path / "results"
        assert main(["experiment", "normality", "--config", str(cfg), "--out", str(out)]) == 0
        routes = {json.loads(f.read_text())["recursion"] for f in out.glob("*.run.json")}
        assert routes == {"scipy" if forced else ou_process.ar1_route()}
        assert routes <= {"fused", "scipy"}

    def test_thread_count_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        out1, out8 = tmp_path / "r1", tmp_path / "r8"
        assert main(["experiment", "emse", "--config", str(cfg), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["experiment", "emse", "--config", str(cfg), "--out", str(out8),
                     "--threads", "8"]) == 0
        assert (out1 / "emse.json").read_bytes() == (out8 / "emse.json").read_bytes()
        assert (out1 / "emse.csv").read_bytes() == (out8 / "emse.csv").read_bytes()

    def test_normality_writes_z_csv_and_lil(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        out = tmp_path / "results"
        assert main(["experiment", "normality", "--config", str(cfg),
                     "--out", str(out)]) == 0
        z_lines = (out / "standardized_errors.csv").read_text().splitlines()
        assert z_lines[0] == "theta,T,replicate,z"
        assert len(z_lines) == 1 + SMALL["replicates"]
        assert (out / "lil_coverage.json").exists()

    def test_normality_simulates_its_grid_once(self, tmp_path, monkeypatch):
        import oufar.experiments as exp

        config = resolve_cli_config(("normality",), SMALL)[0]["normality"]
        # the kind's reports from the library, drawn before the count starts
        expected = {
            f"{r.kind}.json": report_json_text(r) for r in run_experiment("normality", config)
        }
        assert set(expected) == {"normality.json", "lil_coverage.json"}
        calls = []
        real = exp.collect_cells

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(exp, "collect_cells", counting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        out = tmp_path / "results"
        assert main(["experiment", "normality", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 1
        for name, text in expected.items():
            assert (out / name).read_text() == text

    def test_interrupt_exits_130_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        import oufar.experiments as exp

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(exp, "collect_cells", interrupted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        out = tmp_path / "results"
        assert main(["experiment", "emse", "--config", str(cfg), "--out", str(out)]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not out.exists()

    def test_short_normality_horizon_exits_2_before_simulating(self, tmp_path, monkeypatch, capsys):
        import oufar.experiments as exp

        def no_simulation(*args, **kwargs):
            raise AssertionError("paths drawn for a rejected config")

        monkeypatch.setattr(exp, "collect_cells", no_simulation)
        cfg = tmp_path / "cfg.json"
        # T = 2 < e: the iterated-logarithm envelope of lil_coverage is undefined
        cfg.write_text(json.dumps({"thetas": [1.0], "horizons": [2.0], "replicates": 3}))
        out = tmp_path / "r"
        assert main(["experiment", "normality", "--config", str(cfg), "--out", str(out)]) == 2
        assert "log log T" in capsys.readouterr().err
        assert not out.exists()

    def test_all_simulates_a_shared_grid_once(self, tmp_path, monkeypatch):
        import oufar.experiments as exp

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        each = tmp_path / "each"
        for kind in exp.EXPERIMENTS:
            assert main(["experiment", kind, "--config", str(cfg), "--out", str(each)]) == 0
        calls = []
        real = exp.collect_cells

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(exp, "collect_cells", counting)
        out = tmp_path / "all"
        assert main(["experiment", "all", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 1  # every kind runs on the one grid of SMALL
        written = sorted(f.name for f in out.iterdir() if not f.name.endswith(".run.json"))
        expected = [f"{name}.{ext}" for name in exp.REPORTS for ext in ("json", "csv")]
        assert written == sorted(expected + ["standardized_errors.csv"])
        for name in written:
            assert (out / name).read_bytes() == (each / name).read_bytes(), name

    @pytest.mark.parametrize("profile, grids", [("desk", 4), ("full", 3)])
    def test_all_simulates_each_distinct_profile_grid_once(
        self, tmp_path, monkeypatch, capsys, profile, grids
    ):
        import oufar.experiments as exp

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _exact_estimates(*args, **kwargs)

        monkeypatch.setattr(exp, "collect_cells", counting)
        out = tmp_path / "r"
        assert main(["experiment", "all", "--profile", profile, "--out", str(out), "--yes"]) == 0
        # the full band-coverage and normality grids are identical
        assert len(calls) == grids
        distinct = {profile_config(k, profile) for k in exp.EXPERIMENTS}
        assert len(distinct) == grids
        assert len(list(out.glob("*.run.json"))) == len(exp.REPORTS)
        if profile == "full":
            kinds = ("band-coverage", "emse", "predictor-bound")
            steps = sum(estimated_steps(profile_config(k, "full")) for k in kinds)
            assert f"planned work: {steps:.3e} simulation steps" in capsys.readouterr().err

    @staticmethod
    def _notes(err):
        return [line for line in err.splitlines() if line.startswith("note:")]

    def test_exact_scheme_bias_note(self, tmp_path, capsys):
        # theta_hat -> (1 - exp(-5 * 0.02)) / 0.02 = 4.758, 8.38 sd of theta_hat below 5 at T = 12000
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"thetas": [5.0], "horizons": [12000.0], "scheme": "exact", "replicates": 2}))
        assert main(["experiment", "band-coverage", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 0
        (note,) = self._notes(capsys.readouterr().err)
        assert "theta=5 " in note and "= 4.758," in note and "8.38 sd" in note
        assert "T=12000 " in note

    def test_exact_scheme_notes_on_the_full_band_grid(self, tmp_path, monkeypatch, capsys):
        # at T = 18000: theta = 5 is 10.3 sd off, theta = 2 2.65 sd, theta = 1 0.94 sd (no note)
        import oufar.experiments as exp

        monkeypatch.setattr(exp, "collect_cells", _exact_estimates)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": "full", "scheme": "exact"}))
        assert main(["experiment", "band-coverage", "--config", str(cfg),
                     "--out", str(tmp_path / "r"), "--yes"]) == 0
        notes = self._notes(capsys.readouterr().err)
        assert [n.split()[1] for n in notes] == ["theta=2", "theta=5"]
        assert "2.65 sd" in notes[0] and "10.3 sd" in notes[1]
        assert all("T=18000 " in n for n in notes)

    def test_exact_scheme_note_where_the_sd_underflows(self, tmp_path, capsys):
        # sqrt(2 theta / T) underflows to 0 under a bias of a few ulps: the note says inf sd,
        # and the cost guard still refuses the 1e304 steps
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas": [7e-28], "horizons": [1e300], "scheme": "exact"}))
        assert main(["experiment", "emse", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        (note,) = self._notes(err)
        assert "inf sd" in note and "--yes" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("grid", [
        # desk-like thetas and horizons on the exact scheme: at most 0.63 sd
        {"thetas": [0.4, 0.7, 1.0], "horizons": [1000.0, 4000.0, 8000.0], "scheme": "exact"},
        # the Euler scheme's theta_hat estimates theta itself
        {"thetas": [5.0], "horizons": [12000.0], "scheme": "euler"},
    ])
    def test_no_note_where_the_target_is_theta(self, tmp_path, monkeypatch, capsys, grid):
        import oufar.experiments as exp

        monkeypatch.setattr(exp, "collect_cells", _exact_estimates)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(grid))
        assert main(["experiment", "band-coverage", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 0
        assert self._notes(capsys.readouterr().err) == []

    def test_all_notes_each_exact_theta_once_before_drawing(self, tmp_path, monkeypatch, capsys):
        import oufar.experiments as exp

        err_at_draws = []

        def recording(config, n_workers=1):
            err_at_draws.append(capsys.readouterr().err)
            return _exact_estimates(config)

        monkeypatch.setattr(exp, "collect_cells", recording)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"thetas": [2.0, 5.0], "horizons": [12000.0], "scheme": "exact", "replicates": 2}))
        assert main(["experiment", "all", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert len(err_at_draws) == 1  # every kind shares the one config
        notes = self._notes(err_at_draws[0])
        assert [n.split()[1] for n in notes] == ["theta=2", "theta=5"]
        assert self._notes(capsys.readouterr().err) == []

    def test_all_rejects_a_config_any_kind_rejects(self, tmp_path, monkeypatch, capsys):
        import oufar.experiments as exp

        monkeypatch.setattr(exp, "collect_cells", lambda *a, **k: pytest.fail("paths drawn"))
        cfg = tmp_path / "cfg.json"
        # T = 2 < e: fine for three kinds, but lil_coverage of normality is undefined
        cfg.write_text(json.dumps({"thetas": [1.0], "horizons": [2.0], "replicates": 3}))
        out = tmp_path / "r"
        assert main(["experiment", "all", "--config", str(cfg), "--out", str(out)]) == 2
        assert "log log T" in capsys.readouterr().err
        assert not out.exists()

    def test_all_rejects_a_config_beyond_the_seed_address(self, tmp_path, monkeypatch, capsys):
        import oufar.experiments as exp

        monkeypatch.setattr(exp, "collect_cells", lambda *a, **k: pytest.fail("paths drawn"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas": [0.7] * 65537, "horizons": [100.0]}))
        out = tmp_path / "r"
        assert main(["experiment", "all", "--config", str(cfg), "--out", str(out)]) == 2
        assert "65537" in capsys.readouterr().err
        assert not out.exists()

    def test_all_rejects_an_exact_config_with_infinite_stationary_variance(
        self, tmp_path, monkeypatch, capsys
    ):
        import oufar.experiments as exp

        monkeypatch.setattr(exp, "collect_cells", lambda *a, **k: pytest.fail("paths drawn"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas": [5e-324], "horizons": [10.0], "scheme": "exact"}))
        out = tmp_path / "r"
        assert main(["experiment", "all", "--config", str(cfg), "--out", str(out)]) == 2
        assert "stationary variance" in capsys.readouterr().err
        assert not out.exists()

    def test_all_full_profile_requires_confirmation(self, tmp_path, monkeypatch, capsys):
        import oufar.experiments as exp

        monkeypatch.setattr(exp, "collect_cells", lambda *a, **k: pytest.fail("paths drawn"))
        out = tmp_path / "r"
        assert main(["experiment", "all", "--profile", "full", "--out", str(out)]) == 2
        assert "--yes" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL | {"bogus": 1}))
        assert main(["experiment", "emse", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2

    def test_full_profile_requires_confirmation(self, tmp_path, capsys):
        code = main(["experiment", "band-coverage", "--profile", "full",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "--yes" in capsys.readouterr().err

    def test_desk_profile_with_overrides(self, tmp_path):
        out = tmp_path / "r"
        assert main(["experiment", "band-coverage", "--profile", "desk",
                     "--out", str(out), "--replicates", "5", "--master-seed", "77"]) == 0
        doc = json.loads((out / "band_coverage.json").read_text())
        assert doc["config"]["replicates"] == 5
        assert doc["provenance"]["master_seed"] == 77

    def test_config_document_profile_out_dir_and_formats(self, tmp_path):
        # the document itself may carry profile, out_dir, and format flags;
        # profile pre-fills the grids and the remaining keys override them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "profile": "desk",
            "out_dir": str(tmp_path / "from_file"),
            "formats": ["json"],
            "replicates": 5,
            "thetas": [0.7],
            "horizons": [200.0],
        }))
        assert main(["experiment", "band-coverage", "--config", str(cfg)]) == 0
        out = tmp_path / "from_file"
        doc = json.loads((out / "band_coverage.json").read_text())
        assert doc["config"]["replicates"] == 5
        assert doc["config"]["thetas"] == [0.7]
        assert doc["config"]["epsilon"] == 0.05  # desk profile value kept
        assert not (out / "band_coverage.csv").exists()  # csv not requested

    def test_missing_out_dir_everywhere_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        assert main(["experiment", "band-coverage", "--config", str(cfg)]) == 2

    def test_empty_out_dir_is_no_output_directory(self, tmp_path, monkeypatch, capsys):
        # as --out "", an empty out_dir names no directory: not the current one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL | {"out_dir": ""}))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["experiment", "emse", "--config", str(cfg)]) == 2
        assert "no output directory" in capsys.readouterr().err
        assert list(cwd.iterdir()) == []

    def test_bad_formats_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL | {"formats": ["xml"]}))
        assert main(["experiment", "band-coverage", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"thetas":[NaN],"horizons":[100.0],"replicates":2}',
            '{"thetas":[0.7],"horizons":[Infinity],"replicates":2}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"dt":NaN}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"band_k":Infinity}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2.5}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":true}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"master_seed":true}',
            "5",
            '["thetas"]',
            '{"thetas":5,"horizons":[100.0],"replicates":2}',
            '{"thetas":"1","horizons":"5","replicates":2}',
            '{"thetas":[true],"horizons":[100.0],"replicates":2}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"dt":"0.02"}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"dt":true}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"lil_multiplier":null}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"scheme":["euler"]}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"out_dir":5}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"profile":["desk"]}',
            '{"thetas":[0.7],"horizons":[100.0],"replicates":2,"formats":[["json"]]}',
            # T / dt overflows to infinity
            '{"thetas":[0.7],"horizons":[1e300],"replicates":2,"dt":1e-10,"h":1e-10}',
            # more than the 16 + 16 + 32 bits of a replicate's seed address
            pytest.param(json.dumps({"thetas": [0.7] * 65537, "horizons": [100.0]}),
                         id="65537-thetas"),
            pytest.param(json.dumps({"thetas": [0.7], "horizons": [100.0] * 65537}),
                         id="65537-horizons"),
            '{"thetas":[0.7],"horizons":[100.0],"replicates":4294967297}',
            # the exact scheme's stationary variance, D(theta, inf) = 0.5 / theta, overflows
            pytest.param('{"thetas":[5e-324],"horizons":[10.0],"scheme":"exact"}',
                         id="exact-stationary-overflow"),
        ],
    )
    def test_nonfinite_or_untyped_config_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "r"
        assert main(["experiment", "emse", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bad config" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_euler_config_exits_2(self, tmp_path, capsys):
        # theta*dt = 4: the Euler factor 1 - theta*dt = -3 would blow the path up
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas": [200], "horizons": [100]}))
        out = tmp_path / "r"
        assert main(["experiment", "band-coverage", "--config", str(cfg), "--out", str(out)]) == 2
        assert "euler" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _workers_chosen(tmp_path, monkeypatch, threads, replicates, thetas=1):
        """The ``n_workers`` of every pool that ``experiment emse --threads`` builds."""
        import oufar.experiments as exp

        seen, real = [], exp.collect_cells

        def recording(config, n_workers):
            seen.append(n_workers)
            return real(config, n_workers=1)

        monkeypatch.setattr(exp, "collect_cells", recording)
        cfg = tmp_path / "cfg.json"
        grid = {"thetas": [0.7, 1.0][:thetas], "replicates": replicates}
        cfg.write_text(json.dumps(SMALL | grid))
        assert main(["experiment", "emse", "--config", str(cfg), "--out", str(tmp_path / "r"),
                     "--threads", str(threads)]) == 0
        return seen

    @pytest.mark.parametrize(
        "threads, thetas, replicates, cpus, expected",
        [(10**6, 1, 10, 3, 3), (10**6, 1, 2, 3, 2), (2, 1, 10, 3, 2), (0, 1, 10, 3, 1),
         (-4, 1, 10, 3, 1), (8, 1, 10, None, 1),
         # one pool runs the grid's 2 x 2 replicates: 4 jobs, so all 3 CPUs
         (10**6, 2, 2, 3, 3)],
    )
    def test_worker_count_clamped(
        self, tmp_path, monkeypatch, threads, thetas, replicates, cpus, expected
    ):
        # an OS without affinity masks: the CPU count caps the workers
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        chosen = self._workers_chosen(tmp_path, monkeypatch, threads, replicates, thetas)
        assert chosen == [expected]

    @pytest.mark.parametrize("threads, affinity, expected", [(8, {0}, 1), (8, {0, 3, 5}, 3), (2, {0, 3, 5}, 2)])
    def test_workers_capped_at_affinity(self, tmp_path, monkeypatch, threads, affinity, expected):
        # ``taskset -c 0`` on a many-core host: one usable CPU, one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert self._workers_chosen(tmp_path, monkeypatch, threads, 10) == [expected]


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="no /proc/self/fd")
class TestOutIsStdout:
    """``--out`` naming this process's stdout, as /dev/stdout does, under ``>> log``.

    The target is a symlink to /proc/self/fd/1 under tmp_path, never /dev/stdout
    itself: a write that replaced the file would replace the device node.
    """

    @staticmethod
    def _run(tmp_path, argv):
        """Exit code, stderr and log text of ``argv --out <stdout>`` appended to a log."""
        link, log = tmp_path / "stdout", tmp_path / "log"
        link.symlink_to("/proc/self/fd/1")  # resolved by the child: its own stdout
        log.write_text("first\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys; from oufar.cli import main; sys.exit(main(sys.argv[1:]))"
        with log.open("a") as stdout:
            proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(link)],
                                  stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=120)
        return proc.returncode, proc.stderr, log.read_text()

    @pytest.mark.parametrize("argv", [
        ["norms", "--theta", "1", "--h", "1"],
        ["norms", "--theta", "1", "--h", "1", "--format", "csv"],
        ["estimate", "--input", "{csv}", "--form", "both"],
    ], ids=["norms-json", "norms-csv", "estimate"])
    def test_output_is_appended_through_stdout(self, tmp_path, capsys, argv):
        csv = tmp_path / "p.csv"
        assert main(["simulate", "--theta", "1", "--t-end", "2", "--dt", "0.02",
                     "--seed", "1", "--out", str(csv)]) == 0
        argv = [a.format(csv=csv) for a in argv]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        code, err, log = self._run(tmp_path, argv)
        assert (code, err) == (0, "")
        assert log == "first\n" + expected

    def test_simulate_refuses_stdout(self, tmp_path):
        code, err, log = self._run(
            tmp_path, ["simulate", "--theta", "1", "--t-end", "1", "--dt", "0.02", "--seed", "1"])
        assert code == 2
        assert err.startswith("error: --out ") and "must be a regular file other than stdout" in err
        assert log == "first\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "stdout"]


class TestUnwritableOutput:
    """Every command exits 5 when its output cannot be written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--input", "{csv}"],
            ["norms", "--theta", "1", "--h", "1"],
            ["norms", "--theta", "1", "--h", "1", "--format", "csv"],
            ["experiment", "emse", "--config", "{cfg}"],
        ],
        ids=["estimate", "norms-json", "norms-csv", "experiment"],
    )
    def test_out_below_a_regular_file_exits_5(self, tmp_path, capsys, argv):
        csv, cfg, blocker = tmp_path / "p.csv", tmp_path / "cfg.json", tmp_path / "file"
        assert main(["simulate", "--theta", "1", "--t-end", "2", "--dt", "0.02",
                     "--seed", "1", "--out", str(csv)]) == 0
        cfg.write_text(json.dumps(SMALL))
        blocker.write_text("x")
        argv = [a.format(csv=csv, cfg=cfg) for a in argv]
        assert main(argv + ["--out", str(blocker / "out")]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {blocker / 'out'}: ")
        assert blocker.read_text() == "x"


# flag values: any double (NaN, infinities and subnormals included) or a typical one
_FLAG = st.one_of(st.floats(), st.sampled_from([0.0, -1.0, 0.02, 0.5, 1.0, 5.0, 1e10, 1e308]))
_RATE = st.one_of(st.sampled_from([0.5, 1.0, 5.0]), _FLAG)  # valid in half the draws
# output targets below the example's directory; "file" is a regular file there
_OUT = st.sampled_from(["{tmp}/o.out", "{tmp}/a/b/o.out", "{tmp}/file/o.out"])


def _flag(name, value):
    return f"--{name}={value!r}"  # "=" keeps a value such as -1e-05 from reading as a flag


@st.composite
def _simulate_case(draw):
    dt = draw(st.one_of(st.sampled_from([0.02, 0.1, 1.0]), _FLAG))
    t_end = draw(st.one_of(st.integers(-1, 10_000).map(lambda n: n * dt), _FLAG))
    if dt > 0 and t_end > 0 and (grid_multiple(t_end, dt) or 0) > 10_000:
        t_end = 10_000 * dt  # at most 1e4 steps
    argv = ["simulate", _flag("t-end", t_end), _flag("dt", dt)]
    argv += [_flag(name, draw(_RATE)) for name in ("theta", "mu", "sigma")]
    argv += ["--scheme", draw(st.sampled_from(["euler", "exact"]))]
    x0 = _flag("x0", draw(_FLAG))
    argv += draw(st.sampled_from([[], ["--stationary"], [x0], ["--stationary", x0]]))
    argv += [f"--seed={draw(st.integers(-3, 2**70))}", "--out", draw(_OUT)]
    return argv, {}


@st.composite
def _estimate_case(draw):
    zero_path = b"t,xi\n0,0\n0.02,0\n0.04,0\n"  # the estimator denominator vanishes
    text = st.one_of(_path_csv_files().map(str.encode), st.binary(max_size=64), st.just(zero_path))
    files = {"in.csv": draw(text)}
    source = draw(st.sampled_from(["in.csv", "missing.csv", "", "file"]))  # "": a directory
    argv = ["estimate", "--input", f"{{tmp}}/{source}"]
    argv += ["--form", draw(st.sampled_from(["ito", "endpoint", "both"]))]
    argv += draw(st.one_of(st.just([]), _OUT.map(lambda out: ["--out", out])))
    return argv, files


@st.composite
def _norms_case(draw):
    argv = ["norms", _flag("theta", draw(_RATE)), _flag("h", draw(_RATE))]
    argv += [f"--k-max={draw(st.integers(-1, 100))}"]
    argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    argv += draw(st.one_of(st.just([]), _RATE.map(lambda v: [_flag("theta-hat", v)])))
    argv += draw(st.one_of(st.just([]), _OUT.map(lambda out: ["--out", out])))
    return argv, {}


# config values: mostly valid ones, then the malformed ones a config must reject
_WILD = st.one_of(_FLAG, st.sampled_from(["0.02", True, None, [1.0], -2]))
_CONFIG = st.fixed_dictionaries(
    {
        "thetas": st.one_of(st.lists(st.one_of(st.sampled_from([0.1, 0.7, 5.0, 60.0]), _FLAG),
                                     max_size=2), _WILD),
        "horizons": st.one_of(st.lists(st.one_of(st.sampled_from([1.0, 4.0, 10.0, 50.0]),
                                                 st.floats(max_value=50.0)), max_size=2), _WILD),
        "replicates": st.one_of(st.integers(1, 3), st.integers(-1, 3), _WILD),
    },
    optional={
        "dt": st.one_of(st.sampled_from([0.02, 0.1, 0.5]),
                        st.sampled_from([0.0, -0.02, math.nan, math.inf, 1e-300, "0.02", True])),
        "h": st.one_of(st.sampled_from([0.5, 1.0, 2.0]), _WILD),
        "epsilon": st.one_of(st.just(0.05), _WILD),
        "band_k": st.one_of(st.just(3.0), _WILD),
        "lil_multiplier": st.one_of(st.just(1.5), _WILD),
        "scheme": st.sampled_from(["euler", "exact", "milstein", 1]),
        "master_seed": st.one_of(st.integers(-1, 2**65), _WILD),
        "profile": st.sampled_from(["desk", "full", "custom", "bogus", 5]),
        "out_dir": st.sampled_from(["{tmp}/from-config", 5]),
        "formats": st.sampled_from([["json"], ["csv"], ["json", "csv"], [], ["xml"], "json"]),
        "bogus": st.just(1),
    },
)


@st.composite
def _experiment_case(draw):
    argv = ["experiment", draw(st.sampled_from([*EXPERIMENTS, "all"]))]
    files = {}
    source = draw(st.sampled_from(["profile", "config", "text", "missing"]))
    if source == "profile":  # the desk grids, at most 3 replicates
        argv += ["--profile", "desk", f"--replicates={draw(st.integers(1, 3))}"]
    else:
        argv += ["--config", "{tmp}/cfg.json"]
        if source == "config":
            files["cfg.json"] = json.dumps(draw(_CONFIG)).encode()
        elif source == "text":
            files["cfg.json"] = draw(st.binary(max_size=32))
        argv += draw(st.sampled_from([[], [f"--replicates={draw(st.integers(-1, 3))}"]]))
    argv += draw(st.one_of(st.just([]), _OUT.map(lambda out: ["--out", out])))
    argv += [f"--threads={draw(st.integers(-1, 2))}"]
    argv += draw(st.sampled_from([[], [f"--master-seed={draw(st.integers(-1, 2**65))}"]]))
    return argv, files


def _no_constants(name):
    raise ValueError(f"{name} in JSON output")


class TestExitCodeContract:
    """Any argv of the four commands ends in 0, 2, 3, 4 or 5, and never in a traceback."""

    SIMULATE = ["simulate", "--t-end=10.0", "--dt=0.02", "--seed=1", "--out", "{tmp}/o.out"]

    # each example works in its own directory below tmp_path
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.one_of(_simulate_case(), _estimate_case(), _norms_case(), _experiment_case()))
    @example(case=(SIMULATE + ["--theta=1e10"], {}))  # a diverging Euler factor
    @example(case=(SIMULATE + ["--theta=1.0", "--sigma=1e308"], {}))  # an overflowing path
    # grids whose arrays exceed any machine's memory: rejected before numpy is asked for them
    @example(case=(["simulate", "--theta=1", "--t-end=1e10", "--dt=0.02", "--seed=1",
                    "--out", "{tmp}/x.csv"], {}))
    @example(case=(["simulate", "--theta=1", "--t-end=1e17", "--dt=0.02", "--seed=1",
                    "--out", "{tmp}/x.csv"], {}))
    @example(case=(["experiment", "emse", "--config", "{tmp}/cfg.json", "--out", "{tmp}/r"],
                   {"cfg.json": json.dumps({"thetas": [0.7] * 65537, "horizons": [10.0],
                                            "replicates": 1}).encode()}))
    def test_every_argv_ends_in_a_documented_exit_code(self, tmp_path, case):
        argv, files = case
        tmp = Path(tempfile.mkdtemp(dir=tmp_path))
        (tmp / "file").write_text("x")
        for name, data in files.items():
            (tmp / name).write_bytes(data.replace(b"{tmp}", str(tmp).encode()))
        argv = [a.replace("{tmp}", str(tmp)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)  # any other exception fails the test
            except SystemExit as exc:  # argparse rejects the flags
                assert exc.code == 2
                return
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue()
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().splitlines()[-1].startswith("error: ")
        elif out.getvalue() and "csv" not in argv:
            json.loads(out.getvalue(), parse_constant=_no_constants)
