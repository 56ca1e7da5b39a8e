import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
from oufar.experiments import EXPERIMENTS, PROFILES, check_report
from oufar.ou_process import SamplePath, grid_multiple
from oufar.reporting import (
    config_hash,
    estimated_steps,
    fmt,
    load_experiment_config,
    path_csv_text,
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
        write_path_csv(path, out, seed=1)
        values, dt = read_path_csv(out)
        np.testing.assert_array_equal(values, path.values)
        assert dt == 0.02
        meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
        assert meta["seed"] == 1 and meta["scheme"] == "euler"
        assert meta["params"]["theta"] == 1.0

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


class TestPathCsvStreaming:
    # sha256 of `oufar simulate --theta 0.7 --t-end 200 --dt 0.02 --seed 1` CSV bytes,
    # computed with the whole-text writer before the block writer replaced it
    GOLDEN = {
        "euler": "48673391a9f30491ab92e8c89ad4a57bfd839eab0c8de4fa05fbc3ae3e990909",
        "exact": "8eb31f83a432b30b18cea59b100760efb2638d3b1644a183e61a270214fbebf1",
    }

    @pytest.mark.parametrize("block", [None, 999])  # 10001 rows: one block, or eleven
    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_simulate_golden_bytes(self, tmp_path, monkeypatch, scheme, block):
        if block is not None:
            monkeypatch.setattr(reporting, "_BLOCK_ROWS", block)
        out = tmp_path / "p.csv"
        assert main(["simulate", "--theta", "0.7", "--t-end", "200", "--dt", "0.02",
                     "--scheme", scheme, "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[scheme]

    def test_extreme_values_round_trip(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([-0.0, 0.0, tiny, -tiny, 2.2250738585072009e-308, 1e308, -1e308,
                           np.finfo(float).max, -np.finfo(float).max, 1.0])
        path = SamplePath(grid=TimeGrid(0.5 * (values.size - 1), 0.5), values=values,
                          params=None, scheme="euler")
        out = tmp_path / "p.csv"
        write_path_csv(path, out, seed=0)
        assert out.read_text() == path_csv_text(path)
        got, dt = read_path_csv(out)
        assert got.tobytes() == values.tobytes()  # the sign of -0.0 included
        assert dt == 0.5

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
            write_path_csv(_make_path(), out, seed=1)
        assert len(calls) == 17
        assert sorted(p.name for p in tmp_path.iterdir()) == (["p.csv"] if existed else [])
        if existed:
            assert out.read_text() == "old contents\n"


_REFERENCE_DOC_ONLY_KEYS = ("profile", "out_dir", "formats")


def _reference_resolve_cli_config(kind: str, doc: dict, overrides: dict | None = None):
    """The per-kind resolver that the one-pass resolver replaced, kept verbatim as its oracle.

    Only its key tuple is renamed, to _REFERENCE_DOC_ONLY_KEYS.
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
        body = profile_config(kind, profile).to_dict() | body
    elif profile != "custom":
        raise ValueError(f"unknown profile {profile!r}; expected desk, full, or custom")
    return load_experiment_config(body, overrides), out_dir, tuple(formats), profile


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
            load_experiment_config({"thetas": [1.0], "horizons": [100.0], "x": 1})

    def test_overrides_win(self):
        config = load_experiment_config(dict(SMALL), {"replicates": 99, "master_seed": None})
        assert config.replicates == 99
        assert config.master_seed == 5

    def test_estimated_steps(self):
        config = ExperimentConfig(thetas=(1.0, 2.0), horizons=(100.0,), dt=0.02, replicates=10)
        assert estimated_steps(config) == 2 * 10 * 5000


class TestSimulateCommand:
    # sha256 of the .meta.json sidecar of the Euler CSV pinned in TestPathCsvStreaming
    SIDECAR_GOLDEN = "42a9ce2a417a3a36162740a2acd290f6a72a91cb86ebe9ef2b4192cd996f8c33"

    def test_sidecar_golden_bytes(self, tmp_path):
        out = tmp_path / "a" / "b" / "p.csv"  # missing directories are created
        assert main(["simulate", "--theta", "0.7", "--t-end", "200", "--dt", "0.02",
                     "--seed", "1", "--out", str(out)]) == 0
        sidecar = out.with_suffix(".csv.meta.json").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == self.SIDECAR_GOLDEN

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

    @pytest.mark.parametrize("form", ["ito", "endpoint", "both"])
    def test_overflowing_sums_exit_3(self, tmp_path, capsys, form):
        # finite values whose squares overflow: the denominator would be infinite
        csv = tmp_path / "big.csv"
        rows = "\n".join(f"{0.02 * i:.17g},{(-1) ** i * 1e308:.17g}" for i in range(101))
        csv.write_text("t,xi\n" + rows + "\n")
        assert main(["estimate", "--input", str(csv), "--form", form]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err


class TestNormsCommand:
    # sha256 of `norms --theta 0.7 --h 1.5 --k-max 7` stdout with these extra flags
    GOLDEN = {
        ("--theta-hat", "0.9"): "062ac0409662f3d7da638244839322036cbb8716505efaad42d1da48ca2d0dad",
        ("--format", "csv"): "4612ce0f60e79f47f92380ca0e08154c70b51beb393171d0161378a2e8e44fbd",
    }

    @pytest.mark.parametrize("extra", list(GOLDEN), ids=["theta-hat", "csv"])
    def test_golden_bytes(self, capsys, extra):
        assert main(["norms", "--theta", "0.7", "--h", "1.5", "--k-max", "7", *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.GOLDEN[extra]

    def test_far_apart_rates(self, capsys):
        # (theta - theta_hat) h = 799: e^799 overflows a double; oracles in test_functional
        assert main(["norms", "--theta", "800", "--h", "1", "--theta-hat", "1", "--k-max", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator_distance_B"] == pytest.approx(0.9904290912, rel=1e-8)
        assert doc["operator_distance_H"] == pytest.approx(0.7521939662, rel=1e-8)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["norms", "--theta", "nan", "--h", "1"],
            ["norms", "--theta", "1e-320", "--h", "1"],  # k0 = ceil(1/theta + 1) overflows
            ["norms", "--theta", "inf", "--h", "1"],
            ["norms", "--theta", "inf", "--h", "1", "--format", "csv"],
            ["norms", "--theta", "1e308", "--h", "1e308"],  # finite flags, NaN norms
            ["norms", "--theta", "1e308", "--h", "1e308", "--format", "csv"],
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
            # sigma**2 overflows in the exact transition
            ["simulate", "--theta", "1", "--sigma", "1e200", "--t-end", "10", "--dt", "0.02",
             "--scheme", "exact", "--seed", "1"],
        ],
    )
    def test_nonfinite_or_overflowing_flags_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2  # an exception would fail the test
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


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

        config = load_experiment_config(SMALL)
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

        def exact_estimates(config, n_workers=1):
            # no paths: every replicate estimates theta exactly
            r = config.replicates
            return [
                exp.CellData(theta, t_end, np.full(r, theta), np.zeros(r), 0)
                for theta in config.thetas
                for t_end in config.horizons
            ]

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return exact_estimates(*args, **kwargs)

        monkeypatch.setattr(exp, "collect_cells", counting)
        out = tmp_path / "r"
        assert main(["experiment", "all", "--profile", profile, "--out", str(out), "--yes"]) == 0
        # the full band-coverage and normality grids are identical
        assert len(calls) == grids
        distinct = {exp.simulation_grid(profile_config(k, profile)) for k in exp.EXPERIMENTS}
        assert len(distinct) == grids
        assert len(list(out.glob("*.run.json"))) == len(exp.REPORTS)
        if profile == "full":
            kinds = ("band-coverage", "emse", "predictor-bound")
            steps = sum(estimated_steps(profile_config(k, "full")) for k in kinds)
            assert f"planned work: {steps:.3e} simulation steps" in capsys.readouterr().err

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
            # the exact scheme's stationary variance 1 / (2 theta) overflows
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
        import oufar.cli as cli

        seen = []

        def recording_runner(config, n_workers, simulated):
            seen.append(n_workers)
            return run_experiment("emse", config, 1)

        monkeypatch.setitem(cli._RUNNERS, "emse", recording_runner)
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
        import oufar.cli as cli

        # an OS without affinity masks: the CPU count caps the workers
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        chosen = self._workers_chosen(tmp_path, monkeypatch, threads, replicates, thetas)
        assert chosen == [expected]

    @pytest.mark.parametrize("threads, affinity, expected", [(8, {0}, 1), (8, {0, 3, 5}, 3), (2, {0, 3, 5}, 2)])
    def test_workers_capped_at_affinity(self, tmp_path, monkeypatch, threads, affinity, expected):
        # ``taskset -c 0`` on a many-core host: one usable CPU, one worker
        import oufar.cli as cli

        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert self._workers_chosen(tmp_path, monkeypatch, threads, 10) == [expected]


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
