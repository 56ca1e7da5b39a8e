"""``scripts/bench_ar1.py`` prints one JSON object of per-stage costs, and refuses a bad flag."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ar1.py"


def _run(*argv):
    return subprocess.run([sys.executable, str(_SCRIPT), *argv], capture_output=True, text=True,
                          timeout=300)


def test_prints_every_stage_and_the_route():
    proc = _run("--chunks", "2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["route"] in ("fused", "scipy")
    stages = ("draw", "scale_shift", "recursion", "fused", "ito_sums", "ito_sums_numpy", "ar1",
              "stream", "desk", "desk_s")
    assert sorted(doc) == sorted(("route", *stages))
    assert all(doc[s] > 0.0 for s in stages if s != "fused")
    assert (doc["fused"] is None) == (doc["route"] != "fused")
    assert doc["fused"] is None or doc["fused"] > 0.0
    # the desk grids' 9.15e8 steps at more than 0.1 ns each
    assert doc["desk_s"] > 0.09 and doc["desk"] == pytest.approx(doc["desk_s"] * 1e9 / 915e6)


def test_chunks_below_one_is_a_usage_error():
    proc = _run("--chunks", "0")
    assert proc.returncode == 2 and "--chunks" in proc.stderr
