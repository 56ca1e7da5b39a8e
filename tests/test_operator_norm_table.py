"""``scripts/operator_norm_table.py`` prints its table, and refuses a bad flag with a usage error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oufar

_REPO = Path(__file__).resolve().parents[1]


def _run(*argv):
    src = str(Path(oufar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(_REPO / "scripts" / "operator_norm_table.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ("--m", "0"),
    ("--m", "-3"),
    ("--h", "-1"),
    ("--h", "0"),
    ("--h", "inf"),
    ("--h", "nan"),
    ("--thetas", "1", "0"),
    ("--h", "5e-324", "--m", "4"),  # h / m underflows to 0
], ids=" ".join)
def test_bad_flag_is_a_usage_error(argv):
    proc = _run(*argv)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_table_rows():
    proc = _run("--m", "100", "--k-max", "2", "--thetas", "0.001", "0.4", "1e300")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "h = 1.0, oracle grid m = 100"
    # at theta = 1e300, k = 2 both norms underflow to 0: an absolute gap of 0, no division
    assert len(lines) == 2 + 3 * 2
    # theta labels keep their significant digits in 7 columns
    assert [line[:7] for line in lines[2::2]] == ["  0.001", "    0.4", " 1e+300"]
    assert lines[-1].split()[1:5] == ["2", "0.000000", "0.000000", "0.00e+00"]
