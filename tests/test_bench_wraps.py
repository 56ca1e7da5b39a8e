"""Every name ``perfbench/run.py`` wraps is bound where it looks for it.

The benchmark replaces ``owner.<name>`` by a traced call (``tracer.wrap``), so a
renamed or deleted target breaks its traced runs, which only
``perfbench/selftest.py`` makes.  This reads ``install_wraps`` from the file,
without importing or running it, and checks each target by name.
"""

import ast
from pathlib import Path

import oufar.cli
import oufar.experiments
import oufar.functional
import oufar.ou_process
import oufar.predict

_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# the owner expressions of install_wraps, as written there
_OWNERS = {
    "ex": oufar.experiments,
    "cli": oufar.cli,
    "fn": oufar.functional,
    "oufar.ou_process": oufar.ou_process,
    "oufar.predict": oufar.predict,
}


def _wrap_targets() -> list[tuple[str, str]]:
    """(owner expression, name) of each ``tracer.wrap(owner, "<name>", ...)`` in install_wraps."""
    tree = ast.parse(_RUN.read_text(encoding="utf-8"))
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install_wraps")
    return [(ast.unparse(call.args[0]), call.args[1].value) for call in ast.walk(install)
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "tracer.wrap"
            and isinstance(call.args[1], ast.Constant)]


def test_every_wrapped_name_is_bound():
    targets = _wrap_targets()
    assert targets
    assert {owner for owner, _ in targets} <= set(_OWNERS)
    unbound = [f"{owner}.{name}" for owner, name in targets if not hasattr(_OWNERS[owner], name)]
    assert unbound == []


def test_runner_table_holds_every_kind():
    # install_wraps wraps cli._RUNNERS[kind] for each kind it holds
    assert set(oufar.cli._RUNNERS) == set(oufar.experiments.EXPERIMENTS)
