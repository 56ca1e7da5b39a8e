"""Test session set-up: the compiled AR(1) loop builds into a temporary cache.

``ou_process`` builds ``_ar1.c`` into ``$XDG_CACHE_HOME/oufar``.  The session
points ``XDG_CACHE_HOME`` at a fresh directory, which fresh interpreters that
tests start inherit, so no test writes into the user's cache.
"""

import os
import shutil
import tempfile

_saved = {}


def pytest_configure(config):
    _saved["cache"] = tempfile.mkdtemp(prefix="oufar-test-cache-")
    _saved["env"] = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = _saved["cache"]


def pytest_unconfigure(config):
    if _saved["env"] is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = _saved["env"]
    shutil.rmtree(_saved["cache"], ignore_errors=True)
