"""What starting chowring costs: ``import chowring`` loads none of
``dataclasses``, ``inspect``, ``argparse`` and ``pathlib`` (the fixture
files are read with ``open`` and ``os.path``), and ``import chowring.cli``
neither ``dataclasses`` nor ``inspect``.  Each check starts a fresh
interpreter, isolated (``-I``) and without ``site`` (``-S``), so that only
what the package itself imports is counted; the set differs between
interpreter versions, so CI runs this file on the oldest and the newest
one."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module,absent", [
    ("chowring", ("dataclasses", "inspect", "argparse", "pathlib")),
    ("chowring.cli", ("dataclasses", "inspect")),
])
def test_import_leaves_out(module, absent):
    code = (f"import json, sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
            f"print(json.dumps(sorted(set({list(absent)!r}) & sys.modules.keys())))")
    child = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                           capture_output=True, text=True, check=True)
    assert json.loads(child.stdout) == []
