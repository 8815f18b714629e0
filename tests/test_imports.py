"""``model`` binds the operation registries at the end of its import, and
``ops`` imports ``refs`` and ``stability``, which import ``model``. Each
module must still import cleanly when it is the first one loaded. No module
imports a name it never uses."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import causalrefs
from causalrefs import ops

PACKAGE = pathlib.Path(causalrefs.__file__).resolve().parent
SRC = str(PACKAGE.parent)


# Every module file; ``__init__`` is imported by every other one.
FILES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", [name.removesuffix(".py") for name in FILES])
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", f"import causalrefs.{module}"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_every_operation_kind_declares_its_arguments():
    assert set(ops.REQUIRED_ARGS) == set(ops.GENERATORS) | set(ops.READS)


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    # ``__init__`` imports only to re-export. A name imported on a line
    # marked ``noqa: F401`` is kept on purpose.
    text = (PACKAGE / path).read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}
