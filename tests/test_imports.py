"""``model`` binds the operation registries at the end of its import, and
``ops`` imports ``refs`` and ``stability``, which import ``model``. Each
module must still import cleanly when it is the first one loaded."""

import os
import pathlib
import subprocess
import sys

import pytest

import causalrefs
from causalrefs import ops

SRC = str(pathlib.Path(causalrefs.__file__).resolve().parent.parent)


@pytest.mark.parametrize("module", ["refs", "stability", "ops", "harness", "explore", "tracefile"])
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", f"import causalrefs.{module}"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_every_operation_kind_declares_its_arguments():
    assert set(ops.REQUIRED_ARGS) == set(ops.GENERATORS) | set(ops.READS)
