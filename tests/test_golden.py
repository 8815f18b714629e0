"""The benchmark pins the program's results in ``perfbench/golden.json``:
digests of seeded campaign traces and of the explorer's reports. The
default test run does not collect ``perfbench/``, so this test makes a
change of behaviour fail here rather than only in a benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_golden_digests_unchanged(monkeypatch):
    # The workloads module imports its sibling modules by plain name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while being defined.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    prog = SimpleNamespace(**{m: importlib.import_module(f"causalrefs.{m}")
                              for m in workloads.PROGRAM_MODULES})
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert workloads.golden_digests(prog) == golden
