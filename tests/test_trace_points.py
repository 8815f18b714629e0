"""The benchmark's tracer (``perfbench/tracing.py``) wraps the program's
entry points and registry entries by name. The default test run does not
collect ``perfbench/``, so these tests make a renamed entry point fail here
rather than only in a traced benchmark run (``perfbench/run.py --trace 1``).
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def prog(tracing):
    """The program's modules that the tracer's paths start from."""
    names = {path.split(".")[0] for points in tracing.LAYERS.values() for path, _ in points}
    names |= {"ops", "refs", "stability"}
    return SimpleNamespace(**{m: importlib.import_module(f"causalrefs.{m}") for m in names})


def test_every_layer_entry_point_resolves(tracing, prog):
    for layer, points in tracing.LAYERS.items():
        for path, name in points:
            owner = tracing._resolve(prog, path)
            assert name in vars(owner), f"{layer}: {path}.{name} is gone"
            assert callable(vars(owner)[name]), f"{layer}: {path}.{name}"


def test_every_registry_key_exists(tracing, prog):
    for kind in tracing.REFS_GENERATORS:
        assert kind in prog.ops.GENERATORS, kind
    for payload in tracing.REFS_PAYLOADS:
        assert getattr(prog.refs, payload) in prog.ops.APPLIERS, payload
    assert prog.stability.ClockAnnounce in prog.ops.APPLIERS
    assert "report" in vars(prog.stability.QueryObserver)

