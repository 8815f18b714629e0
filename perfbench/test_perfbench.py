"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

Each workload runs for a fixed, tiny number of operations, once untraced
and once traced, and the results are shared between the tests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Two rounds (or passes) each, so a traced run holds one untraced and one
# traced round and both runs execute the same operations.
MAX_OPS = {"campaign-short": 100, "campaign-long": 2, "explore": 2}


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            cache[name, trace] = workloads.run(name, 5, 1.0, trace, ROOT / "src", max_ops=MAX_OPS[name])
        return cache[name, trace]

    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_present_with_unit(results, name, trace):
    result = results(name, trace)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= MAX_OPS[name]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}
    for m in expected:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, (int, float))
    if not trace:
        assert all(metrics[m["name"]][0] > 0 for m in expected)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_identical(results, name):
    assert results(name, False)["digest"] == results(name, True)["digest"]


@pytest.mark.parametrize("name", ["campaign-long", "explore"])
def test_times_scale_with_host_speed(monkeypatch, name):
    """On a host measured at twice the nominal speed, every reported time is
    twice the time as measured and every rate half the rate as measured."""
    monkeypatch.setattr(hostspeed, "units_per_s", lambda units: 2 * hostspeed.NOMINAL_UNITS_PER_S)
    result = workloads.run(name, 5, 1.0, False, ROOT / "src", max_ops=MAX_OPS[name] // 2)
    measured = result["as_measured"]
    for metric, (value, _) in result["metrics"].items():
        if metric != "peak_rss_mb":
            factor = 0.5 if metric == "ops_per_s" else 2.0
            assert value == pytest.approx(measured[metric] * factor), metric


def test_golden_mismatch_counts_as_failure(tmp_path, monkeypatch):
    golden = json.loads(workloads.GOLDEN_PATH.read_text())
    golden["campaign-long"]["modes"]["pure-causal"][0][0] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(workloads, "GOLDEN_PATH", path)
    result = workloads.run("campaign-long", 5, 1.0, False, ROOT / "src", max_ops=4)
    assert not result["correct"]
    assert result["failed"] == 1


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-short", "--seed", "3",
         "--seconds", "0.5", "--trace", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_result_as_last_line():
    proc = _cli(ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_cli_without_program_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli(tmp_path)
    assert proc.returncode not in (0, 1)
    assert "{" not in proc.stdout
