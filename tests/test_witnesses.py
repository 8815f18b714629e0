"""Integrity witnesses: for a protocol mutant of ``tests/test_faults.py``,
a committed trace under ``tests/witnesses/`` with an I1 or I3 finding
under the mutant and none on the clean protocol.

- ``mark_deleted_first.trace``: the model machine's failing run at 2
  replicas, pure-causal, within a budget of 400 examples
  (``test_model_machine.py::test_machine_kills_mark_deleted_first``, as
  it ran before its seed was fixed, at about the 157th example), cut
  by ``shrink`` to 14 steps (8 generations). Replica 0 creates ``o0n0``
  and points ``o0n0.f`` at itself. A first ``delete`` fails and registers
  the query, four announces follow, and the ``delete`` then succeeds.
  Under the mutant its ``MarkDeleted`` lands before the write that nulls
  ``f``, so I1 fails.
"""

import pathlib

import pytest
from click.testing import CliRunner

from causalrefs import tracefile
from causalrefs.cli import main
from causalrefs.harness import check_invariants
from test_faults import ALL_FAULTS

WITNESSES = pathlib.Path(__file__).parent / "witnesses"

# Mutant -> the integrity invariant its witness breaks.
BROKEN = {"mark_deleted_first": "I1"}


def check(name: str):
    return CliRunner().invoke(main, ["check", str(WITNESSES / f"{name}.trace")])


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_witness_holds_on_clean_protocol(name):
    res = check(name)
    assert res.exit_code == 0, res.output
    assert "all invariants hold" in res.output


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_witness_breaks_integrity_under_its_mutant(monkeypatch, name):
    ALL_FAULTS[name](monkeypatch)
    trace = tracefile.loads((WITNESSES / f"{name}.trace").read_text())
    assert BROKEN[name] in check_invariants(trace).failed_invariants()
    res = check(name)
    assert res.exit_code == 1
    assert f"violation[{BROKEN[name]}] " in res.output
