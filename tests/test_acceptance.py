"""Acceptance criteria, one test per criterion (shared campaign fixtures).

Criteria:
 1. 50 000-execution randomized campaign, both composition modes: zero I1/I3
    violations, pure-causal run under 10 minutes.
 2. The same campaigns report zero I2/I4/I5/I6/I7 violations.
 3. The fig2 scenario reproduces the reconciled state shape on every replica.
 4. The fig1 race, explored exhaustively: delete refused in every
    interleaving where the concurrent assign exists; no reachable state
    holds a reference to a deleted object.
 5. Refinement: stably-detected implies oracle-stable across 10 000+ random
    traces and all exhaustively explored <=4-event catalog programs.
 6. Liveness: a quiesced world with a globally unreferenced non-root object
    reaches stable detection in exactly 2 announce rounds per replica.
 7. Convergence: 10 000 random traces quiesce to identical replicas, both modes.
 8. Determinism: replaying any trace twice yields byte-identical states.
"""

import time

import pytest

from canon_reference import world_fingerprint
from causalrefs.explore import basic_catalog, basic_setup, explore_catalog
from causalrefs.harness import (
    TraceConfig,
    check_invariants,
    execution_seed,
    random_execution,
    replay,
    run_campaign,
)
from causalrefs.model import ATOMIC, OpCall, PURE_CAUSAL, World
from causalrefs.scenarios import FIG1_ASSIGN, FIG1_DELETE, run_fig1, run_fig2
from causalrefs.stability import stably_subset

pytestmark = pytest.mark.acceptance

CAMPAIGN_SEED = 20240901
EXECUTIONS = 50_000
FULL_SUITE = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "refinement")


@pytest.fixture(scope="module")
def campaign_pure():
    start = time.monotonic()
    summary = run_campaign(CAMPAIGN_SEED, EXECUTIONS, TraceConfig(mode=PURE_CAUSAL))
    summary["elapsed"] = time.monotonic() - start
    return summary


@pytest.fixture(scope="module")
def campaign_atomic():
    summary = run_campaign(CAMPAIGN_SEED, EXECUTIONS, TraceConfig(mode=ATOMIC))
    return summary


def test_criterion_1_headline_campaign(campaign_pure, campaign_atomic):
    for name, summary in (("pure-causal", campaign_pure), ("atomic", campaign_atomic)):
        assert summary["executions"] == EXECUTIONS
        for inv in ("I1", "I3"):
            assert summary["violations"].get(inv, 0) == 0, summary["violations"]
        print(f"criterion 1 [{name}]: {EXECUTIONS} executions, zero I1/I3 violations: PASS")
    elapsed = campaign_pure["elapsed"]
    assert elapsed < 600, f"pure-causal campaign took {elapsed:.0f}s"
    print(f"criterion 1 [runtime]: pure-causal campaign in {elapsed:.0f}s (< 600s): PASS")


def test_criterion_2_full_invariant_suite(campaign_pure, campaign_atomic):
    for name, summary in (("pure-causal", campaign_pure), ("atomic", campaign_atomic)):
        assert summary["total_violating"] == 0, summary["violations"]
        assert all(summary["violations"].get(inv, 0) == 0 for inv in FULL_SUITE)
        print(f"criterion 2 [{name}]: zero violations across I1-I7: PASS")


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_criterion_3_fig2_reproduction(mode):
    world, problems = run_fig2(mode)
    assert problems == [], problems
    st = world.states[0]
    assert len(st.objects["B"].attrs["b"].surviving()) == 3
    print(f"criterion 3 [{mode}]: fig2 state shape reproduced on every replica: PASS")


def test_criterion_4_fig1_prevention():
    report = run_fig1()
    assert report.ok, report.violations[:5]
    assert report.results[FIG1_ASSIGN] == {"ok"}
    assert report.results[FIG1_DELETE] == {"err:NotUnreachable"}
    assert "I1" not in report.failed_invariants()
    print(f"criterion 4: delete refused in all {report.states} explored states, "
          "no dangling reference reachable: PASS")


def test_criterion_5_oracle_refinement(campaign_pure):
    # Random side: every trace in the campaign runs the refinement check at
    # each stably-positive detection; sanity-check a dedicated 10 000 on a
    # different seed as well.
    assert campaign_pure["violations"].get("refinement", 0) == 0
    for i in range(10_000):
        trace = random_execution(execution_seed(77, i), TraceConfig())
        report = check_invariants(trace)
        assert "refinement" not in report.failed_invariants(), report.violations[:3]
    # Exhaustive side: every catalog program of up to 4 events.
    rep = explore_catalog(basic_catalog(), 4, replicas=2, setup=basic_setup)
    assert rep.ok, rep.violations[:5]
    print(f"criterion 5: refinement holds over 60 000 random traces and "
          f"{rep.states} exhaustively explored states: PASS")


def test_criterion_6_stability_liveness():
    for replicas in (2, 3, 4):
        w = World(replicas)
        w.generate(0, OpCall("create", {"key": "A", "root": True, "attrs": ["a"]}))
        w.generate(0, OpCall("create", {"key": "X", "root": False, "attrs": []}))
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.quiesce()
        for round_no in (1, 2):
            for r in range(replicas):
                w.generate(r, OpCall("announce"))
            w.quiesce()
            stable = [stably_subset(w, r, "X", frozenset()) for r in range(replicas)]
            if round_no == 1:
                assert not any(stable), "stable after a single round"
            else:
                assert all(stable), "not stable after two rounds"
    print("criterion 6: detection completes in exactly 2 announce rounds: PASS")


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_criterion_7_convergence(mode):
    cfg = TraceConfig(mode=mode)
    for i in range(10_000):
        trace = random_execution(execution_seed(31, i), cfg)
        assert "I5" not in check_invariants(trace).failed_invariants(), f"divergence in trace {i} ({mode})"
    print(f"criterion 7 [{mode}]: 10 000 traces converge after quiesce: PASS")


def test_criterion_8_replay_determinism():
    for mode in (PURE_CAUSAL, ATOMIC):
        cfg = TraceConfig(mode=mode)
        for i in range(200):
            trace = random_execution(execution_seed(47, i), cfg)
            w1 = replay(trace).world
            w2 = replay(trace).world
            assert world_fingerprint(w1) == world_fingerprint(w2)
            w1.quiesce()
            w2.quiesce()
            assert world_fingerprint(w1) == world_fingerprint(w2)
    print("criterion 8: byte-identical replays, both modes: PASS")
