"""Seeded protocol faults and the budget within which the checker must
catch each one (its kill budget).

Each fault is put in with monkeypatch for one test only:
- forward reference creation: a new reference's outref write goes out
  before the inref-add on its target;
- backward retirement: the inref-removes of the overwritten entries go out
  before the outref write that overwrites them;
- no pledge: a replica reporting a target unreferenced does not promise to
  mint no new reference to it;
- no detection: ``may_delete`` says yes at once, so a delete never waits
  for the stability detector.

The two chain faults only reorder the payloads of one chain. In atomic mode
a chain is one message, applied whole before any check runs, so they change
nothing there (``test_chain_faults_change_nothing_in_atomic_mode``). The
explorer misses the missing pledge within three events; the campaign
catches it.
"""

import pytest

from causalrefs import explore, ops, refs, stability
from causalrefs.explore import basic_catalog, basic_setup, explore_catalog
from causalrefs.harness import Trace, TraceConfig, check_invariants, execution_seed, random_execution
from causalrefs.model import ATOMIC, PURE_CAUSAL
from causalrefs.scenarios import run_fig1

# Random traces (3 replicas, 20 events) a campaign may take to catch a fault.
BUDGET = 20


def forward_creation(monkeypatch):
    chain = refs._reference_chain

    def mutant(st, source, attr, target):
        add, write, *removals = chain(st, source, attr, target)
        return [write, add, *removals]

    monkeypatch.setattr(refs, "_reference_chain", mutant)


def backward_retirement(monkeypatch):
    chain = refs._reference_chain

    def mutant(st, source, attr, target):
        add, write, *removals = chain(st, source, attr, target)
        return [add, *removals, write]

    monkeypatch.setattr(refs, "_reference_chain", mutant)


def no_pledge(monkeypatch):
    announce = ops.GENERATORS["announce"]

    def mutant(world, st, args):
        condemned = set(st.condemned)
        chain = announce(world, st, args)
        st.condemned = condemned
        return chain

    monkeypatch.setitem(ops.GENERATORS, "announce", mutant)


# Fault -> (how to put it in, campaign seed, invariants it must violate).
FAULTS = {
    "forward_creation": (forward_creation, 99, {"I1", "I4"}),
    "backward_retirement": (backward_retirement, 99, {"I1"}),
    "no_pledge": (no_pledge, 20260101, {"refinement"}),
}
CHAIN_FAULTS = ["forward_creation", "backward_retirement"]


def campaign_violations(seed: int, mode: str) -> set:
    found = set()
    for i in range(BUDGET):
        trace = random_execution(execution_seed(seed, i), TraceConfig(mode=mode))
        found |= check_invariants(trace).failed_invariants()
    return found


def explorer_findings(mode: str) -> set:
    return set(explore_catalog(basic_catalog(), 2, replicas=2, mode=mode, setup=basic_setup).violations)


def explorer_violations(mode: str) -> set:
    # Each explorer finding starts with its invariant's name.
    return {v.split()[0].rstrip(":") for v in explorer_findings(mode)}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_campaign_catches_fault_within_budget(monkeypatch, fault):
    put_in, seed, invariants = FAULTS[fault]
    assert campaign_violations(seed, PURE_CAUSAL) == set()
    put_in(monkeypatch)
    assert invariants <= campaign_violations(seed, PURE_CAUSAL)


def test_violation_names_the_step_that_caused_it(monkeypatch):
    # A violation found while step i applies is labeled i: replaying the
    # steps before i must not find it, and replaying step i too must. So
    # every prefix finds exactly the full trace's violations of its steps.
    forward_creation(monkeypatch)
    trace = random_execution(execution_seed(99, 0), TraceConfig())
    full = check_invariants(trace).violations
    culprits = {v.step for v in full if 0 <= v.step < len(trace.steps)}
    assert culprits
    for n in sorted(culprits | {i + 1 for i in culprits}):
        prefix = check_invariants(Trace(trace.seed, trace.config, trace.steps[:n]))
        found = [v for v in prefix.violations if 0 <= v.step < n]
        assert found == [v for v in full if 0 <= v.step < n], n


@pytest.mark.parametrize("fault", CHAIN_FAULTS)
def test_explorer_catches_chain_fault_at_two_events(monkeypatch, fault):
    put_in, _seed, invariants = FAULTS[fault]
    assert explorer_violations(PURE_CAUSAL) == set()
    put_in(monkeypatch)
    assert invariants <= explorer_violations(PURE_CAUSAL)


@pytest.mark.parametrize("fault", CHAIN_FAULTS)
def test_chain_faults_change_nothing_in_atomic_mode(monkeypatch, fault):
    put_in, seed, _invariants = FAULTS[fault]
    put_in(monkeypatch)
    assert campaign_violations(seed, ATOMIC) == set()
    assert explorer_violations(ATOMIC) == set()


@pytest.mark.parametrize("fault", CHAIN_FAULTS)
def test_explorer_checks_of_changed_replica_find_everything(monkeypatch, fault):
    # The explorer checks only the replica state a step changed, the others
    # being its parent's; checking every replica at every state must find
    # nothing more.
    FAULTS[fault][0](monkeypatch)
    changed = explorer_findings(PURE_CAUSAL)
    check_state = explore._check_state
    monkeypatch.setattr(explore, "_check_state", lambda world, replica=None: check_state(world))
    assert changed and explorer_findings(PURE_CAUSAL) == changed


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_fig1_catches_delete_without_detection(monkeypatch, mode):
    monkeypatch.setattr(stability, "may_delete", lambda world, replica, target, last: True)
    found = [v for v in run_fig1(mode).violations if v.startswith("fig1:")]
    assert len(found) == 1, found
