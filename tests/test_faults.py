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
  for the stability detector;
- mark-deleted first: a delete's mark-deleted payload goes out before the
  writes that null the target's attributes;
- unhonoured pledge: a replica still reports a target unreferenced, and
  so pledges, but then mints a new reference to it anyway.

The two chain faults only reorder the payloads of one chain. In atomic mode
a chain is one message, applied whole before any check runs, so they change
nothing there (``test_chain_faults_change_nothing_in_atomic_mode``). The
explorer misses the missing pledge within three events of ``basic_setup``
and catches it within four of ``reclaim_setup``; the campaign catches it.
The unhonoured pledge is the explorer's persistence finding within three
events of ``reclaim_setup``. It is not in ``ALL_FAULTS``: at 2 replicas and
60 events the campaign first catches it in execution 155 of seed 11, past
the 40 that ``test_shrunk_traces_pinned`` scans.
"""

import hashlib

import pytest

from causalrefs import explore, ops, refs, stability, tracefile
from causalrefs.explore import basic_catalog, basic_setup, explore_catalog, reclaim_setup
from causalrefs.harness import (
    Checker,
    DeliverStep,
    GenStep,
    InvariantReport,
    Trace,
    _checked_replay,
    TraceConfig,
    check_invariants,
    deleted_faults,
    entry_fault,
    execution_seed,
    random_execution,
    removal_fault,
    replay,
    run_campaign,
    shrink,
)
from causalrefs.model import ATOMIC, PURE_CAUSAL, PreconditionFailure
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


def no_detection(monkeypatch):
    monkeypatch.setattr(stability, "may_delete", lambda world, replica, target, last: True)


def mark_deleted_first(monkeypatch):
    delete = ops.GENERATORS["delete"]

    def mutant(world, st, args):
        *writes, mark = delete(world, st, args)
        return [mark, *writes]

    monkeypatch.setitem(ops.GENERATORS, "delete", mutant)


def unhonoured_pledge(monkeypatch):
    # ``refs._check_target_mintable`` without its ``TargetCondemned`` check.
    def mutant(st, target):
        rec = refs._live_record(st, target)
        if not refs.derivable(st, target, rec):
            raise PreconditionFailure("UnreachableTarget", target)

    monkeypatch.setattr(refs, "_check_target_mintable", mutant)


# Every fault above, by name.
ALL_FAULTS = {
    "forward_creation": forward_creation,
    "backward_retirement": backward_retirement,
    "no_pledge": no_pledge,
    "no_detection": no_detection,
    "mark_deleted_first": mark_deleted_first,
}

# Fault -> (how to put it in, campaign seed, invariants it must violate).
FAULTS = {
    "forward_creation": (forward_creation, 99, {"I1", "I4"}),
    "backward_retirement": (backward_retirement, 99, {"I1"}),
    "no_pledge": (no_pledge, 20260101, {"refinement"}),
}
CHAIN_FAULTS = ["forward_creation", "backward_retirement"]

# The distinct findings of the full search (every delivery order followed)
# on the catalog at 2 events, pure-causal, under each chain fault. The
# explorer's reduction of delivery orders must lose none of them.
CHAIN_FAULT_FINDINGS = {
    "forward_creation": {
        "I1 at replica 0: (A,(1, 0)) missing from listing of X",
        "I1 at replica 0: (A,(1, 1)) missing from listing of X",
        "I1 at replica 0: (B,(1, 0)) missing from listing of X",
        "I1 at replica 0: (B,(1, 1)) missing from listing of X",
        "I1 at replica 1: (A,(0, 1)) missing from listing of X",
        "I1 at replica 1: (A,(0, 2)) missing from listing of X",
        "I1 at replica 1: (B,(0, 1)) missing from listing of X",
        "I1 at replica 1: (B,(0, 2)) missing from listing of X",
        "I4 at replica 0: removed unknown pair ('A', (1, 0)) at X",
        "I4 at replica 0: removed unknown pair ('B', (1, 0)) at X",
        "I4 at replica 1: removed unknown pair ('A', (0, 1)) at X",
        "I4 at replica 1: removed unknown pair ('B', (0, 1)) at X",
    },
    "backward_retirement": {
        "I1 at replica 0: (A,(0, 0)) missing from listing of X",
        "I1 at replica 0: (A,(0, 1)) missing from listing of X",
        "I1 at replica 0: (A,(1, 0)) missing from listing of X",
        "I1 at replica 0: (B,(0, 1)) missing from listing of X",
        "I1 at replica 0: (B,(1, 0)) missing from listing of X",
        "I1 at replica 1: (A,(0, 0)) missing from listing of X",
        "I1 at replica 1: (A,(0, 1)) missing from listing of X",
        "I1 at replica 1: (A,(1, 0)) missing from listing of X",
        "I1 at replica 1: (B,(0, 1)) missing from listing of X",
        "I1 at replica 1: (B,(1, 0)) missing from listing of X",
    },
}


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


def test_campaign_counts_each_violating_trace_once(monkeypatch):
    # Under this fault some traces violate both I1 and I4; each is still
    # one violating trace.
    forward_creation(monkeypatch)
    summary = run_campaign(99, BUDGET, TraceConfig())
    violating = sum(not random_execution(execution_seed(99, i), TraceConfig()).report.ok
                    for i in range(BUDGET))
    assert sum(summary["violations"].values()) > violating
    assert summary["total_violating"] == violating


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


def test_lenient_replay_numbers_findings_by_kept_steps(monkeypatch):
    # A lenient replay drops a step it cannot run and numbers what it finds
    # by the steps it keeps: its report is that of a strict replay of the
    # normalized trace.
    forward_creation(monkeypatch)
    trace = next(t for t in (random_execution(execution_seed(99, i), TraceConfig()) for i in range(BUDGET))
                 if not t.report.ok)
    # Names an event not yet generated, so it is dropped.
    padded = Trace(trace.seed, trace.config, [DeliverStep(0, trace.steps[0].label, 0)] + trace.steps)
    norm, report = _checked_replay(padded, strict=False)
    assert norm == trace.steps
    assert report == check_invariants(Trace(trace.seed, trace.config, norm)) == trace.report


def test_mark_deleted_first_gives_reports(monkeypatch):
    # Refinement is judged from the queries a replica holds as stable, not
    # from where a delete's chain puts its ignore-set, so a reordered delete
    # chain is checked like any other.
    mark_deleted_first(monkeypatch)
    deletes = 0
    for i in range(10):
        trace = random_execution(execution_seed(0, i), TraceConfig(replicas=2, events=60))
        assert isinstance(check_invariants(trace), InvariantReport), i
        deletes += sum(isinstance(s, GenStep) and s.op.kind == "delete" and s.result == "ok"
                       for s in trace.steps)
    assert deletes > 0


# The configurations at which a generated trace's report is compared with
# a replay's.
EQUIVALENCE_CONFIGS = [TraceConfig(3, 20, PURE_CAUSAL), TraceConfig(3, 20, ATOMIC),
                       TraceConfig(2, 60, PURE_CAUSAL), TraceConfig(2, 60, ATOMIC),
                       TraceConfig(5, 80, PURE_CAUSAL)]


@pytest.mark.parametrize("fault", [None] + sorted(ALL_FAULTS))
def test_generated_report_equals_replayed_report(monkeypatch, fault):
    # ``random_execution`` checks a trace while building it; a replay of
    # the same steps must find the same violations, at the same step
    # indices, with the same stats.
    if fault is not None:
        ALL_FAULTS[fault](monkeypatch)
    violating = 0
    for config in EQUIVALENCE_CONFIGS:
        for i in range(40):
            trace = random_execution(execution_seed(5, i), config)
            replayed = check_invariants(Trace(trace.seed, trace.config, trace.steps))
            assert trace.report == replayed, (config, i)
            violating += not replayed.ok
    # The mark-deleted-first fault is rarely caught (I1 in about 1 of 200
    # traces at 2/60), so only the other faults must give violating traces
    # to compare.
    if fault is None:
        assert violating == 0
    elif fault != "mark_deleted_first":
        assert violating > 0


# Fault -> the sha256 of the shrunk forms (``tracefile.dumps``) of the first
# three traces of campaign seed 11 at 2 replicas and 60 events, pure-causal,
# that violate an invariant under it. The mark-deleted-first fault is
# caught there in executions 2, 18 and 39, every other one within the first
# five.
SHRUNK_DIGESTS = {
    "backward_retirement": "eae3b47dc6a77f9991de545017ad4b7800297dac34798346d4a7748d7489994e",
    "forward_creation": "83e5681f9af315e0354677997ccedcea390aaf4d3ace881a84e1bf5bff56bb45",
    "mark_deleted_first": "3c512844837671860381efe019b84aab0b724ee8fe1e336f749b4067869d050a",
    "no_detection": "49d7c17d6fa6fd3011834cf40e44e47dfb21cae7b93d1a27889f7bc36cdb9b35",
    "no_pledge": "041525b1ed4805238ebcaded5fb2d3c3234d4bf9d92f39eb0b22a6454b4680e5",
}


@pytest.mark.parametrize("fault", sorted(ALL_FAULTS))
def test_shrunk_traces_pinned(monkeypatch, fault):
    # Each shrunk trace still fails the first invariant its input failed,
    # and the shrinker's output does not change.
    ALL_FAULTS[fault](monkeypatch)
    h = hashlib.sha256()
    shrunk = 0
    for i in range(40):
        trace = random_execution(execution_seed(11, i), TraceConfig(replicas=2, events=60))
        if trace.report.ok:
            continue
        small = shrink(trace)
        assert trace.report.violations[0].invariant in check_invariants(small).failed_invariants(), i
        h.update(tracefile.dumps(small).encode())
        shrunk += 1
        if shrunk == 3:
            break
    assert shrunk == 3
    assert h.hexdigest() == SHRUNK_DIGESTS[fault]


@pytest.mark.parametrize("fault", CHAIN_FAULTS)
def test_explorer_catches_chain_fault_at_two_events(monkeypatch, fault):
    put_in, _seed, invariants = FAULTS[fault]
    assert explorer_violations(PURE_CAUSAL) == set()
    put_in(monkeypatch)
    assert invariants <= explorer_violations(PURE_CAUSAL)


@pytest.mark.parametrize("fault", CHAIN_FAULTS)
def test_explorer_findings_of_chain_fault_pinned(monkeypatch, fault):
    FAULTS[fault][0](monkeypatch)
    assert explorer_findings(PURE_CAUSAL) == CHAIN_FAULT_FINDINGS[fault]


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_explorer_catches_no_pledge_after_reclaim_setup(monkeypatch, mode):
    # With X's query registered before the search, announcements alone
    # make X stable; without the pledge a replica then references it anew.
    no_pledge(monkeypatch)
    report = explore_catalog(basic_catalog(), 4, replicas=2, mode=mode, setup=reclaim_setup)
    assert set(report.violations) == {f"refinement at replica {r}: stably X but oracle disagrees"
                                      for r in (0, 1)}


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_explorer_catches_unhonoured_pledge_as_persistence(monkeypatch, mode):
    # X turns oracle-stable once every replica has pledged; a replica that
    # then mints a reference to X anyway makes it revert. Every call of the
    # stability check also sees each query it was handed as oracle-stable
    # still registered, which its single pass over the registered queries
    # relies on.
    check = explore._check_stability
    calls = 0

    def checking(world, stable_seen):
        nonlocal calls
        calls += 1
        assert stable_seen <= {key for st in world.states for key in st.queries}
        return check(world, stable_seen)

    monkeypatch.setattr(explore, "_check_stability", checking)
    def scope():
        return explore_catalog(basic_catalog(), 3, replicas=2, mode=mode, setup=reclaim_setup)

    assert scope().ok
    unhonoured_pledge(monkeypatch)
    calls = 0
    report = scope()
    assert calls == report.states == {PURE_CAUSAL: 1386, ATOMIC: 984}[mode]
    assert set(report.violations) == {"persistence: oracle-stable X reverted"}


@pytest.mark.parametrize("fault", CHAIN_FAULTS)
def test_chain_faults_change_nothing_in_atomic_mode(monkeypatch, fault):
    put_in, seed, _invariants = FAULTS[fault]
    put_in(monkeypatch)
    assert campaign_violations(seed, ATOMIC) == set()
    assert explorer_violations(ATOMIC) == set()


def _scan(st) -> set:
    """Every record clause on every record of replica state ``st``, as
    (invariant, detail) pairs."""
    found = set()
    for key, rec in st.objects.items():
        for pair in rec.inref.removed:
            if (bad := removal_fault(rec, pair)) is not None:
                found.add(("I4", bad))
        if rec.deleted:
            found.update(deleted_faults(st, rec))
        for attr, outref in rec.attrs.items():
            for e in outref.entries.values():
                if e.target is not None and (bad := entry_fault(st, key, attr, e)) is not None:
                    found.add(("I1", bad))
    return found


def _record_findings(world) -> set:
    """``_scan`` of every replica of ``world``, worded as the explorer
    words a finding."""
    return {f"{invariant} at replica {st.rid}: {bad}" for st in world.states for invariant, bad in _scan(st)}


@pytest.mark.parametrize("fault", ["forward_creation", "backward_retirement", "no_detection",
                                   "mark_deleted_first"])
def test_checker_reports_each_finding_where_it_becomes_true(monkeypatch, fault):
    # What the explorer's record checks rest on: from an empty world, every
    # finding a full scan of a replica state has after an application, and
    # not before it, is among those ``Checker.on_apply`` reports for that
    # application.
    ALL_FAULTS[fault](monkeypatch)
    checker = Checker()
    before: dict = {}
    fresh = 0

    def on_apply(world, st, msg):
        nonlocal fresh
        checker.violations.clear()
        checker.on_apply(world, st, msg)
        now = _scan(st)
        new = now - before.get(st.rid, set())
        assert new <= {(v.invariant, v.detail) for v in checker.violations}, msg
        fresh += len(new)
        before[st.rid] = now

    for i in range(20):
        before.clear()
        trace = random_execution(execution_seed(3, i), TraceConfig(replicas=2, events=60))
        replay(trace, on_apply=on_apply)
    assert fresh


@pytest.mark.parametrize("fault", CHAIN_FAULTS + ["no_detection"])
def test_explorer_checks_of_changed_replica_find_everything(monkeypatch, fault):
    # The explorer checks the record clauses only on the replica state a
    # step changed, and only where the step's payloads apply; a scan of
    # every record of every replica at every visited state must find
    # exactly the same. With ``reclaim_setup`` X starts unreferenced, so
    # only a write after its delete can target it.
    ALL_FAULTS[fault](monkeypatch)
    visit = explore._Search.visit
    findings = 0
    for explore_scope in (
        lambda: explore_catalog(basic_catalog(), 2, replicas=2, setup=basic_setup),
        lambda: explore_catalog(basic_catalog(), 2, replicas=2, setup=reclaim_setup),
        run_fig1,
    ):
        scanned = set()

        def scanning(search, world, stable_seen):
            scanned.update(_record_findings(world))
            return visit(search, world, stable_seen)

        with monkeypatch.context() as m:
            m.setattr(explore._Search, "visit", scanning)
            report = explore_scope()
        found = {v for v in report.violations if " at replica " in v and not v.startswith("refinement")}
        assert found == scanned
        findings += len(found)
    assert findings


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_fig1_catches_delete_without_detection(monkeypatch, mode):
    no_detection(monkeypatch)
    found = [v for v in run_fig1(mode).violations if v.startswith("fig1:")]
    assert len(found) == 1, found
