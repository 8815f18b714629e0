import pytest

from causalrefs.harness import (
    Checker,
    GenStep,
    TraceConfig,
    execution_seed,
    random_execution,
    refinement_fault,
    replay,
    run_op,
)
from causalrefs.model import (
    ATOMIC,
    PURE_CAUSAL,
    EffectorMessage,
    OpCall,
    PreconditionFailure,
    SimulatorError,
    World,
)
from causalrefs.refs import InRefAdd, OutRefEntry
from causalrefs.stability import (
    ClockAnnounce,
    QueryObserver,
    apply_clock_announce,
    oracle_stable,
    stably_subset,
)
from conftest import ProbedChecker


def create(world, replica, key, root=False, attrs=("f",)):
    return world.generate(replica, OpCall("create", {"key": key, "root": root, "attrs": list(attrs)}))


def announce_round(world):
    for r in range(world.n):
        world.generate(r, OpCall("announce"))
    world.quiesce()


def unreferenced_world(replicas=2):
    w = World(replicas)
    create(w, 0, "A", root=True, attrs=["a"])
    create(w, 0, "X")
    w.quiesce()
    return w


class TestObserver:
    def test_two_phase_happy_path(self):
        q = QueryObserver(2)
        q.report(0, True, {0: 1})
        q.report(1, True, {0: 2, 1: 1})
        assert q.sup == {0: 2, 1: 1} and not q.stable
        # The report that completed the snapshot does not itself confirm.
        assert q.confirm == set()
        q.report(0, True, {0: 2, 1: 1})
        assert q.confirm == {0} and not q.stable
        q.report(1, True, {0: 3, 1: 1})
        assert q.stable

    def test_false_report_resets(self):
        q = QueryObserver(2)
        q.report(0, True, {0: 1})
        q.report(1, True, {1: 1})
        q.report(0, False, {0: 2})
        assert q.sup is None and not q.stable

    def test_confirmation_needs_dominating_clock(self):
        q = QueryObserver(2)
        q.report(0, True, {0: 5})
        q.report(1, True, {1: 5})
        q.report(0, True, {0: 6})  # does not dominate {0:5, 1:5}
        q.report(1, True, {1: 6})
        assert not q.stable

    def test_stable_is_terminal(self):
        q = QueryObserver(1)
        q.report(0, True, {0: 1})
        q.report(0, True, {0: 2})
        assert q.stable
        q.report(0, False, {0: 3})
        assert q.stable


class TestDetection:
    def test_two_rounds_suffice(self):
        w = unreferenced_world()
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.quiesce()
        announce_round(w)
        assert not stably_subset(w, 0, "X", frozenset())
        announce_round(w)
        for r in range(w.n):
            assert stably_subset(w, r, "X", frozenset())

    def test_no_announcements_never_stable(self):
        w = unreferenced_world()
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.quiesce()
        assert not stably_subset(w, 0, "X", frozenset())

    def test_unknown_object_rejected(self):
        w = World(1)
        with pytest.raises(PreconditionFailure):
            stably_subset(w, 0, "nope", frozenset())
        with pytest.raises(PreconditionFailure):
            w.execute(0, OpCall("may_delete", {"target": "nope", "last": []}))

    def test_root_never_deletable_and_no_query_raised(self):
        w = unreferenced_world()
        result, added = run_op(w, 0, OpCall("may_delete", {"target": "A", "last": []}))
        assert result == "false" and added is None
        assert not w.states[0].queries

    def test_in_flight_reference_blocks_detection(self):
        # The race: r1 copies the reference to X while r0 retires its own
        # and probes deletability. Detection must refuse while r1's copy is
        # outstanding anywhere.
        w = World(2)
        create(w, 0, "A", root=True, attrs=["a"])
        create(w, 0, "B", root=True, attrs=["b"])
        create(w, 0, "X")
        w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        w.quiesce()
        w.generate(1, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"}))
        w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.quiesce()
        for _ in range(3):
            announce_round(w)
        # B.b -> X exists everywhere now; the condition can never hold.
        assert not stably_subset(w, 0, "X", frozenset())
        assert not oracle_stable(w, "X", frozenset())

    def test_pledge_blocks_new_references(self):
        w = unreferenced_world()
        # Make X referenced so it stays mintable, then retire the reference.
        w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.quiesce()
        announce_round(w)
        # r0 reported the condition true, so it is pledged: even though it
        # created X locally, it may no longer mint a reference to it.
        assert "X" in w.states[0].condemned
        with pytest.raises(PreconditionFailure) as e:
            w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        assert e.value.reason == "TargetCondemned"


class TestOracle:
    def test_unreferenced_object_stable(self):
        w = unreferenced_world()
        announce_round(w)  # lets r0 pledge for no queries; X never queried
        # X was created at r0 and is not condemned, so r0 could still mint
        # a reference: the oracle must refuse.
        assert not oracle_stable(w, "X", frozenset())
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.quiesce()
        announce_round(w)
        assert oracle_stable(w, "X", frozenset())

    def test_in_flight_add_blocks(self):
        w = unreferenced_world()
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.quiesce()
        announce_round(w)
        assert oracle_stable(w, "X", frozenset())
        # An undelivered init chain holding an inref-add to X flips it, but
        # r0 is pledged so the generator refuses before that can happen.
        with pytest.raises(PreconditionFailure):
            w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        assert oracle_stable(w, "X", frozenset())

    def stable_x(self):
        w = unreferenced_world()
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.quiesce()
        announce_round(w)
        assert oracle_stable(w, "X", frozenset())
        return w

    @pytest.mark.parametrize("atomic", [False, True])
    def test_buffered_add_blocks(self, atomic):
        # Injected by hand: in a reachable state the add is already in its
        # origin's listing, which the oracle rejects first, so only a built
        # state shows that the buffered-message scan still runs.
        w = self.stable_x()
        add = InRefAdd("A", (0, 99))
        # An atomic message carries its whole chain; the add is not first.
        items = (("A", InRefAdd("B", (0, 98))), ("X", add)) if atomic else (("X", add),)
        msg = EffectorMessage((0, 99), 0, items)
        w.states[1].pending[((0, 99), 0)] = msg
        assert not oracle_stable(w, "X", frozenset())
        assert oracle_stable(w, "X", frozenset({(0, 99)}))

    def test_counted_entry_blocks(self):
        # Injected by hand, counted in ref_counts but absent from the listing:
        # reachable states list every entry's pair (I1), which the oracle
        # rejects first, so only a built state shows the entry scan runs.
        w = self.stable_x()
        st = w.states[1]
        st.objects["A"].attrs["a"].entries[(1, 99)] = OutRefEntry("X", (1, 99), (1, 99))
        st.ref_counts["X"] = 1
        assert not oracle_stable(w, "X", frozenset())
        assert oracle_stable(w, "X", frozenset({(1, 99)}))

    def test_surviving_entry_blocks(self):
        w = unreferenced_world()
        w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        w.quiesce()
        assert not oracle_stable(w, "X", frozenset())


class TestLiveness:
    def test_exactly_two_rounds(self):
        # Criterion: one full round is not enough, two always are.
        for replicas in (2, 3, 4):
            w = unreferenced_world(replicas)
            w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
            w.quiesce()
            announce_round(w)
            assert not any(stably_subset(w, r, "X", frozenset()) for r in range(replicas))
            announce_round(w)
            assert all(stably_subset(w, r, "X", frozenset()) for r in range(replicas))


class TestRefinementFault:
    def detected(self):
        """X and Y queried, X then referenced from the root A, and two
        announce rounds: every replica holds the query for Y as stable."""
        w = unreferenced_world()
        create(w, 0, "Y")
        for target in ("X", "Y"):
            w.execute(0, OpCall("may_delete", {"target": target, "last": []}))
        w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        w.quiesce()
        announce_round(w)
        announce_round(w)
        for st in w.states:
            assert st.queries[("Y", frozenset())].stable
            assert not st.queries[("X", frozenset())].stable
        return w

    def test_unreferenced_stable_query_not_reported(self):
        w = self.detected()
        assert refinement_fault(w, ("Y", frozenset())) is None

    def test_referenced_stable_query_reported(self):
        w = self.detected()
        # Built by hand: X is referenced, so the detector never says this.
        w.states[1].queries[("X", frozenset())].stable = True
        assert refinement_fault(w, ("X", frozenset())) == "stably X but oracle disagrees"

    def test_checker_judges_every_stable_query_of_the_step_replica(self):
        # The step probes Y, but X, also held as stable at its replica, is
        # what the oracle disputes: the step check reads the replica's
        # queries, not the step's arguments.
        w = self.detected()
        w.states[1].queries[("X", frozenset())].stable = True
        checker = Checker()
        probe = OpCall("may_delete", {"target": "Y", "last": "auto"})
        checker.step = 7
        checker.on_step(w, 7, GenStep("g7", 1, probe, "false"))
        checker.on_step(w, 8, GenStep("g8", 0, probe, "true"))
        assert checker.violations == []
        checker.on_step(w, 9, GenStep("g9", 1, probe, "true"))
        assert [(v.invariant, v.step, v.replica, v.detail) for v in checker.violations] == [
            ("refinement", 9, 1, "stably X but oracle disagrees")]


class TestAnnounce:
    def test_report_for_unregistered_query_is_simulator_error(self):
        w = unreferenced_world()
        clock = ((0, 2),)
        p = ClockAnnounce(0, clock, ((("X", frozenset()), True),))
        with pytest.raises(SimulatorError):
            apply_clock_announce(w, w.states[1], None, p)

    def test_reports_are_a_function_of_the_query_set(self):
        # The explorer keys a generation's outcome by the events a replica
        # applied, which do not fix the order its queries were registered
        # in; the announcement must not depend on that order either.
        w = unreferenced_world()
        create(w, 0, "Y")
        w.quiesce()
        for replica, order in ((0, "XY"), (1, "YX")):
            for target in order:
                w.execute(replica, OpCall("may_delete", {"target": target, "last": []}))
        w.quiesce()
        assert [list(st.queries) for st in w.states] == [
            [("X", frozenset()), ("Y", frozenset())], [("Y", frozenset()), ("X", frozenset())]]
        a, b = (w.generate(r, OpCall("announce")).chain[0].items[0][1].reports for r in (0, 1))
        assert len(a) == 2 and a == b and hash(a) == hash(b)


def full_scan_oracle(world, target, last):
    """The oracle as first written: scans every entry at every replica and
    every buffered message, with no shortcut through ``ref_counts``."""
    for st in world.states:
        rec = st.objects.get(target)
        if rec is not None and not {r for _s, r in rec.inref.current()} <= last:
            return False
    for st in world.states:
        for obj in st.objects.values():
            for out in obj.attrs.values():
                for e in out.entries.values():
                    if e.target == target and e.ref not in last:
                        return False
    for st in world.states:
        for key in sorted(st.pending):
            msg = st.pending[key]
            for tgt, p in msg.items:
                if isinstance(p, InRefAdd) and tgt == target and p.ref not in last:
                    return False
    for st in world.states:
        rec = st.objects.get(target)
        if rec is None or rec.deleted or rec.root:
            continue
        derivable = target in st.created_here or st.ref_counts.get(target, 0) > 0
        if derivable and target not in st.condemned:
            return False
    return True


def assert_ref_counts_exact(world, st, msg):
    """``ref_counts`` must equal a recount of surviving non-NULL entries."""
    recount = {}
    for obj in st.objects.values():
        for out in obj.attrs.values():
            for e in out.entries.values():
                if e.target is not None:
                    recount[e.target] = recount.get(e.target, 0) + 1
    assert all(c >= 0 for c in st.ref_counts.values())
    assert {k: c for k, c in st.ref_counts.items() if c} == recount


ORACLE_CASES = (
    [(PURE_CAUSAL, 3, 20, i) for i in range(40)]
    + [(ATOMIC, 3, 20, i) for i in range(40)]
    + [(PURE_CAUSAL, 4, 80, i) for i in range(6)]
    + [(ATOMIC, 4, 80, i) for i in range(6)]
    + [(PURE_CAUSAL, 5, 320, i) for i in range(2)]
    + [(ATOMIC, 5, 320, i) for i in range(1)]
)


class TestOracleFastPath:
    def test_matches_full_scan_at_every_step(self):
        outcomes = {True: 0, False: 0}

        def on_step(world, _i, _step):
            queries = {k for st in world.states for k in st.queries}
            for target, last in sorted(queries, key=lambda k: (k[0], sorted(k[1]))):
                fast = oracle_stable(world, target, last)
                assert fast == full_scan_oracle(world, target, last), (target, last)
                outcomes[fast] += 1

        for mode, replicas, events, i in ORACLE_CASES:
            trace = random_execution(execution_seed(41, i), TraceConfig(replicas, events, mode))
            world = replay(trace, checker=ProbedChecker(assert_ref_counts_exact, on_step)).world
            world.quiesce()
            on_step(world, None, None)
        # Both answers must occur, or the comparison shows nothing.
        assert outcomes[True] > 0 and outcomes[False] > 0, outcomes
