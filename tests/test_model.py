import pytest

from causalrefs import explore
from causalrefs.explore import basic_catalog, basic_setup, explore_catalog
from causalrefs.harness import TraceConfig, execution_seed, random_execution, replay
from causalrefs.model import (
    ATOMIC,
    MODES,
    DuplicateDelivery,
    OpCall,
    PreconditionFailure,
    SimulatorError,
    World,
    vc_leq,
    vc_merge,
)
from canon_reference import world_fingerprint
from causalrefs.refs import InRefAdd, InRefRemove, OutRefSet
from conftest import ProbedChecker


def create(world, replica, key, root=False, attrs=("f",)):
    return world.generate(replica, OpCall("create", {"key": key, "root": root, "attrs": list(attrs)}))


class TestVectorClocks:
    def test_leq_and_absent_entries(self):
        assert vc_leq({}, {0: 1})
        assert vc_leq({0: 1}, {0: 1, 1: 2})
        assert not vc_leq({0: 2}, {0: 1})
        assert vc_leq({0: 2}, {0: 2, 1: 1})

    def test_merge_pointwise_max(self):
        assert vc_merge({0: 1, 1: 3}, {0: 2, 2: 1}) == {0: 2, 1: 3, 2: 1}


class TestGeneration:
    def test_create_in_fresh_world(self):
        w = World(2)
        ev = create(w, 0, "A", root=True)
        assert len(ev.chain) == 1
        assert "A" in w.states[0].objects
        assert "A" not in w.states[1].objects

    def test_unknown_operation_kind_is_simulator_error(self):
        w = World(1)
        with pytest.raises(SimulatorError):
            w.generate(0, OpCall("frobnicate", {}))

    def test_failed_precondition_leaves_no_event(self):
        w = World(2)
        create(w, 0, "A")
        with pytest.raises(PreconditionFailure) as e:
            create(w, 0, "A")
        assert e.value.reason == "KeyInUse"
        assert len(w.events) == 1

    def test_assign_chain_shape(self):
        # The chain must run backward: listing add on the target first, the
        # outref write second, retired-entry listing removals last.
        w = World(1)
        create(w, 0, "A", root=True, attrs=["a"])
        create(w, 0, "B", root=True, attrs=["b"])
        create(w, 0, "X")
        create(w, 0, "Y")
        w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        w.generate(0, OpCall("init", {"source": "B", "attr": "b", "target": "Y"}))
        ev = w.generate(0, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"}))
        assert all(len(m.items) == 1 for m in ev.chain)
        (add,), (write,), (removal,) = [m.items for m in ev.chain]
        assert [type(p) for _t, p in (add, write, removal)] == [InRefAdd, OutRefSet, InRefRemove]
        assert add[0] == "X"
        assert write[0] == "B"
        assert removal[0] == "Y"

    def test_invoke_multivalued_fails(self):
        from causalrefs.scenarios import fig2_world
        w = fig2_world()
        with pytest.raises(PreconditionFailure) as e:
            w.execute(0, OpCall("invoke", {"source": "B", "attr": "b"}))
        assert e.value.reason == "MultiValued"


class TestDelivery:
    def _one_chain(self, w):
        create(w, 0, "A", root=True, attrs=["a"])
        create(w, 0, "X")
        return w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))

    def test_chain_order_enforced(self):
        w = World(2)
        ev = self._one_chain(w)
        assert not w.deliverable(1, ev.chain[1])

    def test_empty_deps_chain_head_deliverable(self):
        w = World(2)
        ev = create(w, 0, "A")
        assert w.deliverable(1, ev.chain[0])

    def test_deliver_buffers_out_of_order(self):
        w = World(2)
        ev = self._one_chain(w)
        # The init depends on both creates; applying it first is refused and
        # it stays buffered.
        st = w.states[1]
        with pytest.raises(SimulatorError):
            w.apply_message(1, ev.id, 0)
        assert (ev.id, 0) in st.pending

    def test_duplicate_delivery_raises(self):
        w = World(2)
        ev = create(w, 0, "A")
        w.apply_message(1, ev.id, 0)
        with pytest.raises(DuplicateDelivery):
            w.apply_message(1, ev.id, 0)

    def test_quiesce_delivers_everything_and_is_idempotent(self):
        w = World(3)
        self._one_chain(w)
        w.quiesce()
        assert all(not st.pending for st in w.states)
        before = world_fingerprint(w)
        w.quiesce()
        assert world_fingerprint(w) == before

    def test_quiesce_empty_world_noop(self):
        w = World(2)
        w.quiesce()
        assert world_fingerprint(w) == world_fingerprint(World(2))


class TestWaitsFor:
    def test_nothing_for_own_event_or_chain_head(self):
        w = World(3)
        ev = create(w, 1, "A")
        assert w.waits_for(1, ev.id) is None
        assert w.waits_for(2, ev.id) is None

    def test_lower_origin_first(self):
        # Replica 0 has applied two events of replica 1 and one of replica
        # 2 when it generates; replica 3 has applied only the first.
        w = World(4)
        a1, a2, b = create(w, 1, "A1"), create(w, 1, "A2"), create(w, 2, "B")
        list(w.drain(0))
        ev = create(w, 0, "C")
        assert w.waits_for(0, ev.id) is None
        w.apply_message(3, a1.id, 0)
        assert w.waits_for(3, ev.id) == a2.id
        w.apply_message(3, a2.id, 0)
        assert w.waits_for(3, ev.id) == b.id
        w.apply_message(3, b.id, 0)
        assert w.waits_for(3, ev.id) is None

    @pytest.mark.parametrize("mode", MODES)
    def test_deliverable_agrees_for_next_in_chain(self, mode):
        # At every application of a replay, each pending message that is
        # next in its chain is deliverable exactly when its event waits for
        # nothing.
        seen = set()

        def on_apply(world, st, msg):
            for s in world.states:
                for (eid, idx), pending in s.pending.items():
                    if idx == s.progress.get(eid, 0):
                        ready = world.deliverable(s.rid, pending)
                        assert ready == (world.waits_for(s.rid, eid) is None)
                        seen.add(ready)

        for i in range(5):
            trace = random_execution(execution_seed(3, i), TraceConfig(3, 20, mode))
            replay(trace, checker=ProbedChecker(on_apply))
        assert seen == {True, False}


class TestAtomicMode:
    def test_chain_fused_into_single_message(self):
        w = World(2, mode=ATOMIC)
        create(w, 0, "A", root=True, attrs=["a"])
        create(w, 0, "X")
        ev = w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        assert len(ev.chain) == 1
        assert [type(p) for _t, p in ev.chain[0].items] == [InRefAdd, OutRefSet]

    def test_same_final_state_as_pure_causal(self):
        def program(w):
            create(w, 0, "A", root=True, attrs=["a"])
            create(w, 0, "B", root=True, attrs=["b"])
            create(w, 0, "X")
            w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
            w.generate(0, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"}))
            w.quiesce()

        wp, wa = World(2), World(2, mode=ATOMIC)
        program(wp)
        program(wa)
        from causalrefs.canon import canon_objects
        assert [canon_objects(st) for st in wp.states] == [canon_objects(st) for st in wa.states]


class TestDeterminism:
    def test_same_program_twice_bit_identical(self):
        def build():
            w = World(3)
            create(w, 0, "A", root=True, attrs=["a", "g"])
            create(w, 1, "B", root=True, attrs=["b"])
            w.quiesce()
            create(w, 2, "X")
            w.generate(2, OpCall("init", {"source": "B", "attr": "b", "target": "X"}))
            w.quiesce()
            return world_fingerprint(w)

        assert build() == build()


def assert_clock_derived(world, st):
    """At most one event per origin is partly applied at ``st``, the one
    after the origin's fully applied prefix, and ``st.clock()`` equals a
    recount over the event log: per origin, the highest sequence number
    with any effector applied, i.e. originated here or with its first
    message no longer pending here."""
    origins = [r for r, _seq in st.progress]
    assert len(origins) == len(set(origins)), st.progress
    for r, seq in st.progress:
        assert seq == st.applied_full.get(r, 0) + 1, (r, seq)
    recount: dict = {}
    for r, seq in world.events:
        if r == st.rid or ((r, seq), 0) not in st.pending:
            recount[r] = max(recount.get(r, 0), seq)
    assert st.clock() == recount


class TestClock:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("replicas,events,executions", [(3, 20, 20), (5, 320, 2)])
    def test_derived_after_every_application(self, mode, replicas, events, executions):
        applications = 0

        def on_apply(world, st, msg):
            nonlocal applications
            applications += 1
            assert_clock_derived(world, st)

        for i in range(executions):
            trace = random_execution(execution_seed(3, i), TraceConfig(replicas, events, mode))
            replay(trace, checker=ProbedChecker(on_apply))
        assert applications

    @pytest.mark.parametrize("mode", MODES)
    def test_derived_at_every_catalog_state(self, monkeypatch, mode):
        visit = explore._Search.visit
        states = 0

        def checked_visit(search, world, stable_seen):
            nonlocal states
            states += 1
            for st in world.states:
                assert_clock_derived(world, st)
            return visit(search, world, stable_seen)

        monkeypatch.setattr(explore._Search, "visit", checked_visit)
        rep = explore_catalog(basic_catalog(), 2, replicas=2, mode=mode, setup=basic_setup)
        assert states == rep.states
