import itertools

import pytest

from causalrefs.model import OpCall, PreconditionFailure, World
from causalrefs.refs import OutRefEntry


def create(world, replica, key, root=False, attrs=("f",)):
    return world.generate(replica, OpCall("create", {"key": key, "root": root, "attrs": list(attrs)}))


def init(world, replica, source, attr, target):
    return world.generate(replica, OpCall("init", {"source": source, "attr": attr, "target": target}))


def assign(world, replica, dst, dst_attr, src, src_attr):
    return world.generate(replica, OpCall("assign", {
        "dst": dst, "dst_attr": dst_attr, "src": src, "src_attr": src_attr}))


def figure1_initial(replicas=2):
    """Roots A (attr a) and B (attr b), non-root X, A.a -> X, quiesced."""
    w = World(replicas)
    create(w, 0, "A", root=True, attrs=["a"])
    create(w, 0, "B", root=True, attrs=["b"])
    create(w, 0, "X")
    init(w, 0, "A", "a", "X")
    w.quiesce()
    return w


class TestCreate:
    def test_fresh_object_shape(self):
        w = World(1)
        create(w, 0, "X", attrs=[])
        rec = w.states[0].objects["X"]
        assert rec.inref.current() == set()
        assert not rec.deleted

    def test_root_with_attr_starts_null(self):
        w = World(1)
        create(w, 0, "A", root=True, attrs=["a"])
        out = w.states[0].objects["A"].attrs["a"]
        assert out.surviving() == [] and out.is_single_valued()

    def test_same_key_twice_fails(self):
        w = World(1)
        create(w, 0, "X")
        with pytest.raises(PreconditionFailure) as e:
            create(w, 0, "X")
        assert e.value.reason == "KeyInUse"


class TestInit:
    def test_basic_reference(self):
        w = figure1_initial()
        st = w.states[0]
        entries = st.objects["A"].attrs["a"].non_null()
        assert len(entries) == 1 and entries[0].target == "X"
        (ref,) = {e.ref for e in entries}
        assert st.objects["X"].inref.current() == {("A", ref)}

    def test_overwrite_removes_old_targets_listing(self):
        w = figure1_initial()
        create(w, 0, "Y")
        ev = init(w, 0, "A", "a", "Y")
        w.quiesce()
        # Chain carries the listing removal for the overwritten X entry.
        from causalrefs.refs import InRefRemove
        assert any(type(p) is InRefRemove and t == "X" for m in ev.chain for t, p in m.items)
        for st in w.states:
            assert st.objects["X"].inref.current() == set()
            assert len(st.objects["Y"].inref.current()) == 1

    def test_self_reference_allowed(self):
        w = World(1)
        create(w, 0, "A", root=True, attrs=["a"])
        init(w, 0, "A", "a", "A")
        st = w.states[0]
        assert len(st.objects["A"].inref.current()) == 1

    def test_unreachable_target_rejected(self):
        # r1 knows X (created remotely) but holds no reference to it and did
        # not create it, so it cannot mint one out of thin air.
        w = World(2)
        create(w, 0, "X")
        create(w, 1, "B", root=True, attrs=["b"])
        w.quiesce()
        with pytest.raises(PreconditionFailure) as e:
            init(w, 1, "B", "b", "X")
        assert e.value.reason == "UnreachableTarget"

    def test_deleted_and_unknown_targets_rejected(self):
        w = World(1)
        create(w, 0, "A", root=True, attrs=["a"])
        with pytest.raises(PreconditionFailure) as e:
            init(w, 0, "A", "a", "nope")
        assert e.value.reason == "UnknownObject"


class TestAssign:
    def test_multivalued_source_rejected(self):
        from causalrefs.scenarios import fig2_world
        w = fig2_world()
        with pytest.raises(PreconditionFailure) as e:
            assign(w, 0, "A", "a", "B", "b")
        assert e.value.reason == "MultiValued"

    def test_null_source_rejected(self):
        w = World(1)
        create(w, 0, "A", root=True, attrs=["a"])
        create(w, 0, "B", root=True, attrs=["b"])
        with pytest.raises(PreconditionFailure) as e:
            assign(w, 0, "B", "b", "A", "a")
        assert e.value.reason == "NullSource"

    def test_sequential_double_assign_all_delivery_orders(self):
        # Two sequential copies of A.a into B.b, their five messages arriving
        # at replica 1 in every order: causal delivery buffers each message
        # until its causal past and its chain prefix have applied, so the
        # application order is always the causal one, and the second write
        # overwrites the first: one surviving entry, one B-pair listed at X.
        buffering = 0
        for order in itertools.permutations(range(5)):
            w = figure1_initial()
            e1 = assign(w, 0, "B", "b", "A", "a")
            e2 = assign(w, 0, "B", "b", "A", "a")
            st = w.states[1]
            keys = [(m.event_id, m.chain_index) for m in e1.chain + e2.chain]
            # First assign over empty B.b: no removal suffix (2 messages);
            # second assign retires the first entry (3 messages).
            assert len(keys) == 5 and set(st.pending) == set(keys)
            msgs = {key: st.pending.pop(key) for key in keys}
            applied, buffered = [], False
            for i in order:
                st.pending[keys[i]] = msgs[keys[i]]
                drained = list(w.drain(1))
                buffered |= keys[i] not in drained
                applied.extend(drained)
            assert applied == keys and not st.pending
            buffering += buffered
            bb = st.objects["B"].attrs["b"].non_null()
            assert len(bb) == 1 and bb[0].target == "X"
            b_pairs = {p for p in st.objects["X"].inref.current() if p[0] == "B"}
            assert len(b_pairs) == 1
        # Every arrival order but the causal one buffers some message.
        assert buffering == 119

    def test_each_assign_mints_fresh_refid(self):
        w = figure1_initial(replicas=3)
        e1 = assign(w, 1, "B", "b", "A", "a")
        e2 = assign(w, 2, "B", "b", "A", "a")
        refs = set()
        for ev in (e1, e2):
            for m in ev.chain:
                for _t, p in m.items:
                    if hasattr(p, "ref"):
                        refs.add(p.ref)
        assert len(refs) == 2


class TestAssignNull:
    def test_forward_pattern_clears_listing(self):
        w = figure1_initial()
        w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        w.quiesce()
        for st in w.states:
            assert st.objects["X"].inref.current() == set()
            assert st.objects["A"].attrs["a"].non_null() == []

    def test_concurrent_assign_and_null_both_survive(self):
        w = figure1_initial(replicas=2)
        w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        assign(w, 1, "B", "b", "A", "a")
        w.quiesce()
        # A.a was overwritten only by the null (the assign wrote B.b).
        for st in w.states:
            bb = st.objects["B"].attrs["b"].non_null()
            assert len(bb) == 1 and bb[0].target == "X"
            aa = st.objects["A"].attrs["a"].surviving()
            assert len(aa) == 1 and aa[0].target is None

    def test_null_on_already_null_attr(self):
        w = World(1)
        create(w, 0, "A", root=True, attrs=["a"])
        ev = w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        assert len(ev.chain) == 1  # no removal suffix

    def test_concurrent_null_and_assign_to_same_attr_mvr(self):
        # assign_null(A.a) at r0 concurrent with init(A.a, Y) at r1: the MVR
        # keeps both values until a later overwrite.
        w = figure1_initial(replicas=2)
        create(w, 1, "Y")
        w.quiesce()
        w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        init(w, 1, "A", "a", "Y")
        w.quiesce()
        for st in w.states:
            vals = st.objects["A"].attrs["a"].surviving()
            assert len(vals) == 2
            assert {e.target for e in vals} == {None, "Y"}


class TestInvoke:
    def test_single_valued(self):
        w = figure1_initial()
        value = w.execute(0, OpCall("invoke", {"source": "A", "attr": "a"}))
        assert value == "X"

    def test_null_fails(self):
        w = World(1)
        create(w, 0, "A", root=True, attrs=["a"])
        with pytest.raises(PreconditionFailure) as e:
            w.execute(0, OpCall("invoke", {"source": "A", "attr": "a"}))
        assert e.value.reason == "NullReference"


class TestMvrAssign:
    def test_concurrent_writes_merge(self):
        # Two writes over the same empty register: each observes nothing, so
        # applying both (in either order via apply_outref_set) keeps both.
        from causalrefs.refs import OutRefSet, apply_outref_set, ObjectRecord
        w = World(1)
        st = w.states[0]
        st.objects["S"] = ObjectRecord("S", True, ("f",))
        p1 = OutRefSet("f", (OutRefEntry("X", (0, 0), (0, 0)),), frozenset())
        p2 = OutRefSet("f", (OutRefEntry("Y", (1, 0), (1, 0)),), frozenset())
        apply_outref_set(w, st, "S", p1)
        apply_outref_set(w, st, "S", p2)
        assert len(st.objects["S"].attrs["f"].surviving()) == 2

    def test_three_way_concurrent(self):
        from causalrefs.scenarios import run_fig2
        world, problems = run_fig2()
        assert problems == []


class TestDelete:
    def test_not_unreachable_refused(self):
        w = figure1_initial()
        with pytest.raises(PreconditionFailure) as e:
            w.generate(0, OpCall("delete", {"target": "X", "last": []}))
        assert e.value.reason == "NotUnreachable"

    def test_root_refused(self):
        w = figure1_initial()
        with pytest.raises(PreconditionFailure) as e:
            w.generate(0, OpCall("delete", {"target": "A", "last": []}))
        assert e.value.reason == "RootObject"

    def _detect(self, w, target, last):
        w.quiesce()
        w.execute(0, OpCall("may_delete", {"target": target, "last": last}))
        w.quiesce()
        for _ in range(2):
            for r in range(w.n):
                w.generate(r, OpCall("announce"))
            w.quiesce()

    def test_full_lifecycle(self):
        w = figure1_initial()
        w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        self._detect(w, "X", [])
        w.generate(0, OpCall("delete", {"target": "X", "last": []}))
        w.quiesce()
        for st in w.states:
            assert st.objects["X"].deleted
        with pytest.raises(PreconditionFailure) as e:
            w.generate(0, OpCall("delete", {"target": "X", "last": []}))
        assert e.value.reason == "AlreadyDeleted"

    def test_self_cycle_broken_by_last_refs(self):
        w = World(2)
        create(w, 0, "A", root=True, attrs=["a"])
        create(w, 0, "X", attrs=["x"])
        init(w, 0, "A", "a", "X")
        init(w, 0, "X", "x", "X")       # self-cycle
        w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        self._detect(w, "X", "auto")    # ignore-set = the self-cycle ref
        ok = w.execute(0, OpCall("may_delete", {"target": "X", "last": "auto"}))
        assert ok is True
        w.generate(0, OpCall("delete", {"target": "X", "last": "auto"}))
        w.quiesce()
        for st in w.states:
            assert st.objects["X"].deleted

    def test_delete_cascades_to_sole_reference(self):
        # X holds the only reference to Y; deleting X makes Y deletable.
        w = World(2)
        create(w, 0, "A", root=True, attrs=["a"])
        create(w, 0, "X", attrs=["x"])
        create(w, 0, "Y")
        init(w, 0, "A", "a", "X")
        init(w, 0, "X", "x", "Y")
        w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
        self._detect(w, "X", [])
        w.generate(0, OpCall("delete", {"target": "X", "last": []}))
        self._detect(w, "Y", [])
        ok = w.execute(0, OpCall("may_delete", {"target": "Y", "last": []}))
        assert ok is True
