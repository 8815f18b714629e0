import copy
import gc
import hashlib
import json
import weakref

import pytest

from causalrefs import explore, harness
from canon_reference import world_fingerprint
from causalrefs.canon import canon_objects
from causalrefs.explore import (
    BoundExceeded,
    _objects_key,
    basic_catalog,
    basic_setup,
    exhaustive_explore,
    explore_catalog,
    reclaim_setup,
)
from causalrefs.harness import Violation, run_op
from causalrefs.model import ATOMIC, PURE_CAUSAL, OpCall, World
from causalrefs.ops import APPLIERS, ORDER_SENSITIVE
from causalrefs.refs import InRefAdd, InRefRemove, MarkDeleted, ObjectCreate, OutRefEntry, OutRefSet
from causalrefs.stability import ClockAnnounce, QueryRegister

# (states, terminals) of the basic catalog per event bound and mode; a key
# that merged different states or split equal ones would change them. The
# catalog follows every delivery order, so these are the full search's.
CATALOG_COUNTS = {
    3: {PURE_CAUSAL: (7735, 971), ATOMIC: (3704, 961)},
    4: {PURE_CAUSAL: (100527, 9213), ATOMIC: (41955, 8951)},
}

# The catalog at 2 events with 3 replicas, where entries carry orders of
# order-sensitive messages and events their dependencies on other origins:
# (states, terminals) per mode, the sha256 of the sorted terminal keys and
# the results (both equal in both modes).
CATALOG_3_REPLICAS = (
    {PURE_CAUSAL: (10982, 316), ATOMIC: (2692, 298)},
    "af272968c335d668b4a10499e770e942cbeaf55510258486f0e1bc3e5581da42",
    {0: {"err:NotUnreachable", "ok"},
     1: {"err:NotUnreachable", "err:NullSource", "err:UnreachableTarget", "ok"}},
)

# What the full search finds on the catalog at 4 events, one bound past the
# golden digests' 3, in either mode: the sha256 of the sorted terminal keys,
# one per line, and the results of each program position.
CATALOG_4_TERMINAL_KEYS = "c3232b38edc2b11ef37b0af5ff604cc9950b93b9ee2ca429b3e193f1a2275ce3"
CATALOG_4_RESULTS = {
    0: {"err:NotUnreachable", "ok"},
    1: {"err:NotUnreachable", "err:NullSource", "err:UnreachableTarget", "ok"},
    2: {"err:MultiValued", "err:NotUnreachable", "err:NullSource", "err:UnreachableTarget", "ok"},
    3: {"err:MultiValued", "err:NotUnreachable", "err:NullSource", "err:TargetCondemned",
        "err:UnreachableTarget", "ok"},
}


# (states, terminals) per mode, and the sha256 of the sorted terminal keys
# (equal in both modes), of the catalog after ``reclaim_setup``, the scope
# that reaches deleted records: at 5 events two distinct terminal states
# hold X deleted.
RECLAIM_COUNTS = {
    4: ({PURE_CAUSAL: (12941, 1993), ATOMIC: (7642, 1929)},
        "56443abfed83e831f22398e69e54a0e0dc54fa442db74fe9c748fd60d0ab5120"),
    5: ({PURE_CAUSAL: (132133, 15169), ATOMIC: (64949, 14252)},
        "cdb15dbaf8f6dc1eb897ce1922ca3bf23f58f52b8feb46abc1c79540d52eb4c8"),
}


def test_bound_enforced():
    with pytest.raises(BoundExceeded):
        explore_catalog(basic_catalog(), 6)


def test_single_event_program():
    prog = [(0, OpCall("create", {"key": "Z", "root": True, "attrs": ["z"]}))]
    rep = exhaustive_explore(prog, replicas=2)
    # One generation followed by one delivery: a single linear interleaving.
    assert rep.states == 3
    assert rep.terminals == 1
    assert rep.ok


def test_two_concurrent_assigns_all_interleavings():
    prog = [
        (0, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"})),
        (1, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"})),
    ]
    rep = exhaustive_explore(prog, replicas=2, setup=basic_setup)
    assert rep.ok
    assert rep.terminals >= 1
    # In the terminal (quiesced) states both entries survive: the two
    # assigns never observed each other.
    assert rep.results[0] == {"ok"} and rep.results[1] == {"ok"}


def _check_catalog(events):
    reports = []
    for mode, counts in CATALOG_COUNTS[events].items():
        rep = explore_catalog(basic_catalog(), events, replicas=2, mode=mode, setup=basic_setup)
        assert rep.ok
        assert (rep.states, rep.terminals) == counts
        reports.append(rep)
    return reports


def test_catalog_programs_up_to_three_events_clean():
    _check_catalog(3)


@pytest.mark.slow
def test_catalog_programs_up_to_four_events_clean():
    for rep in _check_catalog(4):
        assert _terminal_digest(rep) == CATALOG_4_TERMINAL_KEYS
        assert rep.results == CATALOG_4_RESULTS


def _terminal_digest(rep) -> str:
    return hashlib.sha256("\n".join(sorted(rep.terminal_keys)).encode()).hexdigest()


def test_catalog_two_events_three_replicas():
    counts, digest, results = CATALOG_3_REPLICAS
    for mode, expected in counts.items():
        rep = explore_catalog(basic_catalog(), 2, replicas=3, mode=mode, setup=basic_setup)
        assert rep.ok
        assert (rep.states, rep.terminals) == expected
        assert _terminal_digest(rep) == digest
        assert rep.results == results


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_terminal_checked_once_per_distinct_state(monkeypatch, mode):
    # I5 and I6 are a function of a terminal state's object key, so they
    # run once per distinct key; a finding is still reported at every
    # terminal state that has it.
    checked = []
    check = explore._check_terminal

    def counted(world):
        checked.append(world)
        return check(world)

    monkeypatch.setattr(harness, "listing_mismatches", lambda st: ["one per state"])
    monkeypatch.setattr(explore, "_check_terminal", counted)
    rep = explore_catalog(basic_catalog(), 3, replicas=2, mode=mode, setup=basic_setup)
    assert rep.terminals > len(rep.terminal_keys)
    assert len(checked) == len(rep.terminal_keys)
    assert rep.violations == [Violation("I6", -1, 0, "one per state")] * rep.terminals


def _deleted_terminals(rep):
    """How many distinct terminal states hold X deleted (replica 0's record;
    a terminal state is quiescent, so every replica agrees)."""
    return sum(json.loads(key)[0]["X"]["deleted"] for key in rep.terminal_keys)


def _check_reclaim(events):
    counts, digest = RECLAIM_COUNTS[events]
    for mode, expected in counts.items():
        rep = explore_catalog(basic_catalog(), events, replicas=2, mode=mode, setup=reclaim_setup)
        assert rep.ok
        assert (rep.states, rep.terminals) == expected
        assert _terminal_digest(rep) == digest
        assert "ok" in rep.results[events - 1]
        yield rep


def test_reclaim_setup_four_events():
    for rep in _check_reclaim(4):
        assert _deleted_terminals(rep) == 0


@pytest.mark.slow
def test_reclaim_setup_five_events_reaches_deletion():
    for rep in _check_reclaim(5):
        assert _deleted_terminals(rep) == 2


def test_search_freed_on_return(monkeypatch):
    # Reference counting alone must free a search once its exploration
    # returns: nothing it holds may refer back to it.
    searches = []
    init = explore._Search.__init__

    def tracked(search, *args):
        init(search, *args)
        searches.append(weakref.ref(search))

    monkeypatch.setattr(explore._Search, "__init__", tracked)
    prog = [(0, OpCall("create", {"key": "Z", "root": True, "attrs": ["z"]}))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        explore_catalog(basic_catalog(), 2, replicas=2, setup=basic_setup)
        exhaustive_explore(prog, replicas=2)
        assert len(searches) == 2
        assert [ref() for ref in searches] == [None, None]
    finally:
        if enabled:
            gc.enable()


def _snapshot(world):
    return world_fingerprint(world), [
        (dict(st.pending), dict(st.applied_full), dict(st.progress), _observers(st))
        for st in world.states]


def _observers(st):
    return {key: (q.sup, q.stable, dict(q.snapshot), set(q.confirm)) for key, q in st.queries.items()}


# The catalog of the key-soundness probes: with ``reclaim_setup``, replica
# 1 may reference X before announcing, so announcements from two replicas
# can disagree and reach a third one in either order; and an event may or
# may not depend on another origin's.
PROBE_CATALOG = [
    OpCall("init", {"source": "A", "attr": "a", "target": "X"}),
    OpCall("announce", {}),
]
# With ``basic_setup``.
PROBE_BASIC_CATALOG = [
    OpCall("delete", {"target": "X", "last": []}),
    OpCall("assign_null", {"source": "A", "attr": "a"}),
    OpCall("announce", {}),
]


def _written_parts(msg) -> dict:
    """Per record key ``msg``'s payloads change, the parts they write: the
    attribute names of its register writes, and "listing" for a change to
    its listing."""
    written: dict = {}
    for target, p in msg.items:
        parts = written.setdefault(target, set())
        if isinstance(p, OutRefSet):
            parts.add(p.attr)
        elif isinstance(p, (InRefAdd, InRefRemove)):
            parts.add("listing")
    return written


# The scopes of ``test_successor_keys_and_shared_states`` per replica
# count. From three replicas on, mark-deleted payloads and announcements
# with reports extend an entry's order of order-sensitive messages.
SUCCESSOR_SCOPES = {2: (basic_catalog(), basic_setup), 3: (PROBE_CATALOG, reclaim_setup)}


@pytest.mark.parametrize("mode,replicas", [
    pytest.param(mode, replicas, id=mode if replicas == 2 else f"{replicas}-replicas-{mode}")
    for replicas in SUCCESSOR_SCOPES for mode in (PURE_CAUSAL, ATOMIC)])
def test_successor_keys_and_shared_states(monkeypatch, mode, replicas):
    # Each successor's derived key must equal the key computed from scratch
    # on a fully copied world that took the same step, and a delivery
    # successor, which shares the unchanged replica states, the object
    # records and the event log, must leave its parent as it was. A
    # delivery successor whose replica state its generation level already
    # built shares that state, which must equal a fresh build; one built
    # copies only the records its message changes, and of each only the
    # registers and listing it writes. At every generation attempt, built
    # or not, the outcome table's prediction is checked. The from-scratch
    # key takes each replica's order of order-sensitive messages from the
    # parent's entry, extended here by a delivered order-sensitive message.
    generate, deliver = explore._Search.generate, explore._Search.deliver
    parents = []
    table = {"hit_seen": 0, "hit_fresh": 0, "built": 0, "reused": 0, "ordered": 0}

    def orders(search, sig):
        return [search.values[entry][2] for entry in sig[1]]

    def checked_generate(search, world, k, sig, replica, op, slot):
        full = world.clone()
        expected, _added = run_op(full, replica, op)
        key = search.outcome_key(world, sig, replica, slot)
        known = key in search.outcomes
        child = generate(search, world, k, sig, replica, op, slot)
        outcome = search.outcomes[key]
        assert outcome[0] == expected
        predicted = explore._state_key(k + 1, *search.successor(world, sig, replica, outcome))
        assert predicted == explore._state_key(k + 1, *search.signature(full, orders(search, sig)))
        if child is not None:
            assert child[1] == search.signature(child[0], orders(search, sig))
            assert child[2] == tuple(full.enabled(r) for r in range(full.n))
        if known:
            table["hit_seen" if child is None else "hit_fresh"] += 1
        return child

    def checked_deliver(search, world, k, sig, replica, mkey, enabled):
        full = world.clone()
        full.apply_message(replica, *mkey)
        msg = world.states[replica].pending[mkey]
        new_orders = orders(search, sig)
        if world.n > 2 and explore._order_sensitive(msg):
            new_orders[replica] += (mkey[0][0],)
            table["ordered"] += 1
        new_sig = search.delivered(world, sig, replica, mkey)
        derived = explore._state_key(k, *new_sig)
        assert derived == explore._state_key(k, *search.signature(full, new_orders))
        before = _snapshot(world)
        written = _written_parts(msg)
        reused = (replica, new_sig[1][replica]) in search.levels[-1]
        child = deliver(search, world, k, sig, replica, mkey, enabled)
        if child is not None:
            assert _snapshot(world) == before
            parents.append((world, before))
            assert _snapshot(child[0]) == _snapshot(full)
            assert child[2] == tuple(full.enabled(r) for r in range(full.n))
            for r, st in enumerate(child[0].states):
                assert (st is world.states[r]) == (r != replica)
            assert child[0].events is world.events
            table["reused" if reused else "built"] += 1
            if not reused:
                old = world.states[replica].objects
                for key, rec in child[0].states[replica].objects.items():
                    assert (rec is old.get(key)) == (key not in written), key
                    if key in written and key in old:
                        parts = written[key]
                        for attr, out in rec.attrs.items():
                            assert (out is old[key].attrs[attr]) == (attr not in parts), (key, attr)
                        assert (rec.inref is old[key].inref) == ("listing" not in parts), key
        return child

    monkeypatch.setattr(explore._Search, "generate", checked_generate)
    monkeypatch.setattr(explore._Search, "deliver", checked_deliver)
    catalog, setup = SUCCESSOR_SCOPES[replicas]
    rep = explore_catalog(catalog, 2, replicas=replicas, mode=mode, setup=setup)
    assert rep.ok and parents
    assert table["hit_seen"] and table["hit_fresh"]
    assert table["built"] and table["reused"]
    assert bool(table["ordered"]) == (replicas > 2)
    # Every subtree has been explored by now.
    for world, before in parents:
        assert _snapshot(world) == before


def _behind_key(world):
    """Everything a later step can read of ``world``: each replica's
    records, pending messages, detector observers, pledges and counters,
    and, per event and replica that has yet to apply it, the dependencies
    that replica waits for (not its own, nor the event's origin's, which
    arrive in sequence order anyway)."""
    replicas = tuple(
        (canon_objects(st), tuple(sorted(st.pending)),
         tuple(sorted(((t, tuple(sorted(last))), tuple(sorted(q.snapshot.items(), key=repr)),
                       repr(q.sup), tuple(sorted(q.confirm)), q.stable)
                      for (t, last), q in st.queries.items())),
         tuple(sorted(st.condemned)), tuple(sorted(st.created_here)), st.next_ref, st.next_dot)
        for st in world.states)
    waits = tuple(sorted(
        (eid, r, tuple(sorted((p, c) for p, c in ev.deps.items() if p not in (r, eid[0]))))
        for eid, ev in world.events.items() for r in range(world.n) if r != eid[0]))
    return replicas, waits


def _differing_keys(monkeypatch, catalog, events, replicas, setup):
    """Explore with every successor built, those whose key was already
    seen too, and count the keys behind which two built worlds differ
    (``_behind_key``). Each delivery successor the search returns must
    equal the fresh build."""
    generate, deliver = explore._Search.generate, explore._Search.deliver
    first = {}
    differing = set()

    def note(key, world):
        if first.setdefault(key, _behind_key(world)) != _behind_key(world):
            differing.add(key)

    def probing_generate(search, world, k, sig, replica, op, slot):
        full = world.clone()
        run_op(full, replica, op)
        child = generate(search, world, k, sig, replica, op, slot)
        outcome = search.outcomes[search.outcome_key(world, sig, replica, slot)]
        note(explore._state_key(k + 1, *search.successor(world, sig, replica, outcome)), full)
        return child

    def probing_deliver(search, world, k, sig, replica, mkey, enabled):
        full = world.clone()
        full.apply_message(replica, *mkey)
        note(explore._state_key(k, *search.delivered(world, sig, replica, mkey)), full)
        child = deliver(search, world, k, sig, replica, mkey, enabled)
        # A successor sharing a replica state its level built is a fresh
        # build too.
        assert child is None or _behind_key(child[0]) == _behind_key(full)
        return child

    with monkeypatch.context() as m:
        m.setattr(explore._Search, "generate", probing_generate)
        m.setattr(explore._Search, "deliver", probing_deliver)
        rep = explore_catalog(catalog, events, replicas=replicas, setup=setup)
    assert rep.ok and len(first) == rep.states - 1
    return len(differing)


def test_equal_keys_hold_equal_states(monkeypatch):
    # The key is sound: every world reached under an already seen key
    # equals the first one reached under it, in everything a later step
    # can read. At 3 replicas this needs the order in which a replica
    # applied announcements from different origins (48 keys differ without
    # it here) and each event's dependencies on other origins (180).
    assert _differing_keys(monkeypatch, PROBE_CATALOG, 3, 3, reclaim_setup) == 0


@pytest.mark.slow
@pytest.mark.parametrize("replicas,events", [(3, 3), (2, 4)])
def test_equal_keys_hold_equal_states_basic_setup(monkeypatch, replicas, events):
    assert _differing_keys(monkeypatch, PROBE_BASIC_CATALOG, events, replicas, basic_setup) == 0


def _payload_world():
    """``basic_setup``, quiesced, with a query on X registered at replica 0."""
    world = World(2)
    basic_setup(world)
    run_op(world, 0, OpCall("may_delete", {"target": "X", "last": []}))
    world.quiesce()
    return world


def _payloads(world):
    """One (target, payload) of each kind in ``APPLIERS``, each applicable
    at replica 0 of ``_payload_world``."""
    held = world.states[0].objects["A"].attrs["a"].non_null()[0].ref
    ref = dot = (9, 0)
    clock = ((0, 9),)
    return [
        ("Z", ObjectCreate(False, ("z",))),
        ("X", InRefAdd("B", ref)),
        ("X", InRefRemove("A", held)),
        ("B", OutRefSet("b", OutRefEntry("X", ref, dot), frozenset())),
        ("A", OutRefSet("a", OutRefEntry(None, None, (9, 1)),
                        frozenset(world.states[0].objects["A"].attrs["a"].entries))),
        ("X", MarkDeleted(frozenset())),
        (None, QueryRegister("B", frozenset())),
        (None, ClockAnnounce(1, clock, ((("X", frozenset()), True),))),
    ]


def _replica_snapshot(world):
    return world_fingerprint(world), [
        (dict(st.ref_counts), set(st.condemned), _observers(st)) for st in world.states]


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("change_copy", [False, True])
def test_clone_independent_for_every_payload_kind(partial, change_copy):
    # A copy shares its object records with the original; applying any
    # payload to either world afterwards must leave the other as it was.
    kinds = set()
    for target, payload in _payloads(_payload_world()):
        original = _payload_world()
        copy = original.clone(0 if partial else None)
        changed, other = (copy, original) if change_copy else (original, copy)
        before = _replica_snapshot(other)
        APPLIERS[type(payload)](changed, changed.states[0], target, payload)
        assert _replica_snapshot(changed) != before, payload
        assert _replica_snapshot(other) == before, payload
        kinds.add(type(payload))
    assert kinds == set(APPLIERS)


def test_order_insensitive_payloads_commute():
    # The state key records the order of the payloads ``ORDER_SENSITIVE``
    # says True for, and no other. So every payload type must be listed,
    # and a payload it says False for must commute with every other one.
    # A second mark-deleted and a second announcement with reports, from
    # another announcer, show that those two do not commute.
    assert set(ORDER_SENSITIVE) == set(APPLIERS)
    world = _payload_world()
    held = world.states[0].objects["A"].attrs["a"].non_null()[0].ref
    payloads = _payloads(world) + [
        ("X", MarkDeleted(frozenset({held}))),
        (None, ClockAnnounce(0, ((0, 9), (1, 3)), ((("X", frozenset()), False),))),
    ]
    sensitive = 0
    for i, first in enumerate(payloads):
        for second in payloads[i + 1:]:
            finals = []
            for order in ((first, second), (second, first)):
                world = _payload_world()
                for target, payload in order:
                    APPLIERS[type(payload)](world, world.states[0], target, payload)
                finals.append(_replica_snapshot(world))
            if all(ORDER_SENSITIVE[type(p)](p) for _target, p in (first, second)):
                sensitive += finals[0] != finals[1]
            else:
                assert finals[0] == finals[1], (first, second)
    assert sensitive == 2


def _fields(p) -> tuple:
    """The values of ``p``'s fields, in constructor order."""
    return tuple(getattr(p, name) for name in p.__match_args__)


def test_payloads_hash_and_equal_only_their_own_type():
    # ``_Search._intern`` keys events by their chains, so every payload
    # hashes and equals a rebuilt copy of itself, and none equals a payload
    # of another type or a plain tuple holding the same values (as a
    # NamedTuple payload would).
    payloads = {type(p): p for _target, p in _payloads(_payload_world())}
    assert set(payloads) == set(APPLIERS)
    for kind, p in payloads.items():
        rebuilt = kind(*copy.deepcopy(_fields(p)))
        assert rebuilt is not p and rebuilt == p and hash(rebuilt) == hash(p)
        assert p != _fields(p)
        for other, q in payloads.items():
            if other is not kind:
                assert p != q
                if len(_fields(q)) == len(_fields(p)):
                    assert other(*_fields(p)) != p


@pytest.mark.parametrize("prog", [
    [(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))],
    [
        (0, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"})),
        (1, OpCall("assign_null", {"source": "A", "attr": "a"})),
    ],
    [
        (1, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"})),
        (0, OpCall("assign_null", {"source": "A", "attr": "a"})),
        (0, OpCall("announce", {})),
    ],
    # Whether each assign sees the null decides its result: three terminal
    # states.
    [
        (0, OpCall("assign_null", {"source": "A", "attr": "a"})),
        (1, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"})),
        (0, OpCall("assign", {"dst": "A", "dst_attr": "a", "src": "B", "src_attr": "b"})),
    ],
    # may_delete and delete fail or register a query depending on whether
    # Z has reached replica 1.
    [
        (0, OpCall("create", {"key": "Z", "root": False, "attrs": ["z"]})),
        (1, OpCall("may_delete", {"target": "Z", "last": []})),
        (1, OpCall("delete", {"target": "Z", "last": []})),
    ],
])
def test_atomic_mode_reachability_refinement(monkeypatch, prog):
    # Every object state reachable under atomic composition must also be
    # reachable under pure-causal composition, and the explorer must end in
    # exactly the terminal states, record exactly the results, and visit
    # exactly the record states of each replica that the walk below finds.
    walked = {}
    for mode in (PURE_CAUSAL, ATOMIC):
        reachable, terminal, results, records = _walk(prog, mode)
        rep, visited = _explore_records(monkeypatch, prog, mode)
        assert rep.ok
        assert terminal and terminal == rep.terminal_keys
        assert results == rep.results
        assert records == visited
        walked[mode] = reachable, terminal
    (pure, pure_terminal), (atomic, atomic_terminal) = walked[PURE_CAUSAL], walked[ATOMIC]
    assert atomic <= pure
    assert atomic_terminal == pure_terminal


def test_walk_three_replicas_atomic(monkeypatch):
    # Three concurrent writers to one register: which writes survive
    # depends on the order of deliveries at different replicas, so an
    # explorer that dropped a delivery order it needs would miss terminal
    # states (following only the first enabled delivery reaches 4 of the
    # 5). Pure-causal mode is left out: without deduplication its walk
    # passes 200,000 states.
    prog = [
        (0, OpCall("init", {"source": "A", "attr": "a", "target": "X"})),
        (1, OpCall("assign_null", {"source": "A", "attr": "a"})),
        (2, OpCall("init", {"source": "A", "attr": "a", "target": "X"})),
    ]
    _reachable, terminal, results, records = _walk(prog, ATOMIC, replicas=3)
    rep, visited = _explore_records(monkeypatch, prog, ATOMIC, replicas=3)
    assert rep.ok
    assert len(terminal) == 5 and terminal == rep.terminal_keys
    assert results == rep.results
    assert records == visited


def _record_states(world):
    """Each replica's object records as (replica, canonical text) pairs."""
    return {(st.rid, canon_objects(st)) for st in world.states}


def _explore_records(monkeypatch, prog, mode, replicas=2):
    """The explorer's report on ``prog`` after ``basic_setup``, and the
    record states of each replica over every state it visits."""
    visited = set()
    visit = explore._Search.visit

    def collecting(search, world, stable_seen):
        visited.update(_record_states(world))
        return visit(search, world, stable_seen)

    with monkeypatch.context() as m:
        m.setattr(explore._Search, "visit", collecting)
        rep = exhaustive_explore(prog, replicas=replicas, setup=basic_setup, mode=mode)
    return rep, visited


def _walk(prog, mode, replicas=2):
    """Object keys of every reachable and every terminal state of ``prog``
    after ``basic_setup``, the results of each program index, and the
    record states of each replica over every reachable state. Each
    interleaving is followed to its end with no deduplication and no
    reduction of delivery orders, so nothing here rests on the explorer's
    state key, its outcome table or the delivery orders it skips."""
    root = World(replicas, mode)
    basic_setup(root)
    root.quiesce()
    reachable, terminal, results, records = set(), set(), {}, set()

    def rec(world, k):
        key = _objects_key(world)
        reachable.add(key)
        records.update(_record_states(world))
        deliveries = [(st.rid, mkey) for st in world.states for mkey in sorted(st.pending)
                      if world.deliverable(st.rid, st.pending[mkey])]
        if k == len(prog) and not deliveries:
            terminal.add(key)
        if k < len(prog):
            w2 = world.clone()
            result, _added = run_op(w2, *prog[k])
            results.setdefault(k, set()).add(result)
            rec(w2, k + 1)
        for replica, mkey in deliveries:
            w2 = world.clone()
            w2.apply_message(replica, *mkey)
            rec(w2, k)

    rec(root, 0)
    return reachable, terminal, results, records


def test_fig2_program_every_terminal_state_has_three_entries():
    def setup(world):
        for key, root, attrs in (
            ("A", True, ["a"]), ("B", True, ["b"]), ("C", True, ["c"]),
            ("X", False, ["x"]), ("Y", False, ["y"]),
        ):
            world.generate(0, OpCall("create", {"key": key, "root": root, "attrs": attrs}))
        world.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
        world.generate(0, OpCall("init", {"source": "C", "attr": "c", "target": "Y"}))

    prog = [
        (0, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"})),
        (1, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"})),
        (2, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "C", "src_attr": "c"})),
    ]
    rep = exhaustive_explore(prog, replicas=3, setup=setup)
    assert rep.ok
    assert rep.results == {0: {"ok"}, 1: {"ok"}, 2: {"ok"}}
    # Interleavings where a later assign already observed an earlier one
    # overwrite instead of merging; the fully-concurrent interleaving (the
    # scenario preset's schedule) must be among the terminals with all
    # three entries surviving.
    import json
    shapes = set()
    for terminal in rep.terminal_keys:
        b_attrs = json.loads(terminal)[0]["B"]["attrs"]["b"]
        shapes.add(tuple(sorted(e[0] for e in b_attrs["entries"])))
    assert ("X", "X", "Y") in shapes
