import pytest

from causalrefs import explore
from canon_reference import world_fingerprint
from causalrefs.explore import (
    BoundExceeded,
    _objects_key,
    basic_catalog,
    basic_setup,
    exhaustive_explore,
    explore_catalog,
)
from causalrefs.harness import run_op
from causalrefs.model import ATOMIC, PURE_CAUSAL, OpCall, World
from causalrefs.ops import APPLIERS
from causalrefs.refs import InRefAdd, InRefRemove, MarkDeleted, ObjectCreate, OutRefEntry, OutRefSet
from causalrefs.stability import ClockAnnounce, QueryRegister, Report

# (states, terminals) of the basic catalog per event bound and mode; a key
# that merged different states or split equal ones would change them.
CATALOG_COUNTS = {
    3: {PURE_CAUSAL: (7735, 971), ATOMIC: (3704, 961)},
    4: {PURE_CAUSAL: (100527, 9213), ATOMIC: (41955, 8951)},
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
    for mode, counts in CATALOG_COUNTS[events].items():
        rep = explore_catalog(basic_catalog(), events, replicas=2, mode=mode, setup=basic_setup)
        assert rep.ok
        assert (rep.states, rep.terminals) == counts


def test_catalog_programs_up_to_three_events_clean():
    _check_catalog(3)


@pytest.mark.slow
def test_catalog_programs_up_to_four_events_clean():
    _check_catalog(4)


def _snapshot(world):
    return world_fingerprint(world), [dict(st.pending) for st in world.states]


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_successor_keys_and_shared_states(monkeypatch, mode):
    # Each successor's derived key must equal the key computed from scratch
    # on a fully copied world that took the same step, and a delivery
    # successor, which shares the unchanged replica states and object
    # records, must leave its parent as it was. At every generation
    # attempt, built or not, the outcome table's prediction is checked.
    generate, deliver = explore._Search.generate, explore._Search.deliver
    parents = []
    table = {"hit_seen": 0, "hit_fresh": 0}

    def checked_generate(search, world, k, sig, replica, op, slot):
        full = world.clone()
        expected, _spawned = run_op(full, replica, op)
        key = search.outcome_key(world, sig, replica, slot)
        known = key in search.outcomes
        child = generate(search, world, k, sig, replica, op, slot)
        outcome = search.outcomes[key]
        assert outcome[0] == expected
        predicted = explore._state_key(k + 1, *search.successor(world, sig, replica, outcome))
        assert predicted == explore._state_key(k + 1, *search.signature(full))
        if child is not None:
            assert child[1] == search.signature(child[0])
        if known:
            table["hit_seen" if child is None else "hit_fresh"] += 1
        return child

    def checked_deliver(search, world, k, sig, replica, mkey):
        full = world.clone()
        full.apply_message(replica, *mkey)
        derived = explore._state_key(k, *search.delivered(world, sig, replica, mkey))
        assert derived == explore._state_key(k, *search.signature(full))
        before = _snapshot(world)
        targets = {t for t, _p in world.states[replica].pending[mkey].items}
        child = deliver(search, world, k, sig, replica, mkey)
        if child is not None:
            assert _snapshot(world) == before
            parents.append((world, before))
            for r, st in enumerate(child[0].states):
                assert (st is world.states[r]) == (r != replica)
            old = world.states[replica].objects
            for key, rec in child[0].states[replica].objects.items():
                assert (rec is old.get(key)) == (key not in targets), key
        return child

    monkeypatch.setattr(explore._Search, "generate", checked_generate)
    monkeypatch.setattr(explore._Search, "deliver", checked_deliver)
    rep = explore_catalog(basic_catalog(), 2, replicas=2, mode=mode, setup=basic_setup)
    assert rep.ok and parents
    assert table["hit_seen"] and table["hit_fresh"]
    # Every subtree has been explored by now.
    for world, before in parents:
        assert _snapshot(world) == before


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
        ("Z", ObjectCreate("Z", False, ("z",))),
        ("X", InRefAdd("B", ref)),
        ("X", InRefRemove("A", held)),
        ("B", OutRefSet("b", (OutRefEntry("X", ref, dot),), frozenset())),
        ("A", OutRefSet("a", (), frozenset(world.states[0].objects["A"].attrs["a"].entries))),
        ("X", MarkDeleted(frozenset())),
        (None, QueryRegister("B", frozenset())),
        (None, ClockAnnounce(1, clock, (Report("X", frozenset(), True, clock),))),
    ]


def _replica_snapshot(world):
    return world_fingerprint(world), [
        (dict(st.ref_counts), {k: (q.sup, q.stable, dict(q.snapshot)) for k, q in st.queries.items()})
        for st in world.states]


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
def test_atomic_mode_reachability_refinement(prog):
    # Every object state reachable under atomic composition must also be
    # reachable under pure-causal composition, and the explorer must end in
    # exactly the terminal states, and record exactly the results, that the
    # walk below finds.
    walked = {}
    for mode in (PURE_CAUSAL, ATOMIC):
        reachable, terminal, results = _walk(prog, mode)
        rep = exhaustive_explore(prog, replicas=2, setup=basic_setup, mode=mode)
        assert rep.ok
        assert terminal and terminal == rep.terminal_keys
        assert results == rep.results
        walked[mode] = reachable, terminal
    (pure, pure_terminal), (atomic, atomic_terminal) = walked[PURE_CAUSAL], walked[ATOMIC]
    assert atomic <= pure
    assert atomic_terminal == pure_terminal


def test_walk_three_replicas_atomic():
    # Three concurrent writers to one register: which writes survive
    # depends on the order of deliveries at different replicas, so an
    # explorer that skipped any enabled delivery would miss terminal states
    # (following only the first one reaches 4 of the 5). Pure-causal mode
    # is left out: without deduplication its walk passes 200,000 states.
    prog = [
        (0, OpCall("init", {"source": "A", "attr": "a", "target": "X"})),
        (1, OpCall("assign_null", {"source": "A", "attr": "a"})),
        (2, OpCall("init", {"source": "A", "attr": "a", "target": "X"})),
    ]
    _reachable, terminal, results = _walk(prog, ATOMIC, replicas=3)
    rep = exhaustive_explore(prog, replicas=3, setup=basic_setup, mode=ATOMIC)
    assert rep.ok
    assert len(terminal) == 5 and terminal == rep.terminal_keys
    assert results == rep.results


def _walk(prog, mode, replicas=2):
    """Object keys of every reachable and every terminal state of ``prog``
    after ``basic_setup``, and the results of each program index. Each
    interleaving is followed to its end with no deduplication, so nothing
    here rests on the explorer's state key or its outcome table."""
    root = World(replicas, mode)
    basic_setup(root)
    root.quiesce()
    reachable, terminal, results = set(), set(), {}

    def rec(world, k):
        key = _objects_key(world)
        reachable.add(key)
        deliveries = [(st.rid, mkey) for st in world.states for mkey in sorted(st.pending)
                      if world.deliverable(st.rid, st.pending[mkey])]
        if k == len(prog) and not deliveries:
            terminal.add(key)
        if k < len(prog):
            w2 = world.clone()
            result, _spawned = run_op(w2, *prog[k])
            results.setdefault(k, set()).add(result)
            rec(w2, k + 1)
        for replica, mkey in deliveries:
            w2 = world.clone()
            w2.apply_message(replica, *mkey)
            rec(w2, k)

    rec(root, 0)
    return reachable, terminal, results


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
