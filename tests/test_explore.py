import pytest

from causalrefs import explore
from causalrefs.canon import world_fingerprint
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

# (states, terminals) of the basic catalog per event bound and mode; a key
# that merged different states or split equal ones would change them.
CATALOG_COUNTS = {
    3: {PURE_CAUSAL: (7735, 971), ATOMIC: (3704, 961)},
    4: {PURE_CAUSAL: (100527, 9213), ATOMIC: (41955, 8951)},
}


def test_bound_enforced():
    prog = [(0, OpCall("announce", {}))] * 6
    with pytest.raises(BoundExceeded):
        exhaustive_explore(prog, bound=5)
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
    # successor, which shares the unchanged replica states, must leave its
    # parent as it was.
    generate, deliver = explore._Search.generate, explore._Search.deliver
    parents = []

    def checked_generate(search, world, k, sig, replica, op):
        result, child = generate(search, world, k, sig, replica, op)
        if child is not None:
            assert child[1] == search.signature(child[0])
        return result, child

    def checked_deliver(search, world, k, sig, replica, mkey):
        full = world.clone()
        full.apply_message(replica, *mkey)
        derived = explore._state_key(k, *search.delivered(world, sig, replica, mkey))
        assert derived == explore._state_key(k, *search.signature(full))
        before = _snapshot(world)
        child = deliver(search, world, k, sig, replica, mkey)
        if child is not None:
            assert _snapshot(world) == before
            parents.append((world, before))
        return child

    monkeypatch.setattr(explore._Search, "generate", checked_generate)
    monkeypatch.setattr(explore._Search, "deliver", checked_deliver)
    rep = explore_catalog(basic_catalog(), 2, replicas=2, mode=mode, setup=basic_setup)
    assert rep.ok and parents
    # Every subtree has been explored by now.
    for world, before in parents:
        assert _snapshot(world) == before


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
])
def test_atomic_mode_reachability_refinement(prog):
    # Every object state reachable under atomic composition must also be
    # reachable under pure-causal composition, and the explorer must end in
    # exactly the terminal states the walk below finds.
    walked = {}
    for mode in (PURE_CAUSAL, ATOMIC):
        reachable, terminal = _walk(prog, mode)
        rep = exhaustive_explore(prog, replicas=2, setup=basic_setup, mode=mode)
        assert rep.ok
        assert terminal and terminal == rep.terminal_keys
        walked[mode] = reachable, terminal
    (pure, pure_terminal), (atomic, atomic_terminal) = walked[PURE_CAUSAL], walked[ATOMIC]
    assert atomic <= pure
    assert atomic_terminal == pure_terminal


def _walk(prog, mode):
    """Object keys of every reachable and every terminal state of ``prog``
    after ``basic_setup``. Each interleaving is followed to its end with no
    deduplication, so nothing here rests on the explorer's state key."""
    root = World(2, mode)
    basic_setup(root)
    root.quiesce()
    reachable, terminal = set(), set()

    def rec(world, k):
        key = _objects_key(world)
        reachable.add(key)
        deliveries = [(st.rid, mkey) for st in world.states for mkey in sorted(st.pending)
                      if world.deliverable(st.rid, st.pending[mkey])]
        if k == len(prog) and not deliveries:
            terminal.add(key)
        if k < len(prog):
            w2 = world.clone()
            run_op(w2, *prog[k])
            rec(w2, k + 1)
        for replica, mkey in deliveries:
            w2 = world.clone()
            w2.apply_message(replica, *mkey)
            rec(w2, k)

    rec(root, 0)
    return reachable, terminal


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
