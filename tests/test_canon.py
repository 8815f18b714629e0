"""The canonical text of replica objects (``canon.canon_objects``) against a
reference built from scratch with ``json.dumps(sort_keys=True)``
(``canon_reference``), including records whose cached text was built in an
earlier state; and the structural comparison ``canon.same_objects`` against
comparing that text."""

from itertools import combinations

import pytest

from canon_reference import objects_key, objects_text
from causalrefs import explore
from causalrefs.canon import canon_objects, same_objects
from causalrefs.explore import basic_catalog, basic_setup, explore_catalog, reclaim_setup
from causalrefs.harness import TraceConfig, execution_seed, random_execution, replay
from causalrefs.model import ATOMIC, MODES, PURE_CAUSAL, OpCall, ReplicaState, World
from causalrefs.refs import ObjectRecord, OutRef, OutRefEntry
from causalrefs.scenarios import run_fig1
from conftest import ProbedChecker

EXPLORATIONS = {
    f"catalog3-{mode}": (lambda mode=mode: explore_catalog(basic_catalog(), 3, mode=mode,
                                                           setup=basic_setup))
    for mode in MODES
} | {f"fig1-{mode}": (lambda mode=mode: run_fig1(mode)) for mode in MODES}


def assert_replicas_match(world):
    for st in world.states:
        assert canon_objects(st) == objects_text(st), f"replica {st.rid}"


@pytest.fixture(scope="module", params=sorted(EXPLORATIONS))
def explored(request):
    """One exploration with every terminal state checked as the search keys
    it. Returns the report and the (world, key) pair of each terminal."""
    terminals = []
    original = explore._objects_key

    def checked_key(world):
        key = original(world)
        assert key == objects_key(world)
        assert_replicas_match(world)
        terminals.append((world, key))
        return key

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explore, "_objects_key", checked_key)
        report = EXPLORATIONS[request.param]()
    return report, terminals


def test_terminal_texts_match_reference(explored):
    report, terminals = explored
    assert report.ok
    assert len(terminals) == report.terminals > 0
    assert {key for _world, key in terminals} == report.terminal_keys


def test_terminal_keys_hold_after_search(explored):
    # Every terminal world is shared with the states searched after it;
    # none of them may have changed it, or left a record's text stale.
    _report, terminals = explored
    for world, key in terminals:
        assert objects_key(world) == key
        assert explore._objects_key(world) == key


def test_quiesced_campaign_worlds_match_reference():
    # 2 replicas and 60 events reach successful deletes and concurrent writes.
    config = TraceConfig(replicas=2, events=60)
    deleted = multivalued = 0
    for i in range(60):
        world = replay(random_execution(execution_seed(7, i), config)).world
        world.quiesce()
        assert_replicas_match(world)
        for rec in world.states[0].objects.values():
            deleted += rec.deleted
            multivalued += sum(len(out.entries) > 1 for out in rec.attrs.values())
    assert deleted and multivalued


@pytest.mark.parametrize("mode", MODES)
def test_text_after_every_application(mode):
    applications = []

    def on_apply(world, st, msg):
        applications.append(msg)
        assert canon_objects(st) == objects_text(st)

    config = TraceConfig(replicas=2, events=60, mode=mode)
    deleted = 0
    for i in range(100):
        world = replay(random_execution(execution_seed(11, i), config), checker=ProbedChecker(on_apply)).world
        world.quiesce()
        deleted += sum(rec.deleted for rec in world.states[0].objects.values())
    assert len(applications) > 5000 and deleted


def _created(mode=PURE_CAUSAL):
    world = World(1, mode)
    world.generate(0, OpCall("create", {"key": "A", "root": True, "attrs": ["a"]}))
    world.generate(0, OpCall("create", {"key": "X", "root": False, "attrs": []}))
    world.quiesce()
    return world


def test_writable_drops_text_of_owned_record():
    world = _created()
    st = world.states[0]
    canon_objects(st)
    rec = st.objects["A"]
    assert rec.canon is not None
    assert st.writable("A") is rec and rec.canon is None
    world.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
    world.quiesce()
    assert_replicas_match(world)


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_copied_record_starts_without_text(mode):
    world = _created(mode)
    text = canon_objects(world.states[0])
    copy = world.clone()
    shared = copy.states[0].objects["A"]
    assert shared is world.states[0].objects["A"] and shared.canon is not None
    rec = copy.states[0].writable("A")
    assert rec is not shared and rec.canon is None and shared.canon is not None
    copy.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
    copy.quiesce()
    assert_replicas_match(copy)
    assert canon_objects(world.states[0]) == text == objects_text(world.states[0])


def same_as_text(a, b) -> bool:
    """``same_objects(a, b)``, asserted to agree with comparing the text."""
    same = same_objects(a, b)
    assert same == (canon_objects(a) == canon_objects(b)), (a.rid, b.rid)
    assert same_objects(b, a) == same
    return same


@pytest.mark.parametrize("mode", MODES)
def test_same_objects_agrees_with_text_on_campaign_worlds(mode):
    # Every replica pair after every replayed step (where replicas differ
    # often) and once the world is quiesced (where they must all agree).
    outcomes = {True: 0, False: 0}

    def compare_all(world, *_step):
        for a, b in combinations(world.states, 2):
            outcomes[same_as_text(a, b)] += 1

    for replicas, events, traces in ((3, 20, 60), (2, 60, 20), (5, 320, 2)):
        config = TraceConfig(replicas=replicas, events=events, mode=mode)
        for i in range(traces):
            trace = random_execution(execution_seed(3, i), config)
            world = replay(trace, checker=ProbedChecker(on_step=compare_all)).world
            world.quiesce()
            for a, b in combinations(world.states, 2):
                assert same_as_text(a, b)
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("setup", [basic_setup, reclaim_setup])
def test_same_objects_agrees_with_text_on_explorer_terminals(monkeypatch, mode, setup):
    # Within a terminal state every pair agrees; replica 0 of consecutive
    # terminal states gives pairs that differ.
    terminals = []
    terminal = explore._Search.terminal

    def recording(search, world):
        terminals.append(world)
        terminal(search, world)

    monkeypatch.setattr(explore._Search, "terminal", recording)
    report = explore_catalog(basic_catalog(), 2, mode=mode, setup=setup)
    assert report.ok and len(terminals) == report.terminals
    for world in terminals:
        for a, b in combinations(world.states, 2):
            assert same_as_text(a, b)
    outcomes = [same_as_text(w.states[0], v.states[0]) for w, v in zip(terminals, terminals[1:])]
    assert True in outcomes and False in outcomes


def _populated() -> ReplicaState:
    """A replica state in which every field the text encodes is set, built
    afresh on each call, so two calls share no record."""
    st = ReplicaState(0)
    a = ObjectRecord("A", True, ("a", "b"))
    a.attrs["a"].entries[(0, 5)] = OutRefEntry("X", (0, 1), (0, 5))
    a.attrs["a"].retired |= {(0, 3), (0, 4)}
    a.attrs["b"].entries[(1, 1)] = OutRefEntry(None, None, (1, 1))
    x = ObjectRecord("X", False, ("x",))
    x.inref.added |= {("A", (0, 1)), ("A", (0, 2))}
    x.inref.removed.add(("A", (0, 2)))
    d = ObjectRecord("D", False, ("d",))
    d.deleted = True
    d.last_refs_at_delete = frozenset({(1, 7)})
    d.inref.added.add(("D", (1, 7)))
    st.objects = {"A": a, "X": x, "D": d}
    return st


def _set_entries(key, attr, *entries):
    def change(st):
        st.objects[key].attrs[attr].entries = {e.write_dot: e for e in entries}
    return change


# Each changes exactly one field of ``_populated()`` that the text encodes.
ONE_FIELD_CHANGES = {
    "extra key": lambda st: st.objects.__setitem__("Y", ObjectRecord("Y", False, ())),
    "missing key": lambda st: st.objects.pop("D"),
    "root": lambda st: setattr(st.objects["X"], "root", True),
    "deleted": lambda st: setattr(st.objects["X"], "deleted", True),
    "ignore-set": lambda st: setattr(st.objects["D"], "last_refs_at_delete", frozenset({(1, 8)})),
    "listing added": lambda st: st.objects["X"].inref.added.add(("D", (1, 9))),
    "listing removed": lambda st: st.objects["X"].inref.removed.add(("A", (0, 1))),
    "attribute names": lambda st: st.objects["X"].attrs.__setitem__("y", OutRef()),
    "entry target": _set_entries("A", "a", OutRefEntry("D", (0, 1), (0, 5))),
    "entry ref": _set_entries("A", "a", OutRefEntry("X", (0, 9), (0, 5))),
    "entry write dot": _set_entries("A", "a", OutRefEntry("X", (0, 1), (0, 6))),
    "entry to NULL": _set_entries("A", "a", OutRefEntry(None, None, (0, 5))),
    "extra entry": _set_entries("A", "b", OutRefEntry(None, None, (1, 1)), OutRefEntry(None, None, (1, 2))),
    "no entry": _set_entries("A", "b"),
    "retired": lambda st: st.objects["A"].attrs["a"].retired.add((0, 2)),
}


def test_same_objects_on_equal_unshared_states():
    a, b = _populated(), _populated()
    assert all(a.objects[k] is not b.objects[k] for k in a.objects)
    assert same_as_text(a, b)


@pytest.mark.parametrize("change", sorted(ONE_FIELD_CHANGES))
def test_same_objects_sees_each_field(change):
    a, b = _populated(), _populated()
    ONE_FIELD_CHANGES[change](b)
    assert not same_as_text(a, b)
