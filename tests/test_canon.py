"""The canonical text of replica objects (``canon.canon_objects``) against a
reference built from scratch with ``json.dumps(sort_keys=True)``
(``canon_reference``), including records whose cached text was built in an
earlier state."""

import pytest

from canon_reference import objects_key, objects_text
from causalrefs import explore
from causalrefs.canon import canon_objects
from causalrefs.explore import basic_catalog, basic_setup, explore_catalog
from causalrefs.harness import TraceConfig, execution_seed, random_execution, replay
from causalrefs.model import ATOMIC, MODES, PURE_CAUSAL, OpCall, World
from causalrefs.scenarios import run_fig1

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
        world, _ = replay(random_execution(execution_seed(7, i), config))
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
        world, _ = replay(random_execution(execution_seed(11, i), config), on_apply=on_apply)
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
