"""Scenario presets: the two canonical object-graph situations.

``fig2`` builds the reconciliation showcase: two replicas concurrently copy
A.a into B.b while a third copies C.c into B.b; after quiescence B.b holds
all three entries side by side (multi-value register semantics) and the
targets' reference listings record every pair.

``fig1`` is the dangling-reference race: one replica copies the only
reference to X while another retires its own reference and tries to delete
X. Explored exhaustively, the delete is refused in every interleaving where
the copy succeeded, and no reachable state contains a reference to a
deleted object.
"""

from __future__ import annotations

from .explore import ExploreReport, exhaustive_explore
from .model import OpCall, PURE_CAUSAL, World


def _create(world: World, replica: int, key: str, root: bool, attrs: list) -> None:
    world.generate(replica, OpCall("create", {"key": key, "root": root, "attrs": attrs}))


def fig2_world(mode: str = PURE_CAUSAL) -> World:
    """Run the fig2 program: setup, quiesce, three concurrent assigns, quiesce."""
    world = World(3, mode)
    _create(world, 0, "A", True, ["a"])
    _create(world, 0, "B", True, ["b"])
    _create(world, 0, "C", True, ["c"])
    _create(world, 0, "X", False, ["x"])
    _create(world, 0, "Y", False, ["y"])
    world.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
    world.generate(0, OpCall("init", {"source": "C", "attr": "c", "target": "Y"}))
    world.quiesce()
    world.generate(0, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"}))
    world.generate(1, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"}))
    world.generate(2, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "C", "src_attr": "c"}))
    world.quiesce()
    return world


def fig2_problems(world: World) -> list:
    """Check the asserted state shape at every replica; empty list = pass."""
    problems = []
    for st in world.states:
        r = st.rid
        bb = st.objects["B"].attrs["b"].surviving()
        targets = sorted(e.target for e in bb)
        if targets != ["X", "X", "Y"]:
            problems.append(f"replica {r}: B.b holds {targets}, expected two X and one Y")
        if len(st.objects["X"].inref.current()) != 3:
            problems.append(f"replica {r}: listing of X has {len(st.objects['X'].inref.current())} pairs, expected 3")
        if len(st.objects["Y"].inref.current()) != 2:
            problems.append(f"replica {r}: listing of Y has {len(st.objects['Y'].inref.current())} pairs, expected 2")
        for key, attr in (("A", "a"), ("C", "c")):
            out = st.objects[key].attrs[attr]
            if not out.is_single_valued() or not out.non_null():
                problems.append(f"replica {r}: {key}.{attr} not single-valued non-NULL")
    return problems


def run_fig2(mode: str = PURE_CAUSAL):
    world = fig2_world(mode)
    return world, fig2_problems(world)


# ---------------------------------------------------------------------------
# fig1: the delete/copy race, explored exhaustively.

def fig1_setup(world: World) -> None:
    _create(world, 0, "A", True, ["a"])
    _create(world, 0, "B", True, ["b"])
    _create(world, 0, "X", False, ["x"])
    world.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))


FIG1_ASSIGN = 0   # program index of the copying assign
FIG1_DELETE = 8   # program index of the delete attempt


def fig1_program() -> list:
    announce = OpCall("announce", {})
    return [
        (1, OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"})),
        (0, OpCall("assign_null", {"source": "A", "attr": "a"})),
        (0, OpCall("may_delete", {"target": "X", "last": []})),
        (0, announce), (1, announce),
        (0, announce), (1, announce),
        (0, OpCall("may_delete", {"target": "X", "last": []})),
        (0, OpCall("delete", {"target": "X", "last": []})),
    ]


def run_fig1(mode: str = PURE_CAUSAL) -> ExploreReport:
    """Explore every interleaving of the race. The report's violations are
    empty iff the delete was refused on every path and no reachable state
    dangles (I1, checked per state by the explorer). The assign runs first,
    on the quiesced setup, so it succeeds on every path."""
    report = exhaustive_explore(fig1_program(), replicas=2, mode=mode, setup=fig1_setup)
    if "ok" in report.results[FIG1_DELETE]:
        report.violations.append("fig1: delete of X succeeded although the concurrent assign exists")
    return report
