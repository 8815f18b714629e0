"""Scenario presets: the two canonical object-graph situations.

``fig2`` builds the reconciliation showcase: two replicas concurrently copy
A.a into B.b while a third copies C.c into B.b; after quiescence B.b holds
all three entries side by side (multi-value register semantics) and the
targets' reference listings record every pair.

``fig1`` is the dangling-reference race: one replica copies the only
reference to X while another retires its own reference and tries to delete
X. Explored exhaustively, the delete is refused in every interleaving where
the copy succeeded, and no reachable state contains a reference to a
deleted object. ``fig1_world`` runs its program one way, for rendering.
"""

from __future__ import annotations

from .explore import ExploreReport, basic_setup, exhaustive_explore
from .harness import Violation, run_op
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
        targets = sorted(e.target for e in st.objects["B"].attrs["b"].surviving())
        if targets != ["X", "X", "Y"]:
            problems.append(f"replica {r}: B.b holds {targets}, expected two X and one Y")
        for key, expected in (("X", 3), ("Y", 2)):
            listed = len(st.objects[key].inref.current())
            if listed != expected:
                problems.append(f"replica {r}: listing of {key} has {listed} pairs, expected {expected}")
        for key, attr in (("A", "a"), ("C", "c")):
            out = st.objects[key].attrs[attr]
            if not out.is_single_valued() or not out.non_null():
                problems.append(f"replica {r}: {key}.{attr} not single-valued non-NULL")
    return problems


def run_fig2(mode: str = PURE_CAUSAL):
    world = fig2_world(mode)
    return world, fig2_problems(world)


# ---------------------------------------------------------------------------
# fig1: the delete/copy race, explored exhaustively, from ``basic_setup``:
# roots A and B, X referenced only from A.a.

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


def fig1_world(mode: str = PURE_CAUSAL) -> World:
    """Run the fig1 program one way: setup, quiesce, then each operation
    followed by quiescence (a failed precondition is a result)."""
    world = World(2, mode)
    basic_setup(world)
    world.quiesce()
    for replica, op in fig1_program():
        run_op(world, replica, op)
        world.quiesce()
    return world


def run_fig1(mode: str = PURE_CAUSAL) -> ExploreReport:
    """Explore every interleaving of the race. The report's violations are
    empty iff the delete was refused on every path and no reachable state
    dangles (I1, checked per state by the explorer); a delete that
    succeeded somewhere is a "fig1" finding at the delete's replica. The
    assign runs first, on the quiesced setup, so it succeeds on every
    path."""
    report = exhaustive_explore(fig1_program(), replicas=2, mode=mode, setup=basic_setup)
    if "ok" in report.results[FIG1_DELETE]:
        report.violations.append(Violation("fig1", -1, fig1_program()[FIG1_DELETE][0],
                                           "delete of X succeeded although the concurrent assign exists"))
    return report
