"""Exhaustive small-scope exploration: a brute-force oracle complementing
the randomized harness.

Given a short program (a fixed sequence of operations, each pinned to a
replica), the explorer covers every causally-valid interleaving of
generation and effector delivery, up to the order of steps that commute
(below), with the invariant clauses the harness defines: the record
clauses on every replica state it builds, refinement and persistence at
every state it visits, and convergence at every terminal state. Its report
is an ``InvariantReport``: each finding is a ``harness.Violation``, made by
the same judgement the harness runs, with step -1, since a state the
search reaches has no one trace to number its steps.

Reached states are deduplicated by a sound structural key: the program
prefix executed, the events generated so far, and each replica's delivery
entry. At two replicas the entry is the replica's delivery progress, and
everything else is a function of these. From three replicas on, a replica
applies two remote origins' messages in an order its progress does not
fix, and a third replica waits on an event's dependencies on other
origins; so there an entry also lists, in application order, the origins
of the remote messages whose effect depends on that order
(``_order_sensitive``), and an event is keyed with its dependencies on
other origins. Each event is interned to a small int when it is generated,
and so is each tuple of events and each delivery entry, so a key is a flat
tuple of small ints. A delivery successor's key is derived from its
parent's and checked before the successor is built, so reaching a state
again costs no copy; the new entry is a function of the old entry and the
message, kept under them, so each entry transition is worked out once. A
generation successor's key comes from a table of generation outcomes,
keyed by what the generator can read, once the same op has run on an equal
replica view; it too is built only if it is fresh.

Successors share with their parent what they do not change: a delivery
copies only the replica state it touches, and a copied replica state shares
its object records until it writes one (``ReplicaState.writable``).
Deliveries leave the event log as it is, so below one generation successor
a replica state is a function of its delivery entry: each generation level
keeps the replica states it built by (replica, entry), and a delivery
successor reaching a kept entry shares that state and its enabled
deliveries instead of building them, as SPIN's collapse mode (Holzmann
1997) stores each local state once. A level's table is dropped when the
search returns from its generation successor. The explorer never mutates
a world after handing it on.

The record clauses (I1, I3's local half, I4) are checked where payloads
apply, by ``harness.Checker.on_apply`` on each replica state the search
builds (``_check_state``): after a delivery on the delivered message, after
a generation on the new event's chain at the origin's final state (a chain
applies there at once, so the states between its payloads are never
reached), and at the root on every setup event at every replica. A record
changes only through payloads and each payload's check covers every clause
it can falsify, so every finding at a reached state is reported where the
step that made it true was built; a shared state was checked when built.
The terminal checks (I5, I6: ``harness.quiescent_faults``, as the
quiescence tail of a ``harness.Run`` runs them) are a function of a
terminal state's object key, so they run once per distinct key, and their
findings are reported at every terminal state with that key.

``exhaustive_explore`` runs one program; ``explore_catalog`` branches over
a whole operation catalog at every generation point, covering every program
up to a length bound in one shared search. Both are the one search
``_Search.run``, offered different generations.

The search follows a persistent set of steps (Godefroid 1996), not every
enabled one. A delivery at replica r changes only ``states[r]`` and a
generator reads only its own replica, so steps at different replicas
commute. Where every generation choice is at one replica r (every step of
``exhaustive_explore``), the search follows the generation and only the
deliveries at r. Elsewhere (the catalog, and every state once every
generation has run) it follows every enabled step: cutting deliveries
there saves states but not time, since a state no longer reached by a
cheap delivery is then built by a generation. This reaches every terminal
state, every view a replica can have when one of its generations runs, and
every record state of each replica, so the terminal keys, the results, the
event-log checks and the record checks find what the full search finds.
The refinement and persistence checks (``_check_stability``) read every
replica at once, and they run only at the states visited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import canon_objects
from .harness import (
    Checker,
    ConfigInvalid,
    InvariantReport,
    Violation,
    check_replicas,
    log_faults,
    quiescent_faults,
    refinement_fault,
    run_op,
)
from .model import OpCall, PURE_CAUSAL, SimulatorError, World
from .ops import ORDER_SENSITIVE
from .stability import oracle_stable

DEFAULT_BOUND = 5


class BoundExceeded(Exception):
    pass


@dataclass
class ExploreReport(InvariantReport):
    """An exploration's findings, as ``harness.Violation``s with step -1,
    reported again at each state they are reached at, and what it covered."""

    states: int = 0
    terminals: int = 0
    # program index -> set of observed result strings across interleavings
    results: dict = field(default_factory=dict)
    # canonical object-state keys of all terminal states
    terminal_keys: set = field(default_factory=set)


def _objects_key(world: World) -> str:
    """The canonical JSON text of the list of every replica's objects."""
    return "[" + ",".join(canon_objects(st) for st in world.states) + "]"


def _state_key(k: int, events: int, delivery: tuple) -> tuple:
    """Deduplication key: the program position, the id of the interned
    events in event-id order, and the id of each replica's delivery entry."""
    return (k, events, delivery)


def _delivery_sig(st, order: tuple = ()) -> tuple:
    """``st``'s delivery entry, with ``order`` as its order of
    order-sensitive remote messages."""
    return (tuple(sorted(st.applied_full.items())), tuple(sorted(st.progress.items())), order)


def _order_sensitive(msg) -> bool:
    """Whether ``msg``'s effect at a replica depends on the order in which it
    and the messages of other origins apply there (``ops.ORDER_SENSITIVE``)."""
    return any(ORDER_SENSITIVE[type(p)](p) for _target, p in msg.items)


def _check_state(checker: Checker, world: World, st, messages) -> list:
    """The record clauses ``messages``' payloads can falsify, checked at the
    replica state ``st`` they have been applied to (``Checker.on_apply``)."""
    for msg in messages:
        checker.on_apply(world, st, msg)
    found, checker.violations = checker.violations, []
    return found


def _check_stability(world: World, stable_seen: frozenset):
    """Refinement (stably-detected implies oracle-stable) plus persistence
    (oracle-stable queries never revert). Returns (violations, new seen).

    Every key of ``stable_seen`` is registered somewhere in ``world``:
    queries only grow along a search path, and a replica state shared
    across one level is a function of its delivery entry, which only grows
    too. So one oracle call per registered key decides both persistence
    and the new seen set."""
    out = []
    seen = set(stable_seen)
    keys = set()
    for st in world.states:
        for qkey, q in st.queries.items():
            keys.add(qkey)
            if q.stable and (bad := refinement_fault(world, qkey)) is not None:
                out.append(Violation("refinement", -1, st.rid, bad))
    for key in keys:
        if oracle_stable(world, *key):
            seen.add(key)
        elif key in stable_seen:
            out.append(Violation("persistence", -1, -1, f"oracle-stable {key[0]} reverted"))
    return out, frozenset(seen)


# The event-log checks (I2 and the global half of I3) at a generation
# successor, and I5 and I6 at a terminal state, which is quiescent: the
# harness's own judgements, bound here under the names perfbench/tracing.py
# times them by.
_check_refids = log_faults
_check_terminal = quiescent_faults


def _enabled(world: World, st) -> tuple:
    """The keys of ``st``'s pending messages that are deliverable now, in
    key order."""
    return tuple(mkey for mkey in sorted(st.pending) if world.deliverable(st.rid, st.pending[mkey]))


class _Search:
    """What one exploration shares across its states: the root world, the
    report, the checker, the keys already seen, the interning table, the
    generation outcome table, the entry transition table, the terminal
    findings per object key and the reuse table of each generation level
    on the current path.

    A state travels down the recursion as its world, its signature
    ``(events id, tuple of entry ids)``, the parts of its key besides the
    program position, and its enabled deliveries per replica. A world
    handed on is never mutated again, so a delivery successor copies only
    the replica state it changes (``World.clone``), or shares the one its
    level built for the same entry (``World.sharing``); only that
    replica's enabled deliveries change.
    For the same reason a record's cached canonical text stays valid in
    every world that shares the record: a successor that changes it
    changes a copy, which starts without text. So each record's text is
    built once, however many terminal keys read it.

    A generator reads only its replica's state, which, like the whole state
    behind the key, is a function of the events applied there and of the
    replica's delivery entry. So the outcome of running the op in slot
    ``slot`` at ``replica`` (its result, the event it added if any, and
    the replica's new delivery entry) is kept under ``(replica, slot,
    entry, view)``, ``view`` being the interned events applied at the
    replica. A later attempt with the same key derives its successor's
    signature from the table and builds the successor only if it is fresh.
    """

    def __init__(self, replicas: int, mode: str, setup):
        check_replicas(replicas)
        self.root = World(replicas, mode)
        if setup is not None:
            setup(self.root)
            self.root.quiesce()
        self.report = ExploreReport()
        # A state's findings are reported at the state, not at a step.
        self.checker = Checker()
        self.checker.step = -1
        self.seen: set = set()
        # Events, event tuples, views and delivery entries, each interned
        # to the small int that stands for it in keys (``_id``);
        # ``values[i]`` is the value of id i.
        self.ids: dict = {}
        self.values: list = []
        self.outcomes: dict = {}
        # (entry id, message key, chain length, order-sensitive) -> the
        # entry id once that message applies (``delivered``).
        self.transitions: dict = {}
        # Terminal object key -> its I5 and I6 findings.
        self.terminal_findings: dict = {}
        # Per generation level on the current path: (replica, delivery
        # entry) -> (replica state, its enabled deliveries).
        self.levels: list = [{}]
        self.root_sig = self.signature(self.root)
        self.fresh(0, self.root_sig)
        setup_messages = [msg for ev in self.root.events.values() for msg in ev.chain]
        for st in self.root.states:
            self.report.violations.extend(_check_state(self.checker, self.root, st, setup_messages))

    def _intern(self, ev) -> int:
        """The small int standing for event ``ev`` in keys: its chain, and
        from three replicas on also its dependencies on other origins."""
        key = ev.chain
        if self.root.n > 2:
            key = key, tuple(sorted((r, c) for r, c in ev.deps.items() if r != ev.id[0]))
        return self._id(key)

    def _id(self, value: tuple) -> int:
        """The small int standing for ``value`` in keys."""
        i = self.ids.get(value)
        if i is None:
            i = self.ids[value] = len(self.values)
            self.values.append(value)
        return i

    def signature(self, world: World, orders=None) -> tuple:
        """``world``'s signature, computed from scratch with ``orders[r]``
        as replica r's order of order-sensitive messages. By default every
        order is empty: exact at the root, and at two replicas, where the
        orders stay empty."""
        events = self._id(tuple(self._intern(world.events[eid]) for eid in sorted(world.events)))
        orders = orders or ((),) * world.n
        return events, tuple(self._id(_delivery_sig(st, order))
                             for st, order in zip(world.states, orders))

    def fresh(self, k: int, sig: tuple) -> bool:
        """Mark the state (``k``, ``sig``) seen; False if it already was."""
        key = _state_key(k, *sig)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def visit(self, world: World, stable_seen: frozenset) -> frozenset:
        """Count a newly reached state and run the checks that read every
        replica at once. Returns the updated set of oracle-stable
        queries."""
        stab, stable_seen = _check_stability(world, stable_seen)
        self.report.states += 1
        self.report.violations.extend(stab)
        return stable_seen

    def terminal(self, world: World) -> None:
        """Count a terminal state and report its I5 and I6 findings, which
        are a function of its object key: checked once per distinct key."""
        key = _objects_key(world)
        self.report.terminals += 1
        self.report.terminal_keys.add(key)
        found = self.terminal_findings.get(key)
        if found is None:
            found = self.terminal_findings[key] = _check_terminal(world)
        self.report.violations.extend(found)

    def outcome_key(self, world: World, sig: tuple, replica: int, slot: int) -> tuple:
        """The outcome table's key for running the op in ``slot`` at
        ``replica``. The events of each origin are contiguous in ``sig``'s
        event-id order, and a replica has applied a prefix of them, plus at
        most the next one in part."""
        st = world.states[replica]
        events = self.values[sig[0]]
        view = []
        start = 0
        for origin in world.states:
            o = origin.rid
            count = st.applied_full.get(o, 0)
            if (o, count + 1) in st.progress:
                count += 1
            view.extend(events[start:start + count])
            start += origin.applied_full.get(o, 0)
        return replica, slot, sig[1][replica], self._id(tuple(view))

    def successor(self, world: World, sig: tuple, replica: int, outcome: tuple) -> tuple:
        """The signature after ``outcome`` of a generation at ``replica``:
        the added event, if any, follows ``replica``'s earlier events."""
        events, delivery = sig
        _result, added, entry = outcome
        if added is not None:
            at = sum(world.states[o].applied_full.get(o, 0) for o in range(replica + 1))
            old = self.values[events]
            events = self._id(old[:at] + (added[1],) + old[at:])
        return events, delivery[:replica] + (entry,) + delivery[replica + 1:]

    def _execute(self, world: World, replica: int, op: OpCall, order: tuple) -> tuple:
        """Run ``op`` at ``replica`` on ``world``, a fresh full copy, where
        the replica's order of order-sensitive messages is ``order``, which
        a generation leaves as it is. Returns the outcome: the result, the
        added event as an (event id, interned event) pair or None, and the
        replica's new delivery entry."""
        result, ev = run_op(world, replica, op)
        added = None if ev is None else (ev.id, self._intern(ev))
        return result, added, self._id(_delivery_sig(world.states[replica], order))

    def generate(self, world: World, k: int, sig: tuple, replica: int, op: OpCall, slot: int):
        """Run ``op`` (the op in ``slot`` of the program or catalog) at
        ``replica``, recording its result. Returns the successor as (world,
        signature, enabled deliveries), or None for a state already seen.

        A known outcome gives the successor's signature without running
        the op; the successor is then built, on a full copy of ``world``,
        only if it is fresh, and must match the known outcome. A built
        successor is checked: the added event's chain at ``replica`` and
        the event log."""
        key = self.outcome_key(world, sig, replica, slot)
        order = self.values[sig[1][replica]][2]
        outcome = self.outcomes.get(key)
        w2 = None
        if outcome is None:
            w2 = world.clone()
            outcome = self.outcomes[key] = self._execute(w2, replica, op, order)
        self.report.results.setdefault(k, set()).add(outcome[0])
        new_sig = self.successor(world, sig, replica, outcome)
        if not self.fresh(k + 1, new_sig):
            return None
        if w2 is None:
            w2 = world.clone()
            actual = self._execute(w2, replica, op, order)
            if actual != outcome:
                raise SimulatorError(f"generation at replica {replica} gave {actual!r}, but "
                                     f"{outcome!r} on an equal view")
        chain = w2.events[outcome[1][0]].chain if outcome[1] else ()
        self.report.violations.extend(_check_state(self.checker, w2, w2.states[replica], chain))
        self.report.violations.extend(_check_refids(w2))
        return w2, new_sig, tuple(_enabled(w2, st) for st in w2.states)

    def delivered(self, world: World, sig: tuple, replica: int, mkey) -> tuple:
        """The signature once pending message ``mkey`` is applied at
        ``replica``, by the bookkeeping of ``World._apply``. The new entry
        is a function of the old one, ``mkey``, the length of the message's
        chain and whether the message is order-sensitive, and is kept under
        them."""
        events, delivery = sig
        eid, idx = mkey
        chain = world.events[eid].chain
        sensitive = world.n > 2 and _order_sensitive(chain[idx])
        memo = delivery[replica], mkey, len(chain), sensitive
        new = self.transitions.get(memo)
        if new is None:
            applied, progress, order = self.values[delivery[replica]]
            progress = dict(progress)
            if idx + 1 == len(chain):
                progress.pop(eid, None)
                full = dict(applied)
                full[eid[0]] = eid[1]
                applied = tuple(sorted(full.items()))
            else:
                progress[eid] = idx + 1
            if sensitive:
                order += (eid[0],)
            new = self.transitions[memo] = self._id((applied, tuple(sorted(progress.items())), order))
        return events, delivery[:replica] + (new,) + delivery[replica + 1:]

    def deliver(self, world: World, k: int, sig: tuple, replica: int, mkey, enabled: tuple):
        """The successor applying ``mkey`` at ``replica`` as (world, signature,
        enabled deliveries), or None for a state already seen, which is then
        never copied. ``enabled`` is ``world``'s: a delivery changes only
        ``replica``'s. A replica state this generation level has already
        built for the new delivery entry is shared, not built again; a
        built one is checked on the delivered message."""
        sig = self.delivered(world, sig, replica, mkey)
        if not self.fresh(k, sig):
            return None
        level = self.levels[-1]
        key = replica, sig[1][replica]
        built = level.get(key)
        if built is None:
            w2 = world.clone(replica)
            st = w2.states[replica]
            msg = st.pending[mkey]
            w2.apply_message(replica, *mkey)
            self.report.violations.extend(_check_state(self.checker, w2, st, (msg,)))
            built = level[key] = st, _enabled(w2, st)
        else:
            w2 = world.sharing(replica, built[0])
        return w2, sig, enabled[:replica] + (built[1],) + enabled[replica + 1:]

    def run(self, steps: list, ends_anywhere: bool) -> ExploreReport:
        """The depth-first search. ``steps[k]`` lists the (replica, slot, op)
        choices for the ``k``-th generation. A quiescent state is terminal
        once every generation has run, or at any position when
        ``ends_anywhere``."""
        self.steps = steps
        self.ends_anywhere = ends_anywhere
        # The replica of every choice at each position, or None where the
        # choices span replicas and once every generation has run.
        self.step_replica = [choices[0][0] if len({c[0] for c in choices}) == 1 else None
                             for choices in steps] + [None]
        enabled = tuple(_enabled(self.root, st) for st in self.root.states)
        self._descend(self.root, self.root_sig, enabled, 0, frozenset())
        return self.report

    # A method rather than a nested function, which would refer to itself
    # through its closure cell and keep the whole search alive until the
    # next full garbage collection.
    def _descend(self, world: World, sig: tuple, enabled: tuple, k: int, stable_seen: frozenset):
        stable_seen = self.visit(world, stable_seen)
        if not any(enabled) and (self.ends_anywhere or k == len(self.steps)):
            self.terminal(world)
        if k < len(self.steps):
            for replica, slot, op in self.steps[k]:
                child = self.generate(world, k, sig, replica, op, slot)
                if child is not None:
                    self.levels.append({})
                    self._descend(*child, k + 1, stable_seen)
                    self.levels.pop()
        # Where every generation choice is at one replica, deliveries at
        # the others commute with it, so they wait (module docstring).
        at = self.step_replica[k]
        for replica in range(world.n) if at is None else (at,):
            for mkey in enabled[replica]:
                child = self.deliver(world, k, sig, replica, mkey, enabled)
                if child is not None:
                    self._descend(*child, k, stable_seen)


def exhaustive_explore(program, replicas: int = 2, mode: str = PURE_CAUSAL,
                       setup=None) -> ExploreReport:
    """Explore every interleaving of ``program`` (a list of (replica, OpCall)),
    up to the order of steps that commute.

    ``setup`` optionally prepares the world (its events are quiesced and not
    explored).
    """
    steps = [[(replica, k, op)] for k, (replica, op) in enumerate(program)]
    return _Search(replicas, mode, setup).run(steps, ends_anywhere=False)


def explore_catalog(catalog, max_events: int, replicas: int = 2,
                    mode: str = PURE_CAUSAL, setup=None) -> ExploreReport:
    """Explore every program of up to ``max_events`` operations drawn from
    ``catalog`` (a list of OpCalls, each runnable at any replica), sharing
    work across common prefixes. Terminal checks run at every quiescent
    state, since each one ends some program in the family.
    """
    if max_events > DEFAULT_BOUND:
        raise BoundExceeded(f"{max_events} events exceeds bound {DEFAULT_BOUND}")
    if max_events < 0:
        raise ConfigInvalid("the event bound must not be negative")
    search = _Search(replicas, mode, setup)
    choices = [(replica, slot, op) for replica in range(replicas) for slot, op in enumerate(catalog)]
    return search.run([choices] * max_events, ends_anywhere=True)


# ---------------------------------------------------------------------------
# Standard catalog used by the CLI and the small-scope acceptance checks.

def basic_catalog() -> list:
    return [
        OpCall("init", {"source": "A", "attr": "a", "target": "X"}),
        OpCall("assign", {"dst": "B", "dst_attr": "b", "src": "A", "src_attr": "a"}),
        OpCall("assign_null", {"source": "A", "attr": "a"}),
        OpCall("delete", {"target": "X", "last": []}),
        OpCall("announce", {}),
    ]


def basic_setup(world: World) -> None:
    world.generate(0, OpCall("create", {"key": "A", "root": True, "attrs": ["a"]}))
    world.generate(0, OpCall("create", {"key": "B", "root": True, "attrs": ["b"]}))
    world.generate(0, OpCall("create", {"key": "X", "root": False, "attrs": ["x"]}))
    world.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))


def reclaim_setup(world: World) -> None:
    """A and B (roots) at replica 0 and X at replica 1, quiesced, then a
    stability query on X registered at replica 1: announcements alone can
    make X deletable, so the catalog reaches deleted records."""
    world.generate(0, OpCall("create", {"key": "A", "root": True, "attrs": ["a"]}))
    world.generate(0, OpCall("create", {"key": "B", "root": True, "attrs": ["b"]}))
    world.generate(1, OpCall("create", {"key": "X", "root": False, "attrs": ["x"]}))
    world.quiesce()
    world.execute(1, OpCall("may_delete", {"target": "X", "last": []}))
