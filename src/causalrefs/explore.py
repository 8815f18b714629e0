"""Exhaustive small-scope exploration: a brute-force oracle complementing
the randomized harness.

Given a short program (a fixed sequence of operations, each pinned to a
replica), the explorer covers every causally-valid interleaving of
generation and effector delivery, up to the order of steps that commute
(below), checking safety invariants in every state it visits and
convergence properties in every terminal state, with the invariant clauses
the harness defines (``harness.entry_fault`` and the functions after it).
Reached states are deduplicated by a sound structural key: the program
prefix executed, the exact effector chains generated so far, and each
replica's delivery progress — everything else is a deterministic function
of those. Each chain is interned to a small int when it is generated, and a
delivery successor's key is derived from its parent's and checked before
the successor is built, so reaching a state again costs no copy. A
generation successor's key comes from a table of generation outcomes, keyed
by what the generator can read, once the same op has run on an equal
replica view; it too is built only if it is fresh.

Successors share with their parent what they do not change: a delivery
copies only the replica state it touches, and a copied replica state shares
its object records until it writes one (``ReplicaState.writable``). The
explorer never mutates a world after handing it on.

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
    MAX_REPLICAS,
    ConfigInvalid,
    deleted_faults,
    diverging_replicas,
    entry_fault,
    listing_mismatches,
    log_faults,
    refinement_fault,
    removal_fault,
    run_op,
)
from .model import OpCall, PURE_CAUSAL, SimulatorError, World
from .stability import oracle_stable

DEFAULT_BOUND = 5


class BoundExceeded(Exception):
    pass


@dataclass
class ExploreReport:
    states: int = 0
    terminals: int = 0
    violations: list = field(default_factory=list)
    # program index -> set of observed result strings across interleavings
    results: dict = field(default_factory=dict)
    # canonical object-state keys of all terminal states
    terminal_keys: set = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.violations


def _objects_key(world: World) -> str:
    """The canonical JSON text of the list of every replica's objects."""
    return "[" + ",".join(canon_objects(st) for st in world.states) + "]"


def _state_key(k: int, events: tuple, delivery: tuple) -> tuple:
    """Deduplication key: the program position, the interned effector chains
    in event-id order, and each replica's delivery signature."""
    return (k, events, delivery)


def _delivery_sig(st) -> tuple:
    return (tuple(sorted(st.applied_full.items())), tuple(sorted(st.progress.items())))


def _check_state(world: World, replica=None) -> list:
    """Every clause on a record (I1, I3's local half, I4) on every record of
    ``states[replica]``, or of every replica state when ``replica`` is None."""
    out = []
    for st in world.states if replica is None else (world.states[replica],):
        at = f"at replica {st.rid}"
        for key, rec in st.objects.items():
            for pair in sorted(rec.inref.removed):
                bad = removal_fault(rec, pair)
                if bad:
                    out.append(f"I4 {at}: {bad}")
            if rec.deleted:
                out.extend(f"{invariant} {at}: {bad}" for invariant, bad in deleted_faults(st, rec))
            for attr, outref in rec.attrs.items():
                for e in outref.entries.values():
                    if e.target is not None:
                        bad = entry_fault(st, key, attr, e)
                        if bad:
                            out.append(f"I1 {at}: {bad}")
    return out


def _check_stability(world: World, stable_seen: frozenset):
    """Refinement (stably-detected implies oracle-stable) plus persistence
    (oracle-stable queries never revert). Returns (violations, new seen)."""
    out = []
    seen = set(stable_seen)
    keys = set()
    for st in world.states:
        for qkey, q in st.queries.items():
            keys.add(qkey)
            if q.stable and (bad := refinement_fault(world, qkey)) is not None:
                out.append(f"refinement at replica {st.rid}: {bad}")
    for target, last in stable_seen:
        if not oracle_stable(world, target, last):
            out.append(f"persistence: oracle-stable {target} reverted")
    for target, last in keys:
        if oracle_stable(world, target, last):
            seen.add((target, last))
    return out, frozenset(seen)


def _check_refids(world: World) -> list:
    """The event-log checks: I2 and the global half of I3."""
    return [f"{invariant}: {detail}" for invariant, _replica, detail in log_faults(world)]


def _check_terminal(world: World) -> list:
    """I5 and I6 at a terminal state, which is quiescent."""
    out = [f"I5: replica {r} diverges at terminal state" for r in diverging_replicas(world)]
    out.extend(f"I6: {detail}" for detail in listing_mismatches(world.states[0]))
    return out


def _enabled(world: World, st) -> tuple:
    """The keys of ``st``'s pending messages that are deliverable now, in
    key order."""
    return tuple(mkey for mkey in sorted(st.pending) if world.deliverable(st.rid, st.pending[mkey]))


class _Search:
    """What one exploration shares across its states: the root world, the
    report, the keys already seen, the chain interning table and the
    generation outcome table.

    A state travels down the recursion as its world, its signature
    ``(events, delivery)``, the parts of its key besides the program
    position, and its enabled deliveries per replica. A world handed on is
    never mutated again, so a delivery successor copies only the replica
    state it changes (``World.clone``) and recomputes only that replica's
    enabled deliveries.
    For the same reason a record's cached canonical text stays valid in
    every world that shares the record: a successor that changes it
    changes a copy, which starts without text. So each record's text is
    built once, however many terminal keys and I5 checks read it.

    A generator reads only its replica's state, which, like the whole state
    behind the key, is a function of the chains applied there and of the
    replica's delivery entry. So the outcome of running the op in slot
    ``slot`` at ``replica`` (its result, the spawned chains and the
    replica's new delivery entry) is kept under ``(replica, slot, entry,
    view)``, ``view`` being the interned chains of the events applied at
    the replica. A later attempt with the same key derives its successor's
    signature from the table and builds the successor only if it is fresh.
    """

    def __init__(self, replicas: int, mode: str, setup):
        if not 1 <= replicas <= MAX_REPLICAS:
            raise ConfigInvalid(f"replicas must be between 1 and {MAX_REPLICAS}")
        self.root = World(replicas, mode)
        if setup is not None:
            setup(self.root)
            self.root.quiesce()
        self.report = ExploreReport()
        self.seen: set = set()
        self.chains: dict = {}
        # Delivery entries and views recur across many keys; one shared
        # copy of each keeps the table from costing memory.
        self.shared: dict = {}
        self.outcomes: dict = {}
        self.root_sig = self.signature(self.root)
        self.fresh(0, self.root_sig)

    def _intern(self, chain: tuple) -> int:
        return self.chains.setdefault(chain, len(self.chains))

    def _share(self, value: tuple) -> tuple:
        return self.shared.setdefault(value, value)

    def signature(self, world: World) -> tuple:
        """``world``'s signature, computed from scratch."""
        events = tuple(self._intern(world.events[eid].chain) for eid in sorted(world.events))
        return events, tuple(self._share(_delivery_sig(st)) for st in world.states)

    def fresh(self, k: int, sig: tuple) -> bool:
        """Mark the state (``k``, ``sig``) seen; False if it already was."""
        key = _state_key(k, *sig)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def visit(self, world: World, replica, stable_seen: frozenset, enabled) -> tuple:
        """Count and check a newly reached state, which differs from the
        state it was reached from only at ``replica`` (None at the root): the
        other replica states were checked there. ``enabled`` is the parent's
        enabled deliveries per replica when the step was a delivery, which
        leaves every other replica's unchanged, and None otherwise. Returns
        the state's enabled deliveries per replica and the updated set of
        oracle-stable queries."""
        viols = _check_state(world, replica)
        stab, stable_seen = _check_stability(world, stable_seen)
        self.report.states += 1
        self.report.violations.extend(viols + stab)
        if enabled is None:
            enabled = tuple(_enabled(world, st) for st in world.states)
        else:
            enabled = enabled[:replica] + (_enabled(world, world.states[replica]),) + enabled[replica + 1:]
        return enabled, stable_seen

    def terminal(self, world: World) -> None:
        self.report.terminals += 1
        self.report.terminal_keys.add(_objects_key(world))
        self.report.violations.extend(_check_terminal(world))

    def outcome_key(self, world: World, sig: tuple, replica: int, slot: int) -> tuple:
        """The outcome table's key for running the op in ``slot`` at
        ``replica``. The events of each origin are contiguous in ``sig``'s
        event-id order, and a replica has applied a prefix of them, plus at
        most the next one in part."""
        st = world.states[replica]
        events = sig[0]
        view = []
        start = 0
        for origin in world.states:
            o = origin.rid
            count = st.applied_full.get(o, 0)
            if (o, count + 1) in st.progress:
                count += 1
            view.extend(events[start:start + count])
            start += origin.applied_full.get(o, 0)
        return replica, slot, sig[1][replica], self._share(tuple(view))

    def successor(self, world: World, sig: tuple, replica: int, outcome: tuple) -> tuple:
        """The signature after ``outcome`` of a generation at ``replica``:
        the spawned chains follow ``replica``'s earlier events."""
        events, delivery = sig
        _result, spawned, entry = outcome
        if spawned:
            at = sum(world.states[o].applied_full.get(o, 0) for o in range(replica + 1))
            events = events[:at] + tuple(c for _eid, c in spawned) + events[at:]
        return events, delivery[:replica] + (entry,) + delivery[replica + 1:]

    def _execute(self, world: World, replica: int, op: OpCall) -> tuple:
        """Run ``op`` at ``replica`` on ``world``, a fresh full copy.
        Returns the outcome: the result, the spawned (event id, interned
        chain) pairs and the replica's new delivery entry."""
        result, spawned = run_op(world, replica, op)
        spawned = tuple((ev.id, self._intern(ev.chain)) for ev in spawned)
        return result, spawned, self._share(_delivery_sig(world.states[replica]))

    def generate(self, world: World, k: int, sig: tuple, replica: int, op: OpCall, slot: int):
        """Run ``op`` (the op in ``slot`` of the program or catalog) at
        ``replica``, recording its result. Returns the successor as (world,
        signature), or None for a state already seen.

        A known outcome gives the successor's signature without running
        the op; the successor is then built, on a full copy of ``world``,
        only if it is fresh, and must match the known outcome."""
        key = self.outcome_key(world, sig, replica, slot)
        outcome = self.outcomes.get(key)
        w2 = None
        if outcome is None:
            w2 = world.clone()
            outcome = self.outcomes[key] = self._execute(w2, replica, op)
        self.report.results.setdefault(k, set()).add(outcome[0])
        new_sig = self.successor(world, sig, replica, outcome)
        if not self.fresh(k + 1, new_sig):
            return None
        if w2 is None:
            w2 = world.clone()
            actual = self._execute(w2, replica, op)
            if actual != outcome:
                raise SimulatorError(f"generation at replica {replica} gave {actual!r}, but "
                                     f"{outcome!r} on an equal view")
        self.report.violations.extend(_check_refids(w2))
        return w2, new_sig

    def delivered(self, world: World, sig: tuple, replica: int, mkey) -> tuple:
        """The signature once pending message ``mkey`` is applied at
        ``replica``, by the bookkeeping of ``World._apply``."""
        events, delivery = sig
        eid, idx = mkey
        st = world.states[replica]
        applied = delivery[replica][0]
        progress = dict(st.progress)
        if idx + 1 == len(world.events[eid].chain):
            progress.pop(eid, None)
            full = dict(st.applied_full)
            full[eid[0]] = eid[1]
            applied = tuple(sorted(full.items()))
        else:
            progress[eid] = idx + 1
        new = self._share((applied, tuple(sorted(progress.items()))))
        return events, delivery[:replica] + (new,) + delivery[replica + 1:]

    def deliver(self, world: World, k: int, sig: tuple, replica: int, mkey):
        """The successor applying ``mkey`` at ``replica`` as (world, signature),
        or None for a state already seen, which is then never copied."""
        sig = self.delivered(world, sig, replica, mkey)
        if not self.fresh(k, sig):
            return None
        w2 = world.clone(replica)
        w2.apply_message(replica, *mkey)
        return w2, sig

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
        self._descend(self.root, self.root_sig, None, 0, frozenset(), None)
        return self.report

    # A method rather than a nested function, which would refer to itself
    # through its closure cell and keep the whole search alive until the
    # next full garbage collection.
    def _descend(self, world: World, sig: tuple, changed, k: int, stable_seen: frozenset, enabled):
        enabled, stable_seen = self.visit(world, changed, stable_seen, enabled)
        if not any(enabled) and (self.ends_anywhere or k == len(self.steps)):
            self.terminal(world)
        if k < len(self.steps):
            for replica, slot, op in self.steps[k]:
                child = self.generate(world, k, sig, replica, op, slot)
                if child is not None:
                    self._descend(*child, replica, k + 1, stable_seen, None)
        # Where every generation choice is at one replica, deliveries at
        # the others commute with it, so they wait (module docstring).
        at = self.step_replica[k]
        for replica in range(world.n) if at is None else (at,):
            for mkey in enabled[replica]:
                child = self.deliver(world, k, sig, replica, mkey)
                if child is not None:
                    self._descend(*child, replica, k, stable_seen, enabled)


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
