"""Exhaustive small-scope exploration: a brute-force oracle complementing
the randomized harness.

Given a short program (a fixed sequence of operations, each pinned to a
replica), the explorer enumerates every causally-valid interleaving of
generation and effector delivery, checking safety invariants in every
reachable state and convergence properties in every terminal state.
Reached states are deduplicated by a sound structural key: the program
prefix executed, the exact effector chains generated so far, and each
replica's delivery progress — everything else is a deterministic function
of those. Each chain is interned to a small int when it is generated, and a
delivery successor's key is derived from its parent's and checked before
the successor is built, so reaching a state again costs no copy.

``explore_catalog`` additionally branches over a whole operation catalog at
every generation point, covering every program up to a length bound in one
shared search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .canon import canon_objects
from .harness import run_op
from .model import OpCall, PURE_CAUSAL, World, payload_items
from .refs import InRefAdd, OutRefSet
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
    return json.dumps([canon_objects(st) for st in world.states],
                      sort_keys=True, separators=(",", ":"))


def _state_key(k: int, events: tuple, delivery: tuple) -> tuple:
    """Deduplication key: the program position, the interned effector chains
    in event-id order, and each replica's delivery signature."""
    return (k, events, delivery)


def _delivery_sig(st) -> tuple:
    return (tuple(sorted(st.applied_full.items())), tuple(sorted(st.progress.items())))


def _check_state(world: World) -> list:
    """Per-state safety: I1 (no dangling entry, entry listed at target),
    I3 local half (deleted object's listing within its ignore-set), I4."""
    out = []
    for st in world.states:
        for key, rec in st.objects.items():
            if not rec.inref.removed <= rec.inref.added:
                out.append(f"I4 at replica {st.rid}: removed outside added for {key}")
            if rec.deleted and not {r for _s, r in rec.inref.current()} <= rec.last_refs_at_delete:
                out.append(f"I3 at replica {st.rid}: listing of deleted {key} outside ignore-set")
            for attr, outref in rec.attrs.items():
                for e in outref.entries.values():
                    if e.target is None:
                        continue
                    trec = st.objects.get(e.target)
                    if trec is None or trec.deleted:
                        out.append(f"I1 at replica {st.rid}: {key}.{attr} references deleted/missing {e.target}")
                    elif (key, e.ref) not in trec.inref.current():
                        out.append(f"I1 at replica {st.rid}: ({key},{e.ref}) not listed at {e.target}")
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
            if q.stable and not oracle_stable(world, qkey[0], qkey[1]):
                out.append(f"refinement at replica {st.rid}: stably {qkey[0]} but oracle disagrees")
    for target, last in stable_seen:
        if not oracle_stable(world, target, last):
            out.append(f"persistence: oracle-stable {target} reverted")
    for target, last in keys:
        if oracle_stable(world, target, last):
            seen.add((target, last))
    return out, frozenset(seen)


def _check_refids(world: World) -> list:
    """I2: each RefId enters one inref-add and one outref introduction."""
    out = []
    added: dict = {}
    intro: dict = {}
    for eid in sorted(world.events):
        for msg in world.events[eid].chain:
            for _target, p in payload_items(msg):
                if type(p) is InRefAdd:
                    if p.ref in added and added[p.ref] != eid:
                        out.append(f"I2: ref {p.ref} added by {added[p.ref]} and {eid}")
                    added[p.ref] = eid
                elif type(p) is OutRefSet:
                    for e in p.entries:
                        if e.ref is None:
                            continue
                        if e.ref in intro and intro[e.ref] != eid:
                            out.append(f"I2: ref {e.ref} introduced by {intro[e.ref]} and {eid}")
                        intro[e.ref] = eid
    return out


def _check_terminal(world: World) -> list:
    out = []
    canons = [canon_objects(st) for st in world.states]
    for r in range(1, world.n):
        if canons[r] != canons[0]:
            out.append(f"I5: replica {r} diverges at terminal state")
    st0 = world.states[0]
    for key, rec in st0.objects.items():
        actual = set()
        for src_key, src in st0.objects.items():
            for outref in src.attrs.values():
                for e in outref.entries.values():
                    if e.target == key:
                        actual.add((src_key, e.ref))
        if rec.inref.current() != actual:
            out.append(f"I6: listing of {key} does not match surviving entries")
    return out


def _delivery_choices(world: World) -> list:
    out = []
    for st in world.states:
        for mkey in sorted(st.pending):
            if world.deliverable(st.rid, st.pending[mkey]):
                out.append((st.rid, mkey))
    return out


class _Search:
    """What one exploration shares across its states: the root world, the
    report, the keys already seen and the chain interning table.

    A state travels down the recursion as its world plus its signature
    ``(events, delivery)``, the parts of its key besides the program
    position. A world handed on is never mutated again, so a delivery
    successor copies only the replica state it changes (``World.clone``).
    """

    def __init__(self, replicas: int, mode: str, setup):
        self.root = World(replicas, mode)
        if setup is not None:
            setup(self.root)
            self.root.quiesce()
        self.report = ExploreReport()
        self.seen: set = set()
        self.chains: dict = {}
        self.root_sig = self.signature(self.root)
        self.fresh(0, self.root_sig)

    def _intern(self, chain: tuple) -> int:
        return self.chains.setdefault(chain, len(self.chains))

    def signature(self, world: World) -> tuple:
        """``world``'s signature, computed from scratch."""
        events = tuple(self._intern(world.events[eid].chain) for eid in sorted(world.events))
        return events, tuple(_delivery_sig(st) for st in world.states)

    def fresh(self, k: int, sig: tuple) -> bool:
        """Mark the state (``k``, ``sig``) seen; False if it already was."""
        key = _state_key(k, *sig)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def visit(self, world: World, stable_seen: frozenset) -> tuple:
        """Count and check a newly reached state. Returns its enabled
        deliveries and the updated set of oracle-stable queries."""
        viols = _check_state(world)
        stab, stable_seen = _check_stability(world, stable_seen)
        self.report.states += 1
        self.report.violations.extend(viols + stab)
        return _delivery_choices(world), stable_seen

    def terminal(self, world: World) -> None:
        self.report.terminals += 1
        self.report.terminal_keys.add(_objects_key(world))
        self.report.violations.extend(_check_terminal(world))

    def generate(self, world: World, k: int, sig: tuple, replica: int, op: OpCall) -> tuple:
        """Run ``op`` at ``replica`` on a full copy of ``world`` (its chain is
        unknown until it runs). Returns the result and the successor as
        (world, signature), or None for a state already seen."""
        w2 = world.clone()
        result = run_op(w2, replica, op)
        self.report.results.setdefault(k, set()).add(result)
        self.report.violations.extend(_check_refids(w2))
        if len(w2.events) != len(world.events):
            # New event ids interleave with the old ones, whose ids come in order.
            old = iter(sig[0])
            events = tuple(next(old) if eid in world.events else self._intern(w2.events[eid].chain)
                           for eid in sorted(w2.events))
            sig = (events, tuple(_delivery_sig(st) for st in w2.states))
        return result, ((w2, sig) if self.fresh(k + 1, sig) else None)

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
        new = (applied, tuple(sorted(progress.items())))
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


def exhaustive_explore(program, bound: int = DEFAULT_BOUND, replicas: int = 2,
                       mode: str = PURE_CAUSAL, setup=None, path_check=None) -> ExploreReport:
    """Explore every interleaving of ``program`` (a list of (replica, OpCall)).

    ``setup`` optionally prepares the world (its events are quiesced and not
    explored). ``path_check(results, index, result)`` is called at every
    generation with the tuple of results along the current path; a returned
    string is recorded as a violation. Note that results of read-only
    operations are not part of the deduplication key, so ``path_check``
    should only correlate event-generating outcomes.
    """
    program = list(program)
    if len(program) > bound:
        raise BoundExceeded(f"{len(program)} events exceeds bound {bound}")
    search = _Search(replicas, mode, setup)
    report = search.report

    def rec(world: World, sig: tuple, k: int, results: tuple, stable_seen: frozenset):
        deliveries, stable_seen = search.visit(world, stable_seen)
        if k == len(program) and not deliveries:
            search.terminal(world)
            return
        if k < len(program):
            replica, op = program[k]
            result, child = search.generate(world, k, sig, replica, op)
            if path_check is not None:
                bad = path_check(results, k, result)
                if bad:
                    report.violations.append(bad)
            if child is not None:
                rec(*child, k + 1, results + (result,), stable_seen)
        for replica, mkey in deliveries:
            child = search.deliver(world, k, sig, replica, mkey)
            if child is not None:
                rec(*child, k, results, stable_seen)

    rec(search.root, search.root_sig, 0, (), frozenset())
    return report


def explore_catalog(catalog, max_events: int, replicas: int = 2,
                    mode: str = PURE_CAUSAL, setup=None) -> ExploreReport:
    """Explore every program of up to ``max_events`` operations drawn from
    ``catalog`` (a list of OpCalls, each runnable at any replica), sharing
    work across common prefixes. Terminal checks run at every quiescent
    state, since each one ends some program in the family.
    """
    if max_events > DEFAULT_BOUND:
        raise BoundExceeded(f"{max_events} events exceeds bound {DEFAULT_BOUND}")
    search = _Search(replicas, mode, setup)

    def rec(world: World, sig: tuple, k: int, stable_seen: frozenset):
        deliveries, stable_seen = search.visit(world, stable_seen)
        if not deliveries:
            search.terminal(world)
        if k < max_events:
            for replica in range(replicas):
                for op in catalog:
                    _result, child = search.generate(world, k, sig, replica, op)
                    if child is not None:
                        rec(*child, k + 1, stable_seen)
        for replica, mkey in deliveries:
            child = search.deliver(world, k, sig, replica, mkey)
            if child is not None:
                rec(*child, k, stable_seen)

    rec(search.root, search.root_sig, 0, frozenset())
    return search.report


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
