"""Stable-predicate detection for deletion checks.

Deciding that a target's reference listing is empty (modulo an ignore-set)
"and will stay empty" amounts to termination detection. Replicas gossip
their progress: an announcement carries the announcer's applied clock plus
the set of its reports, one for every registered query: the pair (query
key, whether the condition holds locally), where a query key is (target,
ignore-set).
Every replica runs the same observer machine over the announcements it
receives:

  phase 1 (collecting): every replica reported the condition true at some
      local clock; take the pointwise supremum of those clocks.
  phase 2 (confirming): every replica later reported the condition still
      true at a clock dominating that supremum.

Any false report resets to collecting; completion of phase 2 is terminal.

A replica that reports the condition true thereby pledges never to mint a
new reference to that target (outside the query's ignore-set) itself. The
pledge is what makes the detected property genuinely stable: without it, a
replica could copy one of the ignored references right after confirming.

``oracle_stable`` is the omniscient ground truth used by the test harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    PreconditionFailure,
    ReplicaState,
    SimulatorError,
    World,
    vc_leq,
    vc_merge,
)
from .refs import InRefAdd, last_refs_arg


@dataclass(frozen=True, slots=True)
class ClockAnnounce:
    announcer: int
    clock: tuple
    reports: frozenset  # (query key, holds) pairs


@dataclass(frozen=True, slots=True)
class QueryRegister:
    target: str
    last: frozenset


class QueryObserver:
    """Two-phase detection state for one query, as seen by one replica."""

    __slots__ = ("n", "snapshot", "sup", "confirm", "stable")

    def __init__(self, n: int):
        self.n = n
        self.snapshot: dict[int, dict] = {}
        self.sup: dict | None = None
        self.confirm: set[int] = set()
        self.stable = False

    def clone(self) -> "QueryObserver":
        # Clock dicts are never mutated in place, so sharing them is safe.
        q = QueryObserver(self.n)
        q.snapshot = dict(self.snapshot)
        q.sup = self.sup
        q.confirm = set(self.confirm)
        q.stable = self.stable
        return q

    def report(self, replica: int, holds: bool, clock: dict) -> None:
        if self.stable:
            return
        if not holds:
            self.snapshot.clear()
            self.confirm.clear()
            self.sup = None
            return
        if self.sup is None:
            self.snapshot[replica] = clock
            if len(self.snapshot) == self.n:
                sup: dict = {}
                for c in self.snapshot.values():
                    sup = vc_merge(sup, c)
                self.sup = sup
            # Snapshot reports never double as confirmations: the
            # confirmation must be a later observation.
            return
        if vc_leq(self.sup, clock):
            self.confirm.add(replica)
            if len(self.confirm) == self.n:
                self.stable = True


# ---------------------------------------------------------------------------
# Generators and appliers.

def apply_query_register(world: World, st: ReplicaState, target, p: QueryRegister) -> None:
    key = (p.target, p.last)
    if key not in st.queries:
        st.queries[key] = QueryObserver(world.n)


def gen_announce(world: World, st: ReplicaState, a: dict):
    clock = tuple(st.clock().items())
    # The payload must not depend on the order in which the replica's
    # queries were registered: the explorer keys generation outcomes by the
    # events a replica applied, and those do not fix that order.
    reports = set()
    for key in st.queries:
        target, last = key
        rec = st.objects.get(target)
        holds = rec is not None and rec.inref.refs_within(last)
        if holds:
            # Pledge: having vouched that the target is deletable, this
            # replica refuses to mint new references to it from now on.
            st.condemned.add(target)
        reports.add((key, holds))
    return [(None, ClockAnnounce(st.rid, clock, frozenset(reports)))]


def apply_clock_announce(world: World, st: ReplicaState, target, p: ClockAnnounce) -> None:
    # Every report holds at the announce's clock; decode it once. Clock
    # dicts are never mutated in place, so the observers may share it.
    clock = dict(p.clock)
    for key, holds in p.reports:
        q = st.queries.get(key)
        if q is None:
            # Registration travels the same causal channel, so it always
            # precedes any report for its query.
            raise SimulatorError(f"report for unregistered query {key[0]} at replica {st.rid}")
        q.report(p.announcer, holds, clock)


# ---------------------------------------------------------------------------
# Queries.

def stably_subset(world: World, replica: int, target: str, last: frozenset) -> bool:
    """True iff this replica has detected, stably, that the target's
    reference listing is contained in ``last``."""
    st = world.states[replica]
    if target not in st.objects:
        raise PreconditionFailure("UnknownObject", target)
    q = st.queries.get((target, last))
    return q is not None and q.stable


def may_delete(world: World, replica: int, target: str, last: frozenset) -> bool:
    """Deletion check: whether ``target`` may be deleted. Registers the
    stability query on first use (an event of its own) and reports False
    until detection completes. Root objects are never deletable, so no
    query is ever raised for them."""
    st = world.states[replica]
    rec = st.objects.get(target)
    if rec is None:
        raise PreconditionFailure("UnknownObject", target)
    if rec.root:
        return False
    q = st.queries.get((target, last))
    if q is None:
        world.emit(replica, [(None, QueryRegister(target, last))])
        return False
    return q.stable


def read_may_delete(world: World, replica: int, a: dict):
    target = a["target"]
    last = last_refs_arg(world.states[replica], target, a.get("last", "auto"))
    return may_delete(world, replica, target, last)


# ---------------------------------------------------------------------------
# Omniscient oracle (testing ground truth).

def oracle_stable(world: World, target: str, last: frozenset) -> bool:
    """Global-view truth of "the listing is stably contained in ``last``":
    the condition holds at every replica, no in-flight effector adds a pair
    outside ``last``, no surviving entry outside ``last`` targets the
    object anywhere, and every replica still able to derive a new reference
    to it has pledged not to.

    ``ref_counts`` is the exact number of surviving non-NULL entries per
    target at a replica, so a replica counting none for ``target`` has no
    entry to scan."""
    for st in world.states:
        rec = st.objects.get(target)
        if rec is not None and not rec.inref.refs_within(last):
            return False
    for st in world.states:
        if st.ref_counts.get(target, 0) == 0:
            continue
        for obj in st.objects.values():
            for out in obj.attrs.values():
                for e in out.entries.values():
                    if e.target == target and e.ref not in last:
                        return False
    for st in world.states:
        for msg in st.pending.values():
            for tgt, p in msg.items:
                if tgt == target and type(p) is InRefAdd and p.ref not in last:
                    return False
    for st in world.states:
        rec = st.objects.get(target)
        if rec is None or rec.deleted or rec.root:
            continue
        # The mint rule, stated again rather than shared with
        # ``refs.derivable``: an oracle that called the rule it judges would
        # change with every mutant of that rule and miss it.
        derivable = target in st.created_here or st.ref_counts.get(target, 0) > 0
        if derivable and target not in st.condemned:
            return False
    return True
