"""Replicated world model: vector clocks, two-phase operations, causal delivery.

A ``World`` holds a fixed set of replicas. Operations run in two phases:
a generator executes at one replica (checking preconditions, no shared-state
mutation) and emits an ordered chain of effector messages; effectors are
applied atomically at the origin and delivered to every other replica in
chain order, after everything the event causally depends on. A deletion
check registers its stability query as an event with no operation (``emit``).

Worlds are single-threaded and deterministic: the same sequence of
``execute``/``apply_message`` calls always produces the same state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# Composition modes for operations made of several sub-updates.
PURE_CAUSAL = "pure-causal"
ATOMIC = "atomic"
MODES = (PURE_CAUSAL, ATOMIC)

ReplicaId = int
EventId = tuple[int, int]  # (origin replica, per-replica sequence number, from 1)


class SimulatorError(Exception):
    """Internal simulator misuse or corruption (a bug, not an app-level failure)."""


class DuplicateDelivery(SimulatorError):
    pass


class Stuck(SimulatorError):
    """A buffered message can never become deliverable."""


class PreconditionFailure(Exception):
    """An operation's precondition failed; the whole operation fails.

    ``reason`` is a short code naming the failed predicate, e.g. ``KeyInUse``,
    ``MultiValued``, ``NotUnreachable``.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


# ---------------------------------------------------------------------------
# Vector clocks: plain dicts replica -> event count, absent entry reads as 0.

def vc_leq(a: dict, b: dict) -> bool:
    for r, c in a.items():
        if b.get(r, 0) < c:
            return False
    return True


def vc_geq(a: dict, b: dict) -> bool:
    return vc_leq(b, a)


def vc_merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for r, c in b.items():
        if out.get(r, 0) < c:
            out[r] = c
    return out


# ---------------------------------------------------------------------------
# Operations, events, messages.

@dataclass
class OpCall:
    """An operation descriptor: kind plus JSON-native arguments.

    Argument values are restricted to JSON-representable types (str, int,
    bool, lists thereof) so operation descriptors round-trip through trace
    files unchanged.
    """

    kind: str
    args: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class EffectorMessage:
    """One message of an event's effector chain: the (target key or None,
    payload) pairs it carries, applied together in order. A pure-causal
    chain carries one pair per message; an atomic chain is one message
    carrying every pair."""

    event_id: EventId
    chain_index: int
    items: tuple


@dataclass
class Event:
    id: EventId  # its origin replica is id[0]
    deps: dict  # vector clock snapshot at generation (causally closed)
    chain: tuple  # ordered EffectorMessages (length 1 in atomic mode)


class ReplicaState:
    """One replica's local view: objects, clocks, delivery bookkeeping.

    Each origin's events apply here in sequence order, and an event's chain
    in chain order, so at most one event per origin is partly applied: the
    one after the fully applied prefix. ``applied_full`` and ``progress``
    therefore determine the causal clock (``clock``).

    ``condemned`` holds targets for which this replica has emitted a
    positive stability report and therefore promised never to mint new
    references (outside the queried ignore-set); see the stability module.
    """

    __slots__ = (
        "rid", "objects", "owned", "copied", "applied_full", "progress", "pending",
        "queries", "condemned", "created_here", "ref_counts",
        "next_ref", "next_dot",
    )

    def __init__(self, rid: ReplicaId):
        self.rid = rid
        self.objects: dict[str, Any] = {}
        # Keys of the object records this state made and may change in
        # place, every part included; any other record may be shared with a
        # clone (see ``writable``).
        self.owned: set[str] = set()
        # Keys of the records this state copied from shared ones -> the
        # parts it has copied so far; its other parts are still shared.
        self.copied: dict[str, set] = {}
        # ref_counts[key] = surviving non-NULL outref entries targeting key,
        # across all objects at this replica (kept by apply_outref_set).
        self.ref_counts: dict[str, int] = {}
        # applied_full[r] = number of events from r whose whole chain applied here.
        self.applied_full: dict[int, int] = {}
        # progress[eid] = applied chain prefix length, for partially applied events.
        self.progress: dict[EventId, int] = {}
        # pending[(eid, chain_index)] = undelivered message addressed to us.
        self.pending: dict[tuple[EventId, int], EffectorMessage] = {}
        self.queries: dict[Any, Any] = {}
        self.condemned: set[str] = set()
        self.created_here: set[str] = set()
        self.next_ref = 0
        self.next_dot = 0

    def clone(self) -> "ReplicaState":
        """Independent copy. Relies on clock dicts, effector messages, and
        events being immutable once created (only rebound, never mutated).

        Object records are shared, not copied: both this state and the copy
        give up ownership of every record, so whichever first changes one
        copies it then (``writable``)."""
        st = ReplicaState(self.rid)
        st.objects = dict(self.objects)
        self.owned = set()
        self.copied = {}
        st.ref_counts = dict(self.ref_counts)
        st.applied_full = dict(self.applied_full)
        st.progress = dict(self.progress)
        st.pending = dict(self.pending)
        st.queries = {k: q.clone() for k, q in self.queries.items()}
        st.condemned = set(self.condemned)
        st.created_here = set(self.created_here)
        st.next_ref = self.next_ref
        st.next_dot = self.next_dot
        return st

    def writable(self, key: str, part=None):
        """The record of ``key``, ready for a change to its own fields and,
        if ``part`` is given, to that part (``ObjectRecord.own``). Every
        change to a record goes through here, so a record handed out for
        change in place drops its cached canonical text. A record this state
        made is changed in place; a shared one is copied first, sharing its
        parts, and a part of a copy is copied before its first change."""
        rec = self.objects[key]
        if key in self.owned:
            rec.canon = None
            return rec
        parts = self.copied.get(key)
        if parts is None:
            rec = self.objects[key] = rec.clone()
            parts = self.copied[key] = set()
        else:
            rec.canon = None
        if part is not None and part not in parts:
            rec.own(part)
            parts.add(part)
        return rec

    def clock(self) -> dict:
        """The causal clock: per origin, the highest sequence number with
        any effector applied here."""
        clock = dict(self.applied_full)
        for r, seq in self.progress:
            clock[r] = seq
        return clock

    def fully_applied(self, eid: EventId) -> bool:
        r, seq = eid
        return self.applied_full.get(r, 0) >= seq

    def is_applied(self, eid: EventId, chain_index: int) -> bool:
        return self.fully_applied(eid) or self.progress.get(eid, 0) > chain_index


class World:
    """A fixed set of replicas plus the global event log."""

    def __init__(self, replicas: int, mode: str = PURE_CAUSAL):
        if replicas < 1:
            raise ValueError("need at least one replica")
        if mode not in MODES:
            raise ValueError(f"unknown composition mode {mode!r}")
        self.n = replicas
        self.mode = mode
        self.states = [ReplicaState(r) for r in range(replicas)]
        self.events: dict[EventId, Event] = {}
        # Optional hook called after every effector application; used by the
        # invariant checker. Signature: (world, state, message).
        self.on_apply: Optional[Callable] = None

    def clone(self, replica: Optional[ReplicaId] = None) -> "World":
        """Copy of the world (hooks are not carried over).

        With no ``replica`` every replica state and the event log are
        copied and the copy is independent. With ``replica`` only that state
        is copied, and the rest is shared (``sharing``): the copy is only
        for a step that touches ``states[replica]`` alone, such as a
        delivery there. Generation needs a full copy, because it enqueues
        into every other replica's ``pending`` and logs its event.

        A copied state shares its object records with the original until
        either side changes one (``ReplicaState.clone``), so the cost of a
        copy does not grow with the number of objects.
        """
        if replica is not None:
            return self.sharing(replica, self.states[replica].clone())
        w = World.__new__(World)
        w.n = self.n
        w.mode = self.mode
        w.states = [st.clone() for st in self.states]
        w.events = dict(self.events)
        w.on_apply = None
        return w

    def sharing(self, replica: ReplicaId, st: ReplicaState) -> "World":
        """A world with ``st`` as ``states[replica]`` that shares every other
        replica state and the event log with this one (hooks are not carried
        over). Neither world may change a shared part afterwards."""
        w = World.__new__(World)
        w.n = self.n
        w.mode = self.mode
        w.states = list(self.states)
        w.states[replica] = st
        w.events = self.events
        w.on_apply = None
        return w

    # -- generation ---------------------------------------------------------

    def generate(self, replica: ReplicaId, op: OpCall) -> Event:
        """Run ``op``'s generator at ``replica`` and ``emit`` the payloads it
        builds. Raises PreconditionFailure if any precondition fails."""
        build = GENERATORS.get(op.kind)
        if build is None:
            raise SimulatorError(f"unknown operation kind {op.kind!r}")
        return self.emit(replica, build(self, self.states[replica], op.args))

    def emit(self, replica: ReplicaId, payloads: list) -> Event:
        """Log an event at ``replica`` carrying ``payloads``, its chain's
        (target key or None, payload) pairs in order: applied at the origin
        at once and atomically, and enqueued for every other replica."""
        st = self.states[replica]
        seq = st.applied_full.get(replica, 0) + 1
        eid = (replica, seq)
        if self.mode == ATOMIC:
            chain = (EffectorMessage(eid, 0, tuple(payloads)),)
        else:
            chain = tuple(EffectorMessage(eid, i, (item,)) for i, item in enumerate(payloads))
        ev = Event(eid, st.clock(), chain)
        self.events[eid] = ev
        for msg in chain:
            self._apply(st, msg)
        for other in self.states:
            if other.rid != replica:
                for msg in chain:
                    other.pending[(eid, msg.chain_index)] = msg
        return ev

    def execute(self, replica: ReplicaId, op: OpCall):
        """Run an operation and return its value: a read-only operation's
        (invoke, may_delete), or "ok" for a generator operation.

        A read may still add an event (may_delete ``emit``s a stability
        query on first use), which ``harness.run_op`` reports.
        """
        read = READS.get(op.kind)
        if read is not None:
            return read(self, replica, op.args)
        self.generate(replica, op)
        return "ok"

    # -- delivery -----------------------------------------------------------

    def deliverable(self, replica: ReplicaId, msg: EffectorMessage) -> bool:
        """True iff ``msg`` can be applied at ``replica`` right now."""
        st = self.states[replica]
        eid = msg.event_id
        applied = st.applied_full
        # Not fully applied, and next in chain order (an applied message
        # sits below the event's progress).
        if applied.get(eid[0], 0) >= eid[1] or msg.chain_index != st.progress.get(eid, 0):
            return False
        for r, c in self.events[eid].deps.items():
            if applied.get(r, 0) < c:
                return False
        return True

    def apply_message(self, replica: ReplicaId, eid: EventId, chain_index: int) -> None:
        """Apply exactly one pending message; it must be deliverable.

        Used by trace replay, where the schedule enumerates every application
        explicitly (no implicit buffer draining).
        """
        st = self.states[replica]
        key = (eid, chain_index)
        msg = st.pending.get(key)
        if msg is None:
            if st.is_applied(eid, chain_index):
                raise DuplicateDelivery(f"{eid}[{chain_index}] at replica {replica}")
            raise SimulatorError(f"no pending message {eid}[{chain_index}] at replica {replica}")
        if not self.deliverable(replica, msg):
            raise SimulatorError(f"schedule step not deliverable: {eid}[{chain_index}] at replica {replica}")
        st.pending.pop(key)
        self._apply(st, msg)

    def _apply(self, st: ReplicaState, msg: EffectorMessage) -> None:
        for target, p in msg.items:
            APPLIERS[type(p)](self, st, target, p)
        eid = msg.event_id
        k = st.progress.get(eid, 0)
        if k != msg.chain_index:
            raise SimulatorError(f"chain order violated at replica {st.rid}: {eid}[{msg.chain_index}] after prefix {k}")
        if k + 1 == len(self.events[eid].chain):
            st.progress.pop(eid, None)
            r, seq = eid
            prev = st.applied_full.get(r, 0)
            if prev + 1 != seq:
                raise SimulatorError(f"out-of-order full application of {eid} at replica {st.rid}")
            st.applied_full[r] = seq
        else:
            st.progress[eid] = k + 1
        if self.on_apply is not None:
            self.on_apply(self, st, msg)

    def _pass(self, st: ReplicaState):
        """Apply, in one pass over ``st``'s sorted ``pending`` keys, each
        message deliverable when its turn comes, yielding each key just
        after it applies."""
        for key in sorted(st.pending):
            msg = st.pending[key]
            if self.deliverable(st.rid, msg):
                st.pending.pop(key)
                self._apply(st, msg)
                yield key

    def drain(self, replica: ReplicaId):
        """Apply every buffered message at ``replica`` that is or becomes
        deliverable, in passes until a pass applies nothing. Yields each
        applied key just after applying it, before the next application, so
        a caller can record each delivery as its own step."""
        st = self.states[replica]
        applied = True
        while applied:
            applied = False
            for key in self._pass(st):
                applied = True
                yield key

    def quiesce(self) -> None:
        """Deliver every outstanding effector everywhere, in some causal order:
        rounds of one pass per replica.

        Raises Stuck if a buffered message can never be delivered (which
        would indicate a causal-closure bug).
        """
        while any(st.pending for st in self.states):
            # Every replica takes its whole pass.
            if not [key for st in self.states for key in self._pass(st)]:
                stuck = [(st.rid, key) for st in self.states for key in sorted(st.pending)]
                raise Stuck(f"undeliverable messages remain: {stuck[:5]}")


# The registries import this module, so they are bound only once it is fully
# defined. The dicts are never rebound: an entry replaced in place (as a
# tracer does) is seen by every call here.
from .ops import APPLIERS, GENERATORS, READS  # noqa: E402
