"""The reference CRDT: object records with inref/outref state and the
application-level operations (create, init, assign, assign-null, invoke,
delete) expressed as generator functions plus effector payloads.

An outref behaves like a multi-value register of reference entries: an
assignment overwrites every entry its generator observed, while entries
written concurrently survive side by side. An inref is a two-set reference
listing on the target: pairs (source key, reference id) enter ``added``
when a reference is created and ``removed`` when it is retired; the current
listing is the difference.

Ordering is fixed at generation time. Creating or copying a reference runs
backward (inref-add on the target, then the outref write on the source);
retiring references runs forward (the outref write first, then inref-remove
on each overwritten entry's target). Deletion nulls out all of the object's
attributes before marking it deleted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import PreconditionFailure, ReplicaState, SimulatorError, World

RefId = tuple[int, int]   # (origin replica, per-replica counter)
Dot = tuple[int, int]     # identifies one assignment (write)


# ---------------------------------------------------------------------------
# State.

@dataclass(frozen=True, slots=True)
class OutRefEntry:
    """One value of an outref register. ``target is None`` encodes NULL;
    a non-NULL entry always carries the unique id of its reference."""

    target: str | None
    ref: RefId | None
    write_dot: Dot


class OutRef:
    """Multi-value register of reference entries.

    ``entries`` maps write dot -> entry for every surviving write;
    ``retired`` is the causal write context: every dot this register has
    seen overwritten. An incoming write drops exactly the entries whose
    dots it observed, so concurrent writes survive side by side. An empty
    register reads as NULL (the initial value carries no dot).
    """

    __slots__ = ("entries", "retired")

    def __init__(self):
        self.entries: dict[Dot, OutRefEntry] = {}
        self.retired: set[Dot] = set()

    def surviving(self) -> list[OutRefEntry]:
        return [self.entries[d] for d in sorted(self.entries)]

    def non_null(self) -> list[OutRefEntry]:
        return [e for e in self.surviving() if e.target is not None]

    def is_single_valued(self) -> bool:
        return len(self.entries) <= 1

    def clone(self) -> "OutRef":
        out = OutRef()
        out.entries = dict(self.entries)
        out.retired = set(self.retired)
        return out


class InRef:
    """Reference listing on a target: add/remove two-set of (source, ref)."""

    __slots__ = ("added", "removed")

    def __init__(self):
        self.added: set[tuple[str, RefId]] = set()
        self.removed: set[tuple[str, RefId]] = set()

    def current(self) -> set[tuple[str, RefId]]:
        return self.added - self.removed

    def lists(self, pair: tuple[str, RefId]) -> bool:
        """Whether ``pair`` is in ``current()``, without building it."""
        return pair in self.added and pair not in self.removed

    def refs_within(self, refs) -> bool:
        """Whether every listed pair's reference is in ``refs``, without
        building ``current()``."""
        removed = self.removed
        for pair in self.added:
            if pair[1] not in refs and pair not in removed:
                return False
        return True

    def clone(self) -> "InRef":
        ir = InRef()
        ir.added = set(self.added)
        ir.removed = set(self.removed)
        return ir


# The part of a record that ``ReplicaState.writable`` names for a change to
# the listing; an attribute's register is named by the attribute.
LISTING = object()


class ObjectRecord:
    """One object's state at a replica. ``canon`` caches the record's
    canonical text (``canon.canon_objects``); a copy starts without it.

    A copy (``clone``) shares its parts with the original: each attribute's
    ``OutRef`` and the ``InRef``. ``own`` replaces one shared part with a
    copy of it; ``ReplicaState.writable`` calls it before the first change
    to a part of a copied record, so a change to one part copies only it."""

    __slots__ = ("key", "root", "attrs", "inref", "deleted", "last_refs_at_delete", "canon")

    def __init__(self, key: str, root: bool, attrs: tuple[str, ...]):
        self.key = key
        self.root = root
        self.attrs: dict[str, OutRef] = {a: OutRef() for a in attrs}
        self.inref = InRef()
        self.deleted = False
        self.last_refs_at_delete: frozenset[RefId] = frozenset()
        self.canon: str | None = None

    def clone(self) -> "ObjectRecord":
        rec = ObjectRecord(self.key, self.root, ())
        rec.attrs = dict(self.attrs)
        rec.inref = self.inref
        rec.deleted = self.deleted
        rec.last_refs_at_delete = self.last_refs_at_delete
        return rec

    def own(self, part) -> None:
        """Replace ``part`` (an attribute name, or ``LISTING``) with a copy."""
        if part is LISTING:
            self.inref = self.inref.clone()
        else:
            self.attrs[part] = self.attrs[part].clone()


# ---------------------------------------------------------------------------
# Effector payloads. Each payload updates a single object and is fully
# self-contained: the generator bakes in everything it observed.

@dataclass(frozen=True, slots=True)
class ObjectCreate:
    key: str
    root: bool
    attrs: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class InRefAdd:
    source: str
    ref: RefId


@dataclass(frozen=True, slots=True)
class InRefRemove:
    source: str
    ref: RefId


@dataclass(frozen=True, slots=True)
class OutRefSet:
    attr: str
    entries: tuple[OutRefEntry, ...]
    retired: frozenset[Dot]  # write context: the dots this write overwrites


@dataclass(frozen=True, slots=True)
class MarkDeleted:
    last: frozenset[RefId]


# ---------------------------------------------------------------------------
# Effector appliers.

def apply_outref_set(world: World, st: ReplicaState, key: str, p: OutRefSet) -> None:
    out = st.writable(key, p.attr).attrs[p.attr]
    out.retired |= p.retired
    for dot in p.retired:
        e = out.entries.pop(dot, None)
        if e is not None and e.target is not None:
            st.ref_counts[e.target] -= 1
    for e in p.entries:
        if e.write_dot not in out.retired:
            out.entries[e.write_dot] = e
            if e.target is not None:
                st.ref_counts[e.target] = st.ref_counts.get(e.target, 0) + 1


def apply_object_create(world: World, st: ReplicaState, key: str, p: ObjectCreate) -> None:
    if p.key in st.objects:
        raise SimulatorError(f"object {p.key} already exists at replica {st.rid}")
    st.objects[p.key] = ObjectRecord(p.key, p.root, p.attrs)
    st.owned.add(p.key)


def apply_inref_add(world: World, st: ReplicaState, key: str, p: InRefAdd) -> None:
    st.writable(key, LISTING).inref.added.add((p.source, p.ref))


def apply_inref_remove(world: World, st: ReplicaState, key: str, p: InRefRemove) -> None:
    # Total by construction: an absent pair is recorded anyway and the
    # well-formedness invariant flags it.
    st.writable(key, LISTING).inref.removed.add((p.source, p.ref))


def apply_mark_deleted(world: World, st: ReplicaState, key: str, p: MarkDeleted) -> None:
    rec = st.writable(key)
    rec.deleted = True
    rec.last_refs_at_delete = p.last


# ---------------------------------------------------------------------------
# Generator helpers.

def _record(st: ReplicaState, key: str) -> ObjectRecord:
    rec = st.objects.get(key)
    if rec is None:
        raise PreconditionFailure("UnknownObject", key)
    return rec


def _live_record(st: ReplicaState, key: str) -> ObjectRecord:
    rec = _record(st, key)
    if rec.deleted:
        raise PreconditionFailure("DeletedObject", key)
    return rec


def _outref(rec: ObjectRecord, attr: str) -> OutRef:
    out = rec.attrs.get(attr)
    if out is None:
        raise PreconditionFailure("UnknownAttribute", f"{rec.key}.{attr}")
    return out


def _check_target_mintable(st: ReplicaState, target: str) -> None:
    """A new reference may only be derived from an existing one: the target
    must be a root, created locally, or currently referenced here. A target
    this replica has pledged as deletable (via a positive stability report)
    admits no new references."""
    rec = _live_record(st, target)
    if target in st.condemned:
        raise PreconditionFailure("TargetCondemned", target)
    if rec.root or target in st.created_here or st.ref_counts.get(target, 0) > 0:
        return
    raise PreconditionFailure("UnreachableTarget", target)


def _mint_ref(st: ReplicaState) -> RefId:
    ref = (st.rid, st.next_ref)
    st.next_ref += 1
    return ref


def _mint_dot(st: ReplicaState) -> Dot:
    dot = (st.rid, st.next_dot)
    st.next_dot += 1
    return dot


def _write(st: ReplicaState, source: str, attr: str, target: str | None, ref: RefId | None) -> list:
    """Write the single entry (``target``, ``ref``) into ``source.attr`` over
    the entries observed here: [outref-set; inref-remove per overwritten
    non-NULL entry]."""
    overwritten = st.objects[source].attrs[attr].surviving()
    ctx = frozenset(e.write_dot for e in overwritten)
    chain = [(source, OutRefSet(attr, (OutRefEntry(target, ref, _mint_dot(st)),), ctx))]
    for e in sorted((e for e in overwritten if e.target is not None), key=lambda e: e.ref):
        chain.append((e.target, InRefRemove(source, e.ref)))
    return chain


def _reference_chain(st: ReplicaState, source: str, attr: str, target: str):
    """Shared tail of init and assign: mint the reference, then build
    [inref-add; the write of the new entry]."""
    ref = _mint_ref(st)
    return [(target, InRefAdd(source, ref))] + _write(st, source, attr, target, ref)


def last_refs_arg(st: ReplicaState, target: str, last) -> frozenset[RefId]:
    """Decode a last-refs argument. ``"auto"`` computes the self-cycle set:
    every reference held in the target's own attributes that points back at
    itself."""
    if last == "auto":
        rec = _record(st, target)
        return frozenset(
            e.ref
            for out in rec.attrs.values()
            for e in out.surviving()
            if e.target == target
        )
    return frozenset(tuple(r) for r in last)


# ---------------------------------------------------------------------------
# Generators. Each returns the ordered effector chain as (target, payload).

def gen_create(world: World, st: ReplicaState, a: dict):
    key = a["key"]
    if key in st.objects:
        raise PreconditionFailure("KeyInUse", key)
    payload = ObjectCreate(key, bool(a.get("root", False)), tuple(a.get("attrs", ())))
    st.created_here.add(key)
    return [(key, payload)]


def gen_init(world: World, st: ReplicaState, a: dict):
    source, attr, target = a["source"], a["attr"], a["target"]
    rec = _live_record(st, source)
    _outref(rec, attr)
    _check_target_mintable(st, target)
    return _reference_chain(st, source, attr, target)


def gen_assign(world: World, st: ReplicaState, a: dict):
    dst, dst_attr, src, src_attr = a["dst"], a["dst_attr"], a["src"], a["src_attr"]
    dst_rec = _live_record(st, dst)
    _outref(dst_rec, dst_attr)
    src_rec = _live_record(st, src)
    src_out = _outref(src_rec, src_attr)
    values = src_out.surviving()
    if len(values) > 1:
        raise PreconditionFailure("MultiValued", f"{src}.{src_attr}")
    if not values or values[0].target is None:
        raise PreconditionFailure("NullSource", f"{src}.{src_attr}")
    target = values[0].target
    _check_target_mintable(st, target)
    return _reference_chain(st, dst, dst_attr, target)


def gen_assign_null(world: World, st: ReplicaState, a: dict):
    source, attr = a["source"], a["attr"]
    _outref(_live_record(st, source), attr)
    return _write(st, source, attr, None, None)


def gen_delete(world: World, st: ReplicaState, a: dict):
    from . import stability

    target = a["target"]
    rec = _record(st, target)
    if rec.root:
        raise PreconditionFailure("RootObject", target)
    if rec.deleted:
        raise PreconditionFailure("AlreadyDeleted", target)
    last = last_refs_arg(st, target, a.get("last", "auto"))
    # Stable precondition: the reference listing must stably sit inside the
    # ignore-set. Checking it may register a stability query (an event of
    # its own) before this event's chain is built.
    if not stability.may_delete(world, st.rid, target, last):
        raise PreconditionFailure("NotUnreachable", target)
    chain = []
    for attr in sorted(rec.attrs):
        chain += _write(st, target, attr, None, None)
    chain.append((target, MarkDeleted(last)))
    return chain


# ---------------------------------------------------------------------------
# Read-only operations (no effectors).

def read_invoke(world: World, replica: int, a: dict):
    st = world.states[replica]
    rec = _record(st, a["source"])
    out = _outref(rec, a["attr"])
    values = out.surviving()
    if len(values) > 1:
        raise PreconditionFailure("MultiValued", f"{a['source']}.{a['attr']}")
    if not values or values[0].target is None:
        raise PreconditionFailure("NullReference", f"{a['source']}.{a['attr']}")
    return values[0].target
