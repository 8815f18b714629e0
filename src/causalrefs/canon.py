"""Canonical, order-independent serialization of replica state.

``canon_objects(st)`` is the canonical JSON text of a replica's objects,
byte for byte what ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
gives for ``doc`` = {key: {"attrs": {attr: {"entries": [[target, ref,
write dot], ...], "retired": [dot, ...]}}, "deleted": bool, "inref":
{"added": [[source, ref], ...], "removed": [...]}, "last": [ref, ...],
"root": bool}}, with every list sorted. Two replica states are equal iff
their texts are. It serves the explorer's terminal keys, which must hash
and be kept; the convergence comparison (I5) only asks whether two states
are equal, which ``same_objects`` decides field by field without building
text.

The text is built from per-record text, and each record caches its own in
its ``canon`` slot. The cache stays valid because every change to a record
goes through ``ReplicaState.writable``, which clears the slot of a record it
hands out for change in place, while a copied record
(``ObjectRecord.clone``) starts without one. Records that worlds share
copy-on-write thus have their text built once.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .model import ReplicaState
from .refs import ObjectRecord


def _bool(value) -> str:
    return "true" if value else "false"


def _pairs(pairs) -> str:
    """Sorted (int, int) pairs: refs or dots."""
    if not pairs:
        return "[]"
    return "[" + ",".join([f"[{a},{b}]" for a, b in sorted(pairs)]) + "]"


def _listing(pairs) -> str:
    """Sorted (source, ref) pairs of an inref set."""
    if not pairs:
        return "[]"
    return "[" + ",".join([f"[{_quote(s)},[{a},{b}]]" for s, (a, b) in sorted(pairs)]) + "]"


def _entry(e) -> str:
    target = "null" if e.target is None else _quote(e.target)
    ref = f"[{e.ref[0]},{e.ref[1]}]" if e.ref else "null"
    return f"[{target},{ref},[{e.write_dot[0]},{e.write_dot[1]}]]"


def _outref(out) -> str:
    entries = ",".join([_entry(out.entries[d]) for d in sorted(out.entries)])
    return f'{{"entries":[{entries}],"retired":{_pairs(out.retired)}}}'


def _record(rec: ObjectRecord) -> str:
    text = rec.canon
    if text is None:
        attrs = ",".join([f"{_quote(a)}:{_outref(rec.attrs[a])}" for a in sorted(rec.attrs)])
        text = rec.canon = (
            f'{{"attrs":{{{attrs}}},"deleted":{_bool(rec.deleted)},'
            f'"inref":{{"added":{_listing(rec.inref.added)},'
            f'"removed":{_listing(rec.inref.removed)}}},'
            f'"last":{_pairs(rec.last_refs_at_delete)},"root":{_bool(rec.root)}}}')
    return text


def canon_objects(st: ReplicaState) -> str:
    objects = st.objects
    return "{" + ",".join([f"{_quote(k)}:{_record(objects[k])}" for k in sorted(objects)]) + "}"


def same_objects(a: ReplicaState, b: ReplicaState) -> bool:
    """Whether ``canon_objects(a) == canon_objects(b)``, decided on the
    records themselves: the same keys, and for each key the same root and
    deleted flags, ignore-set, listing sets, attribute names, and per
    attribute the same entries and retired dots. An entry is stored under
    its write dot, so equal entry dicts are equal sorted entry lists."""
    oa, ob = a.objects, b.objects
    if oa.keys() != ob.keys():
        return False
    for key, ra in oa.items():
        rb = ob[key]
        if (ra.root != rb.root or ra.deleted != rb.deleted
                or ra.last_refs_at_delete != rb.last_refs_at_delete
                or ra.inref.added != rb.inref.added or ra.inref.removed != rb.inref.removed
                or ra.attrs.keys() != rb.attrs.keys()):
            return False
        for attr, out in ra.attrs.items():
            other = rb.attrs[attr]
            if out.entries != other.entries or out.retired != other.retired:
                return False
    return True
