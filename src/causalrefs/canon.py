"""Canonical, order-independent serialization of replica state.

Used for convergence comparison, replay determinism checks and the
explorer's reachable and terminal state keys. Everything is reduced to
sorted JSON-native structures so two states are equal iff their canonical
forms are equal.
"""

from __future__ import annotations

import json

from .model import ReplicaState, World
from .refs import ObjectRecord


def canon_entry(e) -> list:
    return [e.target, list(e.ref) if e.ref else None, list(e.write_dot)]


def canon_outref(out) -> dict:
    return {
        "entries": [canon_entry(out.entries[d]) for d in sorted(out.entries)],
        "retired": sorted(list(d) for d in out.retired),
    }


def canon_record(rec: ObjectRecord) -> dict:
    return {
        "root": rec.root,
        "deleted": rec.deleted,
        "last": sorted(list(r) for r in rec.last_refs_at_delete),
        "inref": {
            "added": sorted([s, list(r)] for s, r in rec.inref.added),
            "removed": sorted([s, list(r)] for s, r in rec.inref.removed),
        },
        "attrs": {a: canon_outref(out) for a, out in sorted(rec.attrs.items())},
    }


def canon_objects(st: ReplicaState) -> dict:
    return {k: canon_record(st.objects[k]) for k in sorted(st.objects)}


def world_fingerprint(world: World) -> bytes:
    """Byte-stable serialization of every replica's object state."""
    doc = {
        "mode": world.mode,
        "states": [canon_objects(st) for st in world.states],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

