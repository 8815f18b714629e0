"""Reference canonical forms for the tests, built independently of
``causalrefs.canon``: each record is turned into sorted JSON-native
structures and serialized with ``json.dumps(sort_keys=True)``. Nothing here
reads a record's cached text, so it checks that text from outside.
"""

import json


def _record(rec) -> dict:
    return {
        "root": rec.root,
        "deleted": rec.deleted,
        "last": sorted(list(r) for r in rec.last_refs_at_delete),
        "inref": {
            "added": sorted([s, list(r)] for s, r in rec.inref.added),
            "removed": sorted([s, list(r)] for s, r in rec.inref.removed),
        },
        "attrs": {
            a: {
                "entries": [[e.target, list(e.ref) if e.ref else None, list(e.write_dot)]
                            for e in (out.entries[d] for d in sorted(out.entries))],
                "retired": sorted(list(d) for d in out.retired),
            }
            for a, out in rec.attrs.items()
        },
    }


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def objects_doc(st) -> dict:
    return {k: _record(rec) for k, rec in st.objects.items()}


def objects_text(st) -> str:
    """What ``canon.canon_objects(st)`` must return."""
    return _dumps(objects_doc(st))


def objects_key(world) -> str:
    """What the explorer's terminal key of ``world`` must be."""
    return _dumps([objects_doc(st) for st in world.states])


def world_fingerprint(world) -> bytes:
    """Byte-stable serialization of the mode and every replica's objects."""
    return _dumps({"mode": world.mode, "states": [objects_doc(st) for st in world.states]}).encode()
