"""Object-graph snapshots in DOT (Graphviz) notation.

One node per object, labeled with its key, per-attribute values, current
reference listing, and deleted flag; one edge per surviving non-NULL outref
entry, labeled with the entry's reference identifier.
"""

from __future__ import annotations

from .model import ReplicaState


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _ref_label(ref) -> str:
    return f"r{ref[0]}.{ref[1]}"


def _attr_value(out) -> str:
    vals = []
    for e in out.surviving():
        if e.target is None:
            vals.append("null")
        else:
            vals.append(f"{e.target},{_ref_label(e.ref)}")
    return "{" + "; ".join(vals) + "}" if vals else "null"


def snapshot_dot(st: ReplicaState, name: str = "snapshot") -> str:
    lines = [f'digraph "{_esc(name)}" {{', "  node [shape=box];"]
    for key in sorted(st.objects):
        rec = st.objects[key]
        parts = [key]
        if rec.root:
            parts.append("root")
        if rec.deleted:
            parts.append("deleted")
        for attr in sorted(rec.attrs):
            parts.append(f"{attr} = {_attr_value(rec.attrs[attr])}")
        listing = ", ".join(
            f"({s},{_ref_label(r)})" for s, r in sorted(rec.inref.current())
        )
        parts.append(f"inref: {{{listing}}}")
        label = "\\n".join(_esc(p) for p in parts)
        style = ' style=dashed' if rec.deleted else ""
        lines.append(f'  "{_esc(key)}" [label="{label}"{style}];')
    for key in sorted(st.objects):
        for attr in sorted(st.objects[key].attrs):
            for e in st.objects[key].attrs[attr].surviving():
                if e.target is None:
                    continue
                lines.append(
                    f'  "{_esc(key)}" -> "{_esc(e.target)}" '
                    f'[label="{_esc(attr + ":" + _ref_label(e.ref))}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
