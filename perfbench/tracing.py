"""In-memory span tracing around the program's entry points.

``Tracer.install`` replaces the entry points named in ``LAYERS`` (class
methods, module functions and the operation registries) with wrappers that
record a span per call; ``Tracer.restore`` puts the originals back. A span
is ``(id, parent id, operation, layer, start, end)``; spans of one
benchmark operation (one execution or one exploration pass) share the
operation number. Self time is accumulated on the fly: a span's duration
minus the time its child spans cover.

Tracing never draws from a random generator and never changes an argument
or a result, so a traced run produces the same traces as an untraced one.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Layer name -> entry points, as (module attribute path, attribute name).
# An entry point reachable under several names (a function imported by name
# into another module) is wrapped under each name, so every call site is
# seen exactly once.
LAYERS = {
    "model.generate": [("model.World", "generate")],
    "model.apply_message": [("model.World", "apply_message")],
    "model.deliverable": [("model.World", "deliverable")],
    "model.quiesce": [("model.World", "quiesce")],
    "model.clone": [("model.World", "clone")],
    "stability.oracle": [("stability", "oracle_stable"), ("explore", "oracle_stable")],
    "harness.random_execution": [("harness", "random_execution")],
    "harness.replay": [("harness", "replay")],
    "harness.checker": [("harness.Checker", "on_apply"), ("harness.Checker", "scan_deletions")],
    "harness.tail": [("harness", "check_invariants")],
    "explore.search": [("explore", "exhaustive_explore"), ("explore", "explore_catalog"),
                       ("scenarios", "exhaustive_explore")],
    "explore.key": [("explore", "_state_key"), ("explore", "_objects_key")],
    "explore.check": [("explore", "_check_state"), ("explore", "_check_stability"),
                      ("explore", "_check_refids"), ("explore", "_check_terminal")],
    "canon.canon_objects": [("canon", "canon_objects"), ("harness", "canon_objects"),
                            ("explore", "canon_objects")],
}

# Registry entries timed as the refs layer: the CRDT's own generators and
# effector appliers. The stability entries are timed separately.
REFS_GENERATORS = ("create", "init", "assign", "assign_null", "delete")
REFS_PAYLOADS = ("ObjectCreate", "InRefAdd", "InRefRemove", "OutRefSet", "MarkDeleted")

OP_LAYER = "bench.op"
# Spans kept for writing out; self time and counts cover every call.
SPAN_CAP = 50_000


def _resolve(prog, path: str):
    obj = prog
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.pending_max = 0
        self.spans: list = []
        self.op = -1
        self._next_id = 0
        self._stack: list = []  # [span id, seconds covered by children]
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def wrap(self, layer: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span of ``layer``. ``before(args)`` and
        ``after(args, result)`` observe a call without altering it."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self.self_s[layer] += took - frame[1]
                self.total_s[layer] += took
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += took
                if sid < SPAN_CAP:
                    self.spans.append((sid, parent, self.op, layer, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch_attr(self, owner, name: str, new) -> None:
        old = vars(owner)[name]
        setattr(owner, name, new)
        self._undo.append(lambda: setattr(owner, name, old))

    def _patch_item(self, table: dict, key, new) -> None:
        old = table[key]
        table[key] = new
        self._undo.append(lambda: table.__setitem__(key, old))

    # -- hooks that count instead of timing ------------------------------------

    def _count_hit(self, args, result) -> None:
        if result:
            self.counts["model.deliverable.hits"] += 1

    def _note_state_key(self, args, result) -> None:
        self.counts["explore.state_keys"] += 1

    def _note_pending(self, depth: int) -> None:
        self.pending_max = max(self.pending_max, depth)

    def _count_stable(self, report):
        def counted(observer, *args, **kwargs):
            was = observer.stable
            report(observer, *args, **kwargs)
            if observer.stable and not was:
                self.counts["stability.stable_detected"] += 1
        return counted

    # -- install / restore ---------------------------------------------------

    def install(self, prog) -> None:
        """Wrap every entry point of ``prog`` (a namespace of the program's
        modules) named in ``LAYERS`` and the operation registries."""
        hooks = {
            "model.deliverable": {"after": self._count_hit},
            "model.apply_message": {
                "before": lambda a: self._note_pending(len(a[0].states[a[1]].pending))},
            "model.quiesce": {
                "before": lambda a: self._note_pending(max(len(st.pending) for st in a[0].states))},
        }
        for layer, points in LAYERS.items():
            for path, name in points:
                owner = _resolve(prog, path)
                kw = hooks.get(layer, {})
                if name == "_state_key":
                    kw = {"after": self._note_state_key}
                self._patch_attr(owner, name, self.wrap(layer, vars(owner)[name], **kw))
        ops = prog.ops
        for kind in REFS_GENERATORS:
            self._patch_item(ops.GENERATORS, kind, self.wrap("refs.gen", ops.GENERATORS[kind]))
        for payload in REFS_PAYLOADS:
            cls = getattr(prog.refs, payload)
            self._patch_item(ops.APPLIERS, cls, self.wrap("refs.apply", ops.APPLIERS[cls]))
        announce = prog.stability.ClockAnnounce
        self._patch_item(ops.APPLIERS, announce,
                         self.wrap("stability.announce_apply", ops.APPLIERS[announce]))
        observer = prog.stability.QueryObserver
        self._patch_attr(observer, "report", self._count_stable(vars(observer)["report"]))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def run_op(self, op: int, fn, *args):
        """Run one benchmark operation inside a top-level span."""
        self.op = op
        return self.wrap(OP_LAYER, fn)(*args)

    # -- results ---------------------------------------------------------------

    def write_spans(self, path, origin: float) -> None:
        """Write the kept spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for sid, parent, op, layer, start, end in self.spans:
                fh.write(json.dumps([sid, parent, op, layer, round(start - origin, 9),
                                     round(end - origin, 9)]) + "\n")
