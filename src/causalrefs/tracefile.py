"""Line-delimited trace files.

One JSON object per line: a self-describing header (format name, version,
seed, config), then one line per step — generation steps with the operation
and its recorded outcome, delivery steps with the applied message's event
label and chain index. Serialization is canonical (sorted keys, fixed
separators), so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json

from . import ops
from .harness import ConfigInvalid, DeliverStep, GenStep, Trace, TraceConfig
from .model import OpCall

FORMAT = "causalrefs-trace"
VERSION = 1


class TraceFormatError(Exception):
    pass


def _line(doc: dict) -> str:
    # A nested ``OpCall`` or ``TraceConfig`` is written as its fields.
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=vars)


def dumps(trace: Trace) -> str:
    """The trace file of ``trace``: its header, then each step's own
    fields under the step's record ``type``."""
    lines = [_line({"format": FORMAT, "version": VERSION, "seed": trace.seed, "config": trace.config})]
    for step in trace.steps:
        lines.append(_line({"type": "gen" if isinstance(step, GenStep) else "deliver", **vars(step)}))
    return "\n".join(lines) + "\n"


def _is_int(v, lo: int) -> bool:
    return type(v) is int and v >= lo


def _is_ref(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_is_int(x, 0) for x in v)


def _config(cfg: dict) -> TraceConfig:
    for name in ("replicas", "events"):
        if type(cfg[name]) is not int:
            raise TraceFormatError(f"malformed header: {name} must be an int")
    weights = cfg["weights"]
    if not isinstance(weights, dict) or not all(
            type(w) in (int, float) for w in weights.values()):
        raise TraceFormatError("malformed header: weights must map kinds to numbers")
    config = TraceConfig(replicas=cfg["replicas"], events=cfg["events"],
                         mode=cfg["mode"], weights=dict(weights))
    try:
        config.validate()
    except ConfigInvalid as e:
        raise TraceFormatError(f"malformed header: {e}") from e
    return config


def _op(doc: dict) -> OpCall:
    kind, args = doc["kind"], doc["args"]
    if kind not in ops.GENERATORS and kind not in ops.READS:
        raise TraceFormatError(f"unknown operation kind {kind!r}")
    if not isinstance(args, dict):
        raise TraceFormatError(f"{kind} args are not an object")
    for name in ops.REQUIRED_ARGS[kind]:
        if name not in args:
            raise TraceFormatError(f"{kind} lacks argument {name!r}")
        # Every required argument names an object or attribute.
        if not isinstance(args[name], str):
            raise TraceFormatError(f"{kind} argument {name!r} is not a string")
    attrs = args.get("attrs", [])
    if not isinstance(attrs, list) or not all(isinstance(a, str) for a in attrs):
        raise TraceFormatError(f"{kind} argument 'attrs' is not a list of strings")
    if not isinstance(args.get("root", False), bool):
        raise TraceFormatError(f"{kind} argument 'root' is not a boolean")
    last = args.get("last", "auto")
    if last != "auto" and not (isinstance(last, list) and all(_is_ref(r) for r in last)):
        raise TraceFormatError(f"{kind} argument 'last' is neither \"auto\" nor a list of refs")
    return OpCall(kind, args)


def _step(doc: dict, replicas: int):
    kind = doc["type"]
    if kind not in ("gen", "deliver"):
        raise TraceFormatError(f"unknown record type {kind!r}")
    replica, label = doc["replica"], doc["label"]
    if not _is_int(replica, 0) or replica >= replicas:
        raise TraceFormatError(f"replica {replica!r} out of range 0..{replicas - 1}")
    if not isinstance(label, str):
        raise TraceFormatError(f"label {label!r} is not a string")
    if kind == "gen":
        result = doc["result"]
        if not isinstance(result, str):
            raise TraceFormatError(f"result {result!r} is not a string")
        return GenStep(label, replica, _op(doc["op"]), result)
    index = doc["chain_index"]
    if not _is_int(index, 0):
        raise TraceFormatError(f"chain_index {index!r} is not a non-negative int")
    return DeliverStep(replica, label, index)


def loads(text: str) -> Trace:
    """Parse a trace file, checking every field replay reads, so a malformed
    file raises TraceFormatError instead of failing inside replay."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceFormatError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise TraceFormatError(f"header is not valid JSON: {e}") from e
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise TraceFormatError("not a trace file (bad format marker)")
    if header.get("version") != VERSION:
        raise TraceFormatError(f"unsupported trace version {header.get('version')!r}")
    try:
        config = _config(header["config"])
        seed = header["seed"]
    except (KeyError, TypeError) as e:
        raise TraceFormatError(f"malformed header: {e}") from e
    if type(seed) is not int:
        raise TraceFormatError("malformed header: seed must be an int")
    steps: list = []
    # Replay binds each generation label to one event, so none may repeat.
    gen_labels: set = set()
    for i, ln in enumerate(lines[1:], start=2):
        try:
            step = _step(json.loads(ln), config.replicas)
            if isinstance(step, GenStep):
                if step.label in gen_labels:
                    raise TraceFormatError(f"generation label {step.label!r} used twice")
                gen_labels.add(step.label)
            steps.append(step)
        except TraceFormatError as e:
            raise TraceFormatError(f"line {i}: {e}") from e
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise TraceFormatError(f"line {i}: malformed record: {e}") from e
    return Trace(seed, config, steps)
