"""Fuzzing ``causalrefs check`` with damaged trace files.

A trace written for a random execution is damaged in one line: a key
dropped, a value replaced by one of another type, or the line cut short.
``check`` must then end with exit code 0 (the file still describes a legal
execution, whose invariants hold) or 2 (it is rejected with a message),
never with a traceback. An exit code 1 from a file that loads and replays
would be an invariant violated by a legal execution.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from causalrefs import tracefile
from causalrefs.cli import main
from causalrefs.harness import TraceConfig, execution_seed, random_execution
from causalrefs.model import MODES

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2**65),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def traces():
    return [tracefile.dumps(random_execution(execution_seed(17, i), TraceConfig(mode=mode)))
            for i in range(4) for mode in MODES]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "damaged.trace"


def _paths(doc, keys_only: bool, prefix=()):
    """Paths to every value nested in ``doc``; with ``keys_only``, only to
    the values held by objects (those a key can be dropped for)."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, value in items:
        if isinstance(doc, dict) or not keys_only:
            out.append(prefix + (key,))
        out.extend(_paths(value, keys_only, prefix + (key,)))
    return out


def _damage(line: str, data) -> str:
    how = data.draw(st.sampled_from(["drop", "swap", "truncate"]), label="damage")
    if how == "truncate":
        return line[:data.draw(st.integers(min_value=0, max_value=len(line) - 1), label="cut")]
    doc = json.loads(line)
    *parents, key = data.draw(st.sampled_from(_paths(doc, how == "drop")), label="path")
    holder = doc
    for part in parents:
        holder = holder[part]
    if how == "drop":
        del holder[key]
    else:
        old = type(holder[key])
        holder[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not old), label="value")
    return json.dumps(doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_trace_exits_zero_or_two(traces, trace_path, data):
    lines = data.draw(st.sampled_from(traces), label="trace").splitlines()
    i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="line")
    lines[i] = _damage(lines[i], data)
    trace_path.write_text("\n".join(lines) + "\n")
    res = CliRunner().invoke(main, ["check", str(trace_path)])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code in (0, 2), res.output
