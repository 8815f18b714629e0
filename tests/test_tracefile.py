import pytest
from hypothesis import given, settings, strategies as st

from causalrefs import tracefile
from causalrefs.harness import TraceConfig, execution_seed, random_execution, replay
from canon_reference import world_fingerprint


def test_round_trip_identity():
    tr = random_execution(execution_seed(2, 17), TraceConfig())
    text = tracefile.dumps(tr)
    again = tracefile.loads(text)
    assert again.seed == tr.seed
    assert again.config == tr.config
    assert again.steps == tr.steps


def test_round_trip_byte_identical():
    tr = random_execution(execution_seed(2, 18), TraceConfig())
    text = tracefile.dumps(tr)
    assert tracefile.dumps(tracefile.loads(text)) == text


def test_loaded_trace_replays_to_same_state():
    tr = random_execution(execution_seed(2, 19), TraceConfig())
    w1 = replay(tr).world
    w2 = replay(tracefile.loads(tracefile.dumps(tr))).world
    assert world_fingerprint(w1) == world_fingerprint(w2)


def test_unknown_version_rejected():
    tr = random_execution(1, TraceConfig(events=3))
    text = tracefile.dumps(tr)
    bumped = text.replace('"version":1', '"version":99', 1)
    with pytest.raises(tracefile.TraceFormatError):
        tracefile.loads(bumped)


def test_not_a_trace_rejected():
    with pytest.raises(tracefile.TraceFormatError):
        tracefile.loads("")
    with pytest.raises(tracefile.TraceFormatError):
        tracefile.loads('{"hello": 1}\n')
    with pytest.raises(tracefile.TraceFormatError):
        tracefile.loads("not json\n")


def test_malformed_record_rejected():
    tr = random_execution(1, TraceConfig(events=3))
    lines = tracefile.dumps(tr).splitlines()
    lines[1] = '{"type":"mystery"}'
    with pytest.raises(tracefile.TraceFormatError):
        tracefile.loads("\n".join(lines))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63), events=st.integers(min_value=1, max_value=30))
def test_round_trip_property(seed, events):
    tr = random_execution(seed, TraceConfig(events=events))
    text = tracefile.dumps(tr)
    assert tracefile.dumps(tracefile.loads(text)) == text
    assert tracefile.loads(text).steps == tr.steps
