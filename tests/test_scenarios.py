import pytest

from causalrefs.model import ATOMIC, PURE_CAUSAL
from causalrefs.scenarios import FIG1_ASSIGN, FIG1_DELETE, run_fig1, run_fig2


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_fig2_state_shape(mode):
    world, problems = run_fig2(mode)
    assert problems == []
    # Listing pairs name the expected sources: X is held by A and B twice,
    # Y by C and B.
    st = world.states[0]
    assert sorted(s for s, _r in st.objects["X"].inref.current()) == ["A", "B", "B"]
    assert sorted(s for s, _r in st.objects["Y"].inref.current()) == ["B", "C"]


# (states, terminals) the explorer reaches; a key that merged different
# states or split equal ones would change them. The full search, which
# follows every delivery order, reaches 2,213 and 1,629 states with the
# same 70 terminal states.
FIG1_COUNTS = {PURE_CAUSAL: (1345, 70), ATOMIC: (973, 70)}


@pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
def test_fig1_delete_always_refused(mode):
    report = run_fig1(mode)
    assert report.ok, report.violations[:5]
    assert (report.states, report.terminals) == FIG1_COUNTS[mode]
    assert report.results[FIG1_ASSIGN] == {"ok"}
    assert report.results[FIG1_DELETE] == {"err:NotUnreachable"}


def test_fig1_no_reachable_dangling_state():
    # The explorer checks I1 in every reachable state; a dangling reference
    # would appear as an I1 violation.
    report = run_fig1()
    assert not [v for v in report.violations if "I1" in v]
    assert report.states > 100
