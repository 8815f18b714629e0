"""A QuickCheck-style state machine over the model (Claessen & Hughes, ICFP
2000), in hypothesis's ``RuleBasedStateMachine``.

Its rules generate an operation at a replica (a kind and the arguments the
trace generator would draw there, ``harness._draw_args``), deliver one
deliverable message, drain a replica's buffer (``World.drain``, as the
generator's sync points do) or announce. Each rule records its steps
through a ``harness.Run`` watched by a ``Checker``, as ``random_execution``
does, so a run is a trace: a failure replays from a trace file, and
``shrink`` cuts it. Without the drain rule no run at 3 replicas reached a
stable query within 40 examples.

After every step no ``Checker`` finding may stand and every query any
replica holds as stable must be oracle-stable (``refinement_fault``); at the
end of a run ``check_tail`` must report nothing.

The runs are derandomized and keep no example database, so they are the
same on every run and write nothing under ``.hypothesis/``.
"""

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule, run_state_machine_as_test

from causalrefs import harness, tracefile
from causalrefs.cli import main
from causalrefs.harness import (
    DEFAULT_WEIGHTS,
    Checker,
    GenStep,
    Run,
    Trace,
    TraceConfig,
    check_invariants,
    check_tail,
    refinement_fault,
    shrink,
)
from causalrefs.model import MODES, PURE_CAUSAL, OpCall
from test_faults import forward_creation, unhonoured_pledge

CONFIGS = [(replicas, mode) for mode in MODES for replicas in (2, 3)]


def machine(replicas: int, mode: str):
    """The model machine over ``replicas`` replicas in ``mode``."""
    replica_ids = st.integers(0, replicas - 1)

    class ModelMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.checker = Checker()
            self.run = Run(TraceConfig(replicas, 1, mode), self.checker.on_apply, self.checker.on_step)
            self.next_keys = [0] * replicas

        def gen(self, replica: int, op: OpCall) -> None:
            self.run.gen(f"g{len(self.run.steps)}", replica, op)

        @rule(kind=st.sampled_from(sorted(DEFAULT_WEIGHTS)), replica=replica_ids,
              seed=st.integers(0, 2**64 - 1))
        def generate(self, kind, replica, seed):
            st_ = self.run.world.states[replica]
            args = harness._draw_args(harness._Draws(seed), st_, replica, kind, self.next_keys)
            if args is not None:
                self.gen(replica, OpCall(kind, args))

        @precondition(lambda self: any(s.pending for s in self.run.world.states))
        @rule(data=st.data())
        def deliver(self, data):
            # Causal delivery leaves some pending message deliverable.
            world = self.run.world
            ready = [(s.rid, eid, idx) for s in world.states
                     for (eid, idx), msg in sorted(s.pending.items()) if world.deliverable(s.rid, msg)]
            self.run.deliver(*data.draw(st.sampled_from(ready)))

        @rule(replica=replica_ids)
        def drain(self, replica):
            self.run.drain(replica)

        @rule(replica=replica_ids)
        def announce(self, replica):
            self.gen(replica, OpCall("announce"))

        @invariant()
        def checked(self):
            assert not self.checker.violations, self.checker.violations
            world = self.run.world
            for s in world.states:
                for key, q in s.queries.items():
                    if q.stable:
                        assert refinement_fault(world, key) is None, (s.rid, key)

        def teardown(self):
            # Hypothesis runs this after a failed step too, whose findings
            # stand as the failure: judge the tail after a clean run only.
            if not self.checker.violations:
                report = check_tail(self.run.world, self.checker, self.run.steps)
                assert report.ok, report.violations

        def trace(self) -> Trace:
            """The steps run so far, as a trace."""
            gens = sum(isinstance(s, GenStep) for s in self.run.steps)
            config = TraceConfig(replicas, max(1, gens), mode)
            return Trace(0, config, list(self.run.steps))

    return ModelMachine


def budget(examples: int, **extra):
    return settings(max_examples=examples, stateful_step_count=150, derandomize=True, database=None,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow], **extra)


def failing_run(replicas: int, mode: str, examples: int):
    """The run the machine first fails on within ``examples`` examples, or
    None. Hypothesis does not shrink it: ``shrink`` of its trace does."""
    made = []

    def factory():
        made[:] = [machine(replicas, mode)()]
        return made[0]

    try:
        run_state_machine_as_test(factory, settings=budget(examples, phases=[Phase.generate],
                                                           report_multiple_bugs=False))
    except AssertionError:
        return made[0]
    return None


@pytest.mark.parametrize("replicas,mode", CONFIGS)
def test_machine_finds_nothing(replicas, mode):
    run_state_machine_as_test(machine(replicas, mode), settings=budget(20))


@pytest.mark.slow
@pytest.mark.parametrize("replicas,mode", CONFIGS)
def test_machine_finds_nothing_at_larger_budget(replicas, mode):
    run_state_machine_as_test(machine(replicas, mode), settings=budget(200))


def test_machine_failure_replays_as_trace_file(monkeypatch, tmp_path):
    # A run the machine fails on is a trace: written out and read back, it
    # replays to the run's findings at the same step indices, ``causalrefs
    # check`` reports them, and ``shrink`` keeps the invariant failing.
    forward_creation(monkeypatch)
    failed = failing_run(2, PURE_CAUSAL, 50)
    assert failed is not None
    found = failed.checker.violations
    assert found
    path = tmp_path / "machine.trace"
    path.write_text(tracefile.dumps(failed.trace()))
    trace = tracefile.loads(path.read_text())
    report = check_invariants(trace)
    assert [v for v in report.violations if 0 <= v.step < len(trace.steps)] == found
    invariant = found[0].invariant
    res = CliRunner().invoke(main, ["check", str(path)])
    assert res.exit_code == 1
    assert f"violation[{invariant}] step {found[0].step} " in res.output
    assert invariant in check_invariants(shrink(trace)).failed_invariants()


def test_machine_kills_unhonoured_pledge(monkeypatch):
    # A replica that pledged X, then mints a reference to X anyway, leaves
    # a query stable that the oracle does not hold stable. The search kills
    # it at its 20th run, in about 1 CPU s on a 2-core Xeon; the budget is
    # ten times that.
    unhonoured_pledge(monkeypatch)
    assert failing_run(2, PURE_CAUSAL, 200) is not None
