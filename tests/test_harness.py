import pytest

from canon_reference import world_fingerprint
from causalrefs import harness
from causalrefs.harness import (
    ConfigInvalid,
    DeliverStep,
    GenStep,
    NotFailing,
    Trace,
    TraceConfig,
    check_invariants,
    execution_seed,
    random_execution,
    replay,
    run_campaign,
    run_op,
    shrink,
)
from causalrefs.harness import ReplayMismatch
from causalrefs.model import ATOMIC, PURE_CAUSAL, OpCall, World


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigInvalid):
            TraceConfig(replicas=0).validate()
        with pytest.raises(ConfigInvalid):
            TraceConfig(events=0).validate()
        with pytest.raises(ConfigInvalid):
            TraceConfig(mode="eventual").validate()
        with pytest.raises(ConfigInvalid):
            TraceConfig(weights={}).validate()

    def test_campaign_rejects_zero_executions(self):
        with pytest.raises(ConfigInvalid):
            run_campaign(0, 0, TraceConfig())


class TestRandomExecution:
    def test_deterministic(self):
        a = random_execution(42, TraceConfig())
        b = random_execution(42, TraceConfig())
        assert a.steps == b.steps

    def test_create_only_config(self):
        cfg = TraceConfig(events=3, weights={"create": 1})
        tr = random_execution(7, cfg)
        gens = [s for s in tr.steps if isinstance(s, GenStep)]
        assert len(gens) == 3
        assert all(s.op.kind == "create" and s.result == "ok" for s in gens)
        assert check_invariants(tr).ok

    def test_schedule_valid_replays_strictly(self):
        for i in range(30):
            tr = random_execution(execution_seed(5, i), TraceConfig())
            replay(tr, strict=True)  # raises on any invalid schedule step

    def test_failed_events_are_trace_content(self):
        found = False
        for i in range(30):
            tr = random_execution(execution_seed(5, i), TraceConfig())
            if any(isinstance(s, GenStep) and s.result.startswith("err:") for s in tr.steps):
                found = True
                break
        assert found

    def test_multivalued_fraction_exceeds_half(self):
        n = 1000
        hits = 0
        for i in range(n):
            tr = random_execution(execution_seed(1234, i), TraceConfig())
            rep = check_invariants(tr)
            assert rep.ok, rep.violations[:3]
            if rep.stats["multivalued"]:
                hits += 1
        assert hits / n > 0.5

    def test_mid_trace_deletions_occur(self):
        deletes = 0
        for i in range(2000):
            tr = random_execution(execution_seed(1234, i), TraceConfig())
            deletes += sum(
                1 for s in tr.steps
                if isinstance(s, GenStep) and s.op.kind == "delete" and s.result == "ok")
        assert deletes > 0


def reference_pools(st) -> dict:
    """The lists the generator draws from, computed from scratch at every
    draw as ``_draw_args`` once did, to pin ``harness.DrawView``."""
    keys = list(st.objects)
    live = [k for k in keys if not st.objects[k].deleted]
    with_attrs = [k for k in live if st.objects[k].attrs]
    return {
        "keys": keys,
        "live": live,
        "with_attrs": with_attrs,
        "mintable": [k for k in live
                     if st.objects[k].root or k in st.created_here or st.ref_counts.get(k, 0) > 0],
        "assignable": [(k, a) for k in with_attrs for a, out in sorted(st.objects[k].attrs.items())
                       if len(out.entries) == 1 and out.non_null()],
        "written": [(k, a) for k in with_attrs for a, out in sorted(st.objects[k].attrs.items())
                    if out.entries],
    }


@pytest.mark.parametrize("replicas,events,traces,mode", [
    (3, 20, 100, PURE_CAUSAL), (3, 20, 100, ATOMIC), (5, 320, 3, PURE_CAUSAL)])
def test_draw_view_matches_reference(monkeypatch, replicas, events, traces, mode):
    # At every draw, the view built once for the event still equals the
    # lists computed from the replica state as it is then.
    draw = harness._draw_args
    differing = draws = 0

    def checked(rng, view, replica, kind, next_keys):
        nonlocal differing, draws
        assert view.st.rid == replica
        assignable, written = view.assign_pools()
        assert reference_pools(view.st) == {
            "keys": view.keys, "live": view.live, "with_attrs": view.with_attrs,
            "mintable": view.mintable(), "assignable": assignable, "written": written,
        }
        draws += 1
        differing += assignable != written
        return draw(rng, view, replica, kind, next_keys)

    monkeypatch.setattr(harness, "_draw_args", checked)
    for i in range(traces):
        random_execution(execution_seed(9, i), TraceConfig(replicas=replicas, events=events, mode=mode))
    assert draws >= traces * events and differing


class TestRunOpSpawned:
    """``run_op`` reports exactly the events added to the log during the
    call, in generation order."""

    @staticmethod
    def unreferenced_x():
        w = World(2)
        w.generate(0, OpCall("create", {"key": "A", "root": True, "attrs": ["a"]}))
        w.generate(0, OpCall("create", {"key": "X", "root": False, "attrs": ["x"]}))
        w.quiesce()
        return w

    @staticmethod
    def run(world, op):
        before = len(world.events)
        result, spawned = run_op(world, 0, op)
        assert spawned == list(world.events.values())[before:]
        return result, [(ev.id, ev.op.kind) for ev in spawned]

    def test_failing_delete_reports_the_query_it_registered(self):
        w = self.unreferenced_x()
        result, spawned = self.run(w, OpCall("delete", {"target": "X", "last": []}))
        assert result == "err:NotUnreachable"
        assert spawned == [((0, 3), "register_query")]

    def test_successful_delete(self):
        w = self.unreferenced_x()
        assert self.run(w, OpCall("may_delete", {"target": "X", "last": []}))[0] == "false"
        w.quiesce()
        for _ in range(2):
            for r in range(w.n):
                w.generate(r, OpCall("announce"))
            w.quiesce()
        result, spawned = self.run(w, OpCall("delete", {"target": "X", "last": []}))
        assert result == "ok"
        assert spawned == [((0, 6), "delete")]

    def test_first_may_delete_registers_its_query(self):
        w = self.unreferenced_x()
        op = OpCall("may_delete", {"target": "X", "last": []})
        assert self.run(w, op) == ("false", [((0, 3), "register_query")])
        assert self.run(w, op) == ("false", [])


class TestReplay:
    def test_corrupt_result_raises_mismatch(self):
        tr = random_execution(11, TraceConfig())
        for s in tr.steps:
            if isinstance(s, GenStep):
                s.result = "err:Bogus"
                break
        with pytest.raises(ReplayMismatch):
            replay(tr, strict=True)

    def test_unknown_label_raises_mismatch(self):
        tr = random_execution(11, TraceConfig())
        tr.steps.append(DeliverStep(0, "g999", 0))
        with pytest.raises(ReplayMismatch):
            replay(tr, strict=True)

    def test_replay_twice_byte_identical(self):
        tr = random_execution(13, TraceConfig())
        w1, _ = replay(tr)
        w1.quiesce()
        w2, _ = replay(tr)
        w2.quiesce()
        assert world_fingerprint(w1) == world_fingerprint(w2)


class TestConvergence:
    @pytest.mark.parametrize("mode", ["pure-causal", ATOMIC])
    def test_random_traces_converge(self, mode):
        cfg = TraceConfig(mode=mode)
        for i in range(50):
            tr = random_execution(execution_seed(3, i), cfg)
            assert "I5" not in check_invariants(tr).failed_invariants()


class TestShrink:
    def test_passing_trace_rejected(self):
        tr = random_execution(21, TraceConfig())
        assert check_invariants(tr).ok
        with pytest.raises(NotFailing):
            shrink(tr)

    def test_shrinks_induced_failure(self, monkeypatch):
        # Force the oracle to disagree everywhere: every trace with a
        # deletability detection then fails the refinement property, giving
        # the shrinker a real failure to minimize.
        monkeypatch.setattr("causalrefs.stability.oracle_stable", lambda *a: False)
        failing = None
        for i in range(50):
            tr = random_execution(execution_seed(77, i), TraceConfig())
            rep = check_invariants(tr)
            if not rep.ok:
                failing = (tr, rep)
                break
        assert failing is not None
        tr, rep = failing
        small = shrink(tr)
        small_rep = check_invariants(small)
        assert rep.failed_invariants() & small_rep.failed_invariants()
        assert len(small.steps) <= len(tr.steps)


class TestCampaign:
    def test_summary_shape_and_determinism(self):
        cfg = TraceConfig()
        s1 = run_campaign(8, 40, cfg)
        s2 = run_campaign(8, 40, cfg)
        assert s1["executions"] == 40
        assert s1["violations"] == s2["violations"] == {}
        assert s1["multivalued_fraction"] == s2["multivalued_fraction"]

    def test_atomic_mode_campaign(self):
        s = run_campaign(9, 40, TraceConfig(mode=ATOMIC))
        assert s["total_violating"] == 0
