import dataclasses
import hashlib
import math
import random
from bisect import bisect

import pytest

from canon_reference import world_fingerprint
from causalrefs import harness, ops, tracefile
from causalrefs.harness import (
    DEFAULT_WEIGHTS,
    Checker,
    ConfigInvalid,
    DeliverStep,
    GenStep,
    NotFailing,
    Run,
    Trace,
    TraceConfig,
    check_invariants,
    deleted_faults,
    diverging_replicas,
    execution_seed,
    random_execution,
    replay,
    run_campaign,
    run_op,
    shrink,
)
from causalrefs.harness import ReplayMismatch
from causalrefs.model import ATOMIC, PURE_CAUSAL, OpCall, SimulatorError, World
from causalrefs.refs import MarkDeleted
from causalrefs.stability import ClockAnnounce, QueryRegister


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

    # Weight tables the generator cannot draw from: a negative weight, a
    # total that is zero or no finite float, or a kind ``_draw_args`` does
    # not know.
    UNDRAWABLE = {
        "zero-total": dict.fromkeys(DEFAULT_WEIGHTS, 0),
        "nan": {**DEFAULT_WEIGHTS, "invoke": math.nan},
        "infinite": {**DEFAULT_WEIGHTS, "create": math.inf},
        "overflowing-total": {"create": 1e308, "init": 1e308},
        "beyond-float": {"create": 10**400},
        "negative": {**DEFAULT_WEIGHTS, "delete": -1},
        "unknown-kind": {**DEFAULT_WEIGHTS, "bogus": 1},
        "query-kind": {"register_query": 1},
    }

    @pytest.mark.parametrize("case", sorted(UNDRAWABLE))
    def test_rejects_undrawable_weights(self, case):
        config = TraceConfig(weights=self.UNDRAWABLE[case])
        with pytest.raises(ConfigInvalid):
            config.validate()
        with pytest.raises(ConfigInvalid):
            random_execution(0, config)

    def test_accepts_zero_weights_beside_positive_ones(self):
        weights = {**dict.fromkeys(DEFAULT_WEIGHTS, 0), "create": 0.5}
        TraceConfig(weights=weights).validate()
        TraceConfig(weights={"announce": 2}).validate()

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


# Weights with a float total, unlike the default table's.
FRACTIONAL_WEIGHTS = {"create": 2.5, "init": 3.25, "assign": 6.75, "assign_null": 1.5,
                      "invoke": 0.6, "may_delete": 1.2, "delete": 0.9, "announce": 1.1}


class TestDraws:
    """``harness._Draws`` returns what ``random.Random`` returns, draw for
    draw, and leaves the same state, on the argument shapes the generator
    uses and on edge sizes."""

    SEEDS = range(25)
    # n = 1, powers of two and their neighbours, and the replica counts.
    SIZES = sorted({1, 2, 3, 5, 6, 7, 16} | {m for e in (2, 3, 4, 5, 6, 8, 31, 32, 64)
                                           for m in (2**e - 1, 2**e, 2**e + 1)})

    @staticmethod
    def both(seed):
        return harness._Draws(seed), random.Random(seed)

    def test_int_draws(self):
        for seed in self.SEEDS:
            fast, ref = self.both(seed)
            for n in self.SIZES:
                assert fast.randrange(n) == ref.randrange(n)
                assert fast.randint(0, n) == ref.randint(0, n)
                assert fast.randint(1, n) == ref.randint(1, n)
                if n < 2**63:  # len() of a larger range overflows
                    assert fast.choice(range(n)) == ref.choice(range(n))
                seq = [f"k{i}" for i in range(min(n, 70))]
                assert fast.choice(seq) == ref.choice(seq)
                assert fast.random() == ref.random()
            assert fast.getstate() == ref.getstate()

    def test_sample(self):
        # Populations up to 60 with k = 2 cross the pool/set threshold at
        # 21; the larger k take the stdlib's bigger set size.
        for seed in self.SEEDS:
            fast, ref = self.both(seed)
            for n in range(61):
                population = [f"e{i}" for i in range(n)]
                for k in (0, 1, 2, 5, 6, 12, 40):
                    if k <= n:
                        assert fast.sample(population, k) == ref.sample(population, k)
                        assert fast.getstate() == ref.getstate()

    def test_weighted_pick(self):
        tables = [harness._kind_table(DEFAULT_WEIGHTS), harness.RECLAIM_MIX,
                  harness._kind_table(FRACTIONAL_WEIGHTS)]
        weights = [[DEFAULT_WEIGHTS[k] for k in sorted(DEFAULT_WEIGHTS)], None,
                   [FRACTIONAL_WEIGHTS[k] for k in sorted(FRACTIONAL_WEIGHTS)]]
        for seed in self.SEEDS:
            fast, ref = self.both(seed)
            for _ in range(200):
                for (kinds, cum_weights, total, hi), w in zip(tables, weights):
                    pick = kinds[bisect(cum_weights, fast.random() * total, 0, hi)]
                    if w is None:
                        assert pick == ref.choices(kinds, cum_weights=cum_weights)[0]
                    else:
                        assert pick == ref.choices(kinds, weights=w)[0]
            assert fast.getstate() == ref.getstate()

    INVALID = {
        "choice-empty": lambda rng: rng.choice([]),
        "randrange-zero": lambda rng: rng.randrange(0),
        "randrange-negative": lambda rng: rng.randrange(-3),
        "randint-empty": lambda rng: rng.randint(2, 1),
        "sample-too-large": lambda rng: rng.sample(["a", "b"], 3),
        "sample-from-empty": lambda rng: rng.sample([], 1),
        "sample-negative": lambda rng: rng.sample(["a"], -1),
    }

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_errors(self, case):
        call = self.INVALID[case]
        fast, ref = self.both(3)
        with pytest.raises(Exception) as expected:
            call(ref)
        with pytest.raises(expected.type):
            call(fast)
        assert fast.getstate() == ref.getstate()


# Traces at configurations the golden digests do not cover: 20 executions
# each (campaign seed 0), hashed with their failed invariants. 7 replicas
# make ``randrange`` reject draws, fractional weights a float total, and
# 2 replicas with 60 events a long reclaim tail, and 5 replicas with 640
# events the largest pools to draw from. A draw that changes changes the
# digest.
PINNED_CONFIGS = {
    "2-60-pure-causal": (TraceConfig(2, 60, PURE_CAUSAL),
                         "b4ff3cdda294d62ffb028c0bb83456b19460926cd4e15aa53e99f1d60241c40a"),
    "7-40-atomic": (TraceConfig(7, 40, ATOMIC),
                    "2d56cd76d37e63632a089641a333395c03ee685b77404288dfb94b8359195ab2"),
    "3-20-fractional": (TraceConfig(3, 20, PURE_CAUSAL, dict(FRACTIONAL_WEIGHTS)),
                        "d84c10e251790b57c28a58608dfd09f67ef81abf3bec171a6e2bf6a45b142e95"),
    "5-640-pure-causal": (TraceConfig(5, 640, PURE_CAUSAL),
                          "888805dfa9678bd0063afea5c6b0e3fb5efc3ada667bff72616f41cf18ee2057"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_trace_digests_pinned(name):
    config, digest = PINNED_CONFIGS[name]
    h = hashlib.sha256()
    for i in range(20):
        trace = random_execution(execution_seed(0, i), config)
        h.update(tracefile.dumps(trace).encode())
        h.update(repr(sorted(check_invariants(trace).failed_invariants())).encode())
    assert h.hexdigest() == digest


def test_checker_ignores_query_and_announce_payloads():
    # ``Run.check_tail`` runs I7's query registrations and announce rounds
    # with the checker unhooked, which is sound only while ``Checker.on_apply``
    # judges none of these payloads: on a state that already breaks I1 and
    # I3 and holds a multi-valued register, it must find nothing.
    w = World(2)
    w.generate(0, OpCall("create", {"key": "A", "root": True, "attrs": ["a"]}))
    w.generate(0, OpCall("create", {"key": "X", "root": True, "attrs": []}))
    w.generate(0, OpCall("create", {"key": "Y", "root": False, "attrs": []}))
    w.quiesce()
    w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
    w.generate(1, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
    w.execute(0, OpCall("may_delete", {"target": "Y", "last": []}))
    w.quiesce()
    for r in range(w.n):
        w.generate(r, OpCall("announce"))
    w.quiesce()
    msgs = [msg for ev in w.events.values() for msg in ev.chain
            if all(type(p) in (QueryRegister, ClockAnnounce) for _, p in msg.items)]
    payloads = [p for msg in msgs for _, p in msg.items]
    assert any(type(p) is QueryRegister for p in payloads)
    assert any(type(p) is ClockAnnounce and p.reports for p in payloads)
    for st in w.states:
        st.objects["X"].deleted = True
        assert len(st.objects["A"].attrs["a"].entries) == 2
        assert {inv for inv, _ in deleted_faults(st, st.objects["X"])} == {"I1", "I3"}
        checker = Checker()
        for msg in msgs:
            checker.on_apply(w, st, msg)
        assert checker.violations == []
        assert checker.multivalued is False


class TestRunOpSpawned:
    """``run_op`` reports exactly the event added to the log during the
    call, or None, and refuses a call that adds two."""

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
        result, ev = run_op(world, 0, op)
        assert list(world.events.values())[before:] == ([] if ev is None else [ev])
        # An event is named by its last payload's type.
        return result, None if ev is None else (ev.id, type(ev.chain[-1].items[-1][1]))

    def test_failing_delete_reports_the_query_it_registered(self):
        w = self.unreferenced_x()
        result, added = self.run(w, OpCall("delete", {"target": "X", "last": []}))
        assert result == "err:NotUnreachable"
        assert added == ((0, 3), QueryRegister)

    def test_successful_delete(self):
        w = self.unreferenced_x()
        assert self.run(w, OpCall("may_delete", {"target": "X", "last": []}))[0] == "false"
        w.quiesce()
        for _ in range(2):
            for r in range(w.n):
                w.generate(r, OpCall("announce"))
            w.quiesce()
        result, added = self.run(w, OpCall("delete", {"target": "X", "last": []}))
        assert result == "ok"
        assert added == ((0, 6), MarkDeleted)

    def test_first_may_delete_registers_its_query(self):
        w = self.unreferenced_x()
        op = OpCall("may_delete", {"target": "X", "last": []})
        assert self.run(w, op) == ("false", ((0, 3), QueryRegister))
        assert self.run(w, op) == ("false", None)

    def test_two_events_raise(self, monkeypatch):
        # No generator adds a second event; one that did would leave the
        # first without a label of its own.
        announce = ops.GENERATORS["announce"]

        def announce_twice(world, st, a):
            world.generate(st.rid, OpCall("create", {"key": "Y"}))
            return announce(world, st, a)

        monkeypatch.setitem(ops.GENERATORS, "announce", announce_twice)
        with pytest.raises(SimulatorError, match="added 2 events"):
            run_op(self.unreferenced_x(), 0, OpCall("announce"))


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
        w1 = replay(tr).world
        w1.quiesce()
        w2 = replay(tr).world
        w2.quiesce()
        assert world_fingerprint(w1) == world_fingerprint(w2)


class TestConvergence:
    @pytest.mark.parametrize("mode", ["pure-causal", ATOMIC])
    def test_random_traces_converge(self, mode):
        cfg = TraceConfig(mode=mode)
        for i in range(50):
            tr = random_execution(execution_seed(3, i), cfg)
            assert "I5" not in check_invariants(tr).failed_invariants()


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["0-then-1", "1-then-0"])
def test_concurrent_deletes_of_one_object(order):
    # Both replicas delete X, each before it receives the other's delete, so
    # at each the second MarkDeleted lands on a record already deleted.
    # The set-up runs on the run's world unrecorded; the deletes and their
    # deliveries are the run's steps.
    run = Run(TraceConfig(replicas=2))
    w = run.world
    w.generate(0, OpCall("create", {"key": "A", "root": True, "attrs": ["a"]}))
    w.generate(0, OpCall("create", {"key": "X", "root": False, "attrs": ["x"]}))
    w.quiesce()
    w.generate(0, OpCall("init", {"source": "A", "attr": "a", "target": "X"}))
    w.generate(0, OpCall("init", {"source": "X", "attr": "x", "target": "X"}))
    w.generate(0, OpCall("assign_null", {"source": "A", "attr": "a"}))
    w.quiesce()
    w.execute(0, OpCall("may_delete", {"target": "X", "last": "auto"}))
    w.quiesce()
    for _ in range(2):
        for r in range(w.n):
            w.generate(r, OpCall("announce"))
        w.quiesce()
    for r in range(w.n):
        result, _ev = run.gen(f"d{r}", r, OpCall("delete", {"target": "X", "last": "auto"}))
        assert result == "ok"
    for r in order:
        run.drain(r)
    assert not any(st.pending for st in w.states)
    assert diverging_replicas(w) == []
    x0, x1 = (st.objects["X"] for st in w.states)
    assert x0.deleted and x1.deleted
    assert x0.last_refs_at_delete and x0.last_refs_at_delete == x1.last_refs_at_delete
    report = run.check_tail()
    assert report.ok, report.violations


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


class TestTraceReport:
    """A generated trace carries the report made while it was generated;
    any other trace has none and is checked by replay."""

    def generated(self):
        tr = random_execution(execution_seed(4, 2), TraceConfig())
        assert tr.report is not None
        return tr

    def test_trace_file_leaves_report_out(self):
        tr = self.generated()
        text = tracefile.dumps(tr)
        assert text == tracefile.dumps(Trace(tr.seed, tr.config, tr.steps))
        assert "report" not in text

    def test_only_generated_trace_has_report(self):
        tr = self.generated()
        assert tracefile.loads(tracefile.dumps(tr)).report is None
        assert dataclasses.replace(tr).report is None
        assert dataclasses.replace(tr, steps=tr.steps[:3]).report is None
        assert Trace(tr.seed, tr.config, list(tr.steps)).report is None

    def test_equality_and_repr_ignore_report(self):
        tr = self.generated()
        bare = Trace(tr.seed, tr.config, list(tr.steps))
        assert tr == bare
        assert repr(tr) == repr(bare)

    def test_replays_only_trace_without_report(self, monkeypatch):
        calls = []
        real = harness.replay

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        tr = self.generated()
        monkeypatch.setattr(harness, "replay", counting)
        assert check_invariants(tr) is tr.report
        assert calls == []
        loaded = tracefile.loads(tracefile.dumps(tr))
        assert check_invariants(loaded) == tr.report
        assert calls == [loaded]


class TestCampaign:
    def test_summary_shape_and_determinism(self):
        cfg = TraceConfig()
        s1 = run_campaign(8, 40, cfg)
        s2 = run_campaign(8, 40, cfg)
        assert s1["executions"] == 40
        assert s1["violations"] == s2["violations"] == {}
        assert s1["multivalued_fraction"] == s2["multivalued_fraction"]
        assert s1["deletion_fraction"] == s2["deletion_fraction"]

    @pytest.mark.parametrize("mode", [PURE_CAUSAL, ATOMIC])
    def test_deletion_fraction_pinned(self, mode):
        # The share of traces with a successful ``delete`` at the CLI's
        # default campaign: 5 of 1,000 in either mode.
        assert run_campaign(0, 1000, TraceConfig(mode=mode))["deletion_fraction"] == 0.005

    def test_atomic_mode_campaign(self):
        s = run_campaign(9, 40, TraceConfig(mode=ATOMIC))
        assert s["total_violating"] == 0
