"""Randomized execution generation, invariant checking, and trace
shrinking.

A trace is fully replayable: a header (seed, config), generation steps
(which operation ran at which replica, with its recorded outcome), and
delivery steps (which effector message was applied where). Random traces
are built the way that shakes out delivery bugs: each new event is
generated at a replica that has just been brought up to date with two
randomly chosen earlier events, each delivered only up to a random prefix
of its effector chain, after whatever the delivery rule makes it wait for
(``World.waits_for``).

Every execution the harness checks is one ``Run``: its world, the
``Checker`` hooked to it, its steps and the label of each event.
``random_execution`` drives it while it generates a trace, ``replay`` while
it re-executes one, and the model machine of ``tests/test_model_machine.py``
while it runs the rules hypothesis picks; each ends in the run's
quiescence checks (``Run.check_tail``). The explorer runs a ``Checker``
of its own on the states it reaches, and this module's event-log and
quiescence judgements (``log_faults``, ``quiescent_faults``) as they are.
Every finding, in a ``Run`` or in the explorer, is one ``Violation``
record; only the command line words it.

The generator draws as CPython 3.11's ``random.Random`` does: ``choice``
and the ``getrandbits`` rejection loop (``_randbelow``) are the stdlib's
own, ``_Draws`` reproduces ``randrange``, ``randint`` and ``sample``
without their generic argument handling, and the weighted pick of an
operation kind is the bisection ``random.choices(kinds, cum_weights=...)``
makes. So a seed gives the trace it always gave; the golden digests
(``perfbench/golden.json``), the pinned digests and the reference test
against ``random.Random`` in ``tests/test_harness.py`` hold this.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate

from . import stability
# ``canon_objects`` is bound here, unused, because perfbench/tracing.py
# wraps it under this name too.
from .canon import canon_objects, same_objects  # noqa: F401
from .model import (
    MODES,
    PURE_CAUSAL,
    Event,
    OpCall,
    PreconditionFailure,
    SimulatorError,
    World,
)
from .refs import InRefAdd, InRefRemove, MarkDeleted, OutRefSet, derivable


class ConfigInvalid(Exception):
    pass


class NotFailing(Exception):
    pass


class ReplayMismatch(Exception):
    """The trace does not replay to its recorded outcomes (corrupt trace)."""


DEFAULT_WEIGHTS = {
    "create": 3,
    "init": 4,
    "assign": 7,
    "assign_null": 2,
    "invoke": 1,
    "may_delete": 1,
    "delete": 1,
    "announce": 1,
}


# Upper bounds on a configuration, so that a trace header or a command-line
# argument cannot ask for a world the simulator cannot build or run in
# reasonable time. On a 2-core Xeon with Python 3.11.7, one execution at 5
# replicas and 10,000 events already takes about 10 s and 110 MB, one at 64
# replicas and 2,000 events 14 s and 220 MB.
MAX_REPLICAS = 16
MAX_EVENTS = 10_000
# No total of at most eight weights this size overflows a float, which is
# what ``random.choices``, and the generator's pick, compute in.
MAX_WEIGHT = 1e9


def check_replicas(replicas: int) -> None:
    """The replica bound of every configuration and exploration."""
    if not 1 <= replicas <= MAX_REPLICAS:
        raise ConfigInvalid(f"replicas must be between 1 and {MAX_REPLICAS}")


@dataclass
class TraceConfig:
    replicas: int = 3
    events: int = 20
    mode: str = PURE_CAUSAL
    weights: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def validate(self) -> None:
        check_replicas(self.replicas)
        if not 1 <= self.events <= MAX_EVENTS:
            raise ConfigInvalid(f"events must be between 1 and {MAX_EVENTS}")
        if self.mode not in MODES:
            raise ConfigInvalid(f"unknown mode {self.mode!r}")
        weights = self.weights
        if not weights or not weights.keys() <= DEFAULT_WEIGHTS.keys():
            raise ConfigInvalid(f"operation weights must name kinds among {sorted(DEFAULT_WEIGHTS)}")
        # A positive, finite total, which ``random.choices`` checks before a
        # pick and the generator's pick (``_kind_table``) leaves to this.
        if any(not 0 <= w <= MAX_WEIGHT for w in weights.values()) or not any(weights.values()):
            raise ConfigInvalid(f"operation weights must be between 0 and {MAX_WEIGHT:g}, not all zero")


@dataclass
class GenStep:
    label: str
    replica: int
    op: OpCall
    result: str  # "ok", "val:<key>", "true"/"false", or "err:<Reason>"


@dataclass
class DeliverStep:
    replica: int
    label: str
    chain_index: int


@dataclass
class Trace:
    """A replayable execution. ``report`` is the invariant report made
    while ``random_execution`` built it, and None for any other trace (one
    read from a file, cut, copied or built by hand), which
    ``check_invariants`` replays. It is neither compared nor written out,
    and goes stale if the steps are changed in place."""

    seed: int
    config: TraceConfig
    steps: list
    report: InvariantReport | None = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, order=True)
class Violation:
    """One finding, the one record every judgement returns: the invariant
    (or named property) it violates, the index of the step whose
    application made it true, the replica it was found at, and what is
    wrong. A judgement made once a trace has run (I5-I7, the event log) or
    at a state the explorer reached has step -1; one that is a fact about
    no single replica (persistence) has replica -1."""

    invariant: str
    step: int
    replica: int
    detail: str


@dataclass
class InvariantReport:
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def failed_invariants(self) -> set:
        return {v.invariant for v in self.violations}


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def execution_seed(campaign_seed: int, index: int) -> int:
    """Per-execution seed derived from the campaign's single 64-bit seed."""
    return splitmix64((campaign_seed & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(index))


# ---------------------------------------------------------------------------
# Executing one recorded operation (shared by generation and replay).

def _format_result(kind: str, value) -> str:
    if kind == "invoke":
        return f"val:{value}"
    if kind == "may_delete":
        return "true" if value else "false"
    return "ok"


def run_op(world: World, replica: int, op: OpCall) -> tuple:
    """Run one operation. Returns its recorded result string and the event
    it added to the log, or None. A generator operation adds its own event
    when it succeeds; a first ``may_delete``, and a ``delete`` that runs one
    and fails, adds the query it emits (``World.emit``). No operation adds
    two: one that does raises SimulatorError."""
    before = len(world.events)
    try:
        result = _format_result(op.kind, world.execute(replica, op))
    except PreconditionFailure as e:
        result = f"err:{e.reason}"
    added = len(world.events) - before
    if added > 1:
        raise SimulatorError(f"{op.kind} at replica {replica} added {added} events")
    # The log keeps generation order, so an added event is its last.
    return result, next(reversed(world.events.values())) if added else None


class Run:
    """One checked execution being recorded: its world, the ``Checker``
    that judges it, the steps kept so far and each generation label bound
    to the event it added, both ways. The checker watches every
    application the world makes (``Checker.on_apply``) and every step the
    run keeps (``Checker.on_step``, with the step's index among the kept
    steps, which is where the step sits in the trace they make);
    ``check_tail`` finishes the judgement. A test may pass its own
    ``checker``."""

    def __init__(self, config: TraceConfig, checker: Checker | None = None):
        self.world = World(config.replicas, config.mode)
        self.checker = Checker() if checker is None else checker
        self.world.on_apply = self.checker.on_apply
        self.steps: list = []
        self.events: dict = {}  # label -> event id
        self.labels: dict = {}  # event id -> label

    def _keep(self, step) -> None:
        self.steps.append(step)
        self.checker.on_step(self.world, len(self.steps) - 1, step)

    def gen(self, label: str, replica: int, op: OpCall) -> tuple:
        """Run ``op`` at ``replica`` as step ``label``; returns ``run_op``'s
        (result, event or None)."""
        result, ev = run_op(self.world, replica, op)
        if ev is not None:
            self.events[label] = ev.id
            self.labels[ev.id] = label
        self._keep(GenStep(label, replica, op, result))
        return result, ev

    def deliver(self, replica: int, eid, idx: int) -> None:
        """Apply message ``idx`` of event ``eid`` at ``replica``; a
        SimulatorError leaves the run as it was."""
        self.world.apply_message(replica, eid, idx)
        self._keep(DeliverStep(replica, self.labels[eid], idx))

    def drain(self, replica: int) -> None:
        """``World.drain`` at ``replica``, each delivery a step."""
        for eid, idx in self.world.drain(replica):
            self._keep(DeliverStep(replica, self.labels[eid], idx))

    def check_tail(self) -> InvariantReport:
        """Finish checking the run once its last step has run: force
        quiescence, then check I5 and I6 (``quiescent_faults``), the event
        log (``Checker.scan_deletions``) and I7, and report.

        Generation and replay both end here. It changes the world: it
        delivers everything, then unhooks the checker and runs I7's queries
        and announce rounds."""
        world, checker = self.world, self.checker
        world.quiesce()
        checker.violations.extend(quiescent_faults(world))
        checker.scan_deletions(world)

        # I7 liveness: every globally unreferenced non-root object becomes
        # deletable within two announce rounds per replica.
        n, st0 = world.n, world.states[0]
        candidates = [
            k for k, rec in st0.objects.items()
            if not rec.root and not rec.deleted and st0.ref_counts.get(k, 0) == 0
            and not rec.inref.current()
        ]
        if candidates:
            # This phase applies only query registrations and announcements,
            # which ``Checker.on_apply`` never judges.
            world.on_apply = None
            for t in candidates:
                world.execute(0, OpCall("may_delete", {"target": t, "last": []}))
            world.quiesce()
            for _ in range(2):
                for r in range(n):
                    world.generate(r, OpCall("announce"))
                world.quiesce()
            for t in candidates:
                stable = [stability.stably_subset(world, r, t, frozenset()) for r in range(n)]
                # The oracle reads the whole world, so one answer serves every
                # replica that holds the query as stable.
                bad = refinement_fault(world, (t, frozenset())) if any(stable) else None
                for r, held in enumerate(stable):
                    if not held:
                        checker.violations.append(Violation("I7", -1, r, f"{t} not stably unreferenced after 2 rounds"))
                    elif bad is not None:
                        checker.violations.append(Violation("refinement", -1, r, bad))

        gens = [s for s in self.steps if isinstance(s, GenStep)]
        report = InvariantReport(checker.violations)
        report.stats["multivalued"] = checker.multivalued
        report.stats["events"] = len(gens)
        report.stats["failed_events"] = sum(1 for s in gens if s.result.startswith("err:"))
        report.stats["deleted"] = any(s.op.kind == "delete" and s.result == "ok" for s in gens)
        return report


# ---------------------------------------------------------------------------
# Random execution generation.

def _deliver_prefix(run: Run, replica: int, eid, upto: int) -> None:
    """Deliver event ``eid``'s chain to ``replica`` up to ``upto`` messages,
    first delivering fully, one at a time, each event the delivery rule
    makes it wait for (``World.waits_for``), so the walk follows whatever
    rule the world applies. An event of ``replica`` itself is always fully
    applied there."""
    world = run.world
    st = world.states[replica]
    if st.fully_applied(eid) or upto <= st.progress.get(eid, 0):
        return
    while (dep := world.waits_for(replica, eid)) is not None:
        _deliver_prefix(run, replica, dep, len(world.events[dep].chain))
    for idx in range(st.progress.get(eid, 0), upto):
        run.deliver(replica, eid, idx)


class _Draws(random.Random):
    """The generator's random source: ``random.Random``, whose own
    ``choice`` and ``_randbelow`` it uses, with ``randrange(stop)``,
    ``randint`` and ``sample`` taking only the arguments the generator
    passes. Each returns what CPython 3.11's method returns from the same
    state, leaves the same state behind and raises the same error types;
    ``sample`` keeps the stdlib's two algorithms, a copied pool up to the
    size of the set it would otherwise keep and rejection of repeats
    through a set above that. The golden digests and
    ``tests/test_harness.py`` (against ``random.Random`` itself) pin this."""

    def randrange(self, stop: int) -> int:
        # getrandbits(0) is 0, which is never below 0, so ``_randbelow``
        # would loop for ever: refuse first.
        if stop <= 0:
            raise ValueError("empty range")
        return self._randbelow(stop)

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def sample(self, population, k: int) -> list:
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        below = self._randbelow
        result = [None] * k
        setsize = 21  # size of a small set minus size of an empty list
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            pool = list(population)
            for i in range(k):
                j = below(n - i)
                result[i] = pool[j]
                pool[j] = pool[n - i - 1]
        else:
            selected = set()
            for i in range(k):
                j = below(n)
                while j in selected:
                    j = below(n)
                selected.add(j)
                result[i] = population[j]
        return result


def _kind_table(weights: dict) -> tuple:
    """What ``random.choices(kinds, cum_weights=...)`` computes before its
    pick, for ``weights``' kinds in name order: the kinds, their cumulative
    weights, the total as a float and the last index. The pick is then
    ``kinds[bisect(cum_weights, rng.random() * total, 0, hi)]``; the
    checks ``choices`` makes on the weights are ``TraceConfig.validate``'s."""
    kinds = sorted(weights)
    cum_weights = list(accumulate(weights[k] for k in kinds))
    return kinds, cum_weights, cum_weights[-1] + 0.0, len(kinds) - 1


# Some traces end in a reclamation phase: gossip- and deletion-heavy
# drawing with frequent sync points, so termination detection can actually
# complete and deletions race against regular updates.
RECLAIM_MIX = _kind_table({
    "create": 0.5, "init": 1, "assign": 1, "assign_null": 3,
    "invoke": 0.5, "may_delete": 3, "delete": 3, "announce": 30,
})


def _draw_args(rng: _Draws, st, kind: str):
    """The arguments of a ``kind`` operation drawn from replica state
    ``st``, or None when ``st`` holds nothing to draw them from. Each kind
    builds only the lists it draws from, in ``st.objects`` order; no draw
    changes ``st``, so every attempt at an event reads the same lists. A
    create is numbered by the creates before it at its replica: every drawn
    create runs and succeeds, its key being new."""
    if kind == "create":
        key = f"o{st.rid}n{len(st.created_here)}"
        nattrs = rng.randint(1, 2)
        return {"key": key, "root": rng.random() < 0.3, "attrs": ["f", "g"][:nattrs]}
    if kind == "announce":
        return {}
    objects = st.objects
    if kind in ("may_delete", "delete"):
        # A delete targets a live key that is not a root, a may_delete any.
        if kind == "may_delete":
            pool = list(objects)
        else:
            pool = [k for k, rec in objects.items() if not rec.deleted and not rec.root]
        if not pool:
            return None
        # Prefer re-probing registered queries, then unreferenced objects,
        # so detection can complete and deletions actually happen mid-trace.
        probed = [t for t, _last in st.queries if t in objects and (
            kind == "may_delete" or not objects[t].deleted and not objects[t].root)]
        if probed and rng.random() < 0.7:
            return {"target": rng.choice(probed), "last": "auto"}
        unref = [k for k in pool if st.ref_counts.get(k, 0) == 0 and not objects[k].root]
        if unref and rng.random() < 0.7:
            return {"target": rng.choice(unref), "last": "auto"}
        return {"target": rng.choice(pool), "last": "auto"}
    if kind not in ("init", "assign", "assign_null", "invoke"):
        raise SimulatorError(f"unknown op kind {kind!r}")
    with_attrs = [k for k, rec in objects.items() if rec.attrs and not rec.deleted]
    if not with_attrs:
        return None

    def pick_attr(key):
        return rng.choice(sorted(objects[key].attrs))

    if kind == "init":
        source = rng.choice(with_attrs)
        # Mostly target something plausibly reachable here so inits succeed
        # often enough to build interesting graphs: a live key that a new
        # reference may target by the mint rule, whatever is pledged here.
        mintable = [k for k, rec in objects.items() if not rec.deleted and derivable(st, k, rec)]
        pool = mintable if mintable and rng.random() < 0.8 else list(objects)
        return {"source": source, "attr": pick_attr(source), "target": rng.choice(pool)}
    if kind == "assign":
        # Prefer a source that is actually assignable (exactly one entry,
        # not NULL) and often overwrite an attribute that already holds a
        # value; that is where concurrent assignments (multi-valued
        # registers) come from.
        assignable, written = [], []
        for k in with_attrs:
            for a, out in sorted(objects[k].attrs.items()):
                entries = out.entries
                if entries:
                    written.append((k, a))
                    if len(entries) == 1 and next(iter(entries.values())).target is not None:
                        assignable.append((k, a))
        if assignable and rng.random() < 0.8:
            src, src_attr = rng.choice(assignable)
        else:
            src = rng.choice(with_attrs)
            src_attr = pick_attr(src)
        if written and rng.random() < 0.6:
            dst, dst_attr = rng.choice(written)
        else:
            dst = rng.choice(with_attrs)
            dst_attr = pick_attr(dst)
        return {"dst": dst, "dst_attr": dst_attr, "src": src, "src_attr": src_attr}
    source = rng.choice(with_attrs)
    return {"source": source, "attr": pick_attr(source)}


def random_execution(seed: int, config: TraceConfig) -> Trace:
    """Build one replayable random trace, checking every invariant as it
    goes in a ``Run``, whose ``check_tail`` runs once the last event is
    generated. Each event's operation is drawn (``_draw_args``) from the
    state of the replica it runs at, as that state is after the event's
    deliveries. The report is kept as the trace's ``report``, so
    ``check_invariants`` need not replay the trace. Deterministic in (seed,
    config)."""
    config.validate()
    rng = _Draws(seed)
    run = Run(config)
    successes: list[Event] = []
    mix = _kind_table(config.weights)
    reclaim_from = int(config.events * 0.45) if rng.random() < 0.3 else None

    for i in range(config.events):
        reclaiming = reclaim_from is not None and i >= reclaim_from
        # Round-robin replicas while reclaiming: detection needs every
        # replica to gossip, which uniform choice rarely achieves in a
        # short tail.
        replica = i % config.replicas if reclaiming else rng.randrange(config.replicas)
        sync_p = 0.6 if reclaiming else 0.1
        if successes and rng.random() < sync_p:
            # Full sync point: deliver everything outstanding to this replica.
            run.drain(replica)
        elif successes:
            parents = rng.sample(successes, min(2, len(successes)))
            for ev in parents:
                upto = rng.randint(0, len(ev.chain))
                _deliver_prefix(run, replica, ev.id, upto)
        # What runs if all 8 draws below fail. In the reclaim tail that is
        # the delete of a ripe target, or at its first event a may_delete,
        # though both are meant to run first: the draws overwrite them, and
        # the may_delete's draw is spent either way. Running them first
        # changes the random stream, so the fix belongs to the opt-in
        # deletion-heavy profile of ROADMAP.md item 1, not to this one.
        fallback = None
        st = run.world.states[replica]
        if reclaiming:
            draw_kinds, draw_cum_weights, total, hi = RECLAIM_MIX
            # The first target, by name, of a stable query that is live
            # and not a root here.
            ripe = min((t for (t, _last), q in st.queries.items()
                        if q.stable and t in st.objects
                        and not st.objects[t].deleted and not st.objects[t].root), default=None)
            if ripe is not None:
                fallback = OpCall("delete", {"target": ripe, "last": "auto"})
            elif i == reclaim_from:
                args = _draw_args(rng, st, "may_delete")
                if args is not None:
                    fallback = OpCall("may_delete", args)
        else:
            draw_kinds, draw_cum_weights, total, hi = mix
        for _ in range(8):
            kind = draw_kinds[bisect(draw_cum_weights, rng.random() * total, 0, hi)]
            args = _draw_args(rng, st, kind)
            if args is not None:
                op = OpCall(kind, args)
                break
        else:
            op = fallback if fallback is not None else OpCall("create", _draw_args(rng, st, "create"))
        _result, ev = run.gen(f"g{i}", replica, op)
        if ev is not None:
            successes.append(ev)
    trace = Trace(seed, config, run.steps)
    trace.report = run.check_tail()
    return trace


# ---------------------------------------------------------------------------
# Replay.

def replay(trace: Trace, strict: bool = True, checker: Checker | None = None) -> Run:
    """Re-execute a trace through a ``Run`` under ``checker`` (a fresh
    ``Checker`` by default), and return the run: its steps are the
    normalized steps, and ``Run.check_tail`` finishes its report.

    In strict mode any divergence from the recorded outcomes raises
    ReplayMismatch. In lenient mode (the shrinker's) a delivery that cannot
    apply or names no event yet bound is dropped, and recorded results give
    way to the actual ones; the normalized steps replay strictly through the
    same states. The checker numbers each step by its index among the
    normalized steps, so a lenient replay reports what a strict replay of
    the normalized ones does.
    """
    trace.config.validate()
    run = Run(trace.config, checker)
    for i, step in enumerate(trace.steps):
        if isinstance(step, GenStep):
            result, _ev = run.gen(step.label, step.replica, step.op)
            if strict and result != step.result:
                raise ReplayMismatch(f"step {i} ({step.label}): recorded {step.result!r}, got {result!r}")
            continue
        eid = run.events.get(step.label)
        try:
            if eid is None:
                raise SimulatorError(f"unknown event label {step.label!r}")
            run.deliver(step.replica, eid, step.chain_index)
        except SimulatorError as e:
            if strict:
                raise ReplayMismatch(f"step {i}: {e}") from e
    return run


# ---------------------------------------------------------------------------
# Invariant checking.
#
# Each clause of I1-I6 and of refinement is defined once below. A record
# clause returns what it found wrong: a detail string, or None when it
# holds (the functions covering several clauses return lists); the
# judgements that read the event log or a quiescent world
# (``log_faults``, ``quiescent_faults``) return ``Violation``s. The Checker
# runs the clauses while an execution is generated or replayed, and the
# explorer (``explore``) runs the Checker's record checks on the replica
# states it builds and the other judgements at the states it reaches; each
# only chooses where to run them, and both report ``Violation``s.

def entry_fault(st, key: str, attr: str, e):
    """I1 for the non-NULL entry ``e`` of ``key.attr`` at replica state
    ``st``: its target exists, is not deleted and lists (``key``, ``e.ref``)."""
    trec = st.objects.get(e.target)
    if trec is None or trec.deleted:
        return f"{key}.{attr} references deleted/missing {e.target}"
    if not trec.inref.lists((key, e.ref)):
        return f"({key},{e.ref}) missing from listing of {e.target}"
    return None


def removal_fault(rec, pair):
    """I4 for one pair in the removed set of ``rec``'s listing: it was added."""
    if pair not in rec.inref.added:
        return f"removed unknown pair {pair} at {rec.key}"
    return None


def listing_fault(rec, pair):
    """I3, local half, for one pair listed at the deleted ``rec``: its
    reference is in the delete's ignore-set."""
    if pair[1] not in rec.last_refs_at_delete:
        return f"listing pair ({pair[0]},{pair[1]}) at deleted {rec.key} outside its ignore-set"
    return None


def targeting_faults(st, key: str) -> list:
    """I1 for the deleted record ``key`` at replica state ``st``: no entry
    there targets it. One detail if some entry does, then ``entry_fault``'s
    for each such entry."""
    if st.ref_counts.get(key, 0) == 0:
        return []
    out = [f"{key} deleted while entries still target it here"]
    for src_key, src in st.objects.items():
        for attr, outref in src.attrs.items():
            for e in outref.entries.values():
                if e.target == key:
                    out.append(entry_fault(st, src_key, attr, e))
    return out


def deleted_faults(st, rec) -> list:
    """The clauses on the deleted ``rec`` at replica state ``st``, as
    (invariant, detail) pairs: it is not a root (I1), no entry at ``st``
    targets it (I1, ``targeting_faults``), and each pair of its listing
    passes ``listing_fault``."""
    out = []
    if rec.root:
        out.append(("I1", f"root object {rec.key} deleted"))
    out.extend(("I1", bad) for bad in targeting_faults(st, rec.key))
    for pair in sorted(rec.inref.current()):
        bad = listing_fault(rec, pair)
        if bad:
            out.append(("I3", bad))
    return out


def log_faults(world: World) -> list:
    """The event-log checks, as ``Violation``s with step -1 at the replica
    of the event found at fault.

    I2: each reference id enters inref-adds from one event only, and outref
    entries from one event only. I3, global half: every listing addition to
    an object a delete event deletes, outside that delete's ignore-set,
    comes from an event in the delete's causal past."""
    out = []
    added: dict = {}
    intro: dict = {}
    adds: list = []
    deletes: list = []
    for ev in world.events.values():
        eid = ev.id
        for msg in ev.chain:
            for target, p in msg.items:
                kind = type(p)
                if kind is InRefAdd:
                    prev = added.setdefault(p.ref, eid)
                    if prev != eid:
                        out.append(Violation("I2", -1, eid[0], f"ref {p.ref} added by {prev} and {eid}"))
                    adds.append((ev, target, p))
                elif kind is OutRefSet and p.entry.ref is not None:
                    prev = intro.setdefault(p.entry.ref, eid)
                    if prev != eid:
                        out.append(Violation("I2", -1, eid[0], f"ref {p.entry.ref} introduced by {prev} and {eid}"))
                elif kind is MarkDeleted:
                    deletes.append((ev, target, p.last))
    for d, target, last in deletes:
        for ev, tgt, p in adds:
            if tgt != target or p.ref in last or ev is d:
                continue
            r, seq = ev.id
            if d.deps.get(r, 0) < seq:
                out.append(Violation("I3", -1, d.id[0],
                                     f"add of ({p.source},{p.ref}) to {target} by {ev.id} not before delete {d.id}"))
    return out


def refinement_fault(world: World, key):
    """Refinement for the query ``key`` = (target, ignore-set), which a
    replica holds as stable: the omniscient oracle agrees that it is."""
    target, last = key
    if not stability.oracle_stable(world, target, last):
        return f"stably {target} but oracle disagrees"
    return None


def diverging_replicas(world: World) -> list:
    """I5 at a quiesced ``world``: the replicas whose object state differs
    from replica 0's (``canon.same_objects``)."""
    st0 = world.states[0]
    return [r for r in range(1, world.n) if not same_objects(world.states[r], st0)]


def quiescent_faults(world: World) -> list:
    """I5 and I6 at a quiescent ``world``, as ``Violation``s with step -1:
    each replica that diverges from replica 0, and each listing mismatch at
    replica 0 (which I5 makes every replica's)."""
    out = [Violation("I5", -1, r, "replica state diverges from replica 0 after quiesce")
           for r in diverging_replicas(world)]
    out.extend(Violation("I6", -1, 0, detail) for detail in listing_mismatches(world.states[0]))
    return out


def listing_mismatches(st) -> list:
    """I6 at a quiesced replica state: each object's listing holds exactly
    the (source, ref) pairs of the surviving entries that target it."""
    targeted: dict = {}
    for src_key, src in st.objects.items():
        for out in src.attrs.values():
            for e in out.entries.values():
                targeted.setdefault(e.target, set()).add((src_key, e.ref))
    out = []
    for key, rec in st.objects.items():
        listed, actual = rec.inref.current(), targeted.get(key, set())
        if listed != actual:
            out.append(f"listing of {key} is {sorted(listed)}, entries say {sorted(actual)}")
    return out


# The (kind, result) of a step that got the detector's "stable" answer.
STABLE_ANSWERS = {("may_delete", "true"), ("delete", "ok")}


class Checker:
    """Runs the invariant clauses on one execution as it runs. Each
    ``Run`` hooks its own, whichever of its three drivers runs it:
    ``random_execution`` while it generates a trace, ``replay`` for any
    other trace, and the model machine of ``tests/test_model_machine.py``.
    The explorer uses ``on_apply`` alone.

    ``on_apply``, the world's application hook, checks after each payload
    every clause on a record that payload can falsify, so from a checked
    start it reports each finding at the application that makes it true
    (the explorer relies on this); ``on_step``, run after every step of the
    trace, checks refinement; ``scan_deletions`` runs the event-log checks
    once the trace has run (``Run.check_tail``).
    """

    def __init__(self):
        self.violations: list = []
        # The index of the step being run among the steps kept so far,
        # which labels what its applications find.
        self.step = 0
        self.multivalued = False

    def on_apply(self, world: World, st, msg) -> None:
        for target, p in msg.items:
            kind = type(p)
            if kind is OutRefSet:
                out = st.objects[target].attrs[p.attr]
                e = p.entry
                if e.target is not None and e.write_dot in out.entries:
                    bad = entry_fault(st, target, p.attr, e)
                    if bad is not None:
                        trec = st.objects.get(e.target)
                        if trec is not None and trec.deleted:
                            # The deleted target is targeted now; that
                            # clause reports this entry among the others.
                            for detail in targeting_faults(st, e.target):
                                self._bad("I1", st, detail)
                        else:
                            self._bad("I1", st, bad)
                if len(out.entries) > 1:
                    self.multivalued = True
            elif kind is InRefAdd:
                rec = st.objects[target]
                if rec.deleted:
                    self._bad("I3", st, listing_fault(rec, (p.source, p.ref)))
            elif kind is InRefRemove:
                self._bad("I4", st, removal_fault(st.objects[target], (p.source, p.ref)))
                # A removal unlists the pair, so an entry still holding the
                # reference now fails I1.
                src = st.objects.get(p.source)
                if src is not None:
                    for attr, out in src.attrs.items():
                        for e in out.entries.values():
                            if e.ref == p.ref:
                                self._bad("I1", st, entry_fault(st, p.source, attr, e))
            elif kind is MarkDeleted:
                for invariant, detail in deleted_faults(st, st.objects[target]):
                    self._bad(invariant, st, detail)

    def _bad(self, invariant: str, st, detail) -> None:
        """Record ``detail`` as a violation of ``invariant`` at ``st``,
        unless it is None (the clause holds)."""
        if detail is not None:
            self.violations.append(Violation(invariant, self.step, st.rid, detail))

    def on_step(self, world: World, i: int, step) -> None:
        """Refinement after step ``i``, when it gave the detector's "stable"
        answer: every query the step's replica holds as stable."""
        if isinstance(step, GenStep) and (step.op.kind, step.result) in STABLE_ANSWERS:
            st = world.states[step.replica]
            for key, q in st.queries.items():
                if q.stable:
                    self._bad("refinement", st, refinement_fault(world, key))
        self.step = i + 1  # after the last step: quiescence and later

    def scan_deletions(self, world: World) -> None:
        """The event-log checks (I2 and the global half of I3), once per
        trace, after its last step."""
        self.violations.extend(log_faults(world))


def check_invariants(trace: Trace) -> InvariantReport:
    """The invariant report of ``trace``: I1-I4 at every post-application
    state, the stability refinement property, and I5-I7 after forced
    quiescence. A trace ``random_execution`` built was checked while it was
    built, and its ``report`` is returned as it is; any other trace is
    replayed strictly and finished by ``Run.check_tail``."""
    if trace.report is not None:
        return trace.report
    return replay(trace).check_tail()


# ---------------------------------------------------------------------------
# Shrinking.

def _without_events(steps: list):
    """Each candidate without one label's generation steps; lenient replay
    drops the deliveries of the event they added, as nothing binds it."""
    for label in [s.label for s in steps if isinstance(s, GenStep)]:
        yield [s for s in steps if not (isinstance(s, GenStep) and s.label == label)]


def _without_deliveries(steps: list):
    """Each candidate without one delivery step, the last first."""
    for i in range(len(steps) - 1, -1, -1):
        if isinstance(steps[i], DeliverStep):
            yield steps[:i] + steps[i + 1:]


def shrink(failing: Trace) -> Trace:
    """Greedy minimization: drop whole events, then single deliveries, as
    long as the same invariant still fails, judging each candidate by one
    lenient checked replay. The result is normalized, replays strictly to
    the same failure and is never larger than the input."""
    run = replay(failing, strict=False)
    steps, base = run.steps, run.check_tail()
    if base.ok:
        raise NotFailing("trace does not fail any invariant")
    target_inv = base.violations[0].invariant

    def still_failing(cand: list):
        """``cand`` normalized if it still fails ``target_inv``, else None."""
        try:
            run = replay(Trace(failing.seed, failing.config, cand), strict=False)
            failed = run.check_tail().failed_invariants()
        except SimulatorError:
            return None
        return run.steps if target_inv in failed else None

    for candidates in (_without_events, _without_deliveries):
        shorter = steps
        while shorter is not None:
            steps = shorter
            shorter = next((n for n in map(still_failing, candidates(steps)) if n is not None), None)
    return Trace(failing.seed, failing.config, steps)


# ---------------------------------------------------------------------------
# Campaigns.

KEEP_FAILURES = 10


def run_campaign(seed: int, executions: int, config: TraceConfig):
    """Run ``executions`` random traces and check every invariant.

    Returns a summary dict: per invariant, the number of traces violating
    it; the number of traces violating any invariant; the fraction of
    traces that exhibited a multi-valued register, the fraction that deleted
    an object (a ``delete`` step with result ``ok``), and the first
    ``KEEP_FAILURES`` failing traces, shrunk.
    """
    if executions < 1:
        raise ConfigInvalid("need at least one execution")
    config.validate()
    counts: dict = {}
    failures: list = []
    multivalued = 0
    deleted = 0
    violating = 0
    for i in range(executions):
        trace = random_execution(execution_seed(seed, i), config)
        report = check_invariants(trace)
        multivalued += report.stats["multivalued"]
        deleted += report.stats["deleted"]
        if not report.ok:
            violating += 1
            for inv in sorted(report.failed_invariants()):
                counts[inv] = counts.get(inv, 0) + 1
            if len(failures) < KEEP_FAILURES:
                failures.append((i, shrink(trace), report))
    return {
        "executions": executions,
        "violations": counts,
        "total_violating": violating,
        "multivalued_fraction": multivalued / executions,
        "deletion_fraction": deleted / executions,
        "failures": failures,
    }
