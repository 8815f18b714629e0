"""The benchmark's workloads, their measurement loops and golden checks.

Every workload runs in this process on one thread as a closed loop: one
caller, and the next operation starts when the previous one ends. An
operation is one random execution (``harness.random_execution`` followed by
``harness.check_invariants``) on the campaign workloads, and one
exploration pass on ``explore``.

``run`` returns a result dict. With ``trace=False`` its metrics are the
end-to-end ones, scaled to the nominal host speed (``hostspeed``). With ``trace=True`` the loop alternates untraced and
traced rounds: per-layer metrics come from the traced rounds, normalized
per operation, and the untraced rounds give the tracing overhead and the
per-mode execution times.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import hostspeed
from tracing import OP_LAYER, Tracer

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
PROGRAM_MODULES = ("model", "ops", "refs", "stability", "canon", "harness",
                   "explore", "scenarios", "tracefile")
SETUP_REPEATS = 9
GOLDEN_SEED = 1
# A run stops at this multiple of its measuring time even if it has not
# reached its minimum operation count.
TIME_CAP = 3.0

PURE_CAUSAL = "pure-causal"
ATOMIC = "atomic"


@dataclass(frozen=True)
class Campaign:
    replicas: int
    events: int
    modes: tuple
    batch: int          # executions per mode per round
    min_ops: int        # executions a full-length run must hold
    warm_ops: int       # executions per mode in one warm-up
    golden_ops: int     # executions per mode in the golden batch
    ref_units: int      # reference units per host measure (about a tenth of a round)


@dataclass(frozen=True)
class Explore:
    min_ops: int = 1
    ref_units: int = 40


WORKLOADS = {
    "campaign-short": Campaign(3, 20, (PURE_CAUSAL, ATOMIC), batch=25, min_ops=1,
                               warm_ops=10, golden_ops=100, ref_units=16),
    "campaign-long": Campaign(5, 320, (PURE_CAUSAL,), batch=1, min_ops=200,
                              warm_ops=1, golden_ops=4, ref_units=5),
    "explore": Explore(),
}


class SourceMissing(Exception):
    """The program's source tree is not next to the benchmark."""


# ---------------------------------------------------------------------------
# Importing the program and measuring set-up.

def _import_program(src: Path) -> SimpleNamespace:
    pkg = importlib.import_module("causalrefs")
    if Path(pkg.__file__).resolve().parent != (src / "causalrefs").resolve():
        raise SourceMissing(f"causalrefs imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"causalrefs.{m}") for m in PROGRAM_MODULES})


def set_up(spec, src: Path):
    """Import the program from ``src`` and warm it up; returns its modules."""
    if not (src / "causalrefs" / "__init__.py").is_file():
        raise SourceMissing(f"no causalrefs package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    prog = _import_program(src)
    _warm_up(spec, prog)
    return prog


def timed_set_up(name: str, src: Path) -> float:
    """Seconds from spawning a fresh Python process that runs ``set_up`` for
    workload ``name`` (this file run as a script) to its exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), name, str(src)],
                          capture_output=True, text=True, timeout=120)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
    return took


def _warm_up(spec, prog) -> None:
    if isinstance(spec, Campaign):
        for cfg in _configs(spec, prog):
            for j in range(spec.warm_ops):
                _execution(prog, prog.harness.execution_seed(0, j), cfg)
    else:
        ex = prog.explore
        for mode in (PURE_CAUSAL, ATOMIC):
            ex.explore_catalog(ex.basic_catalog(), 2, replicas=2, mode=mode, setup=ex.basic_setup)


# ---------------------------------------------------------------------------
# Operations and their digests.

def _configs(spec: Campaign, prog) -> list:
    return [prog.harness.TraceConfig(spec.replicas, spec.events, mode) for mode in spec.modes]


def _execution(prog, seed: int, cfg):
    trace = prog.harness.random_execution(seed, cfg)
    return trace, prog.harness.check_invariants(trace)


def _trace_record(prog, trace, report) -> list:
    """Digest of one execution: sha256 of its trace file, whether it held a
    multi-valued register, and the invariants it violated."""
    digest = hashlib.sha256(prog.tracefile.dumps(trace).encode()).hexdigest()
    return [digest, bool(report.stats.get("multivalued")), sorted(report.failed_invariants())]


def _explore_parts(prog) -> list:
    """The four explorations of one pass, in order, as (name, callable)."""
    ex, sc = prog.explore, prog.scenarios
    parts = []
    for mode in (PURE_CAUSAL, ATOMIC):
        parts.append((f"catalog/{mode}", lambda mode=mode: ex.explore_catalog(
            ex.basic_catalog(), 3, replicas=2, mode=mode, setup=ex.basic_setup)))
        parts.append((f"fig1/{mode}", lambda mode=mode: sc.run_fig1(mode)))
    return parts


def _explore_pass(prog) -> dict:
    return {name: part() for name, part in _explore_parts(prog)}


def _explore_record(report) -> dict:
    """Digest of one exploration. ``states`` is left out: it is a count of
    the search's own work, which a reduction may lower."""
    terminal = "\n".join(sorted(report.terminal_keys)).encode()
    return {
        "violations": sorted(report.violations),
        "results": {str(k): sorted(v) for k, v in sorted(report.results.items())},
        "terminal_keys": hashlib.sha256(terminal).hexdigest(),
    }


def golden_digests(prog) -> dict:
    """The digests ``golden.json`` pins, computed from the program as it is."""
    out = {}
    for name, spec in WORKLOADS.items():
        if isinstance(spec, Campaign):
            out[name] = {"seed": GOLDEN_SEED, "modes": {
                cfg.mode: [_trace_record(prog, *_execution(prog, prog.harness.execution_seed(GOLDEN_SEED, j), cfg))
                           for j in range(spec.golden_ops)]
                for cfg in _configs(spec, prog)}}
        else:
            out[name] = {k: _explore_record(r) for k, r in _explore_pass(prog).items()}
    return out


# ---------------------------------------------------------------------------
# Measurement loops.

class _Loop:
    """Shared bookkeeping of one measured run.

    An untraced run (``tracer`` None) times ``SETUP_REPEATS`` set-ups, each
    in a fresh process (``setup``): one before the first round and the rest
    spread between rounds, so that the reported median samples the host as
    the rounds do.
    It also measures the host's speed (``mark``) after each set-up and after
    each timed stretch, so every stretch has a measure on either side of it.
    Neither is part of any round's time.
    """

    def __init__(self, spec, seconds: float, tracer, max_ops, setup):
        self.spec = spec
        self.seconds = seconds
        self.tracer = tracer
        self.max_ops = max_ops
        self.setup = setup
        self.setup_times: list = []     # as measured
        self.setup_scaled: list = []    # at the nominal host speed
        self.host_rates: list = []
        self.speed = 1.0                # host speed over nominal at the last mark
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.ops = 0
        self.start = self.round_start = time.perf_counter()

    def done(self) -> bool:
        """True when the next round would end past the measuring time (and
        the run holds its minimum count), or at the time cap."""
        now = time.perf_counter()
        last_round = now - self.round_start
        elapsed = now - self.start
        if self.max_ops is not None:
            finished = self.ops >= self.max_ops
        elif elapsed >= TIME_CAP * self.seconds:
            finished = True
        else:
            finished = self.ops >= self.spec.min_ops and elapsed + last_round > self.seconds
        due = SETUP_REPEATS if finished else 1 + int((SETUP_REPEATS - 1) * elapsed / self.seconds)
        while self.tracer is None and len(self.setup_times) < min(due, SETUP_REPEATS):
            took = self.setup()
            self.setup_times.append(took)
            self.setup_scaled.append(took * self.mark())
        self.round_start = time.perf_counter()
        return finished

    def mark(self) -> float:
        """In an untraced run, run ``spec.ref_units`` reference units; return
        the host's speed over the nominal speed (1.0 in a traced run)."""
        if self.tracer is None:
            rate = hostspeed.units_per_s(self.spec.ref_units)
            self.host_rates.append(rate)
            self.speed = rate / hostspeed.NOMINAL_UNITS_PER_S
        return self.speed

    def timed(self, op: int, traced: bool, fn, *args):
        """Run one operation; returns (result, seconds) or (None, None) if it raised."""
        self.attempted += 1
        self.ops += 1
        start = time.perf_counter()
        try:
            result = self.tracer.run_op(op, fn, *args) if traced else fn(*args)
        except Exception:  # one failing operation must not end the run
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None, None
        return result, time.perf_counter() - start


def _quantile95(values: list) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18] if len(values) > 1 else values[0]


def _rate(rnd: list) -> float:
    return len(rnd) / sum(rnd)


def end_to_end(rounds: list, setup_times: list) -> dict:
    """End-to-end timings from untraced rounds, each a list of operation
    latencies in seconds, and from the set-up times. Throughput is the median
    of the per-round rates; p50 and p95 pool every operation."""
    rounds = [r for r in rounds if r]
    pooled = [t for rnd in rounds for t in rnd]
    return {
        "ops_per_s": (statistics.median(_rate(r) for r in rounds), "1/s"),
        "op_ms_p50": (statistics.median(pooled) * 1e3, "ms"),
        "op_ms_p95": (_quantile95(pooled) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def _overhead(rounds: dict) -> float:
    """Untraced over traced throughput, from the medians of their rounds."""
    if not rounds[False] or not rounds[True]:
        return 0.0
    return (statistics.median(_rate(r) for r in rounds[False] if r)
            / statistics.median(_rate(r) for r in rounds[True] if r))


def _run_campaign(name: str, spec: Campaign, prog, seed: int, loop: _Loop) -> dict:
    """Rounds of ``batch`` executions per mode; in a traced run, every second
    round is traced. Execution ``i`` always uses seed
    ``execution_seed(seed, i)`` and the same mode, traced or not."""
    tracer = loop.tracer
    configs = _configs(spec, prog)
    run_digest = hashlib.sha256()
    rounds = {False: [], True: []}
    scaled = []
    by_mode = {cfg.mode: [] for cfg in configs}
    content = {"gens": 0, "gen_ok": 0, "deliver_steps": 0, "multivalued": 0, "deleted": 0}
    index = rnd = 0
    while not loop.done():
        traced = tracer is not None and rnd % 2 == 1
        rnd += 1
        if traced:
            tracer.install(prog)
        latencies = []
        before = loop.speed
        try:
            for cfg in configs:
                for _ in range(spec.batch):
                    seed_i = prog.harness.execution_seed(seed, index)
                    result, took = loop.timed(index, traced, _execution, prog, seed_i, cfg)
                    index += 1
                    if result is None:
                        continue
                    latencies.append(took)
                    if not traced:
                        by_mode[cfg.mode].append(took)
                    trace, report = result
                    record = _trace_record(prog, trace, report)
                    run_digest.update(record[0].encode())
                    if record[2]:
                        loop.failed += 1
                        loop.errors.append(f"execution {index - 1}: violated {record[2]}")
                    _count_content(prog, content, trace, record)
        finally:
            if traced:
                tracer.restore()
        rounds[traced].append(latencies)
        if not traced:
            scale = (before + loop.mark()) / 2
            scaled.append([t * scale for t in latencies])
    _check_campaign_golden(name, spec, prog, loop)
    executions = max(1, sum(map(len, rounds[False] + rounds[True])))
    layer = {
        "harness.gen_ok_frac": (content["gen_ok"] / max(1, content["gens"]), "ratio"),
        "harness.deliver_steps": (content["deliver_steps"] / executions, "count"),
        "harness.multivalued_frac": (content["multivalued"] / executions, "ratio"),
        "harness.deleted_frac": (content["deleted"] / executions, "ratio"),
    }
    for mode, lat in by_mode.items():
        if lat:
            layer[f"harness.exec_ms.{mode}"] = (statistics.median(lat) * 1e3, "ms")
    return {"digest": run_digest.hexdigest(), "rounds": rounds, "scaled": scaled, "layer": layer}


def _count_content(prog, content: dict, trace, record) -> None:
    GenStep = prog.harness.GenStep
    deleted = False
    for step in trace.steps:
        if isinstance(step, GenStep):
            content["gens"] += 1
            if not step.result.startswith("err:"):
                content["gen_ok"] += 1
                deleted = deleted or step.op.kind == "delete"
        else:
            content["deliver_steps"] += 1
    content["multivalued"] += record[1]
    content["deleted"] += deleted


def _check_campaign_golden(name: str, spec: Campaign, prog, loop: _Loop) -> None:
    """Re-run the golden batch and compare each execution with ``golden.json``."""
    golden = _load_golden()[name]
    for cfg in _configs(spec, prog):
        for j, want in enumerate(golden["modes"][cfg.mode]):
            seed_j = prog.harness.execution_seed(golden["seed"], j)
            result, _ = loop.timed(-1, False, _execution, prog, seed_j, cfg)
            if result is None:
                continue
            got = _trace_record(prog, *result)
            if got != want:
                loop.failed += 1
                loop.errors.append(f"golden {cfg.mode} execution {j}: got {got}, want {want}")


def _pass_by_parts(prog, loop: _Loop) -> tuple:
    """One untraced pass, its explorations timed one at a time. Returns the
    reports, the seconds as measured, and the seconds at the nominal host
    speed, each exploration scaled by the host measures on either side."""
    reports, took, scaled = {}, 0.0, 0.0
    for name, part in _explore_parts(prog):
        before = loop.speed
        start = time.perf_counter()
        reports[name] = part()
        seconds = time.perf_counter() - start
        took += seconds
        scaled += seconds * (before + loop.mark()) / 2
    return reports, took, scaled


def _run_explore(prog, loop: _Loop) -> dict:
    """Full exploration passes, each checked against the golden digests; a
    pass is a round of one operation. In a traced run every second pass is
    traced."""
    tracer = loop.tracer
    golden = _load_golden()["explore"]
    rounds = {False: [], True: []}
    scaled = []
    states = terminals = traced_states = 0
    run_digest = hashlib.sha256()
    n = 0
    while not loop.done():
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install(prog)
            try:
                reports, took = loop.timed(n, True, _explore_pass, prog)
            finally:
                tracer.restore()
        else:
            result, _ = loop.timed(n, False, _pass_by_parts, prog, loop)
            reports, took, at_nominal = result or (None, None, None)
            scaled.append([at_nominal] if result else [])
        n += 1
        if reports is None:
            rounds[traced].append([])
            continue
        rounds[traced].append([took])
        records = {k: _explore_record(r) for k, r in reports.items()}
        run_digest.update(json.dumps(records, sort_keys=True).encode())
        states = sum(r.states for r in reports.values())
        terminals = sum(r.terminals for r in reports.values())
        if traced:
            traced_states += states
        if records != golden:
            loop.failed += 1
            bad = sorted(k for k in golden if records.get(k) != golden[k])
            loop.errors.append(f"explore pass {n - 1}: digest mismatch in {bad}")
    layer = {"explore.states": (states, "count"), "explore.terminals": (terminals, "count")}
    passes = [r[0] for r in rounds[False] if r]
    if passes:
        layer["explore.states_per_s"] = (states / statistics.median(passes), "1/s")
    if tracer is not None:
        key_calls = tracer.counts["explore.state_keys"]
        if key_calls:
            layer["explore.dedup_hit_frac"] = (1 - traced_states / key_calls, "ratio")
    return {"digest": run_digest.hexdigest(), "rounds": rounds, "scaled": scaled, "layer": layer}


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from a tracer.

# Layers reported with a call count per operation as well as self time.
COUNTED = ("model.generate", "model.apply_message", "model.deliverable", "model.quiesce",
           "model.clone", "refs.gen", "refs.apply", "stability.oracle", "canon.canon_objects")
TIMED = COUNTED + ("stability.announce_apply", "harness.random_execution", "harness.replay",
                   "harness.checker", "harness.tail", "explore.search", "explore.key",
                   "explore.check")


# Per-layer metrics that only one kind of workload produces, with their
# units; a workload that never reaches the layer reports 0.
WORKLOAD_LAYER_UNITS = {
    "harness.gen_ok_frac": "ratio", "harness.deliver_steps": "count",
    "harness.multivalued_frac": "ratio", "harness.deleted_frac": "ratio",
    f"harness.exec_ms.{PURE_CAUSAL}": "ms", f"harness.exec_ms.{ATOMIC}": "ms",
    "explore.states": "count", "explore.terminals": "count",
    "explore.states_per_s": "1/s", "explore.dedup_hit_frac": "ratio",
}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    ops = max(1, ops)
    out = {}
    for layer in TIMED:
        out[f"{layer}.ms"] = (tracer.self_s[layer] * 1e3 / ops, "ms")
    for layer in COUNTED:
        out[f"{layer}.calls"] = (tracer.calls[layer] / ops, "count")
    checks = tracer.calls["model.deliverable"]
    out["model.deliverable.hit_frac"] = (
        tracer.counts["model.deliverable.hits"] / checks if checks else 0.0, "ratio")
    out["model.pending_max"] = (tracer.pending_max, "count")
    out["stability.stable_detected"] = (tracer.counts["stability.stable_detected"] / ops, "count")
    return out


def layer_shares(tracer: Tracer) -> dict:
    """Each layer's self time as a share of all traced operation time."""
    total = tracer.total_s[OP_LAYER]
    return {layer: tracer.self_s[layer] / total for layer in TIMED} if total else {}


# ---------------------------------------------------------------------------
# Machine facts.

def _steal_ticks():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts(steal_at_start) -> dict:
    steal = _steal_ticks()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "steal_ticks": None if steal is None or steal_at_start is None else steal - steal_at_start,
    }


# ---------------------------------------------------------------------------
# Entry point.

def run(name: str, seed: int, seconds: float, trace: bool, src: Path, max_ops=None) -> dict:
    """Set up and measure one workload. ``max_ops`` replaces the time limit
    with an operation count (whole rounds or passes), for tests."""
    steal0 = _steal_ticks()
    spec = WORKLOADS[name]
    prog = set_up(spec, src)
    tracer = Tracer() if trace else None
    loop = _Loop(spec, seconds, tracer, max_ops, lambda: timed_set_up(name, src))
    if isinstance(spec, Campaign):
        out = _run_campaign(name, spec, prog, seed, loop)
    else:
        out = _run_explore(prog, loop)
    rounds = out.pop("rounds")
    scaled = out.pop("scaled")
    layer = out.pop("layer")
    if trace:
        traced_ops = sum(map(len, rounds[True]))
        metrics = {metric: (0.0, unit) for metric, unit in WORKLOAD_LAYER_UNITS.items()}
        metrics.update(layer)
        metrics.update(layer_metrics(tracer, traced_ops))
        metrics["trace.overhead"] = (_overhead(rounds), "x")
        out["shares"] = layer_shares(tracer)
        out["tracer"] = tracer
    else:
        metrics = end_to_end(scaled, loop.setup_scaled)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        out["as_measured"] = {name: value for name, (value, _) in
                              end_to_end(rounds[False], loop.setup_times).items()}
        out["samples"] = {"operations": sum(map(len, rounds[False])), "rounds": len(rounds[False]),
                          "host_units_per_s": statistics.median(loop.host_rates),
                          "rounds_raw": rounds[False], "rounds_scaled": scaled,
                          "host_rates": loop.host_rates, "setup_times": loop.setup_times}
    out.update({
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "metrics": metrics,
        "machine": machine_facts(steal0),
        "start": loop.start,
    })
    return out


if __name__ == "__main__":
    # One set-up in a fresh process: python3 workloads.py <workload> <src dir>
    set_up(WORKLOADS[sys.argv[1]], Path(sys.argv[2]))
