"""Command-line front end.

Exit codes: 0 success / no violations, 1 invariant or assertion violation,
2 usage, configuration, bound, range or parse error, or an output path that
cannot be written. Each exit 2 prints one line, except a bare call, which
prints the help: a usage error through click's own ``Error:`` line
(``_one_line_usage``), every other failure by raising ``_Fail``.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys

import click

from . import dot, scenarios, tracefile
from .explore import BoundExceeded, DEFAULT_BOUND, basic_catalog, basic_setup, explore_catalog
from .harness import (
    ConfigInvalid,
    ReplayMismatch,
    Trace,
    TraceConfig,
    check_invariants,
    replay,
    run_campaign,
    run_op,
)
from .model import MODES, PURE_CAUSAL, SimulatorError, World


class _Fail(click.ClickException):
    """A command that cannot go on: its message alone on stderr, exit 2."""

    exit_code = 2

    def show(self, file=None):
        click.echo(self.message, err=True)


@contextlib.contextmanager
def _one_line_usage():
    """Re-raise a usage error without its context, which click then shows
    as the one line ``Error: <message>`` (exit 2) instead of a usage block.
    A bare call's help is left as click shows it."""
    try:
        yield
    except click.exceptions.NoArgsIsHelpError:
        raise
    except click.UsageError as e:
        raise click.UsageError(e.format_message()) from None


class _Group(click.Group):
    """The command group: a usage error in its own arguments, a command's
    name or a command's arguments prints one line."""

    def parse_args(self, ctx, args):
        with _one_line_usage():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _one_line_usage():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Reference CRDT simulator: run randomized campaigns, check traces,
    explore small programs exhaustively, run scenario presets."""


@main.command("run")
@click.option("--seed", default=0, show_default=True, help="64-bit campaign seed.")
@click.option("--executions", default=1000, show_default=True, help="Number of random executions.")
@click.option("--events", default=20, show_default=True, help="Events per execution.")
@click.option("--replicas", default=3, show_default=True, help="Replicas per world.")
@click.option("--mode", type=click.Choice(MODES), default=PURE_CAUSAL, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory receiving shrunk failing traces.")
def cmd_run(seed, executions, events, replicas, mode, out):
    """Run a randomized campaign and check every invariant."""
    try:
        config = TraceConfig(replicas=replicas, events=events, mode=mode)
        summary = run_campaign(seed, executions, config)
    except ConfigInvalid as e:
        raise _Fail(f"config error: {e}")
    click.echo(f"executions: {summary['executions']}")
    click.echo(f"multivalued fraction: {summary['multivalued_fraction']:.4f}")
    click.echo(f"deletion fraction: {summary['deletion_fraction']:.4f}")
    for inv in sorted(summary["violations"]):
        click.echo(f"violations[{inv}]: {summary['violations'][inv]}")
    click.echo(f"total violating traces: {summary['total_violating']}")
    if out and summary["failures"]:
        _write_files(out, [(f"fail-{index}.trace", tracefile.dumps(shrunk))
                           for index, shrunk, _report in summary["failures"]])
    sys.exit(1 if summary["total_violating"] else 0)


def _write_files(outdir, files) -> None:
    """Write each (name, text) of ``files`` into directory ``outdir``, made
    if missing. A path that cannot be written ends the command with exit 2."""
    outdir = pathlib.Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            path = outdir / name
            path.write_text(text)
            click.echo(f"wrote {path}")
    except OSError as e:
        raise _Fail(f"cannot write {e.filename}: {e.strerror}")


def _load_trace(path) -> Trace:
    try:
        return tracefile.loads(pathlib.Path(path).read_text())
    except (OSError, UnicodeDecodeError, tracefile.TraceFormatError) as e:
        raise _Fail(f"cannot read trace: {e}")


@main.command("check")
@click.argument("trace_file", type=click.Path(exists=True, dir_okay=False))
def cmd_check(trace_file):
    """Replay a stored trace and print its invariant report."""
    trace = _load_trace(trace_file)
    try:
        report = check_invariants(trace)
    except (ReplayMismatch, ConfigInvalid, SimulatorError) as e:
        raise _Fail(f"trace does not replay: {e}")
    click.echo(f"events: {report.stats['events']} (failed: {report.stats['failed_events']})")
    click.echo(f"multivalued: {report.stats['multivalued']}")
    if report.ok:
        click.echo("all invariants hold")
        sys.exit(0)
    for v in report.violations:
        click.echo(f"violation[{v.invariant}] step {v.step} replica {v.replica}: {v.detail}")
    sys.exit(1)


@main.command("explore")
@click.option("--events", default=3, show_default=True,
              help=f"Program length bound (max {DEFAULT_BOUND}).")
@click.option("--replicas", default=2, show_default=True)
@click.option("--mode", type=click.Choice(MODES), default=PURE_CAUSAL, show_default=True)
def cmd_explore(events, replicas, mode):
    """Exhaustively explore every catalog program up to the length bound."""
    try:
        report = explore_catalog(basic_catalog(), events, replicas=replicas,
                                 mode=mode, setup=basic_setup)
    except BoundExceeded as e:
        raise _Fail(f"bound exceeded: {e}")
    except ConfigInvalid as e:
        raise _Fail(f"config error: {e}")
    click.echo(f"states explored: {report.states}")
    click.echo(f"terminal states: {report.terminals}")
    if report.ok:
        click.echo("all invariants hold in every reachable state")
        sys.exit(0)
    # The search reports a finding again at each state it is reached from,
    # so only the distinct findings, in first-seen order, say what it found.
    distinct = list(dict.fromkeys(report.violations))
    for v in distinct[:20]:
        click.echo(f"violation: {v}")
    click.echo(f"distinct violations: {len(distinct)}")
    sys.exit(1)


def _write_dots(world, outdir) -> None:
    _write_files(outdir, [(f"replica-{st.rid}.dot", dot.snapshot_dot(st, name=f"replica-{st.rid}"))
                          for st in world.states])


@main.command("scenario")
@click.argument("name", type=click.Choice(["fig1", "fig2"]))
@click.option("--mode", type=click.Choice(MODES), default=PURE_CAUSAL, show_default=True)
@click.option("--dot", "dot_dir", type=click.Path(file_okay=False), default=None,
              help="Directory receiving one graph document per replica.")
def cmd_scenario(name, mode, dot_dir):
    """Run a scenario preset and assert its expected outcome."""
    if name == "fig2":
        world, problems = scenarios.run_fig2(mode)
        if dot_dir:
            _write_dots(world, dot_dir)
        if problems:
            for p in problems:
                click.echo(f"assertion failed: {p}")
            sys.exit(1)
        click.echo("fig2: reconciled state matches on every replica")
        sys.exit(0)
    report = scenarios.run_fig1(mode)
    click.echo(f"fig1: explored {report.states} states, {report.terminals} terminal")
    if dot_dir:
        # Snapshot of one quiesced run of the same program for rendering.
        world = World(2, mode)
        basic_setup(world)
        world.quiesce()
        for replica, op in scenarios.fig1_program():
            run_op(world, replica, op)  # a failed precondition is a result
            world.quiesce()
        _write_dots(world, dot_dir)
    if not report.ok:
        for v in report.violations[:20]:
            click.echo(f"assertion failed: {v}")
        sys.exit(1)
    click.echo("fig1: delete refused in every interleaving; no dangling reference reachable")
    sys.exit(0)


@main.command("export-dot")
@click.argument("trace_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--step", required=True, type=int, help="Schedule step index (0-based).")
@click.option("--replica", required=True, type=int, help="Replica to snapshot.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file (default: stdout).")
def cmd_export_dot(trace_file, step, replica, out):
    """Snapshot one replica's object graph after a given schedule step."""
    trace = _load_trace(trace_file)
    if not trace.steps:
        raise _Fail(f"step {step} out of range: the trace has no steps")
    if not 0 <= step < len(trace.steps):
        raise _Fail(f"step {step} out of range 0..{len(trace.steps) - 1}")
    if not 0 <= replica < trace.config.replicas:
        raise _Fail(f"replica {replica} out of range 0..{trace.config.replicas - 1}")
    prefix = Trace(trace.seed, trace.config, trace.steps[:step + 1])
    try:
        world = replay(prefix).world
    except (ReplayMismatch, SimulatorError) as e:
        raise _Fail(f"trace does not replay: {e}")
    doc = dot.snapshot_dot(world.states[replica], name=f"step-{step}-replica-{replica}")
    if out:
        try:
            pathlib.Path(out).write_text(doc)
        except OSError as e:
            raise _Fail(f"cannot write {e.filename}: {e.strerror}")
        click.echo(f"wrote {out}")
    else:
        click.echo(doc, nl=False)
    sys.exit(0)


if __name__ == "__main__":
    main()
