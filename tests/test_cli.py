import hashlib
import json

import pytest
from click.testing import CliRunner

from causalrefs import cli, explore, harness, tracefile
from causalrefs.cli import main
from causalrefs.dot import snapshot_dot
from causalrefs.harness import MAX_EVENTS, MAX_REPLICAS, Trace, TraceConfig, random_execution, replay
from causalrefs.model import MODES
from test_faults import no_detection


def edge_count(st):
    """Surviving non-NULL outref entries: one DOT edge each."""
    return sum(len(out.non_null()) for rec in st.objects.values() for out in rec.attrs.values())


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def refuse_worlds(monkeypatch, module=harness):
    """Make building any world in ``module`` (by default any campaign or
    replay world), or any explorer world, fail the test, so input that
    must be rejected first is never turned into a world: an exploration
    must check its scope before it builds anything."""
    def no_world(*args):
        raise AssertionError(f"a world was built for {args}")
    monkeypatch.setattr(module, "World", no_world)
    monkeypatch.setattr(explore, "World", no_world)


# A trace file that is not UTF-8 text.
NOT_UTF8 = b"\xff\xfe\x00bad"


def assert_one_line_exit_two(res, prefix):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.output


def write_mismatched_trace(path):
    """Write seed 6's trace at the default configuration with its first
    ``ok`` result (step 0, ``g0``) recorded as a failure instead."""
    docs = [json.loads(ln) for ln in tracefile.dumps(random_execution(6, TraceConfig())).splitlines()]
    next(d for d in docs[1:] if d.get("result") == "ok")["result"] = "err:KeyInUse"
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")


MISMATCH_LINE = "trace does not replay: step 0 (g0): recorded 'err:KeyInUse', got 'ok'"


@pytest.mark.parametrize("args", [
    ("run", "--seed", "x"),
    ("explore", "--catalog", "big"),
    ("check", "/nonexistent"),
    ("check",),
    ("bogus",),
    ("--bogus",),
])
def test_usage_error_one_line_exit_two(args):
    assert_one_line_exit_two(invoke(*args), "Error: ")


@pytest.mark.parametrize("args, code", [((), 2), (("--help",), 0)])
def test_group_help_kept(args, code):
    res = invoke(*args)
    assert res.exit_code == code, res.output
    assert res.output.startswith("Usage:") and "Commands:" in res.output


class TestRun:
    def test_clean_campaign_exit_zero(self):
        res = invoke("run", "--executions", "30", "--seed", "4")
        assert res.exit_code == 0, res.output
        assert "total violating traces: 0" in res.output

    def test_zero_executions_exit_two(self):
        res = invoke("run", "--executions", "0")
        assert res.exit_code == 2

    def test_bad_mode_exit_two(self):
        assert_one_line_exit_two(invoke("run", "--mode", "eventual"), "Error: ")

    @pytest.mark.parametrize("args", [
        ("--replicas", str(MAX_REPLICAS + 1)),
        ("--replicas", "1000000000"),
        ("--events", str(MAX_EVENTS + 1)),
        ("--events", "1000000000"),
        ("--replicas", "0"),
    ])
    def test_out_of_range_config_exit_two(self, monkeypatch, args):
        refuse_worlds(monkeypatch)
        assert_one_line_exit_two(invoke("run", "--executions", "1", *args), "config error:")

    def test_deterministic_summaries(self):
        a = invoke("run", "--executions", "25", "--seed", "11")
        b = invoke("run", "--executions", "25", "--seed", "11")
        assert a.output == b.output

    def test_deletion_fraction_follows_multivalued(self):
        lines = invoke("run", "--executions", "40", "--seed", "3").output.splitlines()
        assert lines[1].startswith("multivalued fraction: ")
        assert lines[2].startswith("deletion fraction: ")

    def test_unwritable_out_exit_two(self, monkeypatch, tmp_path):
        # A campaign with one failure, so ``--out`` is written to.
        trace = random_execution(5, TraceConfig())
        summary = {"executions": 1, "multivalued_fraction": 0.0, "deletion_fraction": 0.0,
                   "violations": {"I1": 1},
                   "total_violating": 1, "failures": [(0, trace, None)]}
        monkeypatch.setattr(cli, "run_campaign", lambda seed, executions, config: summary)
        blocker = tmp_path / "file"
        blocker.write_text("")
        res = invoke("run", "--executions", "1", "--out", str(blocker / "sub"))
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.splitlines()[-1].startswith("cannot write")
        res = invoke("run", "--executions", "1", "--out", str(tmp_path / "d"))
        assert res.exit_code == 1 and (tmp_path / "d" / "fail-0.trace").exists()


class TestCheck:
    def test_valid_trace(self, tmp_path):
        tr = random_execution(5, TraceConfig())
        path = tmp_path / "t.trace"
        path.write_text(tracefile.dumps(tr))
        res = invoke("check", str(path))
        assert res.exit_code == 0
        assert "all invariants hold" in res.output

    def test_mismatched_result_exit_two(self, tmp_path):
        path = tmp_path / "t.trace"
        write_mismatched_trace(path)
        assert_one_line_exit_two(invoke("check", str(path)), MISMATCH_LINE)

    def test_garbage_exit_two(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("definitely not a trace\n")
        res = invoke("check", str(path))
        assert res.exit_code == 2

    @staticmethod
    def first_gen(docs, kind=None):
        return next(d for d in docs[1:] if d["type"] == "gen" and kind in (None, d["op"]["kind"]))

    @staticmethod
    def first_deliver(docs):
        return next(d for d in docs[1:] if d["type"] == "deliver")

    MALFORMED = {
        "args-missing-key": lambda docs: TestCheck.first_gen(docs, "create")["op"]["args"].pop("key"),
        "args-not-object": lambda docs: TestCheck.first_gen(docs)["op"].update(args=["key"]),
        "name-arg-not-string": lambda docs: TestCheck.first_gen(docs, "create")["op"]["args"].update(key=["A"]),
        "root-not-bool": lambda docs: TestCheck.first_gen(docs, "create")["op"]["args"].update(root="false"),
        "unknown-kind": lambda docs: TestCheck.first_gen(docs)["op"].update(kind="teleport"),
        "gen-replica-out-of-range": lambda docs: TestCheck.first_gen(docs).update(replica=9),
        "deliver-replica-negative": lambda docs: TestCheck.first_deliver(docs).update(replica=-1),
        "replica-not-int": lambda docs: TestCheck.first_deliver(docs).update(replica="0"),
        "chain-index-negative": lambda docs: TestCheck.first_deliver(docs).update(chain_index=-1),
        "chain-index-not-int": lambda docs: TestCheck.first_deliver(docs).update(chain_index=0.5),
        "header-replicas-string": lambda docs: docs[0]["config"].update(replicas="3"),
        "header-replicas-zero": lambda docs: docs[0]["config"].update(replicas=0),
        "header-events-bool": lambda docs: docs[0]["config"].update(events=True),
        "header-weights-string": lambda docs: docs[0]["config"]["weights"].update(create="3"),
        # Weights the generator cannot draw from; replay never reads them.
        "header-weights-nan": lambda docs: docs[0]["config"]["weights"].update(create=float("nan")),
        "header-weights-zero-total": lambda docs: docs[0]["config"].update(weights={"create": 0}),
        "header-weights-unknown-kind": lambda docs: docs[0]["config"]["weights"].update(bogus=1),
        "header-weights-beyond-float": lambda docs: docs[0]["config"]["weights"].update(create=10**400),
        "header-replicas-over-max": lambda docs: docs[0]["config"].update(replicas=MAX_REPLICAS + 1),
        "header-replicas-huge": lambda docs: docs[0]["config"].update(replicas=10**9),
        "header-events-over-max": lambda docs: docs[0]["config"].update(events=MAX_EVENTS + 1),
        "header-mode-unknown": lambda docs: docs[0]["config"].update(mode="eventual"),
        "header-seed-string": lambda docs: docs[0].update(seed="abc"),
        "header-seed-object": lambda docs: docs[0].update(seed={"x": 1}),
        "header-seed-bool": lambda docs: docs[0].update(seed=True),
        "header-seed-float": lambda docs: docs[0].update(seed=5.0),
        "header-seed-missing": lambda docs: docs[0].pop("seed"),
        # Only a deletion check registers a query; no operation does, so a
        # trace cannot name one, however well-formed its arguments.
        "register-query-last-auto": lambda docs: docs.append(
            {"type": "gen", "label": "q", "replica": 0, "result": "ok",
             "op": {"kind": "register_query", "args": {"target": "X", "last": "auto"}}}),
        "register-query-step": lambda docs: docs.append(
            {"type": "gen", "label": "q", "replica": 0, "result": "ok",
             "op": {"kind": "register_query", "args": {"target": "nope", "last": []}}}),
        # A second generation step under the first one's label.
        "gen-label-repeated": lambda docs: docs.append(
            dict(TestCheck.first_gen(docs), op={"kind": "announce", "args": {}}, result="ok")),
        # Raw file contents rather than a change to a valid trace.
        "not-utf8": NOT_UTF8,
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_trace_exit_two(self, monkeypatch, tmp_path, case):
        # Seed 5 at the default configuration holds create, gen and
        # deliver records for every mutation above.
        malformed = self.MALFORMED[case]
        path = tmp_path / "bad.trace"
        if isinstance(malformed, bytes):
            path.write_bytes(malformed)
        else:
            docs = [json.loads(ln) for ln in tracefile.dumps(random_execution(5, TraceConfig())).splitlines()]
            malformed(docs)
            path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        refuse_worlds(monkeypatch)
        assert_one_line_exit_two(invoke("check", str(path)), "cannot read trace:")


class TestExplore:
    def test_small_bound(self):
        res = invoke("explore", "--events", "2")
        assert res.exit_code == 0, res.output
        assert "all invariants hold in every reachable state" in res.output

    def test_violations_counted_once_each(self, monkeypatch):
        # With no stability detection a delete succeeds at once; the search
        # reaches each finding from many states and reports it each time.
        no_detection(monkeypatch)
        reports = explore.explore_catalog(explore.basic_catalog(), 2, setup=explore.basic_setup).violations
        distinct = list(dict.fromkeys(reports))
        assert len(reports) > len(distinct) > 1
        res = invoke("explore", "--events", "2")
        assert res.exit_code == 1, res.output
        listed = [line.removeprefix("violation: ") for line in res.output.splitlines()
                  if line.startswith("violation: ")]
        assert listed == distinct[:20]
        assert res.output.splitlines()[-1] == f"distinct violations: {len(distinct)}"

    def test_bound_exceeded_exit_two(self):
        assert_one_line_exit_two(invoke("explore", "--events", "9"), "bound exceeded:")

    @pytest.mark.parametrize("args", [
        ("--replicas", "0"),
        ("--replicas", "-3"),
        ("--events", "-1"),
        ("--replicas", str(MAX_REPLICAS + 1)),
        ("--replicas", "1000000000"),
    ])
    def test_bad_scope_exit_two(self, monkeypatch, args):
        refuse_worlds(monkeypatch, explore)
        assert_one_line_exit_two(invoke("explore", *args), "config error:")


class TestScenario:
    def test_fig2(self):
        res = invoke("scenario", "fig2")
        assert res.exit_code == 0, res.output

    def test_fig1(self):
        res = invoke("scenario", "fig1")
        assert res.exit_code == 0, res.output

    def test_fig2_dot_outputs_per_replica(self, tmp_path):
        res = invoke("scenario", "fig2", "--dot", str(tmp_path / "d"))
        assert res.exit_code == 0
        files = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert files == ["replica-0.dot", "replica-1.dot", "replica-2.dot"]
        text = (tmp_path / "d" / "replica-0.dot").read_text()
        assert text.startswith("digraph")
        # Figure-2 shape: 3 entries in B.b plus A.a and C.c -> 5 edges.
        assert text.count("->") == 5

    # sha256 of each scenario's graph files, by name and content in name
    # order; fig1's are one quiesced run of its program, fig2's its final
    # state. Both modes give the same files.
    DOT_DIGESTS = {
        "fig1": "4335a76f29377ef0638df1e4a08a84f89d0a0c1d4ee39728c0e3b69aab04af25",
        "fig2": "d88b10a677e25bf5df8f2c0f75f37156226f174cd3db4fcac0200ef65a286ae6",
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(DOT_DIGESTS))
    def test_dot_files_pinned(self, tmp_path, name, mode):
        res = invoke("scenario", name, "--mode", mode, "--dot", str(tmp_path / "d"))
        assert res.exit_code == 0, res.output
        h = hashlib.sha256()
        for path in sorted((tmp_path / "d").iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        assert h.hexdigest() == self.DOT_DIGESTS[name]

    def test_unknown_name_exit_two(self):
        res = invoke("scenario", "fig3")
        assert res.exit_code == 2

    def test_dot_dir_under_file_exit_two(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        res = invoke("scenario", "fig2", "--dot", str(blocker / "sub"))
        assert_one_line_exit_two(res, "cannot write")


class TestExportDot:
    def test_snapshot_edges_match_state(self, tmp_path):
        tr = random_execution(6, TraceConfig())
        path = tmp_path / "t.trace"
        path.write_text(tracefile.dumps(tr))
        step = len(tr.steps) - 1
        res = invoke("export-dot", str(path), "--step", str(step), "--replica", "0")
        assert res.exit_code == 0, res.output
        world = replay(tr).world
        assert res.output.count("->") == edge_count(world.states[0])

    def test_out_of_range_exit_two(self, tmp_path):
        tr = random_execution(6, TraceConfig())
        path = tmp_path / "t.trace"
        path.write_text(tracefile.dumps(tr))
        assert_one_line_exit_two(invoke("export-dot", str(path), "--step", "100000", "--replica", "0"),
                                 "step 100000 out of range 0..")
        assert_one_line_exit_two(invoke("export-dot", str(path), "--step", "0", "--replica", "7"),
                                 "replica 7 out of range 0..2")

    def test_mismatched_result_exit_two(self, tmp_path):
        path = tmp_path / "t.trace"
        write_mismatched_trace(path)
        res = invoke("export-dot", str(path), "--step", "1", "--replica", "0")
        assert_one_line_exit_two(res, MISMATCH_LINE)

    def test_no_steps_exit_two(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(tracefile.dumps(Trace(6, TraceConfig(), [])))
        res = invoke("export-dot", str(path), "--step", "0", "--replica", "0")
        assert_one_line_exit_two(res, "step 0 out of range: the trace has no steps")

    def test_missing_out_dir_exit_two(self, tmp_path):
        tr = random_execution(6, TraceConfig())
        path = tmp_path / "t.trace"
        path.write_text(tracefile.dumps(tr))
        out = tmp_path / "missing" / "x.dot"
        res = invoke("export-dot", str(path), "--step", "0", "--replica", "0", "--out", str(out))
        assert_one_line_exit_two(res, "cannot write")
        res = invoke("export-dot", str(path), "--step", "0", "--replica", "0", "--out", str(tmp_path / "x.dot"))
        assert res.exit_code == 0 and (tmp_path / "x.dot").read_text().startswith("digraph")

    def test_not_utf8_exit_two(self, monkeypatch, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(NOT_UTF8)
        refuse_worlds(monkeypatch)
        res = invoke("export-dot", str(path), "--step", "0", "--replica", "0")
        assert_one_line_exit_two(res, "cannot read trace:")


class TestDotModule:
    def test_edge_count_equals_surviving_entries(self):
        from causalrefs.scenarios import fig2_world
        world = fig2_world()
        st = world.states[1]
        doc = snapshot_dot(st)
        assert doc.count("->") == edge_count(st) == 5
        assert '"B" -> "X"' in doc and '"B" -> "Y"' in doc

    def test_deleted_node_rendered_dashed(self):
        from causalrefs.model import OpCall, World
        w = World(1)
        w.generate(0, OpCall("create", {"key": "A", "root": True, "attrs": ["a"]}))
        w.generate(0, OpCall("create", {"key": "X", "root": False, "attrs": []}))
        w.execute(0, OpCall("may_delete", {"target": "X", "last": []}))
        w.generate(0, OpCall("announce", {}))
        w.generate(0, OpCall("announce", {}))
        w.generate(0, OpCall("delete", {"target": "X", "last": []}))
        doc = snapshot_dot(w.states[0])
        assert "deleted" in doc and "style=dashed" in doc
