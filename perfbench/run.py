"""causalrefs benchmark: one workload per invocation, in this process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign-short --seed 7 --seconds 35 --trace 0

Prints one ``metric <name> <value> <unit>`` line per metric, the machine
facts and the run digest, then, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics at the nominal host speed (see
``hostspeed.py``) and prints them as measured too; ``--trace 1`` reports
the per-layer split and writes the kept spans to ``perfbench/out/``. The full result, with the
machine facts and each layer's share of the time, goes to the same
directory.

Exit codes: 0 when every output checked out, 1 when an operation raised,
reported a violation or broke a golden digest, 2 when the program's source
is missing or the arguments are wrong.

``--write-golden`` recomputes ``golden.json`` from the program as it is;
run it only for a deliberate change of behaviour.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _write_golden() -> int:
    prog = workloads.set_up(workloads.WORKLOADS["campaign-short"], SRC)
    doc = workloads.golden_digests(prog)
    workloads.GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.write_golden:
            return _write_golden()
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)
    except workloads.SourceMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    for err in result["errors"][:5]:
        print(f"perfbench: {err}", file=sys.stderr)
    metrics = result["metrics"]
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"metric {name} {value!r} {unit}")
    print(f"failed_frac {result['failed'] / result['attempted']!r} "
          f"({result['failed']}/{result['attempted']})")
    for layer, share in sorted(result.get("shares", {}).items(), key=lambda kv: -kv[1]):
        print(f"share {layer} {share:.4f}")
    for name, value in sorted(result.get("as_measured", {}).items()):
        print(f"as_measured {name} {value!r}")
    if "samples" in result:
        counts = {k: v for k, v in result["samples"].items() if not isinstance(v, list)}
        print(f"samples {json.dumps(counts, sort_keys=True)}")
    print(f"machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"digest {result['digest']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl", result["start"])
    full = {k: v for k, v in result.items() if k != "start"}
    full["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": full["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
