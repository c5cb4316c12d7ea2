"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with no wrappers installed and prints every
end-to-end metric; ``--trace 1`` runs the same workload with spans
around each layer's entry points and prints the per-layer metrics.
Human-readable lines (host facts, each metric with its unit and sample
count) come first; the last line of standard output is the JSON result.
Every answer is checked against a Tarjan oracle; a mismatch exits 3
without printing a result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("detect", "serve", "live")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="repository benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from pbench import detect, live, serve
    from pbench.host import host_facts
    from pbench.layers import probe_tiers
    from pbench.metrics import END_TO_END, PER_LAYER, TraceShapeError, fill_missing
    from pbench.oracle import OracleMismatch

    module = {"detect": detect, "serve": serve, "live": live}[args.workload]
    try:
        out = module.run(args.seed, args.seconds, bool(args.trace))
    except (OracleMismatch, TraceShapeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    tiers = out.tiers if out.tiers is not None else probe_tiers()
    print("host " + json.dumps(host_facts(str(ROOT), args.seed, tiers), sort_keys=True))
    report = out.report
    if args.trace:
        fill_missing(report)
        keys = list(PER_LAYER)
    else:
        keys = [k for k, _ in END_TO_END]
    for key in keys:
        print(f"{args.workload} " + report.metrics[key].line())
    for note in report.notes:
        print(f"{args.workload} note: {note}")
    result = {
        "correct": True,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": report.json_metrics(keys),
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
