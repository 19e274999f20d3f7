"""One repetition of one workload, in a fresh interpreter.

Run from the root of a laxfib checkout:

    python3 perfbench/worker.py --workload W --seed S --t0 T --result FILE
        [--setup-only] [--trace-dir DIR]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start, imports and input
generation.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402
from tracer import Tracer, merge_layers  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RUN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir")
    args = ap.parse_args()

    out_dir = Path(args.result).parent
    inputs = workloads.SETUP[args.workload](args.seed, out_dir)
    result: dict = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        result.update(measure(args, inputs))
    Path(args.result).write_text(json.dumps(result))
    return 0


def measure(args, inputs) -> dict:
    run = workloads.RUN[args.workload]
    tracer = None
    if args.trace_dir is None:
        rep = run(inputs, args.seed)
    elif args.workload == "cli":
        # each CLI process traces itself into a file of its own
        trace_dir = Path(args.trace_dir)
        rep = run(inputs, args.seed, traced_dir=trace_dir)
        parts = [json.loads(p.read_text())["layers"] for p in sorted(trace_dir.glob("call-*.json"))]
    else:
        tracer = Tracer(f"{args.workload}-{args.seed}").install()
        try:
            rep = run(inputs, args.seed)
        finally:
            tracer.restore()
        tracer.dump(str(Path(args.trace_dir) / "spans.json"))
        parts = [tracer.layers()]
    out = {"wall_s": sum(rep.op_s), "op_s": rep.op_s, "failures": rep.failures,
           "verdicts": len(rep.verdicts), "decided": rep.decided, "digest": rep.digest,
           "peak_rss_mb": rep.peak_rss_mb}
    if args.trace_dir is not None:
        out["layers"] = merge_layers(parts)
    return out


if __name__ == "__main__":
    sys.exit(main())
