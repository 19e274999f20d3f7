"""The laxfib benchmark.  Run from the root of a laxfib checkout:

    python3 perfbench/run.py --workload {corpus,iso,verdicts,cli,all}
                             [--seed N] [--seconds S] [--trace 0|1] [--steady RUNS]

``--trace 0`` measures the end-to-end metrics: a few set-up-only processes,
then repetitions of the workload's fixed work, each in a fresh interpreter,
until ``--seconds`` have passed (always at least one).  ``--trace 1`` runs
one untraced and one traced repetition and reports the per-layer metrics and
the tracing overhead.  ``--steady RUNS`` repeats the run with RUNS seeds and
prints the median, quartiles and spread of every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["corpus", "iso", "verdicts", "cli"]
OUT = Path(".perfbench_out")
SETUP_SAMPLES = 4          # set-up-only processes per run, besides the repetitions
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150         # no repetition starts that would end past this
TAIL_BEYOND = 10           # a tail percentile has at least this many samples above it
CALL_NAMES = {"verdicts": "query", "cli": "call"}   # what one timed call is, per workload


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def run_child(cmd: list, timeout: float) -> subprocess.CompletedProcess:
    """Run a command in its own process group; on timeout kill the whole group
    (a worker's own children included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def spawn(workload: str, seed: int, *, setup_only: bool = False, trace_dir=None) -> dict:
    """Start one fresh interpreter on the workload and return its result."""
    result = OUT / f"result-{os.getpid()}-{time.monotonic_ns()}.json"
    extra = (["--setup-only"] if setup_only else []) + \
        (["--trace-dir", str(trace_dir)] if trace_dir is not None else [])
    t0 = time.monotonic()
    proc = run_child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                      "--seed", str(seed), "--result", str(result), "--t0", repr(t0), *extra],
                     CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def import_times() -> tuple[float, float]:
    """Cumulative import time of laxfib.cli and of sympy, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    cli_us, sympy_us = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import laxfib.cli"],
                              capture_output=True, text=True, env=env, timeout=60)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                found[parts[2].strip()] = int(parts[1])
        cli_us.append(found.get("laxfib.cli", 0))
        sympy_us.append(found.get("sympy", 0))
    return statistics.median(cli_us) / 1e6, statistics.median(sympy_us) / 1e6


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(samples: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is.  Below 20 samples that percentile would fall under
    the median, so the maximum (percentile 100) stands in for it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def failures_of(reps: list) -> tuple[int, int, list]:
    """(attempted, failed, distinct failures) over repetitions."""
    attempted = failed = 0
    seen: dict = {}
    for rep in reps:
        labels = {label for label, _, _ in rep["failures"]}
        attempted += len(rep["op_s"])
        failed += min(len(labels), len(rep["op_s"]))
        for label, reason, known in rep["failures"]:
            seen[(label, reason)] = known
    return attempted, failed, [[label, reason, known] for (label, reason), known in seen.items()]


def check_same_digest(reps: list, what: str) -> list:
    digests = {rep["digest"] for rep in reps}
    return [] if len(digests) == 1 else [[what, f"outputs differ: {sorted(digests)}", False]]


def per_call(workload: str, reps: list) -> dict:
    ops = [s * 1000.0 for rep in reps for s in rep["op_s"]]
    tail_ms, pct = tail(ops)
    attempted, failed, _ = failures_of(reps)
    verdicts = sum(rep["verdicts"] for rep in reps)
    out = {
        "op_p50_ms": metric(statistics.median(ops), "ms", len(ops)),
        "op_tail_ms": metric(tail_ms, "ms", len(ops)),
        "op_tail_pct": metric(pct, "%", len(ops)),
        "failed_share": metric(failed / attempted, "ratio", attempted),
        "decided_share": metric(sum(rep["decided"] for rep in reps) / verdicts, "ratio", verdicts),
    }
    word = CALL_NAMES.get(workload)
    if word is not None:
        out[f"{word}_p50_ms"] = out["op_p50_ms"]
        out[f"{word}_tail_ms"] = out["op_tail_ms"]
    return out


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list, list]:
    setups = [spawn(workload, seed, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps: list = []
    started = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(spawn(workload, seed))
        now, last = time.monotonic(), time.monotonic() - t
        if now - started >= seconds or now - started + last > RUN_BUDGET_S:
            break
    setups += [rep["setup_s"] for rep in reps]
    metrics = {
        "wall_s": metric(statistics.median(r["wall_s"] for r in reps), "s", len(reps)),
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB", len(reps)),
        **per_call(workload, reps),
    }
    info = {"reps": len(reps), "digest": reps[0]["digest"]}
    return metrics, info, reps, check_same_digest(reps, f"{workload} repetitions")


def per_layer(workload: str, seed: int) -> tuple[dict, dict, list, list]:
    trace_dir = OUT / f"trace-{workload}-{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    plain = spawn(workload, seed)
    traced = spawn(workload, seed, trace_dir=trace_dir)
    layers = traced["layers"]
    calls, self_s, counts = layers["calls"], layers["self_s"], layers["counts"]
    cli_import_s, sympy_import_s = import_times()
    spec = json.loads(Path("BENCHMARK.json").read_text())["per_layer"]
    values = {
        "anodyne.square_share": (counts.get("anodyne.squares", 0)
                                 / max(counts.get("anodyne.bottom_maps", 0), 1)),
        "gray.calls": sum(v for k, v in calls.items() if k.startswith("gray.")),
        "gray.self_s": sum(v for k, v in self_s.items() if k.startswith("gray.")),
        "cli.import_s": cli_import_s,
        "cli.sympy_import_s": sympy_import_s,
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    }
    values.update({k: v["value"] for k, v in per_call(workload, [plain]).items()})
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = metric(value, m["unit"], 1)
    reps = [plain, traced]
    info = {"reps": 2, "digest": plain["digest"], "spans": str(trace_dir)}
    return metrics, info, reps, check_same_digest(reps, f"{workload} traced run")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted(Path("src/laxfib").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(str(path).encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "sympy": sympy,
            "commit": commit, "src_sha256": src.hexdigest()}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, info, reps, run_failures = measure(workload, seed, *([] if trace else [seconds]))
    attempted, failed, failures = failures_of(reps)
    failures += run_failures
    failed = min(attempted, failed + len(run_failures))
    correct = all(known for _, _, known in failures)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    detail = {"workload": workload, "trace": trace, "seconds": seconds, **info,
              "metrics": metrics, "failures": failures, "provenance": provenance(seed)}
    print(f"{workload}: seed {seed}, {info['reps']} repetitions, "
          f"{'traced' if trace else 'untraced'}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']:6s} ({m['samples']} samples)")
    for label, reason, known in failures:
        print(f"  {'known defect' if known else 'FAILED'}: {label}: {reason}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                        for n in names}}


def steady(args) -> int:
    """Repeat whole runs over several seeds and print each metric's spread."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    unsteady = 0
    for workload in workloads:
        values: dict = {}
        for i in range(args.steady):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = run_child(cmd, 180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {args.seed + i}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            detail = json.loads(next(ln for ln in lines if ln.startswith("detail: "))[8:])
            for name, m in detail["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            result = json.loads(lines[-1])
            print(f"{workload} seed {args.seed + i}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        print(f"{workload}: {args.steady} runs")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s" and spread > bound:
                note = "ABOVE BOUND"
                unsteady += 1
            elif bound is not None and spread > bound / 3:
                note = "above a third of the bound"
            elif "_tail_" in name and spread > 0.1:
                note = "tail spread above 0.1: keep it per-layer"
            print(f"  {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound} {note}")
    return 1 if unsteady else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="RUNS")
    args = ap.parse_args()
    if not Path("src/laxfib/cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        sys.stderr.write("run from the root of a laxfib checkout: src/laxfib is missing\n")
        return 2
    if args.seed is None:
        args.seed = json.loads((HERE / "reference.json").read_text())["default_seed"]
    if args.steady:
        return steady(args)
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
        else:
            parts = {w: run_one(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
            result = {"correct": all(p["correct"] for p in parts.values()),
                      "attempted": sum(p["attempted"] for p in parts.values()),
                      "failed": sum(p["failed"] for p in parts.values()),
                      "metrics": {f"{w}.{n}": m for w, p in parts.items()
                                  for n, m in p["metrics"].items()}}
    except (BenchError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
