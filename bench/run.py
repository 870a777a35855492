"""Benchmark of the mayleonard package; see bench/README.md.

    python3 bench/run.py --workload verify-batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  With --trace 0 the last stdout
line holds the end-to-end metrics, with --trace 1 the per-layer metrics
of a separate traced pass; the line before it holds the run metadata.
Exits 1 when an output fails its check, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s, spread over the run so that one
# busy moment of the host does not set the median.
SETUP_REPEATS = 9
# A tail is the value with this many samples beyond it.
TAIL_BEYOND = 10


def _die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _tail(values):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With twenty samples or fewer that percentile would not lie above the
    median; the maximum is reported instead, at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[-1 - TAIL_BEYOND], 100.0 * (1.0 - TAIL_BEYOND / n)


def time_import(env):
    """Seconds from starting a fresh interpreter until `import mayleonard.cli` returns."""
    code = "import mayleonard.cli, time; print(repr(time.monotonic()))"
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        _die(f"importing mayleonard.cli failed: {out.stderr.strip()}")
    return float(out.stdout) - start


def timed_job(workload, k, rec):
    start = time.perf_counter()
    workload.job(k, rec)
    return time.perf_counter() - start


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mayleonard").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(args, workloads):
    """Closed loop, one caller: job k+1 starts when job k returns.

    The set-up samples run between jobs; their time is not workload time.
    """
    env = workloads.child_env()
    time_import(env)  # untimed: fills the bytecode cache
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed)
    workload.warm_up()
    rec = workloads.Record()
    setup, wall, jobs = [], 0.0, 0
    while wall < args.seconds:
        if wall >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(time_import(env))
        wall += timed_job(workload, jobs, rec)
        jobs += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(time_import(env))
    who = resource.RUSAGE_CHILDREN if cls is workloads.CliCold else resource.RUSAGE_SELF
    inst_tail, inst_pct = _tail(rec.instance_ms)
    cmd_tail, cmd_pct = _tail(rec.cmd_ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "instances_per_s": rec.attempted / wall,
        "instance_ms.p50": statistics.median(rec.instance_ms),
        "instance_ms.tail": inst_tail,
        "cmd_ms.p50": statistics.median(rec.cmd_ms),
        "cmd_ms.tail": cmd_tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    meta = {"jobs": jobs, "wall_s": wall, "setup_samples": len(setup),
            "tail": {"instance_ms": {"samples": len(rec.instance_ms), "percentile": inst_pct},
                     "cmd_ms": {"samples": len(rec.cmd_ms), "percentile": cmd_pct}}}
    return metrics, rec, meta


def per_layer(args, workloads, tracer):
    """Each job runs untraced, then traced, so drift in machine speed cancels in the overhead."""
    cls = workloads.WORKLOADS[args.workload]
    count = max(1, round(args.seconds * cls.TRACE_JOBS_PER_S))
    spans = tracer.Tracer()
    plain_workload, traced_workload = cls(args.seed), cls(args.seed, spans)
    plain_workload.warm_up()
    plain, traced = workloads.Record(), workloads.Record()
    wall_plain = wall_traced = 0.0
    for k in range(count):
        wall_plain += timed_job(plain_workload, k, plain)
        restore = tracer.install(spans)
        try:
            wall_traced += timed_job(traced_workload, k, traced)
        finally:
            restore()
    rec = workloads.Record(attempted=plain.attempted + traced.attempted,
                           failed=plain.failed + traced.failed,
                           problems=plain.problems + traced.problems)
    consistency_seed = args.seed * workloads.SEED_STRIDE
    for problem in workloads.consistency_problems(consistency_seed):
        rec.fail(f"consistency (seed {consistency_seed}): {problem}")
    metrics = tracer.layer_metrics(spans.spans, traced.child_stamps,
                                   wall_traced / wall_plain)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    span_file = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    spans.write_csv(span_file)
    meta = {"jobs": count, "wall_s": {"untraced": wall_plain, "traced": wall_traced},
            "spans": len(spans.spans), "span_file": str(span_file.relative_to(ROOT))}
    return metrics, rec, meta


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _die("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mayleonard" / "cli.py").is_file():
        _die(f"no mayleonard sources under {SRC}; run from a source checkout")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    import mayleonard
    import numpy
    if Path(mayleonard.__file__).resolve().parent != SRC / "mayleonard":
        _die(f"imported mayleonard from {mayleonard.__file__}, not from {SRC}")
    import tracer
    import workloads

    if args.trace:
        metrics, rec, meta = per_layer(args, workloads, tracer)
    else:
        metrics, rec, meta = end_to_end(args, workloads)
    if set(metrics) != set(units):
        _die(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _commit(), "src_sha256": _src_digest(),
        "failed_frac": rec.failed / rec.attempted if rec.attempted else 1.0,
        "problems": rec.problems,
    })
    for problem in rec.problems:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    correct = rec.failed == 0 and rec.attempted > 0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
