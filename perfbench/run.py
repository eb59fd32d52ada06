"""The ghw benchmark: graph and query workloads on the numpy backend.

Run from the root of a checkout (the directory holding src/ghw):

    python3 perfbench/run.py --workload graph|queries \\
        --seed N --seconds S --trace 0|1

Workloads, one client process, no extra threads or processes:
  graph    build_graph(6, long_mode=True), which runs the census of
           dims 2..6 (long mode for 6); then dot_export and edges_json,
           and census_to_jsonl and census_from_jsonl for each dimension.
  queries  a closed loop over a seeded stream of single-group commands
           sent through ghw.cli.main(argv) (see querygen.py).

Each timed repetition runs in a fresh interpreter (child.py), because a
command-line user pays cold caches on every run. Repetitions continue
until --seconds of job time have been measured, and there are at least
MIN_REPS of them, so that one slow spell of the host weighs less. A query stream is long
enough that its own latencies leave ten samples beyond p99. Every answer
is checked; a wrong one makes the run fail with exit code 1.

--trace 0 prints the end-to-end metrics:
  setup_s         fresh interpreter until `import ghw` returns (median)
  job_s           one pass of the workload's job (median): the graph
                  job or the whole query stream
  requests_per_s  requests answered per second of job time; a request is
                  one query, or the whole job on graph
  latency_p50_ms  median request latency
  latency_p99_ms  99th percentile request latency, or the median when
                  fewer than ten samples would lie beyond it (graph)
  peak_rss_mb     ru_maxrss of the child process (largest repetition)
--trace 1 runs one untraced and one traced repetition and prints the
per-layer metrics derived from the traced one's spans (tracer.py), plus
trace_overhead_ratio, the traced job time over the untraced one.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it records the
environment. Spans and full results go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from stats import percentile  # noqa: E402
import tracer as tracing  # noqa: E402

# The whole run, children included, stays inside this many seconds.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 11
MIN_REPS = 2
UNITS = {
    "setup_s": "s", "job_s": "s", "requests_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["GHW_BACKEND"] = "numpy"
    env["PYTHONHASHSEED"] = "0"
    # One thread: numpy's BLAS pool would otherwise start one per core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(started: float) -> float:
    return RUN_LIMIT_S - (time.monotonic() - started)


def setup_probe(started: float) -> float:
    """Seconds from spawning a fresh interpreter until `import ghw` returns."""
    code = "import time, ghw; print(time.monotonic())"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(_remaining(started), 1.0))
    if proc.returncode != 0:
        raise ChildFailed(f"import ghw failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def run_child(workload: str, seed: int, started: float,
              spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    cmd += ["--started", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(_remaining(started), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} repetition ran past the time limit")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} repetition exited {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["wall_s"] = time.monotonic() - t0
    return rep


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    latencies = [x for rep in reps for x in rep["latencies_ms"]]
    jobs = [rep["job_s"] for rep in reps]
    p50 = percentile(latencies, 50)
    p99 = percentile(latencies, 99)
    if p99.beyond < 10:
        # Too few samples for a tail (graph: one per repetition); the
        # median is the highest percentile they support.
        p99 = p50
    return {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(jobs),
        "requests_per_s": sum(r["requests"] for r in reps) / sum(jobs),
        "latency_p50_ms": p50.value,
        "latency_p99_ms": p99.value,
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
    }, {"latency_samples": p50.samples,
        "latency_p99_samples_beyond": p99.beyond}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("graph", "queries"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "ghw" / "__init__.py").is_file():
        print(f"perfbench: no ghw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup_probe(started)   # unmeasured: compiles the bytecode caches
        reps = []
        layers = {}
        if args.trace:
            spans = OUT_DIR / f"spans-{label}.npz"
            reps.append(run_child(args.workload, args.seed, started))
            reps.append(run_child(args.workload, args.seed, started, spans))
            layers = tracing.per_layer(tracing.load(spans))
            layers["trace_overhead_ratio"] = reps[1]["job_s"] / reps[0]["job_s"]
        else:
            measured = 0.0
            while True:
                rep = run_child(args.workload, args.seed, started)
                reps.append(rep)
                measured += rep["job_s"]
                if measured >= args.seconds and len(reps) >= MIN_REPS:
                    break
                if rep["wall_s"] * 1.5 > _remaining(started):
                    break
        setups = [rep["setup_s"] for rep in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe(started))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics, samples = end_to_end(reps, setups)
    attempted = sum(rep["requests"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    errors = [e for rep in reps for e in rep["errors"]]
    if args.workload == "graph" and args.trace:
        if layers["kernels.leaves"] != 2675:
            errors.append(f"kernel leaves {layers['kernels.leaves']} != 2675")
    if args.workload == "queries" and any(
            percentile(rep["latencies_ms"], 99).beyond < 10 for rep in reps):
        errors.append("a query stream leaves fewer than ten samples beyond p99")
    correct = failed == 0 and not errors
    environment = dict(
        reps[0]["environment"], git_commit=_git_commit(),
        nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, repetitions=len(reps), setup_samples=len(setups),
        failed_ratio=failed / attempted, **samples)
    if args.trace:
        reported = {name: {"value": value, "unit": tracing.unit_of(name)}
                    for name, value in layers.items()}
    else:
        reported = {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": reported}
    record = dict(result, environment=environment, end_to_end=metrics,
                  errors=errors, repetitions=[
                      {k: v for k, v in rep.items() if k != "latencies_ms"}
                      for rep in reps])
    (OUT_DIR / f"result-{label}.json").write_text(json.dumps(record, indent=1))
    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
