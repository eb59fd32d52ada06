"""One timed repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, with src/ on PYTHONPATH:

    python3 perfbench/child.py --workload graph --seed 1 --started <t>
        [--spans out.npz]

--started is the parent's time.monotonic() just before the spawn, so the
child can report how long the interpreter took to get through
`import ghw`. With --spans the ghw entry points are traced and the spans
are written to that file when the job ends. The child prints one JSON
line: timings, request latencies, peak RSS, failures and its environment.
"""

from __future__ import annotations

import argparse
import time

# The clock starts in the parent; everything up to here is interpreter
# start-up, which a command-line user pays on every run.
import ghw
IMPORTED = time.monotonic()

import contextlib
import hashlib
import io
import json
import platform
import resource

import numpy as np

from ghw import _kernels, cli, enumerate as enum_mod, graph as graph_mod

# The script's own directory is first on sys.path.
import checks
import expected
import querygen
import tracer as tracing

# Long-mode budget for every enumeration; a budget exit is a failure.
BUDGET_S = 150.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def graph_job():
    """build_graph(6), its two exports, and a JSONL write and read of the
    census of every dimension the graph holds."""
    g = graph_mod.build_graph(6, long_mode=True, budget=BUDGET_S)
    dot, edges = graph_mod.dot_export(g), graph_mod.edges_json(g)
    jsonl = {}
    for n, c in g.censuses.items():
        text = enum_mod.census_to_jsonl(c)
        jsonl[n] = (text, enum_mod.census_from_jsonl(text))
    return g, dot, edges, jsonl


def census_check(g, jsonl) -> list[str]:
    errors = []
    for n, c in g.censuses.items():
        text, back = jsonl[n]
        counts = (len(c), c.beta1_zero, c.orientable_count)
        if counts != expected.CENSUS[n]:
            errors.append(f"dim {n}: counts {counts} != {expected.CENSUS[n]}")
        if _sha(text) != expected.JSONL_SHA256[n]:
            errors.append(f"dim {n}: JSONL sha256 changed")
        if enum_mod.census_to_jsonl(back) != text:
            errors.append(f"dim {n}: JSONL does not round-trip")
    if sorted(g.censuses) != sorted(expected.CENSUS):
        errors.append(f"census dims {sorted(g.censuses)}")
    return errors


def graph_check(out) -> list[str]:
    g, dot, edges, jsonl = out
    errors = census_check(g, jsonl)
    got = (len(g.vertices), len(g.edges))
    if got != expected.GRAPH_SIZE:
        errors.append(f"graph size {got} != {expected.GRAPH_SIZE}")
    if not g.is_connected():
        errors.append("graph is not connected")
    if g.distance(g.by_name("K"), g.by_name("c22")) != 1:
        errors.append("distance(K, c22) != 1")
    if _sha(edges) != expected.EDGES_JSON_SHA256:
        errors.append("edges_json sha256 changed")
    if _sha(dot) != expected.DOT_SHA256:
        errors.append("dot_export sha256 changed")
    return errors


def _call(argv):
    """One query through the CLI, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed query, not a stop
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def queries_job(stream):
    """Replies by query id, and latencies in stream order."""
    replies = {}
    latencies = []
    for q in stream:
        argv = list(q["argv"])
        if None in argv:
            code, text = replies[q["source"]]
            group = json.loads(text)["group"] if code == 0 else ""
            argv[argv.index(None)] = group
        t0 = time.perf_counter()
        reply = _call(argv)
        latencies.append((time.perf_counter() - t0) * 1e3)
        replies[q["id"]] = reply
    return replies, latencies


def queries_check(stream, replies) -> list[str]:
    errors = []
    for q in stream:
        try:
            checks.check_reply(q, *replies[q["id"]], replies)
        except Exception as exc:
            errors.append(f"query {q['id']} {q['argv'][0]}: {exc!r}")
    return errors


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("graph", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    setup_s = IMPORTED - args.started

    stream = querygen.generate(args.seed) if args.workload == "queries" else None
    tracer = tracing.Tracer() if args.spans else None
    if tracer:
        tracer.install()
        root = tracer.begin(f"bench.{args.workload}")
    t0 = time.perf_counter()
    try:
        if args.workload == "graph":
            out = graph_job()
        else:
            out = queries_job(stream)
        crash = None
    except Exception as exc:
        out, crash = None, f"{type(exc).__name__}: {exc}"
    job_s = time.perf_counter() - t0
    if tracer:
        tracer.finish(root)
        tracer.uninstall()
        tracer.save(args.spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if crash is not None:
        errors = [crash]
        requests = len(stream) if stream else 1
        latencies = [job_s * 1e3]
        failed = requests
    elif args.workload == "queries":
        replies, latencies = out
        errors = queries_check(stream, replies)
        requests = len(stream)
        failed = len(errors)
    else:
        errors = graph_check(out)
        requests, latencies, failed = 1, [job_s * 1e3], int(bool(errors))

    print(json.dumps({
        "setup_s": setup_s,
        "job_s": job_s,
        "latencies_ms": latencies,
        "requests": requests,
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_mb": peak_rss_mb,
        "environment": {
            "backend": _kernels.active_backend(),
            "numba_importable": bool(_kernels.HAS_NUMBA),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "ghw": ghw.__version__,
        },
    }))


if __name__ == "__main__":
    main()
