import ghw
from ghw import cli, enumerate as enum_mod

import tracer as tracing


def test_spans_cover_the_job_and_uninstall_restores(tmp_path):
    original = enum_mod.out_order
    t = tracing.Tracer()
    t.install()
    assert enum_mod.out_order is not original
    root = t.begin("bench.test")
    for n in range(2, 5):
        enum_mod.census_to_jsonl(enum_mod.enumerate_census(n))
    cli.main(["betti", "--group", "dim=3; gens=+--:HH0,-+-:0HH"])
    t.finish(root)
    t.uninstall()
    assert enum_mod.out_order is original
    assert ghw.out_order is original

    path = tmp_path / "spans.npz"
    t.save(path)
    layers = tracing.per_layer(tracing.load(path))
    assert layers["kernels.leaves"] == 1 + 3 + 12
    assert layers["automorphisms.out_order_calls"] == 16
    assert layers["cli.betti_p50_ms"] > 0
    assert layers["cli.out_order_p50_ms"] == 0
    assert layers["enumerate.jsonl_bytes"] > 0
    selfs = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    total = selfs + layers["trace.unattributed_s"]
    assert abs(total - layers["trace.wall_s"]) < 1e-6


def test_counts_repeat(tmp_path):
    def run(i):
        t = tracing.Tracer()
        t.install()
        root = t.begin("bench.test")
        enum_mod.enumerate_census(4)
        t.finish(root)
        t.uninstall()
        t.save(tmp_path / f"{i}.npz")
        return tracing.per_layer(tracing.load(tmp_path / f"{i}.npz"))

    a, b = run(0), run(1)
    counts = [k for k in a if tracing.unit_of(k) == "count"]
    assert counts and all(a[k] == b[k] for k in counts)
