"""Span tracing of the ghw modules from outside the package.

install() replaces the public entry points listed in LAYERS by wrappers
that record one span per call, at every place the function is reachable
from: the defining module and each ghw module that imported the name (for
example ghw.enumerate.out_order as well as ghw.automorphisms.out_order).
No source file changes. Spans stay in memory in flat arrays and are
written once, when the traced run ends.

A span has an id (its position), a parent id (-1 for the root), a name
"<layer>.<function>", a tag (the census cell for kernel calls, the command
for CLI calls), start and end times, whether the call returned, and a
count (result rows for kernel calls, bytes for JSONL writes).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> (module, public entry points wrapped there)
LAYERS = {
    "kernels": ("ghw._kernels", ("census_leaves", "canonicalize_batch")),
    "enumerate": ("ghw.enumerate", (
        "enumerate_census", "cached_census", "census_table", "canonical_key",
        "are_isomorphic", "census_to_jsonl", "census_from_jsonl")),
    "automorphisms": ("ghw.automorphisms", (
        "out_order", "normalizer_stabilizer_order")),
    "cohomology": ("ghw.cohomology", (
        "h1_order", "h1_closed_form", "smith_normal_form", "solve_integer",
        "kernel_basis")),
    "homology": ("ghw.homology", (
        "betti_vector", "exterior_invariant_dim",
        "is_rational_homology_sphere")),
    "core": ("ghw.core", (
        "parse_group", "validate_ghw", "format_group", "permute_coordinates",
        "apply_coboundary")),
    "constructions": ("ghw.constructions", (
        "list_reductions", "reduce", "embed_up_exist", "embed_up_mono",
        "semidirect_minus_id", "didicosm_witness", "realize_representation",
        "klein_group", "gamma_group", "extend_representation")),
    "graph": ("ghw.graph", ("build_graph", "dot_export", "edges_json")),
    "cli": ("ghw.cli", ("main",)),
}

# Commands of the query stream, for the per-command CLI latencies.
COMMANDS = ("isomorphic", "out-order", "betti", "reduce", "embed-exist",
            "semidirect", "didicosm-witness", "realize")


def _cell_tag(n, k, *args, **kwargs):
    return f"{n}_{k}"


def _command_tag(argv=None):
    return argv[0] if argv else ""


TAGS = {"kernels.census_leaves": _cell_tag, "cli.main": _command_tag}
COUNTS = {"kernels.census_leaves": len,
          "enumerate.census_to_jsonl": lambda text: len(text.encode())}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self.parent = array("i")
        self.name = array("H")
        self.tag = array("H")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.count = array("q")
        self.stack = [-1]
        self.patched: list = []   # (module, attribute, original)

    def _intern(self, table: list, text: str) -> int:
        try:
            return table.index(text)
        except ValueError:
            table.append(text)
            return len(table) - 1

    def _open(self, name_id: int, tag_id: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.tag.append(tag_id)
        self.end.append(0.0)
        self.ok.append(0)
        self.count.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def begin(self, name: str, tag: str = "") -> int:
        """Open a span by hand (the benchmark's root span); returns its id."""
        return self._open(self._intern(self.names, name),
                          self._intern(self.tags, tag))

    def finish(self, sid: int) -> None:
        self._close(sid)
        self.ok[sid] = 1

    def wrap(self, fn, name: str):
        name_id = self._intern(self.names, name)
        tag_of = TAGS.get(name)
        count_of = COUNTS.get(name)
        tags = self.tags

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag_id = 0
            if tag_of is not None:
                tag_id = self._intern(tags, tag_of(*args, **kwargs))
            sid = self._open(name_id, tag_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.ok[sid] = 1
            if count_of is not None:
                self.count[sid] = count_of(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS entry wherever a ghw module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "ghw" or name.startswith("ghw.")]
        for layer, (modname, funcs) in LAYERS.items():
            home = sys.modules[modname]
            for fname in funcs:
                original = getattr(home, fname)
                wrapped = self.wrap(original, f"{layer}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self.patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), tags=np.array(self.tags),
                 parent=np.frombuffer(self.parent, np.int32),
                 name=np.frombuffer(self.name, np.uint16),
                 tag=np.frombuffer(self.tag, np.uint16),
                 start=np.frombuffer(self.start, np.float64),
                 end=np.frombuffer(self.end, np.float64),
                 ok=np.frombuffer(self.ok, np.int8),
                 count=np.frombuffer(self.count, np.int64))


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes"),
                         ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def load(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def per_layer(spans: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run, from its spans.

    Span 0 is the benchmark's root span around the timed job.
    """
    names = [str(s) for s in spans["names"]]
    tags = [str(s) for s in spans["tags"]]
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    name = spans["name"]
    children = np.zeros(len(dur))
    inner = parent >= 0
    np.add.at(children, parent[inner], dur[inner])
    self_time = dur - children
    layer_of = np.array([n.split(".", 1)[0] for n in names])[name]

    def sel(fname, tag=None):
        mask = name == (names.index(fname) if fname in names else -1)
        if tag is not None:
            mask &= spans["tag"] == (tags.index(tag) if tag in tags else -1)
        return mask

    def total(fname, tag=None):
        return float(dur[sel(fname, tag)].sum())

    def calls(fname):
        return int(sel(fname).sum())

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_time[layer_of == layer].sum())
    out["kernels.census_leaves_s"] = total("kernels.census_leaves")
    for k in (1, 3, 5):
        out[f"kernels.cell_6_{k}_s"] = total("kernels.census_leaves", f"6_{k}")
    out["kernels.leaves"] = int(spans["count"][sel("kernels.census_leaves")].sum())
    out["enumerate.canonical_key_calls"] = calls("enumerate.canonical_key")
    out["enumerate.canonical_key_s"] = total("enumerate.canonical_key")
    out["enumerate.to_jsonl_s"] = total("enumerate.census_to_jsonl")
    out["enumerate.from_jsonl_s"] = total("enumerate.census_from_jsonl")
    out["enumerate.jsonl_bytes"] = int(
        spans["count"][sel("enumerate.census_to_jsonl")].sum())
    out["automorphisms.out_order_calls"] = calls("automorphisms.out_order")
    out["automorphisms.out_order_s"] = total("automorphisms.out_order")
    out["automorphisms.stabilizer_s"] = total(
        "automorphisms.normalizer_stabilizer_order")
    out["cohomology.h1_order_calls"] = calls("cohomology.h1_order")
    out["cohomology.h1_order_s"] = total("cohomology.h1_order")
    out["homology.betti_vector_s"] = total("homology.betti_vector")
    out["core.parse_group_s"] = total("core.parse_group")
    out["core.validate_ghw_s"] = total("core.validate_ghw")
    out["constructions.list_reductions_calls"] = calls(
        "constructions.list_reductions")
    out["constructions.list_reductions_s"] = total(
        "constructions.list_reductions")
    reduce_mask = sel("constructions.reduce")
    attempts = int(reduce_mask.sum())
    ok = int(spans["ok"][reduce_mask].sum())
    out["constructions.reduce_attempts"] = attempts
    out["constructions.reduce_ok"] = ok
    out["constructions.reduce_ok_ratio"] = ok / attempts if attempts else 0.0
    out["graph.export_s"] = total("graph.dot_export") + total("graph.edges_json")
    for cmd in COMMANDS:
        mask = sel("cli.main", cmd)
        p50 = float(np.median(dur[mask])) * 1e3 if mask.any() else 0.0
        out[f"cli.{cmd.replace('-', '_')}_p50_ms"] = p50
    out["trace.spans"] = len(dur)
    out["trace.wall_s"] = float(dur[0])
    # Root self time: benchmark glue and calls into no traced layer.
    out["trace.unattributed_s"] = float(self_time[0])
    return out
