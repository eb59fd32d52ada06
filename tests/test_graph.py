import itertools
import json
import time

import pytest

from ghw.enumerate import BudgetExhausted, censuses
from ghw.graph import (
    Disconnected,
    UnknownVertex,
    build_graph,
    dot_export,
    edges_json,
)

from oracles import brute_witness_is_normal, reference_edges_json

KLEIN_KEY = bytes.fromhex("02010200")
DIDICOSM_KEY = bytes.fromhex("03030a0606")


@pytest.fixture(scope="module")
def graph5():
    return build_graph(5)


def test_budget_bounds_the_reductions(monkeypatch):
    # The deadline set when build_graph starts (tick 0) is read before each
    # census dimension and after the last (ticks 1-5), then in the
    # reduction loop. Each read of the clock advances it by a second: the
    # reductions of dims 3 and 4 (ticks 6, 7) start in time, and those of
    # dim 5 (tick 8) do not.
    censuses(5)
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
    with pytest.raises(BudgetExhausted, match="reductions of dim 5"):
        build_graph(5, budget=7.5)


@pytest.fixture(scope="module")
def graph4():
    return build_graph(4)


@pytest.fixture(scope="module")
def graph6():
    return build_graph(6, long_mode=True)


def test_vertex_counts(graph5):
    per_dim = {}
    for v in graph5.vertices:
        per_dim[v.dim] = per_dim.get(v.dim, 0) + 1
    assert per_dim == {2: 1, 3: 3, 4: 12, 5: 123}


def test_low_dimension_names(graph5):
    assert graph5.vertex(KLEIN_KEY).name == "K"
    assert graph5.vertex(DIDICOSM_KEY).name == "c22"
    names3 = {v.name for v in graph5.vertices if v.dim == 3}
    assert names3 == {"+a2", "-a2", "c22"}


def test_generated_names_are_positional(graph4):
    names = [v.name for v in graph4.vertices if v.dim == 4]
    assert names == [f"d4.{i}" for i in range(1, 13)]


def test_klein_adjacent_to_all_dim3(graph5):
    nbrs = graph5.neighbors(KLEIN_KEY)
    dim3 = {v.key for v in graph5.vertices if v.dim == 3}
    assert dim3 <= set(nbrs)


def test_connected_through_dim5(graph5):
    assert graph5.is_connected()


def test_not_a_tree_at_dim4(graph4):
    assert len(graph4.edges) >= len(graph4.vertices)


def test_every_vertex_reduces(graph5):
    for v in graph5.vertices:
        if v.dim > 2:
            assert graph5.degree_down(v) >= 1


def test_every_vertex_below_top_extends(graph5):
    for v in graph5.vertices:
        if v.dim < 5:
            assert graph5.degree_up(v) >= 2


def test_distances(graph5):
    k = graph5.by_name("K")
    assert graph5.distance(k, k) == 0
    assert graph5.distance(k, graph5.by_name("c22")) == 1
    # the two dim-5 torsion-linked pillars sit two steps apart
    from ghw.enumerate import canonical_key
    from ghw.constructions import gamma_group, klein_group
    g5 = canonical_key(gamma_group(5))
    k5 = canonical_key(klein_group(5))
    assert graph5.distance(g5, k5) == 2


def test_disconnected_raises_on_missing_vertex(graph4):
    with pytest.raises(UnknownVertex):
        graph4.vertex(b"\x00")
    with pytest.raises(UnknownVertex):
        graph4.by_name("nope")


def test_edge_normality_flags(graph5):
    by_pair = {(e.upper, e.lower): e for e in graph5.edges}
    from ghw.enumerate import canonical_key
    from ghw.constructions import klein_group
    k3 = canonical_key(klein_group(3))
    assert by_pair[(k3, KLEIN_KEY)].normal
    assert not by_pair[(DIDICOSM_KEY, KLEIN_KEY)].normal


def test_edge_normality_matches_member_scan(graph6):
    # the O(1) rule e_c in {sigma, f, f ^ sigma} against a scan of ker f,
    # on every edge of dims 3-6
    g = graph6
    upper = {x.key: x.presentation
             for c in g.censuses.values() for x in c.entries}
    normal = 0
    for e in g.edges:
        w = e.witness
        assert e.normal == brute_witness_is_normal(
            upper[e.upper], w.functional, w.coordinate)
        normal += e.normal
    assert (len(g.edges), normal) == (14_973, 2_367)


def test_edges_and_neighbors_come_sorted(graph4, graph5, graph6):
    # build_graph emits edges in (upper, lower) order and the adjacency
    # lists are sorted as built; the exports rely on both
    for g in (graph4, graph5, graph6):
        pairs = [(e.upper, e.lower) for e in g.edges]
        assert pairs == sorted(pairs)
        for v in g.vertices:
            nbrs = g.neighbors(v)
            assert list(nbrs) == sorted(nbrs)


def test_edges_link_adjacent_dimensions(graph5):
    for e in graph5.edges:
        assert graph5.vertex(e.upper).dim == graph5.vertex(e.lower).dim + 1
        assert e.witness.key == e.lower


def test_dot_export_shape():
    g = build_graph(3)
    dot = dot_export(g)
    assert dot == dot_export(build_graph(3))
    assert 'rankdir=BT' in dot
    assert '"K" [style=filled, fillcolor=black, fontcolor=white, ' in dot
    assert '"c22" [style=solid, ' in dot
    assert '"K" -- "c22";' in dot
    assert dot.count("--") == 3


def test_edges_json_repeats_in_one_process(graph5):
    # each build keeps its own key memo; a second build gives the same bytes
    assert edges_json(build_graph(5)) == edges_json(graph5)


def test_edges_json_matches_json_dumps(graph5, graph6):
    # the row template writes the bytes of json.dumps(rows, indent=2)
    for g in (graph5, graph6, build_graph(2)):
        assert edges_json(g) == reference_edges_json(g)
    assert edges_json(build_graph(2)) == "[]\n"


def test_edges_json_schema(graph4):
    rows = json.loads(edges_json(graph4))
    assert len(rows) == len(graph4.edges)
    for row in rows:
        assert set(row) == {"from", "to", "witness"}
        assert set(row["witness"]) == {"functional", "coordinate", "normal"}
        bytes.fromhex(row["from"])
        bytes.fromhex(row["to"])


def test_minimal_graph():
    g = build_graph(2)
    assert len(g.vertices) == 1
    assert g.edges == ()
    assert g.is_connected()


def test_distance_raises_when_unreachable():
    g = build_graph(2)
    with pytest.raises(Disconnected):
        # a single vertex cannot reach a phantom twin; splice one in
        g2 = build_graph(3)
        k = g2.by_name("K")
        forged = type(g2)(3, g2.censuses, g2.vertices, ())
        forged.distance(k, g2.by_name("c22"))
