"""Cross-dimension subgroup graph over the enumerated censuses.

Vertices are census entries for dimensions 2 through a chosen maximum;
an edge joins a group to the class of any one-coordinate reduction, so
every edge is backed by an explicit subgroup witness.  Exports are
deterministic byte-for-byte.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import groupby
from typing import NamedTuple, Optional

from .constructions import ReductionChoice, _reductions
from .core import GhwError
from .enumerate import BudgetExhausted, Census, _censuses, _key_functionals


class UnknownVertex(GhwError):
    """Queried key is not a vertex of the graph."""


class Disconnected(GhwError):
    """No path between the queried vertices."""


class Vertex(NamedTuple):
    dim: int
    key: bytes
    name: str
    beta1: int

    @property
    def key_hex(self) -> str:
        return self.key.hex()


class Edge(NamedTuple):
    """Undirected edge, stored from the higher dimension downward.

    ``witness`` is the reduction choice sending the upper group onto a
    presentation of the lower class; ``normal`` records whether the
    witnessed subgroup is normal in the upper group, which holds exactly
    when every member of the chosen index-two subgroup fixes the deleted
    coordinate (otherwise conjugating by that coordinate's unit
    translation escapes).
    """

    upper: bytes
    lower: bytes
    witness: ReductionChoice
    normal: bool


# Fixed display names for the four classical low-dimensional classes.
# The two non-orientable dim-3 classes carry no distinguishing invariant
# here, so +a2 versus -a2 follows canonical key order.
_DIM2_NAME = "K"
_DIM3_NAMES = ("+a2", "-a2")
_DIM3_ORIENTED = "c22"


def _vertex_name(dim: int, index: int, orient: bool,
                 beta1_one_seen: int) -> str:
    if dim == 2:
        return _DIM2_NAME
    if dim == 3:
        if orient:
            return _DIM3_ORIENTED
        return _DIM3_NAMES[beta1_one_seen]
    return f"d{dim}.{index + 1}"


class GhwGraph:
    """Census vertices joined by reduction-witnessed edges: the vertices by
    ascending dimension, the edges in (upper, lower) order. A key starts
    with its dimension's byte, so each adjacency list comes out sorted:
    down-neighbours first, by key, then up-neighbours, by key."""

    def __init__(self, max_dim: int, censuses: dict[int, Census],
                 vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]):
        self.max_dim = max_dim
        self.censuses = censuses
        self.vertices = vertices
        self.edges = edges
        self._by_key = {v.key: v for v in vertices}
        self._adj: dict[bytes, list[bytes]] = {v.key: [] for v in vertices}
        for e in edges:
            self._adj[e.upper].append(e.lower)
            self._adj[e.lower].append(e.upper)

    def vertex(self, key: bytes) -> Vertex:
        """The vertex with this key; a Vertex stands for its own key."""
        if isinstance(key, Vertex):
            key = key.key
        try:
            return self._by_key[key]
        except KeyError:
            raise UnknownVertex(f"no vertex with key {key.hex()}") from None

    def by_name(self, name: str) -> Vertex:
        for v in self.vertices:
            if v.name == name:
                return v
        raise UnknownVertex(f"no vertex named {name!r}")

    def neighbors(self, key: bytes) -> tuple[bytes, ...]:
        return tuple(self._adj[self.vertex(key).key])

    def degree_down(self, key: bytes) -> int:
        v = self.vertex(key)
        return sum(self._by_key[k].dim < v.dim for k in self._adj[v.key])

    def degree_up(self, key: bytes) -> int:
        v = self.vertex(key)
        return sum(self._by_key[k].dim > v.dim for k in self._adj[v.key])

    def _reached(self, start: bytes, target: Optional[bytes] = None) -> dict:
        """Breadth-first distances from start over its component, stopping
        once target has one."""
        seen = {start: 0}
        queue = deque([start])
        while queue and target not in seen:
            cur = queue.popleft()
            for nxt in self._adj[cur]:
                if nxt not in seen:
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        return seen

    def distance(self, a: bytes, b: bytes) -> int:
        a, b = self.vertex(a).key, self.vertex(b).key
        try:
            return self._reached(a, b)[b]
        except KeyError:
            raise Disconnected(f"no path from {a.hex()} to {b.hex()}") from None

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(self._reached(self.vertices[0].key)) == len(self.vertices)


def build_graph(max_dim: int, *, long_mode: bool = False,
                budget: Optional[float] = None, workers: int = 1) -> GhwGraph:
    """Assemble the graph for dimensions 2 through max_dim.

    The censuses come from enumerate.censuses under the given long mode,
    budget and workers; the budget bounds the whole call. For every entry
    of dimension d >= 3 each distinct reduction class contributes one edge,
    witnessed by the first choice (in scan order) that lands in the class.
    Entries are reduced from the functionals their keys spell
    (enumerate._key_functionals), without a presentation or an
    elimination: a census entry's generators are read from its key's
    columns, and a functional that differs from theirs by sigma gives the
    same reductions.
    """
    if max_dim < 2:
        raise ValueError("max_dim must be at least 2")
    by_dim, deadline = _censuses(max_dim, long_mode, budget, workers)

    vertices = []
    for d in range(2, max_dim + 1):
        seen_open = 0
        for idx, entry in enumerate(by_dim[d].entries):
            name = _vertex_name(d, idx, entry.orientable, seen_open)
            if d == 3 and not entry.orientable:
                seen_open += 1
            vertices.append(Vertex(d, entry.key, name, entry.beta1))

    edges = []
    keys: dict = {}  # _reductions' key memo, for this build only
    for d in range(3, max_dim + 1):
        for i, entry in enumerate(by_dim[d].entries):
            if (deadline is not None and i % 256 == 0
                    and time.monotonic() > deadline):
                raise BudgetExhausted(f"reductions of dim {d}")
            sigma, lams = _key_functionals(entry.key)
            first: dict[bytes, ReductionChoice] = {}
            for choice in _reductions(d, sigma, lams, keys):
                first.setdefault(choice.key, choice)
            assert first, "every vertex must reduce somewhere"
            for target in sorted(first):
                assert target in by_dim[d - 1], "reduction left the census"
                edges.append(Edge(entry.key, target, first[target],
                                  _witness_is_normal(sigma, first[target])))

    return GhwGraph(max_dim, by_dim, tuple(vertices), tuple(edges))


def _witness_is_normal(sigma: int, choice: ReductionChoice) -> bool:
    """Edge.normal: no member of ker f on H flips c, that is, e_c vanishes
    on ker f, so e_c is one of sigma, f, f ^ sigma.
    """
    f = choice.functional
    return 1 << (choice.coordinate - 1) in (sigma, f, f ^ sigma)


def _dot_rows(graph: GhwGraph):
    """The lines of dot_export, each with its newline: the vertices in one
    pass, a rank per dimension, then the edges in their stored order."""
    yield ("graph ghw {\n  rankdir=BT;\n"
           "  node [shape=circle, fixedsize=true, width=0.25, fontsize=8];\n")
    for dim, members in groupby(graph.vertices, key=lambda v: v.dim):
        yield f"  subgraph dim{dim} {{\n    rank=same;\n"
        for v in members:
            style = ("style=filled, fillcolor=black, fontcolor=white"
                     if v.beta1 == 1 else "style=solid")
            yield f'    "{v.name}" [{style}, tooltip="{v.key_hex}"];\n'
        yield "  }\n"
    names = graph._by_key
    for e in graph.edges:
        yield f'  "{names[e.lower].name}" -- "{names[e.upper].name}";\n'
    yield "}\n"


def dot_export(graph: GhwGraph) -> str:
    """Deterministic DOT rendering, one rank per dimension: open circles
    mark first Betti number 0, filled bullets first Betti number 1."""
    return "".join(_dot_rows(graph))


_EDGE_ROW = """  {
    "from": "%s",
    "to": "%s",
    "witness": {
      "functional": %d,
      "coordinate": %d,
      "normal": %s
    }
  }"""


def _edge_rows(graph: GhwGraph):
    """The pieces of edges_json, one per edge, from the _EDGE_ROW template."""
    if not graph.edges:
        yield "[]\n"
        return
    sep = "[\n"
    for e in graph.edges:
        yield sep + _EDGE_ROW % (
            e.upper.hex(), e.lower.hex(), e.witness.functional,
            e.witness.coordinate, "true" if e.normal else "false")
        sep = ",\n"
    yield "\n]\n"


def edges_json(graph: GhwGraph) -> str:
    """JSON edge list with per-edge witnesses, in the stored edge order:
    the bytes of json.dumps(rows, indent=2) plus a newline."""
    return "".join(_edge_rows(graph))
