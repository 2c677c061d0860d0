"""Metrized-graph data model: weighted multigraphs with positive edge lengths.

A graph is a compact connected length space presented by a finite vertex set
and edges carrying strictly positive lengths.  Points live on edges as
(edge id, offset) with offset measured from the u endpoint.  Self-loops are
split at their midpoint during build, so every canonical edge has two
distinct endpoints; parallel edges are kept.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised for structurally invalid graphs, points, or measures."""


Edge = namedtuple("Edge", ["id", "u", "v", "length"])


@dataclass(frozen=True)
class PointOnGraph:
    """A location on a graph: offset in [0, L(edge)] measured from edge.u."""

    edge: str
    offset: float


class MetrizedGraph:
    """Finite connected multigraph with positive edge lengths.

    Immutable after build; construct through :func:`build_graph`.
    """

    def __init__(self, vertices, edges, edge_arrays=None):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self._eindex = {e.id: e for e in self.edges}
        if edge_arrays is not None:  # as build_graph's walk filled them
            self.edge_arrays = edge_arrays
        self._cache = {}

    @functools.cached_property
    def edge_arrays(self):
        """(edge id -> row, lengths, m x 2 end-vertex indices) in edges
        order, built once: the edges as arrays, for every layer."""
        return ({e.id: k for k, e in enumerate(self.edges)},
                np.array([e.length for e in self.edges]),
                np.array([[self._vindex[e.u], self._vindex[e.v]] for e in self.edges]))

    @functools.cached_property
    def _first_ends(self):
        """Each vertex's first incidence in edge order, as 2 * row + end."""
        ends = self.edge_arrays[2]
        first = np.full(len(self.vertices), ends.size)
        np.minimum.at(first, ends.ravel(), np.arange(ends.size))
        return first

    @functools.cached_property
    def _incidences(self):
        """(edge, end) pairs per vertex; end 0 is the u side, end 1 the v side."""
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.u].append((e, 0))
            inc[e.v].append((e, 1))
        return {v: tuple(pairs) for v, pairs in inc.items()}

    def edge(self, edge_id):
        try:
            return self._eindex[edge_id]
        except KeyError:
            raise ValidationError(f"unknown edge {edge_id!r}") from None

    def has_vertex(self, name):
        return name in self._vindex

    def vertex_index(self, name):
        try:
            return self._vindex[name]
        except KeyError:
            raise ValidationError(f"unknown vertex {name!r}") from None

    def incidences(self, vertex):
        if vertex not in self._incidences:
            raise ValidationError(f"unknown vertex {vertex!r}")
        return self._incidences[vertex]

    def point(self, edge_id, offset):
        e = self.edge(edge_id)
        if not (0.0 <= offset <= e.length):
            raise ValidationError(
                f"offset {offset} outside [0, {e.length}] on edge {edge_id!r}"
            )
        return PointOnGraph(edge_id, float(offset))

    def point_at_vertex(self, name):
        """Canonical PointOnGraph for a vertex (first incidence in edge order)."""
        k, end = divmod(int(self._first_ends[self.vertex_index(name)]), 2)
        e = self.edges[k]
        return PointOnGraph(e.id, 0.0 if end == 0 else e.length)

    def vertex_of(self, point):
        """Vertex name if the point sits at an edge endpoint, else None."""
        e = self.edge(point.edge)
        if point.offset == 0.0:
            return e.u
        if point.offset == e.length:
            return e.v
        return None

    def point_key(self, point):
        """Hashable canonical identity: ('v', name) or ('e', edge, offset)."""
        v = self.vertex_of(point)
        if v is not None:
            return ("v", v)
        return ("e", point.edge, point.offset)

    def same_point(self, p, q):
        return self.point_key(p) == self.point_key(q)

    def __repr__(self):
        return (
            f"MetrizedGraph({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, length {total_length(self):g})"
        )


class PointRemap:
    """Maps points of a graph onto the graph produced by one subdivision."""

    def __init__(self, split_edge, split_offset, child_u, child_v, vertex):
        self.split_edge = split_edge
        self.split_offset = split_offset
        self.child_u = child_u
        self.child_v = child_v
        self.vertex = vertex

    def __call__(self, point):
        if self.split_edge is None or point.edge != self.split_edge:
            return point
        if point.offset <= self.split_offset:
            return PointOnGraph(self.child_u, point.offset)
        return PointOnGraph(self.child_v, point.offset - self.split_offset)


def _identity_remap(vertex):
    return PointRemap(None, 0.0, None, None, vertex)


def build_graph(vertices, edge_list):
    """Build a canonical MetrizedGraph.

    Parameters
    ----------
    vertices : iterable of str
        Declared vertex names.
    edge_list : iterable of (id, u, v, length)
        Edges; loops (u == v) are split at their midpoint into two edges
        ``id.1``/``id.2`` joined at a new vertex ``id.mid``.

    Raises
    ------
    ValidationError
        Empty edge list, nonpositive/nonfinite length, unknown endpoint,
        duplicate names, or a disconnected graph.
    """
    vertices = [str(v) for v in vertices]
    vindex = {v: i for i, v in enumerate(vertices)}
    if len(vindex) != len(vertices):
        raise ValidationError("duplicate vertex names")
    edge_list = list(edge_list)
    if not edge_list:
        raise ValidationError("edge list is empty")

    # one walk: validate, build the edges and their arrays, join their ends
    edges, ends, lengths = [], [], []
    root = list(range(len(vertices)))  # union-find over vertex indices

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for item in edge_list:
        eid, u, v, length = item
        eid, u, v = str(eid), str(u), str(v)
        length = float(length)
        if u not in vindex:
            raise ValidationError(f"edge {eid!r} references unknown endpoint {u!r}")
        if v not in vindex:
            raise ValidationError(f"edge {eid!r} references unknown endpoint {v!r}")
        if not (length > 0.0 and math.isfinite(length)):
            raise ValidationError(f"edge {eid!r} has nonpositive length {length}")
        if u == v:
            mid = f"{eid}.mid"
            if mid in vindex:
                raise ValidationError(f"vertex name {mid!r} collides with loop split")
            vindex[mid] = len(vertices)
            vertices.append(mid)
            root.append(find(vindex[u]))
            edges += [Edge(f"{eid}.1", u, mid, length / 2.0),
                      Edge(f"{eid}.2", mid, v, length / 2.0)]
            ends += [vindex[u], vindex[mid], vindex[mid], vindex[v]]
            lengths += [length / 2.0, length / 2.0]
        else:
            edges.append(Edge(eid, u, v, length))
            ends += [vindex[u], vindex[v]]
            lengths.append(length)
            root[find(vindex[u])] = find(vindex[v])

    rows = {e.id: k for k, e in enumerate(edges)}
    if len(rows) != len(edges):
        raise ValidationError("duplicate edge ids")
    if missing := sorted(v for v, i in vindex.items() if find(i) != find(0)):
        raise ValidationError(f"graph is disconnected (unreachable: {missing})")
    return MetrizedGraph(vertices, edges,
                         (rows, np.array(lengths), np.array(ends).reshape(-1, 2)))


def subdivide_at(graph, point):
    """Split an edge at an interior point.

    Returns ``(graph', vertex_name, remap)``.  A point already at a vertex is
    a no-op returning the existing graph and an identity remap.  Lengths and
    path distances are preserved; the children of edge ``e`` at offset t are
    ``e.1`` (length t) and ``e.2`` (length L - t).
    """
    v = graph.vertex_of(point)
    if v is not None:
        return graph, v, _identity_remap(v)
    e = graph.edge(point.edge)
    t = point.offset
    new_vertex = f"{e.id}@{t:.17g}"
    if graph.has_vertex(new_vertex):
        raise ValidationError(f"vertex name {new_vertex!r} already exists")
    child_u, child_v = f"{e.id}.1", f"{e.id}.2"
    edges = []
    for other in graph.edges:
        if other.id == e.id:
            edges.append(Edge(child_u, e.u, new_vertex, t))
            edges.append(Edge(child_v, new_vertex, e.v, e.length - t))
        else:
            edges.append(other)
    graph2 = MetrizedGraph(graph.vertices + (new_vertex,), edges)
    return graph2, new_vertex, PointRemap(e.id, t, child_u, child_v, new_vertex)


def total_length(graph):
    return math.fsum(graph.edge_arrays[1].tolist())  # exactly rounded, in any order


def valence(graph, vertex):
    return len(graph.incidences(vertex))


def scale_graph(graph, beta):
    """Same combinatorics with every edge length multiplied by beta > 0."""
    if not (beta > 0 and math.isfinite(beta)):
        raise ValidationError(f"scale factor must be positive, got {beta}")
    edges = [Edge(e.id, e.u, e.v, e.length * beta) for e in graph.edges]
    return MetrizedGraph(graph.vertices, edges)


def parse_point(graph, text):
    """Parse 'edge:offset' or a vertex name into a PointOnGraph."""
    text = str(text)
    if ":" in text:
        eid, _, off = text.rpartition(":")
        try:
            offset = float(off)
        except ValueError:
            raise ValidationError(f"bad point syntax {text!r}") from None
        return graph.point(eid, offset)
    if graph.has_vertex(text):
        return graph.point_at_vertex(text)
    raise ValidationError(f"unknown vertex or point {text!r}")


def format_point(graph, point):
    v = graph.vertex_of(point)
    if v is not None:
        return v
    return f"{point.edge}:{point.offset:.12g}"


def graph_from_json(data):
    """Build a graph from {'vertices': [...], 'edges': [{'id','u','v','length'}]}."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        vertices = data["vertices"]
        edges = [(e["id"], e["u"], e["v"], e["length"]) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from None
    return build_graph(vertices, edges)


def load_graph(path):
    with open(path, encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def graph_to_json(graph):
    return {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "length": e.length}
            for e in graph.edges
        ],
    }


# Built-in catalog: every graph normalized to total length 1 with equal edges.


def _complete_graph(names):
    edges = []
    k = 0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            k += 1
            edges.append((f"e{k}", a, b, 1.0))
    return names, edges


def _lcf(n, pattern):
    """Cubic Hamiltonian graph from LCF notation: cycle 0..n-1 plus chords."""
    reps = n // len(pattern)
    jumps = list(pattern) * reps
    names = [f"v{i}" for i in range(n)]
    edges = [(f"c{i}", names[i], names[(i + 1) % n], 1.0) for i in range(n)]
    seen = set()
    k = 0
    for i, d in enumerate(jumps):
        j = (i + d) % n
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        k += 1
        edges.append((f"d{k}", names[i], names[j], 1.0))
    return names, edges


def _builtin_raw(key):
    if key == "interval":
        return ["a", "b"], [("e1", "a", "b", 1.0)]
    if key == "circle":
        return ["a"], [("e1", "a", "a", 1.0)]
    if key.startswith("banana"):
        try:
            n = int(key.partition(":")[2])
        except ValueError:
            n = 0
        if n < 1:
            raise ValidationError(
                f"banana graph needs a positive edge count, as in banana:3, not {key!r}")
        return ["a", "b"], [(f"e{i+1}", "a", "b", 1.0) for i in range(n)]
    if key == "tetrahedron":
        return _complete_graph(["a", "b", "c", "d"])
    if key == "k5":
        return _complete_graph(["a", "b", "c", "d", "e"])
    if key == "k33":
        names = ["a1", "a2", "a3", "b1", "b2", "b3"]
        edges = []
        k = 0
        for a in names[:3]:
            for b in names[3:]:
                k += 1
                edges.append((f"e{k}", a, b, 1.0))
        return names, edges
    if key == "petersen":
        names = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
        edges = [(f"rim{i}", f"o{i}", f"o{(i+1)%5}", 1.0) for i in range(5)]
        edges += [(f"spoke{i}", f"o{i}", f"i{i}", 1.0) for i in range(5)]
        edges += [(f"star{i}", f"i{i}", f"i{(i+2)%5}", 1.0) for i in range(5)]
        return names, edges
    if key == "cube":
        return _lcf(8, [3, -3])
    if key == "octahedron":
        names = [f"v{i}" for i in range(6)]
        anti = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
        edges = []
        k = 0
        for i in range(6):
            for j in range(i + 1, 6):
                if anti[i] == j:
                    continue
                k += 1
                edges.append((f"e{k}", names[i], names[j], 1.0))
        return names, edges
    if key == "dodecahedron":
        return _lcf(20, [10, 7, 4, -4, -7, 10, -4, 7, -7, 4])
    if key == "icosahedron":
        names = ["t"] + [f"u{i}" for i in range(5)] + [f"l{i}" for i in range(5)] + ["b"]
        edges = [(f"t{i}", "t", f"u{i}", 1.0) for i in range(5)]
        edges += [(f"u{i}", f"u{i}", f"u{(i+1)%5}", 1.0) for i in range(5)]
        edges += [(f"m{i}a", f"u{i}", f"l{i}", 1.0) for i in range(5)]
        edges += [(f"m{i}b", f"u{i}", f"l{(i-1)%5}", 1.0) for i in range(5)]
        edges += [(f"l{i}", f"l{i}", f"l{(i+1)%5}", 1.0) for i in range(5)]
        edges += [(f"b{i}", "b", f"l{i}", 1.0) for i in range(5)]
        return names, edges
    raise ValidationError(f"unknown built-in graph {key!r}")


def builtin_graph(name):
    """Built-in graph by name, normalized to total length 1 with equal edges.

    Accepts e.g. 'tetrahedron', 'K33', 'banana:4', 'banana(4)', with an
    optional 'builtin:' prefix.
    """
    key = str(name).strip()
    if key.startswith("builtin:"):
        key = key[len("builtin:"):]
    key = key.lower().replace("(", ":").rstrip(")").replace("k3,3", "k33")
    vertices, edges = _builtin_raw(key)
    n = len(edges)
    edges = [(eid, u, v, 1.0 / n) for eid, u, v, _ in edges]
    return build_graph(vertices, edges)
