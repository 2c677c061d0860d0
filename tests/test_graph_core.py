"""Graph construction, built-ins, points, subdivision."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from metragraph import (
    ValidationError,
    build_graph,
    builtin_graph,
    format_point,
    graph_from_json,
    parse_point,
    scale_graph,
    subdivide_at,
    total_length,
    valence,
)
from metragraph.graph_core import graph_to_json

# (name, vertices before loop splits, edges after loop splits)
BUILTIN_SHAPES = [
    ("interval", 2, 1),
    ("circle", 1, 2),
    ("banana:4", 2, 4),
    ("tetrahedron", 4, 6),
    ("k5", 5, 10),
    ("k33", 6, 9),
    ("petersen", 10, 15),
    ("cube", 8, 12),
    ("octahedron", 6, 12),
    ("dodecahedron", 20, 30),
    ("icosahedron", 12, 30),
]


def test_build_rejects_bad_input():
    with pytest.raises(ValidationError):
        build_graph(["a"], [])
    with pytest.raises(ValidationError):
        build_graph(["a", "a"], [("e", "a", "a", 1.0)])
    with pytest.raises(ValidationError):
        build_graph(["a", "b"], [("e", "a", "c", 1.0)])
    with pytest.raises(ValidationError):
        build_graph(["a", "b"], [("e", "a", "b", 0.0)])
    with pytest.raises(ValidationError):
        build_graph(["a", "b"], [("e", "a", "b", math.inf)])
    with pytest.raises(ValidationError):
        build_graph(["a", "b"], [("e", "a", "b", 1.0), ("e", "a", "b", 1.0)])
    with pytest.raises(ValidationError):
        build_graph(
            ["a", "b", "c", "d"],
            [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)],
        )


@pytest.mark.parametrize("vertices,edges,message", [
    # duplicate names are found before the edges are read
    (["a", "b", "a"], [], "duplicate vertex names"),
    (["a"], [], "edge list is empty"),
    # each edge in turn: its u, its v, its length, then its loop split
    (["a", "b"], [("e1", "x", "y", -1.0)], "edge 'e1' references unknown endpoint 'x'"),
    (["a", "b"], [("e1", "a", "y", -1.0)], "edge 'e1' references unknown endpoint 'y'"),
    (["a", "b"], [("e1", "a", "b", 0.0), ("e2", "a", "c", 1.0)],
     "edge 'e1' has nonpositive length 0.0"),
    (["a", "b"], [("e1", "a", "b", 1.0), ("e2", "a", "b", math.nan)],
     "edge 'e2' has nonpositive length nan"),
    (["a", "b"], [("e1", "a", "b", math.inf)], "edge 'e1' has nonpositive length inf"),
    (["a", "e1.mid"], [("e1", "a", "a", 1.0)], "vertex name 'e1.mid' collides with loop split"),
    # a later edge may name a split vertex; an unknown end still wins over
    # the duplicate id it also carries
    (["a", "b"], [("e1", "a", "a", 1.0), ("e2", "b", "e1.mid", 1.0), ("e1", "c", "b", 1.0)],
     "edge 'e1' references unknown endpoint 'c'"),
    # duplicate ids only once every edge is read, and before connectivity
    (["a", "b"], [("e", "a", "b", 1.0), ("e", "a", "b", 1.0), ("f", "a", "b", -2.0)],
     "edge 'f' has nonpositive length -2.0"),
    (["a", "b", "c", "d"], [("e", "a", "b", 1.0), ("e", "c", "d", 1.0)], "duplicate edge ids"),
    (["a", "b"], [("e", "a", "a", 1.0), ("e.1", "a", "b", 1.0)], "duplicate edge ids"),
    # the vertices that the first one cannot reach, sorted by name
    (["a", "b", "d", "c"], [("e1", "a", "b", 1.0), ("e2", "d", "c", 1.0)],
     "graph is disconnected (unreachable: ['c', 'd'])"),
    (["z", "a", "b"], [("e1", "a", "a", 1.0), ("e2", "b", "a", 1.0)],
     "graph is disconnected (unreachable: ['a', 'b', 'e1.mid'])"),
    (["a", "b"], [("e1", "a", "a", 1.0)], "graph is disconnected (unreachable: ['b'])"),
])
def test_build_errors_name_the_first_bad_item(vertices, edges, message):
    with pytest.raises(ValidationError) as exc:
        build_graph(vertices, edges)
    assert str(exc.value) == message


def test_loop_split_vertex_can_be_an_endpoint():
    g = build_graph(["a", "b"], [("e", "a", "a", 1.0), ("f", "e.mid", "b", 2.0)])
    assert g.vertices == ("a", "b", "e.mid")
    assert [e.id for e in g.edges] == ["e.1", "e.2", "f"]
    assert valence(g, "e.mid") == 3


def test_loop_splits_at_midpoint():
    g = build_graph(["a"], [("e1", "a", "a", 1.0)])
    assert sorted(e.id for e in g.edges) == ["e1.1", "e1.2"]
    assert all(e.length == 0.5 for e in g.edges)
    assert g.has_vertex("e1.mid")
    assert valence(g, "a") == 2
    assert valence(g, "e1.mid") == 2


@pytest.mark.parametrize("name,nv,ne", BUILTIN_SHAPES)
def test_builtin_catalog(name, nv, ne):
    g = builtin_graph(name)
    assert len(g.edges) == ne
    assert total_length(g) == pytest.approx(1.0, abs=1e-12)
    lengths = {e.length for e in g.edges}
    assert len(lengths) == 1
    if name == "circle":
        nv += 1  # midpoint vertex from the loop split
    assert len(g.vertices) == nv


def test_builtin_name_forms():
    for spec in ("builtin:K33", "k3,3", "K33", "banana(3)", "builtin:banana:3"):
        builtin_graph(spec)
    with pytest.raises(ValidationError):
        builtin_graph("heptagon")


def test_regular_valences():
    for name, k in [("tetrahedron", 3), ("k5", 4), ("petersen", 3),
                    ("cube", 3), ("octahedron", 4), ("dodecahedron", 3),
                    ("icosahedron", 5)]:
        g = builtin_graph(name)
        assert {valence(g, v) for v in g.vertices} == {k}, name


def test_point_parse_format_roundtrip():
    g = builtin_graph("tetrahedron")
    p = parse_point(g, "e3:0.1")
    assert (p.edge, p.offset) == ("e3", 0.1)
    assert format_point(g, p) == "e3:0.1"
    assert format_point(g, parse_point(g, "c")) == "c"
    # endpoint offsets collapse to the vertex name
    assert format_point(g, g.point("e1", 0.0)) == "a"
    with pytest.raises(ValidationError):
        parse_point(g, "nope")
    with pytest.raises(ValidationError):
        parse_point(g, "e1:9")
    with pytest.raises(ValidationError):
        parse_point(g, "e1:x")


def test_subdivision_preserves_length_and_distance():
    g = builtin_graph("k33")
    p = g.point("e5", 0.03)
    q = g.point("e2", 0.07)
    d = oracles.path_distance(g, p, q)
    g2, name, remap = subdivide_at(g, p)
    assert g2.vertex_of(remap(p)) == name
    assert total_length(g2) == pytest.approx(total_length(g), abs=1e-15)
    assert oracles.path_distance(g2, remap(p), remap(q)) == pytest.approx(d, abs=1e-12)


def test_subdivision_at_vertex_is_noop():
    g = builtin_graph("interval")
    g2, name, remap = subdivide_at(g, g.point("e1", 0.0))
    assert g2 is g
    assert name == "a"
    assert remap(g.point("e1", 0.6)).offset == 0.6


@given(t=st.floats(0.01, 0.99), s=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_subdivision_remap_keeps_positions(t, s):
    g = builtin_graph("interval")
    g2, _, remap = subdivide_at(g, g.point("e1", t))
    q = remap(g.point("e1", s))
    base = 0.0 if q.edge == "e1.1" else t
    assert base + q.offset == pytest.approx(s, abs=1e-12)


def test_path_distance_interval():
    g = builtin_graph("interval")
    assert oracles.path_distance(g, g.point("e1", 0.2), g.point("e1", 0.9)) == \
        pytest.approx(0.7, abs=1e-12)


def test_path_distance_circle_wraps():
    g = builtin_graph("circle")
    p = g.point("e1.1", 0.05)
    q = g.point("e1.2", 0.45)  # circumference coordinate 0.95
    assert oracles.path_distance(g, p, q) == pytest.approx(0.1, abs=1e-12)


def test_scale_graph():
    g = builtin_graph("tetrahedron")
    g2 = scale_graph(g, 2.5)
    assert total_length(g2) == pytest.approx(2.5, abs=1e-12)
    assert g2.vertices == g.vertices
    with pytest.raises(ValidationError):
        scale_graph(g, 0.0)


def test_json_roundtrip():
    g = builtin_graph("petersen")
    g2 = graph_from_json(graph_to_json(g))
    assert g2.vertices == g.vertices
    assert [(e.id, e.u, e.v, e.length) for e in g2.edges] == \
        [(e.id, e.u, e.v, e.length) for e in g.edges]
