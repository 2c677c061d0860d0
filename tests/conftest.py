"""Shared fixtures and small helpers for the suite."""

import networkx as nx
import numpy as np
import pytest

from metragraph import Measure, build_graph, builtin_graph


def circle_point(graph, s):
    """Map a circumference coordinate in [0, 1] onto the split-loop circle."""
    s = s % 1.0
    if s <= 0.5:
        return graph.point("e1.1", s)
    return graph.point("e1.2", s - 0.5)


def lollipop():
    """A triangle with a two-edge tail, total length 1.  The tail edges are
    bridges, so the canonical measure has density 0 there; tau is 0.75/12
    for the cycle plus 0.25/4 for the tail, 1/8."""
    return build_graph("abcde", [
        ("t1", "a", "b", 0.3), ("t2", "b", "c", 0.25), ("t3", "c", "a", 0.2),
        ("s1", "a", "d", 0.15), ("s2", "d", "e", 0.1),
    ])


def wide_lengths():
    """Lengths from 1e-6 to 1e3: a triangle, a parallel pair, a short loop
    edge and a bridge."""
    return build_graph("abcde", [("e1", "a", "b", 1e-6), ("e2", "b", "c", 1e3),
                                 ("e3", "c", "a", 0.5), ("e4", "c", "d", 2.0),
                                 ("e5", "d", "a", 1e-3), ("e6", "c", "d", 7.0),
                                 ("e7", "d", "e", 40.0)])


def random_cubic(seed, m):
    """Connected simple cubic graph with m edges, lengths from U[0.5, 2]."""
    rng = np.random.default_rng(seed)
    nxg = nx.random_regular_graph(3, 2 * m // 3, seed=seed)
    assert nx.is_connected(nxg)
    return build_graph([f"v{i}" for i in nxg.nodes], [
        (f"e{k}", f"v{a}", f"v{b}", float(rng.uniform(0.5, 2.0)))
        for k, (a, b) in enumerate(nxg.edges)])


def wide_spread():
    """Parallel edges of lengths 1e-7 and 1 plus a tail of length 0.5."""
    return build_graph(["a", "b", "c"], [("e1", "a", "b", 1e-7), ("e2", "a", "b", 1.0),
                                         ("e3", "b", "c", 0.5)])


def random_point(graph, rng, interior=False):
    e = graph.edges[int(rng.integers(len(graph.edges)))]
    lo = 0.05 * e.length if interior else 0.0
    return graph.point(e.id, float(rng.uniform(lo, e.length - lo)))


def random_mass_zero(graph, rng):
    """Discrete measure with a few atoms summing to zero, sometimes with a
    constant edge density compensated by an extra atom."""
    k = int(rng.integers(2, 6))
    masses = rng.normal(size=k)
    masses -= masses.mean()
    atoms = [(random_point(graph, rng), float(m)) for m in masses]
    densities = {}
    if rng.random() < 0.3:
        e = graph.edges[int(rng.integers(len(graph.edges)))]
        c = float(rng.normal())
        densities[e.id] = [c]
        atoms.append((random_point(graph, rng), -c * e.length))
    return Measure(graph, atoms, densities)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def interval():
    return builtin_graph("interval")


@pytest.fixture(scope="session")
def circle():
    return builtin_graph("circle")


@pytest.fixture(scope="session")
def tetrahedron():
    return builtin_graph("tetrahedron")
