"""Independent references for the benchmark's correctness checks.

Resistances come from networkx.resistance_distance on a copy of the graph
with the query points inserted in series (series subdivision is exact for
resistance).  Integrals against a measure come from Gauss-Legendre
quadrature of point evaluations, split at every kink, so they do not reuse
the library's piecewise-polynomial algebra.  Only graph topology, lengths
and measure data are read from the library's objects.
"""

import math

import numpy as np

_GAUSS4 = np.polynomial.legendre.leggauss(4)
_GAUSS12 = np.polynomial.legendre.leggauss(12)


class Network:
    """Resistor network of a graph (resistance = length) with marked points."""

    def __init__(self, graph, points):
        import networkx as nx

        self._nx = nx
        self._ends = {e.id: (e.u, e.v, e.length) for e in graph.edges}
        cuts = {e.id: {0.0, e.length} for e in graph.edges}
        for p in points:
            cuts[p.edge].add(float(p.offset))
        self.G = nx.Graph()
        for e in graph.edges:
            chain = sorted(cuts[e.id])
            names = [self._node(e.id, t) for t in chain]
            for a, b, t0, t1 in zip(names, names[1:], chain, chain[1:]):
                self.G.add_edge(a, b, resistance=t1 - t0)

    def _node(self, edge_id, t):
        u, v, length = self._ends[edge_id]
        if t == 0.0:
            return u
        if t == length:
            return v
        return (edge_id, float(t))

    def node(self, p):
        return self._node(p.edge, p.offset)

    def r(self, p, q):
        a, b = self.node(p), self.node(q)
        if a == b:
            return 0.0
        return self._nx.resistance_distance(self.G, a, b, weight="resistance")

    def r_from(self, p, points):
        """[r(p, q) for q in points] from one pseudo-inverse."""
        row = self._nx.resistance_distance(self.G, self.node(p), weight="resistance")
        return [row[self.node(q)] for q in points]


def _pieces(a, b, rule):
    x, w = rule
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def integrate(mu, f, kinks=()):
    """(integral of f(point) against mu, integral of |f| against |mu|).

    Quadrature on each density edge is split at the atoms on it and at the
    given kink points, so a piecewise polynomial f of degree <= 3 against a
    density of degree <= 4 is integrated exactly.  The second value sets
    the scale for tolerances.
    """
    graph = mu.graph
    terms = [float(np.real(m)) * f(p) for p, m in mu.atoms]
    splits = {}
    for p in [q for q, _ in mu.atoms] + list(kinks):
        splits.setdefault(p.edge, set()).add(float(p.offset))
    for eid, coeffs in mu.densities.items():
        length = graph.edge(eid).length
        cuts = sorted({0.0, length} | {t for t in splits.get(eid, ()) if 0.0 < t < length})
        for a, b in zip(cuts, cuts[1:]):
            ts, ws = _pieces(a, b, _GAUSS4)
            dens = np.polynomial.polynomial.polyval(ts, np.real(coeffs))
            terms += [w * d * f(graph.point(eid, float(t))) for t, w, d in zip(ts, ws, dens)]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def eigen_gram(edges, funcs):
    """(L2 Gram matrix, Dirichlet Gram matrix) of eigenfunctions at one gamma.

    ``edges`` are (id, length) of the graph the functions live on; each edge
    is cut into pieces of gamma * length <= 2 and integrated with a 12-point
    Gauss rule, which is exact to rounding for trig-plus-quadratic functions.
    """
    k = len(funcs)
    l2 = np.zeros((k, k))
    dirichlet = np.zeros((k, k))
    gamma = funcs[0].gamma
    for eid, length in edges:
        n = max(1, math.ceil(gamma * length / 2.0))
        for j in range(n):
            ts, ws = _pieces(length * j / n, length * (j + 1) / n, _GAUSS12)
            vals = np.array([f.value(eid, ts) for f in funcs])
            ders = np.array([f.derivative(eid, ts) for f in funcs])
            l2 += (vals * ws) @ vals.T
            dirichlet += (ders * ws) @ ders.T
    return l2, dirichlet
