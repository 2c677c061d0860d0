"""Electrical-network theory on a metrized graph.

Edges are resistors with resistance equal to their length (conductance
1/L(e), parallel edges summing).  The ResistanceKernel is the one runtime
source of resistance: r(x, y) in closed form per edge pair, the removed-edge
resistances R(e), the j-functions and the resistance potentials
x -> integral of r(x, zeta) d nu(zeta) all read from it.  The discrete
solver (subdivide at the points of interest, solve the grounded Laplacian
system) is only the independent check that the kernel and its profiles are
validated against when they are built.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .graph_core import subdivide_at
from .numerics import NumericError, PiecewisePoly, solve_grounded

_KERNEL_CHECK_TOL = 1e-9
_PROFILE_CHECK_TOL = 1e-9
# An edge is a bridge when L - r(u, v) <= _BRIDGE_TOL * L.  The rounding
# noise there is about 2e-15 L; the smallest gap on a non-bridge edge of the
# built-in and random cubic graphs is about 0.16 L.
_BRIDGE_TOL = 1e-12


def _laplacian(size, segments):
    """Conductance Laplacian of resistors (i, j, length) on `size` nodes."""
    Q = np.zeros((size, size))
    for i, j, length in segments:
        c = 1.0 / length
        Q[i, i] += c
        Q[j, j] += c
        Q[i, j] -= c
        Q[j, i] -= c
    return Q


def _solved_resistance(graph, x, y):
    """r(x, y) by subdividing at x and y and one grounded solve: the route
    the kernel is checked against, sharing only the Laplacian assembly."""
    g, vx, remap = subdivide_at(graph, x)
    g, vy, _ = subdivide_at(g, remap(y))
    if vx == vy:
        return 0.0
    Q = _laplacian(len(g.vertices), [
        (g.vertex_index(e.u), g.vertex_index(e.v), e.length) for e in g.edges
    ])
    ix, iy = g.vertex_index(vx), g.vertex_index(vy)
    b = np.zeros(len(g.vertices))
    b[iy] += 1.0
    b[ix] -= 1.0
    return float(solve_grounded(Q, b, ix)[iy])


def _poly_moments(coeffs, L):
    """[integral of t^b g(t) dt over [0, L] for b = 0, 1, 2]."""
    c = np.atleast_1d(np.asarray(coeffs))
    out = []
    for b in range(3):
        shifted = np.concatenate([np.zeros(b, dtype=c.dtype), c])
        out.append(npoly.polyval(L, npoly.polyint(shifted)))
    return np.array(out)


def effective_resistance(graph, x, y):
    """Two-terminal resistance r(x, y), read from the resistance kernel."""
    if graph.same_point(x, y):
        return 0.0
    return max(resistance_kernel(graph).point_eval(x, y), 0.0)


def j_function(graph, zeta, y, x):
    """The potential j_zeta(x, y): voltage at x when unit current flows from
    y to zeta, grounded at zeta; equal to (r(x, zeta) + r(y, zeta) - r(x, y))
    / 2.  Nonnegative, zero when x or y hits zeta."""
    val = 0.5 * (
        effective_resistance(graph, x, zeta)
        + effective_resistance(graph, y, zeta)
        - effective_resistance(graph, x, y)
    )
    if val < -1e-9:
        raise NumericError(f"negative j-function value {val:g}")
    return max(val, 0.0)


def removed_edge_resistance(graph, edge_id):
    """Resistance between the endpoints of e in the graph minus e.

    Returns math.inf when e is a bridge.
    """
    return resistance_kernel(graph).removed(edge_id)


class ResistanceKernel:
    """Exact per-edge-pair representation of r(x, y).

    For x, y on distinct edges r is bi-quadratic in the two edge offsets
    (two-terminal reduction of the rest of the network), so a 3x3 grid of
    exact values determines the coefficients.  For x, y on the same edge,
    r(s, t) = |s - t| - (s - t)^2 / (L + R(e)) with R(e) the removed-edge
    resistance.  All grid values come from one grounded inverse of the
    graph with every edge subdivided at its midpoint.  By the parallel-
    resistor law r(u, v) = L R(e) / (L + R(e)) across the ends of e, so
    canonical_density[e] = 1 / (L + R(e)) = (L - r(u, v)) / L^2, which is 0
    on a bridge.
    """

    def __init__(self, graph):
        self.graph = graph
        n = len(graph.vertices)
        self._nodes = {}
        self._Sinv = {}
        segments = []
        for k, e in enumerate(graph.edges):
            iu, iv, im = graph.vertex_index(e.u), graph.vertex_index(e.v), n + k
            self._nodes[e.id] = [iu, im, iv]
            segments += [(iu, im, e.length / 2.0), (im, iv, e.length / 2.0)]
            # inverse Vandermonde of the nodes (0, L/2, L): values -> coefficients
            h = 1.0 / e.length
            self._Sinv[e.id] = np.array([
                [1.0, 0.0, 0.0],
                [-3.0 * h, 4.0 * h, -h],
                [2.0 * h * h, -4.0 * h * h, 2.0 * h * h],
            ])
        N = n + len(graph.edges)
        Q = _laplacian(N, segments)
        K = np.zeros((N, N))
        if N > 1:
            try:
                K[1:, 1:] = np.linalg.inv(Q[1:, 1:])
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"resistance kernel build failed: {exc}") from None
        d = np.diag(K)
        self._R = d[:, None] + d[None, :] - K - K.T
        self.canonical_density = {}
        for e in graph.edges:
            iu, _, iv = self._nodes[e.id]
            gap = e.length - self._R[iu, iv]
            bridge = not gap > _BRIDGE_TOL * e.length
            self.canonical_density[e.id] = 0.0 if bridge else gap / e.length / e.length
        self._B = {}
        self._validate()

    def removed(self, edge_id):
        """R(e) = L r(u, v) / (L - r(u, v)); math.inf on a bridge."""
        L = self.graph.edge(edge_id).length
        if self.canonical_density[edge_id] == 0.0:
            return math.inf
        iu, _, iv = self._nodes[edge_id]
        r = self._R[iu, iv]
        return float(L * r / (L - r))

    def biquad(self, e1, e2):
        key = (e1, e2)
        if key not in self._B:
            V = self._R[np.ix_(self._nodes[e1], self._nodes[e2])]
            self._B[key] = self._Sinv[e1] @ V @ self._Sinv[e2].T
        return self._B[key]

    def eval(self, e1, t1, e2, t2):
        """r at offsets t1 on edge e1 and t2 on edge e2 (broadcasting)."""
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        scalar = t1.ndim == 0 and t2.ndim == 0
        if e1 == e2:
            d = t1 - t2
            vals = np.abs(d) - d * d * self.canonical_density[e1]
        else:
            if e1 > e2:
                # one order per pair keeps r symmetric to the last bit, so
                # j_zeta(x, y) is exactly 0 when x or y is zeta
                e1, t1, e2, t2 = e2, t2, e1, t1
            B = self.biquad(e1, e2)
            a1, a2 = np.broadcast_arrays(np.atleast_1d(t1), np.atleast_1d(t2))
            P1 = np.vander(a1.ravel(), 3, increasing=True)
            P2 = np.vander(a2.ravel(), 3, increasing=True)
            vals = np.einsum("ia,ab,ib->i", P1, B, P2).reshape(a1.shape)
        if scalar:
            return float(np.asarray(vals).reshape(-1)[0])
        return vals

    def point_eval(self, p, q):
        return self.eval(p.edge, p.offset, q.edge, q.offset)

    def potential(self, atoms, densities):
        """Per-edge PiecewisePoly of x -> integral of r(x, zeta) d nu(zeta).

        nu is atoms [(point, mass)] plus per-edge densities (ascending
        coefficients in the edge offset); masses may be complex.  Off its
        own edge, a source acts only through its moments [integral of t^b
        d nu, b = 0..2], mapped to weights on its edge's three nodes, so the
        off-edge part of every edge is one product with _R.  Each edge then
        takes back its own sources and adds their exact same-edge term.
        """
        moments, kinks = {}, {}
        for p, mass in atoms:
            t = float(p.offset)
            moments[p.edge] = moments.get(p.edge, 0.0) + mass * np.array([1.0, t, t * t])
            kinks.setdefault(p.edge, []).append((t, mass))
        dens_moments = {
            eid: _poly_moments(c, self.graph.edge(eid).length)
            for eid, c in densities.items()
        }
        for eid, mom in dens_moments.items():
            moments[eid] = moments.get(eid, 0.0) + mom
        own = {eid: self._Sinv[eid].T @ mom for eid, mom in moments.items()}
        w = np.zeros(len(self._R), dtype=np.result_type(float, *own.values()))
        for eid, weights in own.items():
            w[self._nodes[eid]] += weights
        V = self._R @ w
        out = {}
        for e in self.graph.edges:
            nodes = self._nodes[e.id]
            vals = V[nodes]
            if e.id in own:
                vals = vals - self._R[np.ix_(nodes, nodes)] @ own[e.id]
            base = self._Sinv[e.id] @ vals
            inv = self.canonical_density[e.id]
            if e.id in dens_moments:
                # integral of (|x - t| - (x - t)^2 / (L + R)) g(t) dt
                m0, m1, m2 = dens_moments[e.id]
                g = np.atleast_1d(np.asarray(densities[e.id]))
                f1 = npoly.polyadd(npoly.polyint(2 * g, m=2), np.array([m1, -m0]))
                f2 = inv * np.array([m2, -2 * m1, m0])
                base = npoly.polyadd(base, npoly.polysub(f1, f2))
            here = kinks.get(e.id, [])
            breaks = sorted({0.0, e.length} | {a for a, _ in here if 0.0 < a < e.length})
            pieces = []
            for lo, hi in zip(breaks, breaks[1:]):
                piece = base
                for a, mass in here:
                    # mass * (|x - a| - (x - a)^2 / (L + R)), s the side of a
                    s = 1.0 if 0.5 * (lo + hi) > a else -1.0
                    kink = np.array([-s * a - a * a * inv, s + 2 * a * inv, -inv])
                    piece = npoly.polyadd(piece, mass * kink)
                pieces.append(piece)
            out[e.id] = PiecewisePoly(breaks, pieces)
        return out

    def profile_polys(self, y):
        """Per-edge PiecewisePoly of x -> r(x, y)."""
        return self.potential([(y, 1.0)], {})

    def _validate(self):
        g = self.graph
        edges = g.edges
        pairs = [(edges[0], edges[0])]
        if len(edges) > 1:
            pairs.append((edges[0], edges[-1]))
            pairs.append((edges[len(edges) // 2], edges[-1]))
        for e1, e2 in pairs:
            p = g.point(e1.id, 0.3183098861 * e1.length)
            q = g.point(e2.id, 0.7182818284 * e2.length)
            direct = _solved_resistance(g, p, q)
            closed = self.point_eval(p, q)
            if not abs(direct - closed) <= _KERNEL_CHECK_TOL * max(1.0, abs(direct)):
                raise NumericError(
                    f"resistance kernel mismatch on ({e1.id},{e2.id}): "
                    f"{closed:.3e} vs solver {direct:.3e}"
                )


def resistance_kernel(graph):
    """Memoized ResistanceKernel for an immutable graph."""
    if "rkernel" not in graph._cache:
        graph._cache["rkernel"] = ResistanceKernel(graph)
    return graph._cache["rkernel"]


class ResistanceProfile:
    """x -> r(x, y) as one exact low-degree polynomial per edge piece."""

    def __init__(self, graph, y):
        self.graph = graph
        self.y = y
        self.polys = resistance_kernel(graph).profile_polys(y)
        self._validate()

    def value(self, point):
        return float(np.real(self.polys[point.edge](point.offset)))

    def derivative_energy(self):
        """Integral over the graph of (d/dx r(x, y))^2."""
        total = 0.0
        for poly in self.polys.values():
            der = poly.derivative()
            total += (der * der).integral()
        return float(total)

    def _validate(self):
        for e in self.graph.edges:
            t = 0.3183098861 * e.length
            p = self.graph.point(e.id, t)
            direct = _solved_resistance(self.graph, p, self.y)
            fitted = self.value(p)
            if not abs(direct - fitted) <= _PROFILE_CHECK_TOL * max(1.0, abs(direct)):
                raise NumericError(
                    f"resistance profile mismatch on edge {e.id}: "
                    f"{fitted:.3e} vs solver {direct:.3e}"
                )


def resistance_profile(graph, y):
    return ResistanceProfile(graph, y)
