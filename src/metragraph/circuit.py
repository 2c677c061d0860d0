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
from collections.abc import Mapping

import numpy as np

from .numerics import NumericError, PiecewisePoly, solve_grounded

_KERNEL_CHECK_TOL = 1e-9
_PROFILE_CHECK_TOL = 1e-9
_J_TOL = 1e-9
# An edge is a bridge when L - r(u, v) <= _BRIDGE_TOL * L.  The rounding
# noise there is about 2e-15 L; the smallest gap on a non-bridge edge of the
# built-in and random cubic graphs is about 0.16 L.
_BRIDGE_TOL = 1e-12
_NO_KINKS = (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))


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


def _solved_resistances(graph, y, points):
    """[r(p, y) for p in points] from the graph subdivided at y and at every
    p, in one grounded solve with one right-hand side per point: the route
    the kernel and its profiles are checked against, sharing only the
    Laplacian assembly.  The ground is the node of largest conductance sum:
    grounded far from its shortest edges, the solve loses up to 2e-9 of r
    on lengths that span 1e7."""
    n = len(graph.vertices)
    cuts = {}  # (edge id, offset) -> node index of an interior point

    def node(p):
        v = graph.vertex_of(p)
        if v is not None:
            return graph.vertex_index(v)
        return cuts.setdefault((p.edge, p.offset), n + len(cuts))

    iy = node(y)
    cols = [node(p) for p in points]
    chains = {}
    for (eid, t), i in cuts.items():
        chains.setdefault(eid, []).append((t, i))
    segments = []
    for e in graph.edges:
        chain = [(0.0, graph.vertex_index(e.u)), *sorted(chains.get(e.id, [])),
                 (e.length, graph.vertex_index(e.v))]
        segments += [(i, j, t1 - t0) for (t0, i), (t1, j) in zip(chain, chain[1:])]
    k = np.arange(len(cols))
    B = np.zeros((n + len(cuts), len(cols)))
    B[cols, k] += 1.0
    B[iy] -= 1.0
    Q = _laplacian(len(B), segments)
    V = solve_grounded(Q, B, int(np.argmax(np.diag(Q))))
    return V[cols, k] - V[iy]


def effective_resistance(graph, x, y):
    """Two-terminal resistance r(x, y), read from the resistance kernel."""
    if graph.same_point(x, y):
        return 0.0
    return max(resistance_kernel(graph).point_eval(x, y), 0.0)


def j_function(graph, zeta, y, x):
    """The potential j_zeta(x, y): voltage at x when unit current flows from
    y to zeta, grounded at zeta; equal to (r(x, zeta) + r(y, zeta) - r(x, y))
    / 2.  Nonnegative, zero when x or y hits zeta; a negative value beyond
    rounding, relative to the largest of the three resistances, raises."""
    rs = (effective_resistance(graph, x, zeta), effective_resistance(graph, y, zeta),
          effective_resistance(graph, x, y))
    val = 0.5 * (rs[0] + rs[1] - rs[2])
    if val < -_J_TOL * max(rs):
        raise NumericError(f"negative j-function value {val:g}")
    return max(val, 0.0)


def removed_edge_resistance(graph, edge_id):
    """Resistance between the endpoints of e in the graph minus e.

    Returns math.inf when e is a bridge.
    """
    return resistance_kernel(graph).removed(edge_id)


class EdgeTable(Mapping):
    """Per-edge piecewise polynomials in array form, one row per edge.

    On edge k the function is coeffs[k] (ascending in the edge offset x)
    plus jump * (x - a) right of each kink (k, a, jump), 0 < a < L; kinks
    holds the three arrays (edge rows, offsets a, jumps).  A resistance
    potential has this form, each interior atom adding one |x - a| kink.
    Read as a mapping, it gives each edge's PiecewisePoly, built on first
    access.
    """

    def __init__(self, kernel, coeffs, kinks):
        self.kernel = kernel
        self.coeffs = coeffs
        self.kinks = kinks
        self._polys = {}

    def __iter__(self):
        return iter(self.kernel._row)

    def __len__(self):
        return len(self.kernel._row)

    def __getitem__(self, edge_id):
        if edge_id not in self._polys:
            k = self.kernel._row[edge_id]
            rows, at, jumps = self.kinks
            sel = rows == k
            cuts, group = np.unique(at[sel], return_inverse=True)
            pieces = [self.coeffs[k]]
            for i, a in enumerate(cuts):
                piece = pieces[-1].copy()
                piece[:2] += jumps[sel][group == i].sum() * np.array([-a, 1.0])
                pieces.append(piece)
            breaks = np.concatenate([[0.0], cuts, [self.kernel._L[k]]])
            self._polys[edge_id] = PiecewisePoly(breaks, pieces)
        return self._polys[edge_id]

    def __add__(self, other):
        """Sum with another table or a constant."""
        if not isinstance(other, EdgeTable):
            other = EdgeTable(self.kernel, np.full((len(self), 1), other), _NO_KINKS)
        width = max(self.coeffs.shape[1], other.coeffs.shape[1])
        coeffs = sum(np.pad(t.coeffs, ((0, 0), (0, width - t.coeffs.shape[1])))
                     for t in (self, other))
        kinks = tuple(np.concatenate(pair) for pair in zip(self.kinks, other.kinks))
        return EdgeTable(self.kernel, coeffs, kinks)

    def __mul__(self, scalar):
        rows, at, jumps = self.kinks
        return EdgeTable(self.kernel, self.coeffs * scalar, (rows, at, jumps * scalar))

    __rmul__ = __mul__

    def values_at(self, rows, t):
        """Values at offsets t on the edges of the given rows."""
        K = self.coeffs.shape[1]
        vals = np.einsum("ik,ik->i", self.coeffs[rows], t[:, None] ** np.arange(K))
        kr, ka, kj = self.kinks
        right = (kr == rows[:, None]) & (ka < t[:, None])
        return vals + np.sum(np.where(right, kj * (t[:, None] - ka), 0.0), axis=1)

    def integrals(self):
        """Per-edge integral over [0, L] against dx."""
        L = self.kernel._L
        p = np.arange(1, self.coeffs.shape[1] + 1)
        out = np.einsum("ek,ek->e", self.coeffs, L[:, None] ** p / p)
        rows, at, jumps = self.kinks
        np.add.at(out, rows, 0.5 * jumps * (L[rows] - at) ** 2)
        return out

    def integrate(self, nu):
        """Exact integral against a measure: the atoms' values, the densities
        through the per-edge moments L^(i+j+1) / (i+j+1) of t^i t^j, and per
        kink the closed form of integral over [a, L] of (t - a) t^j dt."""
        rows, at, mass, D = self.kernel._sources(nu.atoms, nu.densities)
        L = self.kernel._L
        i = np.arange(self.coeffs.shape[1])[:, None]
        j = np.arange(D.shape[1])
        p = i + j + 1
        total = mass @ self.values_at(rows, at) + np.einsum(
            "ei,eij,ej->", self.coeffs, L[:, None, None] ** p / p, D)
        kr, a, jumps = self.kinks
        Lk, a, q = L[kr][:, None], a[:, None], j + 1
        tail = (Lk ** (q + 1) - a ** (q + 1)) / (q + 1) - a * (Lk ** q - a ** q) / q
        return total + np.einsum("k,kj,kj->", jumps, tail, D[kr])

    def derivative_energy(self):
        """Integral over the graph of (d/dx f)^2 for a table of degree <= 2.

        An edge whose row p has slope b1 + 2 b2 x gives b1^2 L + 2 b1 b2 L^2
        + (4/3) b2^2 L^3; a kink of jump J at a adds 2 J (p(L) - p(a)) +
        J^2 (L - a), and two kinks on one edge add 2 J J' (L - max(a, a')).
        """
        L = self.kernel._L
        b1, b2 = self.coeffs[:, 1], self.coeffs[:, 2]
        total = np.sum(L * (b1 * b1 + 2.0 * b1 * b2 * L + (4.0 / 3.0) * (b2 * L) ** 2))
        rows, at, jumps = self.kinks
        Lk = L[rows]
        total += np.sum(2.0 * jumps * (Lk - at) * (b1[rows] + b2[rows] * (Lk + at)))
        same = rows[:, None] == rows
        total += np.sum(np.where(same, np.outer(jumps, jumps)
                                 * (Lk[:, None] - np.maximum.outer(at, at)), 0.0))
        return float(np.real(total))


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
    on a bridge.  Per-edge data are arrays with one row per edge in graph
    order: the three nodes (u, midpoint, v), the inverse Vandermonde of
    their offsets (0, L/2, L) and the 3x3 block of R among them.
    """

    def __init__(self, graph):
        self.graph = graph
        n, m = len(graph.vertices), len(graph.edges)
        self._row = {e.id: k for k, e in enumerate(graph.edges)}
        self._L = np.array([e.length for e in graph.edges])
        self._nodes = np.column_stack([
            [graph.vertex_index(e.u) for e in graph.edges],
            n + np.arange(m),
            [graph.vertex_index(e.v) for e in graph.edges],
        ])
        segments = []
        for (iu, im, iv), L in zip(self._nodes.tolist(), self._L.tolist()):
            segments += [(iu, im, L / 2.0), (im, iv, L / 2.0)]
        Q = _laplacian(n + m, segments)
        K = np.zeros_like(Q)
        if len(Q) > 1:
            try:
                K[1:, 1:] = np.linalg.inv(Q[1:, 1:])
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"resistance kernel build failed: {exc}") from None
        d = np.diag(K)
        self._R = d[:, None] + d[None, :] - K - K.T
        self._Rloc = self._R[self._nodes[:, :, None], self._nodes[:, None, :]]
        # inverse Vandermonde of the offsets (0, L/2, L): values -> coefficients
        h = np.array([1.0 / e.length for e in graph.edges])
        self._Sinv = np.stack([
            np.outer(np.ones(m), [1.0, 0.0, 0.0]),
            np.outer(h, [-3.0, 4.0, -1.0]),
            np.outer(h * h, [2.0, -4.0, 2.0]),
        ], axis=1)
        gap = self._L - self._Rloc[:, 0, 2]
        self._inv = np.where(gap > _BRIDGE_TOL * self._L, gap / self._L / self._L, 0.0)
        self.canonical_density = dict(zip(self._row, self._inv.tolist()))
        self._B = {}
        self._validate()

    def removed(self, edge_id):
        """R(e) = L r(u, v) / (L - r(u, v)); math.inf on a bridge."""
        k = self._row[edge_id]
        if self._inv[k] == 0.0:
            return math.inf
        L, r = self._L[k], self._Rloc[k, 0, 2]
        return float(L * r / (L - r))

    def biquad(self, e1, e2):
        key = (e1, e2)
        if key not in self._B:
            i, j = self._row[e1], self._row[e2]
            V = self._R[np.ix_(self._nodes[i], self._nodes[j])]
            self._B[key] = self._Sinv[i] @ V @ self._Sinv[j].T
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

    def _sources(self, atoms, densities):
        """Atoms as arrays (edge rows, offsets, masses) and the densities as
        one zero-padded coefficient matrix, one row per edge."""
        rows = np.array([self._row[p.edge] for p, _ in atoms], dtype=int)
        at = np.array([p.offset for p, _ in atoms], dtype=float)
        coeffs = {self._row[eid]: np.atleast_1d(c) for eid, c in densities.items()}
        mass = np.array([m for _, m in atoms])
        dtype = np.result_type(float, mass, *coeffs.values())
        width = max((c.size for c in coeffs.values()), default=1)
        D = np.zeros((len(self._L), width), dtype)
        for k, c in coeffs.items():
            D[k, :c.size] = c
        return rows, at, mass.astype(dtype), D

    def potential(self, atoms, densities):
        """EdgeTable of x -> integral of r(x, zeta) d nu(zeta).

        nu is atoms [(point, mass)] plus per-edge densities (ascending
        coefficients in the edge offset); masses may be complex.  Off its
        own edge, a source acts only through its moments [integral of t^b
        d nu, b = 0..2], mapped to weights on its edge's three nodes, so the
        off-edge part of every edge is one product with R.  Each edge then
        takes back its own sources and adds their exact same-edge term,
        integral of (|x - t| - (x - t)^2 / (L + R)) d nu(t).
        """
        rows, at, mass, D = self._sources(atoms, densities)
        L, inv = self._L, self._inv
        k = np.arange(D.shape[1])
        p = np.arange(3)[:, None] + k + 1
        dmom = np.einsum("ek,ebk->eb", D, L[:, None, None] ** p / p)
        mom = dmom.copy()
        np.add.at(mom, rows, mass[:, None] * at[:, None] ** np.arange(3))
        W = np.einsum("eab,ea->eb", self._Sinv, mom)
        w = np.zeros(len(self._R), W.dtype)
        np.add.at(w, self._nodes, W)
        vals = (self._R @ w)[self._nodes] - np.einsum("eab,eb->ea", self._Rloc, W)
        T = np.zeros((len(L), max(3, D.shape[1] + 2)), W.dtype)
        T[:, :3] = np.einsum("eab,eb->ea", self._Sinv, vals)
        # densities: 2 G(x) + m1 - m0 x - inv (m2 - 2 m1 x + m0 x^2), G'' = g
        m0, m1, m2 = dmom.T
        T[:, 2:D.shape[1] + 2] += 2.0 * D / ((k + 1) * (k + 2))
        T[:, :3] += np.column_stack([m1 - inv * m2, 2.0 * inv * m1 - m0, -inv * m0])
        # atoms: |x - a| = s (x - a) left of a (s = 1 when a = 0, else -1),
        # with a kink of jump 2 mass at an interior a
        s = np.where(at == 0.0, 1.0, -1.0)
        ia = inv[rows]
        np.add.at(T[:, :3], rows, mass[:, None] * np.column_stack(
            [-s * at - ia * at * at, s + 2.0 * ia * at, -ia]))
        inner = (at > 0.0) & (at < L[rows])
        return EdgeTable(self, T, (rows[inner], at[inner], 2.0 * mass[inner]))

    def profile_polys(self, y):
        """EdgeTable of x -> r(x, y)."""
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
            direct = _solved_resistances(g, q, [p])[0]
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
        return self.polys.derivative_energy()

    def _validate(self):
        """Every edge against one solve on the graph subdivided at y and at
        one point per edge."""
        edges = self.graph.edges
        points = [self.graph.point(e.id, 0.3183098861 * e.length) for e in edges]
        direct = _solved_resistances(self.graph, self.y, points)
        offsets = np.array([p.offset for p in points])
        fitted = self.polys.values_at(np.arange(len(edges)), offsets)
        for e, d, f in zip(edges, direct, np.real(fitted)):
            if not abs(d - f) <= _PROFILE_CHECK_TOL * max(1.0, abs(d)):
                raise NumericError(
                    f"resistance profile mismatch on edge {e.id}: "
                    f"{f:.3e} vs solver {d:.3e}"
                )


def resistance_profile(graph, y):
    return ResistanceProfile(graph, y)
