"""Electrical-network theory on a metrized graph.

Edges are resistors with resistance equal to their length (conductance
1/L(e), parallel edges summing).  A point at offset t on e = (u, v) acts on
the rest of the network only through the vertex weights psi = (1 - t/L, t/L)
(Baker-Rumely's circuit picture), so one grounded solve of the n x n vertex
Laplacian gives r everywhere.  The ResistanceKernel built from it is the one
runtime source of resistance: r(x, y), the removed-edge resistances R(e),
the j-functions and the resistance potentials x -> integral of r(x, zeta)
d nu(zeta) all read from it.  The discrete solver (subdivide at the points
of interest, solve the grounded Laplacian system) is only the independent
check that the kernel and its profiles are validated against when they are
built.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping

import numpy as np

from .graph_core import ValidationError, total_length
from .numerics import (
    NumericError, PiecewisePoly, polyval_rows, real_roots_in_intervals, solve_grounded,
)

# the build-time checks bound |kernel - solver| by these times the total length
_KERNEL_CHECK_TOL = 1e-9
_PROFILE_CHECK_TOL = 1e-9
_J_TOL = 1e-9
# An edge is a bridge when L - r(u, v) <= _BRIDGE_TOL * L.  The rounding
# noise there is about 2e-15 L; the smallest gap on a non-bridge edge of the
# built-in and random cubic graphs is about 0.16 L.
_BRIDGE_TOL = 1e-12
_NO_KINKS = (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))


def _laplacian(size, i, j, length):
    """Conductance Laplacian of the resistors (i[k], j[k], length[k]) on
    `size` nodes, each resistor's four entries summed in resistor order.  An
    effectively zero length overflows to an infinite conductance, which the
    grounded solve reports."""
    with np.errstate(over="ignore"):
        c = 1.0 / np.asarray(length, dtype=float)
    i, j = np.asarray(i), np.asarray(j)
    cells = np.column_stack([i * size + i, j * size + j, i * size + j, j * size + i])
    weights = np.column_stack([c, c, -c, -c])
    return np.bincount(cells.ravel(), weights.ravel(), size * size).reshape(size, size)


def _solved_resistances(kernel, y, points):
    """[r(p, y) for p in points] from the graph subdivided at y and at every
    p, in one grounded solve with one right-hand side per point: the route
    the kernel and its profiles are checked against, sharing only the
    Laplacian assembly.  The network is the kernel's edge list, each split
    edge replaced in place by its pieces.  The ground is the node of largest
    conductance sum: grounded far from its shortest edges, the solve loses
    up to 2e-9 of r on lengths that span 1e7."""
    ends, L, n = kernel._ends, kernel._L, len(kernel.graph.vertices)
    k = np.array([kernel._row[p.edge] for p in (y, *points)])
    t = np.array([p.offset for p in (y, *points)])
    inner = (t > 0.0) & (t < L[k])
    keys = list(zip(k[inner].tolist(), t[inner].tolist()))
    cut = dict(zip(dict.fromkeys(keys), itertools.count(n)))
    nodes = ends[k, (t > 0.0).astype(int)]
    nodes[inner] = list(map(cut.__getitem__, keys))
    # the nodes on each edge by offset; a resistor joins each neighbouring pair
    row = np.concatenate([np.arange(len(L)).repeat(2), [r for r, _ in cut]])
    at = np.concatenate([np.column_stack([np.zeros_like(L), L]).ravel(), [a for _, a in cut]])
    node = np.concatenate([ends.ravel(), np.arange(n, n + len(cut))])
    order = np.lexsort((at, row))
    row, at, node = row[order], at[order], node[order]
    link = row[1:] == row[:-1]
    Q = _laplacian(n + len(cut), node[:-1][link], node[1:][link], np.diff(at)[link])
    iy, cols = nodes[0], nodes[1:]
    j = np.arange(len(cols))
    B = np.zeros((len(Q), len(cols)))
    B[cols, j] += 1.0
    B[iy] -= 1.0
    V = solve_grounded(Q, B, int(np.argmax(np.diag(Q))))
    return V[cols, j] - V[iy]


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


@functools.cache
def _gauss_rule():
    """The 24-point Gauss-Legendre rule, computed on first use (it loads LAPACK)."""
    return np.polynomial.legendre.leggauss(24)


def _edge_rows(graph):
    """(edge id -> row, lengths) in graph.edges order, memoized on the graph."""
    if "edge_rows" not in graph._cache:
        graph._cache["edge_rows"] = ({e.id: k for k, e in enumerate(graph.edges)},
                                     np.array([e.length for e in graph.edges]))
    return graph._cache["edge_rows"]


class EdgeTable(Mapping):
    """Per-edge piecewise polynomials on a graph in array form, one row per
    edge in graph.edges order: the library's one piecewise-polynomial engine.

    On edge k the function is coeffs[k] (ascending in the edge offset x)
    plus jump * (x - a) right of each kink (k, a, jump), 0 < a < L; kinks
    holds the three arrays (edge rows, offsets a, jumps).  A resistance
    potential has this form, each interior atom adding one |x - a| kink, and
    so do a measure's densities and a CPA function.  Read as a mapping, it
    gives each edge's PiecewisePoly, sliced from the piece expansion.
    """

    def __init__(self, graph, coeffs, kinks=_NO_KINKS):
        self.graph = graph
        self._row, self._L = _edge_rows(graph)
        self.coeffs = coeffs
        self.kinks = kinks
        self._expanded = None
        self._polys = {}

    def __iter__(self):
        return iter(self._row)

    def __len__(self):
        return len(self._row)

    def _pieces(self):
        """(rows, lo, hi, C), every piece by row and offset: C[i] is its row's
        coefficients plus J (x - a) per kink offset a left of it (J the jumps
        summed there), added in offset order, on [lo[i], hi[i]]."""
        if self._expanded is None:
            key, inv = np.unique(np.column_stack(self.kinks[:2]), axis=0, return_inverse=True)
            J = np.zeros(len(key), np.result_type(self.kinks[2], float))
            np.add.at(J, inv.ravel(), self.kinks[2])
            rows, at, m = key[:, 0].astype(int), key[:, 1], len(self._L)
            count = np.bincount(rows, minlength=m)
            depth = np.arange(1, len(rows) + 1) - np.repeat(np.cumsum(count) - count, count)
            P = np.zeros((m, count.max(initial=0) + 1, max(self.coeffs.shape[1], 2)),
                         np.result_type(self.coeffs, J))
            P[:, 0, :self.coeffs.shape[1]] = self.coeffs
            P[rows, depth, 0], P[rows, depth, 1] = J * -at, J
            ends = np.zeros((m, P.shape[1] + 1))
            ends[rows, depth], ends[np.arange(m), count + 1] = at, self._L
            valid = np.arange(P.shape[1]) <= count[:, None]
            self._expanded = (np.nonzero(valid)[0], ends[:, :-1][valid], ends[:, 1:][valid],
                              np.cumsum(P, axis=1)[valid])
        return self._expanded

    def __getitem__(self, edge_id):
        if edge_id not in self._polys:
            rows, lo, hi, C = self._pieces()
            k = self._row[edge_id]
            i, j = np.searchsorted(rows, [k, k + 1])
            self._polys[edge_id] = PiecewisePoly(np.append(lo[i:j], hi[j - 1]), C[i:j])
        return self._polys[edge_id]

    def __add__(self, other):
        """Sum with another table or a constant."""
        if not isinstance(other, EdgeTable):
            other = EdgeTable(self.graph, np.full((len(self), 1), other))
        width = max(self.coeffs.shape[1], other.coeffs.shape[1])
        coeffs = sum(np.pad(t.coeffs, ((0, 0), (0, width - t.coeffs.shape[1])))
                     for t in (self, other))
        kinks = tuple(np.concatenate(pair) for pair in zip(self.kinks, other.kinks))
        return EdgeTable(self.graph, coeffs, kinks)

    def __mul__(self, scalar):
        rows, at, jumps = self.kinks
        return EdgeTable(self.graph, self.coeffs * scalar, (rows, at, jumps * scalar))

    __rmul__ = __mul__

    def extrema(self):
        """Candidate values for the extremes of the real part: every piece
        at its two ends and at the real roots of its derivative inside it."""
        _, lo, hi, C = self._pieces()
        C = C.real
        piece, x = real_roots_in_intervals(C[:, 1:] * np.arange(1, C.shape[1]), lo, hi)
        return np.concatenate([polyval_rows(C, lo), polyval_rows(C, hi),
                               polyval_rows(C[piece], x)])

    def abs_integrals(self):
        """Per-row integral of |f| over [0, L], each piece split at its real
        zeros and the parts added in offset order: |F(b) - F(a)| for the
        antiderivative F on a real piece, the Gauss rule on a complex one."""
        rows, lo, hi, C = self._pieces()
        piece, x = real_roots_in_intervals(C, lo, hi)
        n = np.arange(len(lo))
        at, owner = np.concatenate([lo, x, hi]), np.concatenate([n, piece, n])
        order = np.lexsort((at, owner))
        at, owner = at[order], owner[order]
        part = np.flatnonzero(owner[1:] == owner[:-1])
        p, a, b = owner[part], at[part], at[part + 1]
        anti = np.column_stack([np.zeros(len(p)), C[p].real / np.arange(1, C.shape[1] + 1)])
        out = np.abs(polyval_rows(anti, b) - polyval_rows(anti, a))
        cplx = np.any(C.imag != 0, axis=1)[p]
        if np.any(cplx):
            x, w = _gauss_rule()
            half, mid = 0.5 * (b - a)[cplx, None], 0.5 * (a + b)[cplx, None]
            y = np.abs(polyval_rows(C[p[cplx]], mid + half * x))
            if not np.all(np.isfinite(y)):
                raise NumericError("piecewise polynomial not finite")
            out[cplx] = np.sum(half * w * y, axis=1)
        return np.bincount(rows[p], out, minlength=len(self._L))

    def values_at(self, rows, t):
        """Values at offsets t on the edges of the given rows."""
        K = self.coeffs.shape[1]
        vals = np.einsum("ik,ik->i", self.coeffs[rows], t[:, None] ** np.arange(K))
        kr, ka, kj = self.kinks
        right = (kr == rows[:, None]) & (ka < t[:, None])
        return vals + np.sum(np.where(right, kj * (t[:, None] - ka), 0.0), axis=1)

    def integrals(self):
        """Per-edge integral over [0, L] against dx."""
        L = self._L
        p = np.arange(1, self.coeffs.shape[1] + 1)
        out = np.einsum("ek,ek->e", self.coeffs, L[:, None] ** p / p)
        rows, at, jumps = self.kinks
        np.add.at(out, rows, 0.5 * jumps * (L[rows] - at) ** 2)
        return out

    def integrate(self, nu):
        """Exact integral against a measure: the atoms' values, the densities
        through the per-edge moments L^(i+j+1) / (i+j+1) of t^i t^j, and per
        kink the closed form of integral over [a, L] of (t - a) t^j dt."""
        if nu.graph is not self.graph:
            raise ValidationError("measure lives on a different graph than the table")
        rows, at, mass, D = nu.arrays
        L = self._L
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
        L = self._L
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

    R is the n x n vertex-resistance matrix, from one grounded solve of the
    vertex Laplacian.  Edge e = (u, v) keeps r(u, v) = R[u, v] and inv =
    (L - r(u, v)) / L^2, which is 1 / (L + R(e)) by the parallel-resistor law
    (R(e) the removed-edge resistance): the canonical density, 0 on a bridge.
    For x at offset t on e and y at offset s on f != e, psi = (1 - t/L, t/L),

        r(x, y) = psi_x^T R psi_y + inv_e t (L_e - t) + inv_f s (L_f - s).

    On one edge the same form less twice the Dirichlet Green's function
    g_D(t, s) = min(t, s) (L - max(t, s)) / L is |s - t| - (s - t)^2 inv.
    Per edge, one row each in graph order: the ends, the 2 x 3 map S from
    the coefficients of a polynomial in t to psi (and from the moments of a
    measure on e to its vertex weights), and q = (0, inv L, -inv), the
    coefficients of inv t (L - t).
    """

    def __init__(self, graph):
        self.graph = graph
        n = len(graph.vertices)
        self._row, self._L = _edge_rows(graph)
        L = self._L
        self._ends = np.array([[graph.vertex_index(e.u), graph.vertex_index(e.v)]
                               for e in graph.edges])
        Q = _laplacian(n, self._ends[:, 0], self._ends[:, 1], L)
        ground = int(np.argmax(np.diag(Q)))
        B = np.eye(n)
        B[ground] -= 1.0
        G = solve_grounded(Q, B, ground)
        d = np.diag(G)
        self._R = d[:, None] + d[None, :] - G - G.T
        self._r = self._R[self._ends[:, 0], self._ends[:, 1]]
        gap = L - self._r
        self._inv = inv = np.where(gap > _BRIDGE_TOL * L, gap / L / L, 0.0)
        self.canonical_density = dict(zip(self._row, inv.tolist()))
        h, zero = 1.0 / L, np.zeros_like(L)
        self._S = np.stack([np.column_stack([np.ones_like(L), -h, zero]),
                            np.column_stack([zero, h, zero])], axis=1)
        self._q = np.column_stack([zero, inv * L, -inv])
        self._B = {}
        self._validate()

    def removed(self, edge_id):
        """R(e) = L r(u, v) / (L - r(u, v)); math.inf on a bridge."""
        k = self._row[edge_id]
        if self._inv[k] == 0.0:
            return math.inf
        L, r = self._L[k], self._r[k]
        return float(L * r / (L - r))

    def biquad(self, e1, e2):
        key = (e1, e2)
        if key not in self._B:
            i, j = self._row[e1], self._row[e2]
            B = self._S[i].T @ self._R[np.ix_(self._ends[i], self._ends[j])] @ self._S[j]
            B[:, 0] += self._q[i]
            B[0, :] += self._q[j]
            self._B[key] = B
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

    def potential(self, nu):
        """EdgeTable of x -> integral of r(x, zeta) d nu(zeta), for a Measure
        nu on this graph (masses may be complex).

        In the cross-edge form a source on edge f acts only through its
        moments m = [integral of t^b d nu, b = 0..2]: vertex weights S_f m, the
        constant q_f . m and its mass, so that form is one product of R with
        the summed weights.  Each edge then subtracts 2 g_D against its own
        sources: 2 G(x) - 2 x (m0 - m1 / L) for a density (G'' = density, G(0)
        = G'(0) = 0); -2 c x (L - a) / L left of an interior atom c at a, with
        a kink of jump 2 c there; nothing for an atom at a vertex.
        """
        if nu.graph is not self.graph:
            raise ValidationError("measure lives on a different graph than the kernel")
        return self._potential(*nu.arrays)

    def _potential(self, rows, at, mass, D):
        L = self._L
        k = np.arange(D.shape[1])
        p = np.arange(3)[:, None] + k + 1
        dmom = np.einsum("ek,ebk->eb", D, L[:, None, None] ** p / p)
        mom = dmom.copy()
        np.add.at(mom, rows, mass[:, None] * at[:, None] ** np.arange(3))
        W = np.einsum("eab,eb->ea", self._S, mom)
        w = np.zeros(len(self._R), W.dtype)
        np.add.at(w, self._ends, W)
        T = np.zeros((len(L), max(3, D.shape[1] + 2)), W.dtype)
        T[:, :3] = np.einsum("eab,ea->eb", self._S, (self._R @ w)[self._ends])
        T[:, :3] += self._q * np.sum(mom[:, 0])
        T[:, 0] += np.sum(self._q * mom)
        T[:, 2:D.shape[1] + 2] += 2.0 * D / ((k + 1) * (k + 2))
        T[:, 1] -= 2.0 * (dmom[:, 0] - dmom[:, 1] / L)
        inner = (at > 0.0) & (at < L[rows])
        ri, ai, ci = rows[inner], at[inner], mass[inner]
        np.add.at(T[:, 1], ri, -2.0 * ci * (L[ri] - ai) / L[ri])
        return EdgeTable(self.graph, T, (ri, ai, 2.0 * ci))

    def profile_polys(self, y):
        """EdgeTable of x -> r(x, y)."""
        return self._potential(np.array([self._row[y.edge]]), np.array([y.offset]),
                               np.ones(1), np.zeros((len(self._L), 1)))

    def _validate(self):
        """r(p, y) for p on the first, middle and last edges and y on the
        first, against one solve of the graph subdivided at them."""
        g, edges = self.graph, self.graph.edges
        y = g.point(edges[0].id, 0.7182818284 * edges[0].length)
        checked = [edges[k] for k in sorted({0, len(edges) // 2, len(edges) - 1})]
        points = [g.point(e.id, 0.3183098861 * e.length) for e in checked]
        direct = _solved_resistances(self, y, points)
        ell = total_length(g)
        for e, p, d in zip(checked, points, direct):
            err = abs(d - self.point_eval(p, y)) / ell
            if not err <= _KERNEL_CHECK_TOL:
                raise NumericError(
                    f"resistance kernel mismatch on ({e.id},{edges[0].id}): "
                    f"|kernel - solver| / total length = {err:.3e}"
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
        direct = _solved_resistances(resistance_kernel(self.graph), self.y, points)
        offsets = np.array([p.offset for p in points])
        fitted = self.polys.values_at(np.arange(len(edges)), offsets)
        ell = total_length(self.graph)
        for e, d, f in zip(edges, direct, np.real(fitted)):
            err = abs(d - f) / ell
            if not err <= _PROFILE_CHECK_TOL:
                raise NumericError(
                    f"resistance profile mismatch on edge {e.id}: "
                    f"|profile - solver| / total length = {err:.3e}"
                )


def resistance_profile(graph, y):
    return ResistanceProfile(graph, y)
