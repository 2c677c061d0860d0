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
import math
import weakref
from collections.abc import Mapping

import numpy as np

from .graph_core import ValidationError, total_length
from .numerics import (
    NumericError, PiecewisePoly, integrate_rows, polyder_rows, polymul_rows, polyval_rows,
    real_roots_in_intervals, solve_grounded,
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
    # per resistor, the flat indices of its cells (i, i), (j, j), (i, j) and (j, i)
    cells = np.array([i, j]).T @ [[size + 1, 0, size, 1], [0, size + 1, 1, size]]
    weights = np.multiply.outer(c, [1.0, 1.0, -1.0, -1.0])
    return np.bincount(cells.ravel(), weights.ravel(), size * size).reshape(size, size)


def _solved_resistances(kernel, y, points):
    """[r(p, y) for p in points] from the graph subdivided at y and at every
    p, in one grounded solve with one right-hand side per point: the route
    the kernel and its profiles are checked against, sharing only the
    Laplacian assembly.  The network is the kernel's edge list, each split
    edge replaced in place by its pieces, with a node per interior point
    after the vertices in order of first appearance.  The ground is the node
    of largest conductance sum: grounded far from its shortest edges, the
    solve loses up to 2e-9 of r on lengths that span 1e7."""
    ends, L, n = kernel._ends, kernel._L, len(kernel.graph.vertices)
    cut, nodes = {}, []
    for p in (y, *points):
        k, t = kernel._row[p.edge], p.offset
        if 0.0 < t < L[k]:
            nodes.append(cut.setdefault((k, t), n + len(cut)))
        else:
            nodes.append(kernel._end_list[k][t > 0.0])
    # split the cut edges in place, from the last cut back: the piece from an
    # edge's start to its cut keeps the edge's place and the rest follows it
    # (O(m) per cut, against the O((n + cuts)^3) solve of the network)
    i, j, lo, hi = ends[:, 0].tolist(), ends[:, 1].tolist(), [0.0] * len(L), L.tolist()
    for (k, t), c in sorted(cut.items(), reverse=True):
        i.insert(k + 1, c)
        j.insert(k, c)
        lo.insert(k + 1, t)
        hi.insert(k, t)
    Q = _laplacian(n + len(cut), i, j, np.subtract(hi, lo))
    col = np.arange(len(points))
    B = np.zeros((len(Q), len(points)))
    B[nodes[1:], col] = 1.0
    B[nodes[0]] -= 1.0
    V = solve_grounded(Q, B, int(Q.diagonal().argmax()))
    return V[nodes[1:], col] - V[nodes[0]]


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


class EdgeTable(Mapping):
    """Per-edge piecewise polynomials on a graph in array form, one row per
    edge in graph.edges order: the library's one piecewise-polynomial engine.

    On edge k the function is coeffs[k] (ascending in the edge offset x)
    plus jump * (x - a) right of each kink (k, a, jump), 0 < a < L; kinks
    holds the three arrays (edge rows, offsets a, jumps).  A resistance
    potential has this form, each interior atom adding one |x - a| kink, and
    so do a measure's densities and a CPA function.  Every read, and each
    edge's PiecewisePoly (the table read as a mapping), goes through the
    piece expansion; the arrays are read-only, so it never goes stale.
    """

    def __init__(self, graph, coeffs, kinks=_NO_KINKS):
        self.graph = graph
        self._row, self._L, _ = graph.edge_arrays
        self.coeffs, self.kinks = coeffs, kinks
        for a in (coeffs, *kinks):
            a.setflags(write=False)
        self._expanded = None

    def __iter__(self):
        return iter(self._row)

    def __len__(self):
        return len(self._row)

    def _pieces(self):
        """(rows, lo, hi, C), every piece by row and offset, in O(rows + kinks)
        memory: C[i] is its row's coefficients plus J (x - a) per kink offset a
        left of it (J the jumps summed there), added in offset order."""
        if self._expanded is None:
            C, (kr, ka, J), L = self.coeffs, self.kinks, self._L
            m, K = C.shape
            if not kr.size and K > 1:
                self._expanded = np.arange(m), np.zeros(m), L, C
                return self._expanded
            count = np.bincount(kr, minlength=m) + 1  # pieces per row
            ends = count.cumsum()
            right, levels = ends[kr] - 1, [slice(None)]  # kinks alone on their rows
            if count.max() > 2:  # kinks sharing a row: by offset, repeats merged, by depth
                order = np.lexsort((ka, kr))
                kr, ka, J = kr[order], ka[order], J[order]
                first = np.flatnonzero(np.append(True, (kr[1:] != kr[:-1]) | (ka[1:] != ka[:-1])))
                kr, ka, J = kr[first], ka[first], np.add.reduceat(J, first)
                count = np.bincount(kr, minlength=m) + 1
                ends = count.cumsum()
                right = kr + np.arange(1, len(kr) + 1)
                depth = right - (ends - count)[kr]
                levels = (depth == d for d in range(1, depth.max() + 1))
            lo, hi = np.zeros(ends[-1]), np.empty(ends[-1])
            lo[right], hi[right - 1], hi[ends - 1] = ka, ka, L
            P = np.zeros((ends[-1], max(K, 2)), np.result_type(C, J, float))
            P[:, :K] = C.repeat(count, axis=0)
            # P[right] = P[right - 1] + J (x - a), the kinks of one depth in every row at once
            Ja, p0, p1 = J * ka, P[:, 0], P[:, 1]
            for at in levels:
                r = right[at]
                p0[r], p1[r] = p0[r - 1] - Ja[at], p1[r - 1] + J[at]
            P.setflags(write=False)  # the PiecewisePoly views share it
            self._expanded = np.arange(m).repeat(count), lo, hi, P
        return self._expanded

    def __getitem__(self, edge_id):
        rows, lo, hi, C = self._pieces()
        k = self._row[edge_id]
        i, j = np.searchsorted(rows, [k, k + 1])
        return PiecewisePoly(np.append(lo[i:j], hi[j - 1]), C[i:j])

    def extrema(self):
        """Candidate values for the extremes of the real part: every piece
        at its two ends and at the real roots of its derivative inside it."""
        _, lo, hi, C = self._pieces()
        C = C.real
        piece, x = real_roots_in_intervals(polyder_rows(C), lo, hi)
        return np.concatenate([polyval_rows(C, lo), polyval_rows(C, hi),
                               polyval_rows(C[piece], x)])

    def abs_integrals(self):
        """Per-row integral of |f| over [0, L], each piece split at its real
        zeros and the parts added in offset order: |integral| of each part
        on a real piece, the Gauss rule on a complex one."""
        rows, lo, hi, C = self._pieces()
        piece, x = real_roots_in_intervals(C, lo, hi)
        n = np.arange(len(lo))
        at, owner = np.concatenate([lo, x, hi]), np.concatenate([n, piece, n])
        order = np.lexsort((at, owner))
        at, owner = at[order], owner[order]
        part = np.flatnonzero(owner[1:] == owner[:-1])
        p, a, b = owner[part], at[part], at[part + 1]
        out = np.abs(integrate_rows(a, b, C[p].real))
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
        """Values at offsets t on rows, each point's piece by one sorted search:
        t = 0 reads the row's first piece, t = L its last, a kink the right one.
        Without kinks, the pieces are the rows."""
        prow, lo, _, C = self._pieces()
        if self.kinks[0].size:
            rows = np.searchsorted(prow + 1j * lo, rows + 1j * t, side="right") - 1
        return polyval_rows(C[rows], t)

    def at_points(self, points):
        """Real values at a list of PointOnGraph (values_at)."""
        rows = np.array([self._row[p.edge] for p in points], dtype=int)
        t = np.array([p.offset for p in points], dtype=float)
        return np.real(self.values_at(rows, t))

    def integrals(self):
        """Per-edge integral over [0, L] against dx, summed over the pieces."""
        rows, lo, hi, C = self._pieces()
        starts = np.searchsorted(rows, np.arange(len(self._L)))
        return np.add.reduceat(integrate_rows(lo, hi, C), starts)

    def integrate(self, nu):
        """Exact integral against a measure: atoms' values, pieces x densities."""
        if nu.graph is not self.graph:
            raise ValidationError("measure lives on a different graph than the table")
        rows, at, mass, D = nu.arrays
        prow, lo, hi, C = self._pieces()
        atoms = mass @ self.values_at(rows, at) if len(rows) else 0.0
        D = D[prow] if self.kinks[0].size else D  # without kinks, the pieces are the rows
        return atoms + integrate_rows(lo, hi, polymul_rows(C, D)).sum()

    def derivative_energy(self):
        """Integral over the graph of (d/dx f)^2, piece by piece, any degree."""
        _, lo, hi, C = self._pieces()
        d = polyder_rows(C)
        return float(np.real(integrate_rows(lo, hi, polymul_rows(d, d)).sum()))


class ResistanceKernel:
    """Exact r(x, y) from the vertex resistances and the points' vertex weights.

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

    The kernel refers to its graph weakly and the graph's cache owns it, so
    no cycle keeps them alive: callers keep the graph, not only the kernel.
    """

    def __init__(self, graph):
        self._graph = weakref.ref(graph)
        n = len(graph.vertices)
        self._row, L, ends = self._row, self._L, self._ends = graph.edge_arrays
        self._end_list = ends.tolist()  # for the scalar reads of eval
        Q = _laplacian(n, ends[:, 0], ends[:, 1], L)
        ground = int(Q.diagonal().argmax())
        B = np.eye(n)
        B[ground] -= 1.0
        G = solve_grounded(Q, B, ground)
        self._R = np.add.outer(G.diagonal(), G.diagonal())
        self._R -= G
        self._R -= G.T
        self._r = self._R[ends[:, 0], ends[:, 1]]
        gap = L - self._r
        self._inv = inv = np.where(gap > _BRIDGE_TOL * L, gap / L / L, 0.0)
        self._S = np.multiply.outer(1.0 / L, [[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
        self._S[:, 0, 0] = 1.0
        self._q = np.multiply.outer(inv, [0.0, 0.0, -1.0])
        self._q[:, 1] = inv * L
        self._factors = {}
        self._validate()

    @functools.cached_property
    def canonical_density(self):
        """Edge id -> 1 / (L + R(e)), 0 on a bridge."""
        return dict(zip(self._row, self._inv.tolist()))

    @property
    def graph(self):
        if (graph := self._graph()) is None:
            raise ValidationError("the kernel's graph no longer exists")
        return graph

    def removed(self, edge_id):
        """R(e) = L r(u, v) / (L - r(u, v)); math.inf on a bridge."""
        k = self._row[edge_id]
        if self._inv[k] == 0.0:
            return math.inf
        L, r = self._L[k], self._r[k]
        return float(L * r / (L - r))

    def biquad(self, e1, e2):
        """The 3 x 3 matrix B with r(x, y) = [1, t, t^2] B [1, s, s^2]^T for
        x at offset t on e1 and y at offset s on e2 != e1."""
        i, j = self._row[e1], self._row[e2]
        B = self._S[i].T @ self._R[np.ix_(self._ends[i], self._ends[j])] @ self._S[j]
        B[:, 0] += self._q[i]
        B[0, :] += self._q[j]
        return B

    def eval(self, e1, t1, e2, t2):
        """r at offsets t1 on edge e1 and t2 on edge e2 (broadcasting)."""
        # [()] turns a 0-d input into a numpy scalar, whose arithmetic costs
        # a fraction of a 0-d array's
        t1 = np.asarray(t1, dtype=float)[()]
        t2 = np.asarray(t2, dtype=float)[()]
        if e1 == e2:
            d = t1 - t2
            vals = np.abs(d) - d * d * self._inv[self._row[e1]]
        else:
            if e1 > e2:
                # one order per pair keeps r symmetric to the last bit, so
                # j_zeta(x, y) is exactly 0 when x or y is zeta
                e1, t1, e2, t2 = e2, t2, e1, t1
            i, j = self._row[e1], self._row[e2]
            (ui, vi), (uj, vj), R = self._end_list[i], self._end_list[j], self._R
            a, b, c, d = R.item(ui, uj), R.item(ui, vj), R.item(vi, uj), R.item(vi, vj)
            u, w = t1 / self._L[i], t2 / self._L[j]
            vals = ((1.0 - u) * (a * (1.0 - w) + b * w) + u * (c * (1.0 - w) + d * w)
                    + self._inv[i] * t1 * (self._L[i] - t1)
                    + self._inv[j] * t2 * (self._L[j] - t2))
        return vals if isinstance(vals, np.ndarray) else float(vals)

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
        return EdgeTable(self.graph, *self._potential(*nu.arrays))

    def _potential(self, rows, at, mass, D):
        """(coefficient rows, kinks) of the potential of a measure's arrays."""
        L, K = self._L, D.shape[1]
        if K not in self._factors:  # per density width: edge moments, (k+1)(k+2)
            k = np.arange(K)
            p = np.arange(3)[:, None] + k + 1
            self._factors[K] = L[:, None, None] ** p / p, (k + 1) * (k + 2)
        moments, lift = self._factors[K]
        mom = dmom = np.einsum("ek,ebk->eb", D, moments)
        if len(rows):  # the atoms add onto the density moments one by one
            mom = dmom.copy()
            np.add.at(mom, rows, mass[:, None] * at[:, None] ** np.arange(3))
        W = np.einsum("eab,eb->ea", self._S, mom)
        # the vertex weights summed in edge order, as np.add.at would from
        # zero; the parts of a complex sum add apart
        w = np.bincount(self._ends.ravel(), W.real.ravel(), len(self._R))
        if np.iscomplexobj(W):
            w = w.astype(complex)
            w.imag = np.bincount(self._ends.ravel(), W.imag.ravel(), len(self._R))
        T = np.zeros((len(L), max(3, K + 2)), W.dtype)
        T[:, :3] = np.einsum("eab,ea->eb", self._S, (self._R @ w)[self._ends])
        T[:, :3] += self._q * mom[:, 0].sum()
        T[:, 0] += (self._q * mom).sum()
        T[:, 2:K + 2] += 2.0 * D / lift
        T[:, 1] -= 2.0 * (dmom[:, 0] - dmom[:, 1] / L)
        inner = (at > 0.0) & (at < L[rows])
        if not inner.any():
            return T, _NO_KINKS
        ri, ai, ci = rows[inner], at[inner], mass[inner]
        np.add.at(T[:, 1], ri, -2.0 * ci * (L[ri] - ai) / L[ri])
        return T, (ri, ai, 2.0 * ci)

    def profile_polys(self, y):
        """EdgeTable of x -> r(x, y)."""
        return EdgeTable(self.graph, *self._potential(
            np.array([self._row[y.edge]]), np.array([y.offset]), np.ones(1),
            np.zeros((len(self._L), 1))))

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
        return float(self.polys.at_points([point])[0])

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
