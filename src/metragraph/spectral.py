"""Eigenvalue problem for the Laplacian with a fixed reference measure.

At frequency gamma, every solution of the edge-wise eigen-equation
f'' + gamma^2 f = gamma^2 C g (g the measure's polynomial edge density, C
the Lebesgue integral of f over the whole graph) has the form
A cos(gamma t) + B sin(gamma t) + C h(t), with h a polynomial particular
solution.  Continuity at each vertex, one derivative-balance condition per
vertex, and the vanishing of the integral of f against the measure yield a
square homogeneous system M(gamma) of size 2m+1; eigenvalues are
lambda = gamma^2 exactly where M(gamma) is singular, with multiplicity the
nullspace dimension.  The scan works on a smaller matrix of the same
problem: the exact eigenvalue count (EigenvalueCount) is the inertia of one
symmetric bordered matrix B(gamma) of size n + 1 on whole edges (n + m + 1,
with every edge cut at GOLDEN_CUT, near a Dirichlet pole of an edge), which
is singular exactly where M is.  The scan brackets each root with the
count, refines it by a secant iteration on the eigenvalues of the scaled B
that cross zero there, and confirms its multiplicity by as many of them
vanishing, each stage on a stack of gammas per call (_bracket).  B's null
vectors hold the eigenfunctions too: their values at the nodes and their
constant C, from which each edge's A and B follow.  The first
eigenfunctions_at at a scan's root finishes all its roots at once: per
plan one build of B and one stacked eigh for the null vectors and one
array pass for their coefficients, then per multiplicity one Gram moment
call, one stacked eigh and one stacked probe SVD; mercer_partial_sum reads
the functions of one working graph in one array pass.  M serves only
assemble_characteristic_matrix, characteristic_det and
SpectralProblem.nullspace, at one gamma, written from the incidences.
The edge integrals at a given gamma come from two moment kernels, each in
closed form by parts where omega*L is large and a power series below:
_poly_moments, built once per count plan, gives the moments of its polynomial
pieces (densities, overlaps) at every read of B, and _exp_moments, called once
for all edges, M's density moments and the Gram matrices (_pair_form).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph_core import ValidationError, subdivide_at, total_length
from .measure import integrate_polys_against, remap_measure
from .numerics import (
    DEFAULT_RANK_TOL,
    DEFAULT_ROOT_TOL,
    NumericError,
    equilibrate_rows,
    golden_min,  # noqa: F401  (perfbench/tracing.py wraps spectral.golden_min)
    integrate_rows,
    nullspace_basis,
    polyder_rows,
    polymul_rows,
    polyval_rows,
    shift_polys,
)

DEFAULT_GAMMA_FLOOR = 1e-6  # in units of 1 / total length
# the count's entries 1 / sin(gamma L) overflow near gamma L = 5.6e-309 (and
# a node's sum of them sooner): a floor below MIN_GAMMA_L over the shortest
# golden piece is refused
MIN_GAMMA_L = 1e-300
GOLDEN_CUT = (math.sqrt(5.0) - 1.0) / 2.0
# the count cuts the edges at GOLDEN_CUT only at a gamma where some edge has
# x = gamma L / pi within POLE_REL x of its Dirichlet pole round(x) >= 1;
# whole edges miscount as far as 3e-9 relative from a pole that carries a
# root, and agree with the cut edges from 1e-8 (about sqrt(eps)) out
POLE_REL = 1e-6
SECANT_MAX_ITER = 100
# eigenfunctions_at reads B's null vectors at gamma on the golden plan where
# an edge pole lies within NULL_REL of gamma, so that B_e, which divides by
# sin(gamma L_e) on whole edges, loses at most about 1e-12 relative; and it
# takes D from B at gamma (1 + NULL_REL), as a D taken at a root inflates a
# row of B that vanishes there (the circle at gamma ell = 4 pi).  With D from
# 1.5e-8 to 1e-3 out, every built-in root and the roots beside atoms of 1e9
# show their multiplicity; from 1.6e-2 out some do not
NULL_REL = 1e-4
_EPS = np.finfo(float).eps
# per find_eigenvalues call, counted before any bisection: a root of B(gamma)
# of size s = n + 1 costs s^3 + 230 s^2 + 8e4 units, 1.3 to 3.5 ns each on a
# 2-core x86 host (the interval, and random cubic graphs with m = 30 to 300)
MAX_SCAN_WORK = 4e9  # about 10 s
# a stack of gammas (reads of B, Gram matrices) takes at most MAX_BATCH,
# fewer when its matrices or moment tables would exceed MAX_STACK_ENTRIES
# entries, so memory stays flat (_batched)
MAX_BATCH = 64
MAX_STACK_ENTRIES = 1 << 18
# _poly_moments' crossover in x = gamma L and series length.  Of S = sum_k |Q_k|
# L^(k+1), the series loses cosh(x) eps to cancellation and the closed form (m-th
# term Q^(m)(L) / gamma^(m+1)) max_m d! / ((d - m)! x^(m+1)) eps at degree d: equal
# at x = 2 for d = 5 (overlaps of quadratic densities) and 2.65 for d = 7, so at 2.5
# both lose at most 11 eps through d = 7.  The tail 2.5^J / J! is under 1e-4 eps at 30
_CROSSOVER, _TERMS = 2.5, 30


@functools.lru_cache(maxsize=None)
def _series_table(count):
    """C[j, k] = i^j / (k + j + 1) for k = 0..count and every j that a series
    row can need: such a row has x = omega*L < count + 1 (it needs some
    k > floor(x - 1)), so j stays below 40 + ceil(7.5 (count + 1))."""
    j = np.arange(40 + math.ceil(7.5 * (count + 1)))[:, None]
    table = np.array([1, 1j, -1, -1j])[j % 4] * (1.0 / (j + np.arange(count + 1) + 1.0))
    table.flags.writeable = False
    return table


def _exp_moments(omega, lengths, count):
    """I[..., k] = integral of t^k exp(i omega t) over [0, L], k = 0..count,
    for omega broadcast against lengths (a scalar counts as one row) at once.

    The closed form from integration by parts cancels catastrophically when
    omega*L is small relative to k, so each (row, k) picks between it and a
    power series in (i omega); the crossover omega*L >= k+1 keeps the
    upward recursion's error amplification factor k/(omega*L) below 1.  The
    series is I_k = L^(k+1) sum_j P[j] C[j, k]: a real power table
    P[j] = x^j / j! per row (x = omega*L) times _series_table's C, taken as a
    stacked (1 x J) @ (J x count+1) product per row, which, unlike one gemm
    over all rows, gives each row the same bits whatever else is in the batch.
    """
    omega, L = np.broadcast_arrays(np.atleast_1d(omega), lengths)
    shape, omega, L = omega.shape + (count + 1,), omega.ravel(), L.ravel()
    if np.any(omega < 0):
        raise ValueError("omega must be nonnegative")
    x = omega * L
    closed = np.arange(count + 1) <= np.floor(x - 1.0)[:, None]
    out = np.empty(closed.shape, dtype=complex)
    rows = np.flatnonzero(closed[:, 0])
    if rows.size:
        E = np.cos(x[rows]) + 1j * np.sin(x[rows])
        iw, Lr = 1j * omega[rows], L[rows]
        Ik, Lk = [(E - 1.0) / iw], Lr
        for k in range(1, count + 1):
            Ik.append((Lk * E - k * Ik[-1]) / iw)
            Lk = Lk * Lr
        out[rows] = np.stack(Ik, axis=1)
    rows = np.flatnonzero(~closed[:, -1])
    if rows.size:
        # past j = e^2 x + 40 the terms are below e^-40 of the first; each
        # row's terms past its own bound are exact zeros
        xs = x[rows, None]
        j = np.arange(40.0 + math.ceil(7.5 * xs.max()))
        P = np.zeros((rows.size, j.size), dtype=complex)  # built in place, as matmul takes it
        P.real[:, 0], tail = 1.0, P.real[:, 1:]
        np.multiply.accumulate(np.multiply(xs, 1.0 / j[1:], out=tail), axis=1, out=tail)
        tail *= j[1:] < 40.0 + np.ceil(7.5 * xs)
        series = (P[:, None, :] @ _series_table(count)[:j.size])[:, 0]
        series *= L[rows, None] ** np.arange(1.0, count + 2.0)
        out[rows] = np.where(closed[rows], out[rows], series)
    return out.reshape(shape)


def _poly_moments(Q, L):
    """The function F(gs)[b, r] = integral over [0, L_r] of Q_r(t) exp(i gs[b] t) dt,
    for fixed rows Q (ascending) and lengths L.  Where x = gamma L_r < _CROSSOVER, the
    series sum_j (gamma ell)^j c_rj, c_rj = (L_r / ell)^j / j! sum_k Q_rk L_r^(k+1) i^j
    / (k + j + 1), one stacked (1 x J) @ (J x 2R) product per band of rows within 1e4
    of its scale ell; elsewhere by parts in real arithmetic, -z sum_m z^m (Q_r^(m)(L_r)
    e^(i x) - Q_r^(m)(0)), z = i / gamma.  A gamma takes the same bits in any stack."""
    K, j, ell = Q.shape[1], np.arange(_TERMS), L.min() * 1e4 ** np.floor(np.log10(L / L.min()) / 4)
    fact = np.cumprod(np.maximum(np.arange(max(K, _TERMS)), 1.0))  # 0!, 1!, 2!, ...
    coef = (Q * L[:, None] ** np.arange(K)) @ _series_table(K - 1)[:_TERMS].T
    coef = coef * L[:, None] * (L / ell)[:, None] ** j / fact[:_TERMS]
    bands = [(e, ell == e, coef[ell == e].T.copy().view(float)) for e in np.unique(ell)]
    ends = np.stack((shift_polys(Q, L), Q), axis=2) * fact[:K, None]  # Q^(m)(L), Q^(m)(0)
    def moments(gs):
        x = gs[:, None] * L
        closed, out = x >= _CROSSOVER, np.empty(x.shape, dtype=complex)
        for e, rows, c in bands:  # in a band, (L / ell)^j and (gamma L)^j / j! stay finite
            b = np.flatnonzero(~closed[:, rows].all(axis=1))[:, None]
            if b.size:
                out[b, rows] = (((gs[b] * e) ** j)[:, None, :] @ c)[:, 0].view(complex)
        b, r = np.nonzero(closed)
        if b.size:  # in real arithmetic, (re, im) of P = sum_m z^m Q^(m) at both ends
            g, re, im = 1.0 / gs[b, None], ends[r, -1], np.zeros((b.size, 2))
            for m in range(K - 2, -1, -1):
                re, im = ends[r, m] - g * im, g * re
            c, s, g = np.cos(x[b, r]), np.sin(x[b, r]), g[:, 0]
            out.real[b, r] = g * (c * im[:, 0] + s * re[:, 0] - im[:, 1])
            out.imag[b, r] = -g * (c * re[:, 0] - s * im[:, 0] - re[:, 1])
        return out
    return moments


def _particular_table(dens):
    """P[e, :, j], the coefficients of s^j in the particular solution
    h_e = sum_j s^j (-1)^j d_e^(2j) (s = 1 / gamma^2) of each density row d_e,
    zero-padded to the width of dens; the sum stops where the repeated
    second derivative of the highest power present vanishes."""
    top = np.nonzero(dens)[1].max(initial=-1)
    table = np.zeros(dens.shape + (top // 2 + 1,))
    term = dens
    for j in range(table.shape[2]):
        term = polyder_rows(polyder_rows(term)) if j else term
        table[:, :term.shape[1], j] = (-1.0) ** j * term
    return table


def _overlap(dens, lengths):
    """Row p: coefficients in y of the integral over [0, y] of d(t) d(t + L - y)
    dt (d = dens[p], L = lengths[p]), from d(t + s) = sum_q s^q d^(q)(t) / q!."""
    out = np.zeros((len(dens), 2 * dens.shape[1]))
    taylor, shift = dens, np.ones((len(dens), 1))  # d^(q) / q!, (L - y)^q
    for q in range(dens.shape[1]):
        prod = polymul_rows(taylor, dens)
        anti = np.pad(prod / np.arange(1, prod.shape[1] + 1), ((0, 0), (1, 0)))
        out += polymul_rows(shift, anti)
        taylor = polyder_rows(taylor) / (q + 1)
        shift = polymul_rows(shift, np.column_stack((lengths, -np.ones_like(lengths))))
    return out


@dataclass
class EdgeBasisSolution:
    """One edge-wise solution at frequency gamma, in array form.

    Row k is the edge with edges[edge id] = k, in the edge order of the
    problem's working graph.  On it the value at local offset t is
    ab[k, 0] cos(gamma t) + ab[k, 1] sin(gamma t) + constant * h_k(t), where
    h (m x K) holds the ascending coefficients of the particular solutions,
    zero-padded, and constant is the Lebesgue integral of the function over
    the graph.  trig and particular are per-edge-id views of ab and h; remaps,
    the PointRemap chain of the problem shared per (graph, measure), lets
    value, derivative and at_point take the caller's (unsplit) points too,
    and value and derivative take an array of edge ids as well as one id.
    """

    gamma: float
    edges: dict
    ab: np.ndarray
    constant: float
    h: np.ndarray
    remaps: tuple = ()

    @property
    def eigenvalue(self):
        return self.gamma * self.gamma

    @property
    def trig(self):
        """Edge id -> (A, B)."""
        return {eid: tuple(self.ab[k].tolist()) for eid, k in self.edges.items()}

    @property
    def particular(self):
        """Edge id -> h_e through its last nonzero coefficient (at least one)."""
        return {eid: self.h[k, :max(np.flatnonzero(self.h[k]), default=0) + 1]
                for eid, k in self.edges.items()}

    def value(self, edge_id, t):
        return _read([self], edge_id, t, False)[0]

    def derivative(self, edge_id, t):
        return _read([self], edge_id, t, True)[0]

    def at_point(self, point):
        return float(self.value(point.edge, point.offset))


def _read(funcs, edge_id, t, derivative):
    """The values (or derivatives) of funcs, EdgeBasisSolutions that share
    edges and remaps, and the width of h, at the points (edge_id, t), one
    leading row per function, in one array pass; the remap chain is walked
    one vectorised step per split, with each remap's own test and
    subtraction.  Each entry takes the arithmetic of a lone function's."""
    ids, t = np.broadcast_arrays(np.array(edge_id, dtype=object), np.asarray(t, dtype=float))
    shape, ids, t = t.shape, ids.flatten(), t.flatten()
    for remap in funcs[0].remaps:
        hit = ids == remap.split_edge
        right = hit & (t > remap.split_offset)
        ids[hit] = remap.child_u
        ids[right] = remap.child_v
        t[right] -= remap.split_offset
    k = np.fromiter(map(funcs[0].edges.__getitem__, ids), dtype=np.intp, count=ids.size)
    ab, h = np.array([f.ab[k] for f in funcs]), np.array([f.h[k] for f in funcs])
    (A, B), g = ab.transpose(2, 0, 1), np.array([[f.gamma] for f in funcs])
    if derivative:  # B g cos - A g sin + C h'
        (A, B), h = (B * g, -A * g), polyder_rows(h)
    constant = np.array([[f.constant] for f in funcs])
    out = A * np.cos(g * t) + B * np.sin(g * t) + constant * polyval_rows(h, t)
    return out.reshape((len(funcs),) + shape)


@dataclass
class Eigenpair:
    eigenvalue: float
    multiplicity: int
    eigenfunctions: tuple = ()


@dataclass
class CharacteristicMatrix:
    """Row-equilibrated homogeneous system at one frequency."""

    gamma: float
    matrix: np.ndarray
    row_tags: tuple


class SpectralProblem:
    """The spectral problem of one (graph, reference measure) pair.

    Interior atoms force subdivisions so that every atom of the working
    measure sits at a vertex; the unknown vector of M(gamma), and every
    coefficient vector, is ordered (A_1, B_1, ..., A_m, B_m, C) following
    the working graph's edge order.  roots keeps the multiplicity of each
    root that find_eigenvalues found, bases the orthonormal coefficient
    vectors that eigenfunctions_at finished there (or the NumericError that
    it raises there), and count the EigenvalueCount.  M is built one gamma
    at a time (_assemble).
    """

    def __init__(self, graph, mu):
        mu.require_reference()
        work, measure, self.remaps = graph, mu, ()
        while True:  # the vertex index of each atom, -1 inside an edge
            rows, at, mass, _ = measure.arrays
            _, L, ends = work.edge_arrays
            vertex = np.where(at == 0.0, ends[rows, 0], np.where(at == L[rows], ends[rows, 1], -1))
            if (vertex >= 0).all():
                break
            work, _, remap = subdivide_at(work, measure.atoms[np.argmin(vertex)][0])
            self.remaps += (remap,)
            measure = remap_measure(measure, work, remap)
        self.graph = work
        self.mu = measure
        self.roots, self.bases = {}, {}
        self.edges = work.edges
        self._row, self._lengths, self._ends = work.edge_arrays
        self.size = 2 * len(self.edges) + 1
        self._atom_mass = {}
        for v, m in zip(map(work.vertices.__getitem__, vertex.tolist()), mass.real.tolist()):
            self._atom_mass[v] = self._atom_mass.get(v, 0.0) + m
        self._dens = self.mu.arrays[3]
        self._ptab = _particular_table(self._dens)
        poly = (self._dens[:, 1:] != 0.0).any(axis=1)
        self._poly, self._d0 = np.flatnonzero(poly), np.where(poly, 0.0, self._dens[:, 0])

    @functools.cached_property
    def row_tags(self):
        """The kind and vertex of each row of M, built on first read."""
        tags = []
        for v in self.graph.vertices:
            tags.extend([f"continuity@{v}"] * (len(self.graph.incidences(v)) - 1))
            tags.append(f"derivative@{v}")
        return (*tags, "integral")

    @functools.cached_property
    def count(self):
        """The problem's EigenvalueCount, built on first use."""
        return EigenvalueCount(self)

    def particulars(self, gamma):
        """The particular solutions at gamma, one zero-padded row per edge; at
        a 1-D array of gammas, one such table per gamma, stacked."""
        g = np.asarray(gamma, dtype=float)
        powers = (1.0 / (g * g))[..., None] ** np.arange(self._ptab.shape[2])
        return (self._ptab @ powers[..., None, :, None])[..., 0]

    def matrix(self, gamma):
        """Row-equilibrated M(gamma)."""
        return equilibrate_rows(self._assemble(gamma))[0]

    def nullspace(self, gamma):
        """Nullspace vectors of M(gamma), from a rank decision free of units:
        with M's C column in units of ell (the working graph's total length)
        and each row divided by its largest entry, at DEFAULT_RANK_TOL.  The
        vectors are in M's own unknowns, orthonormal only when ell = 1.  Only
        the integral row can vanish (at double roots of atom-only measures);
        at most DEFAULT_RANK_TOL, it is a zero row and stays unscaled, so its
        rounding noise cannot hide a nullspace dimension."""
        unit = np.append(np.ones(self.size - 1), total_length(self.graph))
        M = self._assemble(gamma) * unit
        scales = np.abs(M).max(axis=1)
        scales[-1] = 1.0 if scales[-1] <= DEFAULT_RANK_TOL else scales[-1]
        return [v * unit for v in nullspace_basis(M / scales[:, None])]

    @functools.cached_property
    def _layout(self):
        """M's entries, the same at every gamma, in the order in which each
        row sums them, rows as row_tags: (flat index row * N + column, index
        m (3 kind + column) + k of edge k's value of kind 0 to 4 in _assemble
        or 15 m for gamma^2, coefficient); the integral row's C entry, which
        can cancel, adds the atoms last, in _atom_mass order.  Then H[:, k, j]:
        h(0), h(L), h'(0), -h'(L) and the integral of h d for each term P_j of
        edge k's particular solution sum_j gamma^(-2j) P_j (_ptab)."""
        N, m, r, first, out = self.size, len(self.edges), 0, {}, []
        def put(k, kind, coef):  # the A, B, C entries of edge k's kind
            out.extend(zip((r * N + 2 * k, r * N + 2 * k + 1, r * N + N - 1),
                           range(3 * kind * m + k, (3 * kind + 3) * m, m), (coef,) * 3))
        for v in self.graph.vertices:  # continuity rows, then the derivative row
            inc = [(self._row[e.id], end) for e, end in self.graph.incidences(v)]
            first[v] = inc[0]
            for k, end in inc[1:]:
                put(k, end, 1.0)
                put(*inc[0], -1.0)
                r += 1
            for k, end in inc:
                put(k, 2 + end, 1.0)
            out.append((r * N + N - 1, 15 * m, -self._atom_mass.get(v, 0.0)))
            r += 1
        for k in np.flatnonzero(self._dens.any(axis=1)):
            put(k, 4, 1.0)
        for v, mass in self._atom_mass.items():
            put(*first[v], mass)
        J = self._ptab.shape[2]  # one row per edge and power j below
        h = self._ptab.transpose(0, 2, 1).reshape(m * J, self._dens.shape[1])
        L, hp = np.repeat(self._lengths, J), polyder_rows(h)
        H = np.array((h[:, 0], polyval_rows(h, L), hp[:, 0], -polyval_rows(hp, L),
                      integrate_rows(0.0, L, polymul_rows(h, np.repeat(self._dens, J, axis=0)))))
        return (*map(np.array, zip(*out)), H.reshape(5, m, J))

    def _assemble(self, gamma):
        """Raw M(gamma), one bincount over _layout's entries.  Per edge: the
        values (1, 0, h(0)), (cos, sin, h(L)) and inward derivatives (0, gamma,
        h'(0)), (gamma sin, -gamma cos, -h'(L)) at the ends, and the moments."""
        if not gamma > 0.0:
            raise ValidationError("gamma must be positive")
        L, dens, g, k, N = self._lengths, self._dens, float(gamma), self._poly, self.size
        flat, value, coef, H = self._layout
        c, s = np.cos(gL := g * L), np.sin(gL)
        # the density's trig moments, a constant one's in closed form (1 - cos, stable)
        cmom, smom = self._d0 * s / g, self._d0 * (2.0 * np.sin(0.5 * gL) ** 2) / g
        if k.size:
            z = np.sum(dens[k] * _exp_moments(g, L[k], dens.shape[1])[:, :-1], axis=-1)
            cmom[k], smom[k] = z.real, z.imag
        h = H @ (1.0 / (g * g)) ** np.arange(H.shape[2])
        zero = np.zeros_like(L)
        values = np.concatenate((zero + 1.0, zero, h[0], c, s, h[1], zero, zero + g, h[2],
                                 g * s, -g * c, h[3], cmom, smom, h[4], [g * g]))
        return np.bincount(flat, coef * values[value], minlength=N * N).reshape(N, N)

    def solution(self, gamma, vec, h=None):
        """EdgeBasisSolution from one coefficient vector (and the table of
        particular solutions at gamma, when at hand)."""
        h = self.particulars(gamma) if h is None else h
        return EdgeBasisSolution(gamma, self._row, np.reshape(vec[:-1], (-1, 2)),
                                 float(vec[-1]), h, self.remaps)

    def coefficients(self, gammas, plan, Y):
        """M's coefficient vectors (A_1, B_1, ..., A_m, B_m, C), one row per
        column of Y, from null vectors of the count's B on plan (whole, or
        golden, whose node n + k cuts edge k), each the column D z in B's
        split basis of B at its own entry of the 1-D array gammas: the values
        phi_0 = y_0 and phi_v = y_0 + y_v at the nodes, C = -c / gamma from
        the border entry c, and on each edge A = phi_u - C h(0) and B by
        least squares over the far end and, on the golden plan, the cut:
        sum_i s_i r_i / sum_i s_i^2, where s_i = sin(gamma t_i) and r_i =
        phi(t_i) - C h(t_i) - A cos(gamma t_i).  Each column takes the
        arithmetic of a lone one."""
        L, (u, v), n = self._lengths, self._ends.T, len(self.graph.vertices)
        phi = Y[:-1] + Y[0]
        phi[0] = Y[0]
        C = -Y[-1] / gammas
        h = self.particulars(gammas)  # (column, edge, power)
        A = phi[u] - h[:, :, 0].T * C
        if plan.nodes > n:
            t, far = L[:, None] * [GOLDEN_CUT, 1.0], np.stack((phi[n:], phi[v]), axis=1)
        else:
            t, far = L[:, None], phi[v][:, None]
        gt = t[..., None] * gammas  # gamma t, gammas last as in far
        ht = polyval_rows(h.reshape(-1, h.shape[2]), np.tile(t, (len(gammas), 1)))
        ht = ht.reshape(len(gammas), *t.shape).transpose(1, 2, 0)
        r = far - ht * C - np.cos(gt) * A[:, None]
        s = np.sin(gt)
        B = np.sum(s * r, axis=1) / np.sum(s * s, axis=1)
        out = np.empty((Y.shape[1], self.size))
        out[:, 0:-1:2], out[:, 1:-1:2], out[:, -1] = A.T, B.T, C
        return out

    def _gram(self, gammas, vecs):
        """L2 Gram matrices of the solutions at each gamma of the 1-D array
        gammas of its k coefficient vectors, vecs (gamma, k, size);
        G[r, i, j] = l2_inner(f_i, f_j) at gammas[r], every pair of every
        gamma from one pair-form call."""
        R, k = vecs.shape[:2]
        ab = vecs[..., :-1].reshape(R, k, 1, -1, 2)
        p = vecs[..., -1, None, None] * self.particulars(gammas)[:, None]
        g = gammas[:, None, None]
        return np.sum(_pair_form(self._lengths, g, ab, p[:, :, None],
                                 g, ab.swapaxes(1, 2), p[:, None]), axis=-1)

    def mu_integral(self, f):
        """Exact integral of an EdgeBasisSolution f of this problem against
        the measure."""
        total = float(np.sum(_pair_form(self._lengths, f.gamma, f.ab, f.constant * f.h,
                                        0.0, 0.0 * f.ab, self._dens)))
        for v, mass in self._atom_mass.items():
            total += mass * f.at_point(self.graph.point_at_vertex(v))
        return total


def _problem(graph, mu):
    """The SpectralProblem of (graph, mu), built once per pair of objects and
    kept in mu's cache (a Measure does not change once built), on a copy of mu
    whose cache is empty, so that no reference cycle waits for the collector."""
    cached = mu._cache.get("spectral")
    if cached is None or cached[0] is not graph:
        work = copy.copy(mu)
        work._cache = {}
        cached = mu._cache["spectral"] = (graph, SpectralProblem(graph, work))
    return cached[1]


def assemble_characteristic_matrix(graph, mu, gamma):
    problem = _problem(graph, mu)
    return CharacteristicMatrix(gamma, problem.matrix(gamma), problem.row_tags)


def characteristic_det(graph, mu, gamma):
    """Determinant of the equilibrated M(gamma); only its zeros carry meaning."""
    return float(np.linalg.det(assemble_characteristic_matrix(graph, mu, gamma).matrix))


def _pair_form(L, g1, ab1, p1, g2, ab2, p2):
    """Per-edge integrals over [0, L] of the products of two edge solutions
    a cos(g t) + b sin(g t) + p(t), from one batched moment call.  ab (..., m,
    2) and p (..., m, n) may carry leading axes, which broadcast, and so may
    g1 and g2, against the leading axes alone: one call then gives the pair
    form of every pair of functions, each pair at its own g1 and g2, with
    the moments at omega = 0 taken once for all of them."""
    n1, n2 = p1.shape[-1], p2.shape[-1]
    g1, g2 = np.asarray(g1, dtype=float)[..., None], np.asarray(g2, dtype=float)[..., None]
    shape = np.broadcast_shapes(g1.shape, g2.shape)
    # each omega row takes the same bits in any batch (_exp_moments)
    pairs = np.stack(np.broadcast_arrays(abs(g1 - g2), g1 + g2, g2, g1)).ravel()
    omegas, which = np.unique(np.append(pairs, 0.0), return_inverse=True)
    moments = _exp_moments(omegas[:, None], L, n1 + n2 - 2)
    I = moments[which[:-1]].reshape(4, *shape[:-1], *moments.shape[1:])
    Cm, Sm = I[0, ..., 0].real, np.copysign(1.0, g1 - g2) * I[0, ..., 0].imag
    Cp, Sp = I[1, ..., 0].real, I[1, ..., 0].imag
    a1, b1, a2, b2 = ab1[..., 0], ab1[..., 1], ab2[..., 0], ab2[..., 1]
    z1 = np.sum(p1 * I[2, ..., :n1], axis=-1)  # p1 against the trig part of f2
    z2 = np.sum(p2 * I[3, ..., :n2], axis=-1)
    pp = moments[which[-1]].real[:, np.arange(n1)[:, None] + np.arange(n2)]
    return (0.5 * (a1 * a2 * (Cm + Cp) + b1 * b2 * (Cm - Cp)
                   + a1 * b2 * (Sp - Sm) + a2 * b1 * (Sp + Sm))
            + a2 * z1.real + b2 * z1.imag + a1 * z2.real + b1 * z2.imag
            + np.einsum("...ei,...ej,eij->...e", p1, p2, pp))


def _row_lengths(graph, f1, f2):
    """Lengths of f1's rows, which f2 shares, on its working or the caller's graph."""
    if f2.edges != f1.edges:
        raise ValidationError("the two functions have different edge rows")
    length = {e.id: e.length for e in graph.edges}
    for r in (r for r in f1.remaps if r.split_edge in length):  # cut as subdivide_at does
        length[r.child_u] = r.split_offset
        length[r.child_v] = length.pop(r.split_edge) - r.split_offset
    return np.array([length.get(eid) or graph.edge(eid).length for eid in f1.edges])


def l2_inner(graph, f1, f2):
    """Exact Lebesgue inner product of two EdgeBasisSolutions."""
    return float(np.sum(_pair_form(_row_lengths(graph, f1, f2),
                                   f1.gamma, f1.ab, f1.constant * f1.h,
                                   f2.gamma, f2.ab, f2.constant * f2.h)))


def eigenfunctions_at(graph, mu, gamma_star):
    """Eigenpair at a verified root: B's null vectors orthonormalized in L2.

    The problem is find_eigenvalues' own for (graph, mu).  The basis at
    gamma is the coefficient vectors (SpectralProblem.coefficients) of the
    null vectors of the count's B there, on the golden plan where an edge
    pole lies within NULL_REL of gamma and otherwise on whole edges, with D
    from B at gamma (1 + NULL_REL) (_CountPlan.null_vectors), so that it
    depends on gamma alone.  The basis is combined through the inverse
    square root of the exact L2 Gram matrix of its solutions, so the
    returned eigenfunctions are orthonormal.  A simple eigenfunction is
    sign-fixed by its largest coefficient; a multiple eigenspace gets the
    one orthonormal basis whose pairing with a fixed generic probe of
    coefficient space is symmetric positive definite, whatever basis the
    eigh returned.  A basis whose dimension is not k, the eigenvalue
    count's rise, raises NumericError, as does a degenerate Gram matrix;
    M is never read.

    At a root that find_eigenvalues returned (sqrt(eigenvalue) is that root
    exactly), k is the root's multiplicity, and the first call finishes
    every root found so far at once (_eigenbases): one stacked eigh of B
    per plan and batch for the null vectors, one array pass per plan for
    their coefficients, and per multiplicity one Gram moment call, one
    stacked eigh and one stacked probe SVD per stack of roots.  The
    problem keeps each root's orthonormal coefficient vectors (or the
    error it raises), so later calls only wrap them.  Any other gamma is
    a stack of one, with k from the count's rise across gamma (1 -+
    DEFAULT_ROOT_TOL), on the golden plan unless a golden piece has a pole
    there (whole edges misread it beside a pole that carries a root), and
    if it does not rise, NumericError.
    """
    problem = _problem(graph, mu)
    if gamma_star in problem.roots:
        if gamma_star not in problem.bases:
            todo = [g for g in problem.roots if g not in problem.bases]
            problem.bases.update(zip(todo, _eigenbases(problem, todo,
                                                       [problem.roots[g] for g in todo])))
        vecs = problem.bases[gamma_star]
    else:
        count, side = problem.count, gamma_star * (1.0 + np.array([-1.0, 1.0]) * DEFAULT_ROOT_TOL)
        plan = count.whole if _near_pole(count.golden.lengths, *side) else count.golden
        below, above = plan(side)
        if above <= below:
            raise NumericError(f"the eigenvalue count does not rise at gamma={gamma_star!r}; "
                               "the candidate root is discarded")
        (vecs,) = _eigenbases(problem, [gamma_star], [above - below])
    return _eigenpair(problem, gamma_star, vecs)


def _eigenpair(problem, gamma, vecs):
    """The Eigenpair at gamma of its orthonormal coefficient vectors, or
    the NumericError that _eigenbases left there, raised afresh."""
    if isinstance(vecs, NumericError):
        raise NumericError(*vecs.args)
    h = problem.particulars(gamma)
    return Eigenpair(gamma * gamma, len(vecs),
                     tuple(problem.solution(gamma, vec, h) for vec in vecs))


def _eigenbases(problem, gammas, ks):
    """The orthonormal coefficient vectors (k x size) at each of gammas,
    whose eigenvalue count rises by the matching entry of ks, or the
    NumericError that eigenfunctions_at raises there.  The null bases come
    from _null_bases; those of each dimension k are orthonormalized in
    stacks (_orthonormal) of at most MAX_BATCH gammas, fewer where their
    moment table, 2 m rows of up to len(_series_table) powers per gamma
    (_pair_form), would exceed MAX_STACK_ENTRIES.  Each gamma takes the
    bits that it takes in a stack of one."""
    out, by_k = {}, {}
    for g, k, basis in zip(gammas, ks, _null_bases(problem, gammas)):
        if len(basis) == k:
            by_k.setdefault(k, []).append((g, basis))
        else:
            out[g] = NumericError(f"the nullspace of B at gamma={g!r} has dimension "
                                  f"{len(basis)}, but the eigenvalue count rises by {k}")
    width = len(_series_table(2 * problem._ptab.shape[1] - 2))
    for group in by_k.values():
        gs, bases = (np.array(z) for z in zip(*group))
        out.update(zip(gs.tolist(), _batched(functools.partial(_orthonormal, problem), gs,
                                             2 * len(problem.edges) * width, bases)))
    return [out[g] for g in gammas]


def _null_bases(problem, gammas):
    """The basis at each of gammas, the coefficient vectors of B's null
    vectors on the golden plan where an edge pole lies within NULL_REL of
    gamma and otherwise on whole edges, from one stacked eigh per plan and
    batch (_CountPlan.null_vectors) and one array pass per plan
    (SpectralProblem.coefficients)."""
    count, by_plan, out = problem.count, {}, {}
    near = _near_pole(count.whole.lengths, np.multiply(gammas, 1.0 - NULL_REL),
                      np.multiply(gammas, 1.0 + NULL_REL))
    for g, golden in zip(gammas, near.tolist()):
        by_plan.setdefault(count.golden if golden else count.whole, []).append(g)
    for plan, gs in by_plan.items():
        Ys = plan.null_vectors(np.array(gs))
        ks = [Y.shape[1] for Y in Ys]
        vecs = problem.coefficients(np.repeat(gs, ks), plan, np.concatenate(Ys, axis=1))
        out.update(zip(gs, np.split(vecs, np.cumsum(ks)[:-1])))
    return [out[g] for g in gammas]


def _orthonormal(problem, gammas, bases):
    """At each gamma of the 1-D array gammas, the orthonormal coefficient
    vectors of the eigenspace that its basis, bases[r] (k x size), spans:
    orthonormal in L2 through the inverse square root of their Gram matrix,
    then sign-fixed (k = 1) or rotated onto the probe; or, where the Gram
    matrix is degenerate, a NumericError.  Every stage is one stacked call,
    and each gamma's vectors are a copy of their own."""
    k = bases.shape[1]
    w, U = np.linalg.eigh(problem._gram(gammas, bases), UPLO="U")
    good = ~(w[:, 0] <= 1e-12 * w[:, -1])
    w, U = w[good], U[good]
    T = U @ (np.eye(k) * w[:, None, :] ** -0.5) @ U.swapaxes(1, 2)  # symmetric G^(-1/2)
    vecs = T @ bases[good]
    if k == 1:
        top = vecs[np.arange(len(vecs)), 0, np.argmax(np.abs(vecs[:, 0]), axis=1)]
        vecs = np.where(top[:, None, None] < 0, -vecs, vecs)
    else:  # rotate by the orthogonal polar factor of the probe pairing, unique
        # as the i j (j - 1) term gives the probe full rank (sin(a_i + b_j): 2)
        i, j = np.arange(problem.size)[:, None], np.arange(k)[None, :]
        probe = np.sin(1.0 + np.sqrt(2.0) * i + np.sqrt(3.0) * j
                       + np.sqrt(5.0) * i * j * (j - 1))
        W, _, Vt = np.linalg.svd(vecs @ probe)
        vecs = (W @ Vt).swapaxes(1, 2) @ vecs
    done = iter(vecs)
    return [next(done).copy() if ok else
            NumericError("degenerate Gram matrix in eigenspace orthonormalization")
            for ok in good.tolist()]


def _energy_series(dens):
    """e[p, n], with E = L^3 sum_n (gamma L)^(2n) e[p, n] the self-energy of
    the piece whose density is dens[p] in s = t / L on [0, 1]: -U_n'' =
    U_(n-1) from U_(-1) = d, U_n(0) = U_n(1) = 0, and e_n the integral of
    d U_n.  Eight terms reach 1e-18 relative where gamma L < 0.1."""
    U, terms = dens, []
    for _ in range(8):
        U = -U / ((np.arange(U.shape[1]) + 1.0) * (np.arange(U.shape[1]) + 2.0))
        U = np.concatenate((np.zeros((len(U), 1)), -U.sum(axis=1, keepdims=True), U), axis=1)
        prod = polymul_rows(dens, U)
        terms.append((prod / np.arange(1.0, prod.shape[1] + 1.0)).sum(axis=1))
    return np.array(terms).T


@functools.cache
def _unit_energy_series():
    """_energy_series of the density 1, read-only."""
    series = _energy_series(np.ones((1, 1)))[0]
    series.flags.writeable = False
    return series


def _equilibrate(B):
    """D of a stack of symmetric B from two sweeps of symmetric row-max
    equilibration, (row max |B|)^(-1/2) and again on D B D; a zero row
    keeps 1."""
    A = np.abs(B)
    top = A.max(axis=2)
    first = 1.0 / np.sqrt(np.where(top > 0.0, top, 1.0))
    A *= first[:, None, :]
    top = A.max(axis=2) * first
    return first / np.sqrt(np.where(top > 0.0, top, 1.0))


def _congruent(B, D):
    """D B D of a stack of B and of diagonals D, written over B."""
    B *= D[:, :, None]
    B *= D[:, None, :]
    return B


class _CountPlan:
    """B(gamma) of EigenvalueCount for one set of pieces: their lengths, end
    nodes (ends[p] = (u, v)) and densities, and the atom mass at each node.
    Called at a 1-D array of gammas, it gives their counts; readings gives
    them with the eigenvalues of the scaled B from which they come, from one
    stacked eigvalsh per batch, and null_vectors B's null vectors, from one
    stacked eigh per batch.

    B is written in the split basis, where node 0's row and column stand for
    the constant vector: the other nodes' rows keep Lambda / gamma and the
    end slopes, node 0's holds the row sums sum_{p at v} tan(gamma L_p / 2)
    and, in the corner, 2 sum_p tan(gamma L_p / 2), and the border's first
    entry is the total mass f^T 1 = sum of the atoms + sum_p (C_p + S_p
    tan(gamma L_p / 2)).  No entry is a difference that cancels.  The
    moments of the polynomial pieces come from one _poly_moments per plan."""

    def __init__(self, lengths, ends, dens, atoms):
        N, m, (u, v) = len(atoms), len(lengths), ends.T
        self.lengths, self.ends, self.dens, self.atoms, self.nodes = lengths, ends, dens, atoms, N
        # B's entries in both triangles, by kind of weight (see matrices): the
        # diagonal and off-diagonal Lambda / gamma and the slopes at u and v
        # on the other nodes, then node 0's row sums, corner (each piece
        # twice) and mass
        at, zero = np.full(m, N), np.zeros(m, dtype=np.intp)
        rows = np.concatenate((u, v, u, v, at, u, at, v, u, zero, v, zero, zero, zero, at, zero))
        cols = np.concatenate((u, v, v, u, u, at, v, at, zero, u, zero, v, zero, zero, zero, at))
        kind = np.repeat([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5], m)
        corner = (np.arange(16 * m) >= 12 * m) & (kind == 4)
        keep = np.where(kind < 4, (rows != 0) & (cols != 0), corner | (rows + cols != 0))
        self.flat = (rows * (N + 1) + cols)[keep]
        self.take = (kind * m + np.tile(np.arange(m), 16))[keep]
        # the atoms, on the border of the split basis
        self.fixed = np.zeros((N + 1, N + 1))
        self.fixed[N, 1:N] = self.fixed[1:N, N] = atoms[1:]
        self.fixed[N, 0] = self.fixed[0, N] = atoms.sum()
        poly = np.any(dens[:, 1:] != 0.0, axis=1)
        self.poly, self.d0 = np.flatnonzero(poly), np.where(poly, 0.0, dens[:, 0])
        # each piece's self-energy where gamma L < 0.1 (_energy_series)
        L = lengths[:, None]
        self.series = self.d0[:, None] ** 2 * _unit_energy_series()
        if self.poly.size:
            k, W = self.poly, dens.shape[1]
            self.series[k] = _energy_series(dens[k] * L[k] ** np.arange(W))
            self.overlap = _overlap(dens[k], lengths[k])
            Q = np.concatenate((np.pad(dens[k], ((0, 0), (0, W))), self.overlap))
            self.moments = _poly_moments(Q, np.tile(lengths[k], 2))  # densities, overlaps
        self.series *= L ** 3

    def split(self, cut):
        """The plan with piece k split at cut times its length, at node N + k:
        piece 2k runs from u to the cut, piece 2k + 1 on to v."""
        m, at = len(self.lengths), cut * self.lengths
        mid = self.nodes + np.arange(m)
        ends = np.column_stack((self.ends[:, 0], mid, mid, self.ends[:, 1])).reshape(2 * m, 2)
        dens = np.stack((self.dens, shift_polys(self.dens, at)), axis=1).reshape(2 * m, -1)
        return _CountPlan(np.column_stack((at, self.lengths - at)).ravel(), ends, dens,
                          np.pad(self.atoms, (0, m)))

    def matrices(self, gs):
        """The split B at each gamma of gs, stacked, and the trig term
        sum_p floor(gamma L_p / pi) of the count at each."""
        g, L, N, B = gs[:, None], self.lengths, self.nodes, len(gs)
        gL = g * L
        sg, cg, half = np.sin(gL), np.cos(gL), 0.5 * gL
        tan = np.tan(half)
        off = 1.0 / sg  # Lambda / gamma
        # a constant density's slopes at both ends: (C - c S / s, S / s)
        # with C = d sin / g and S = C tan(gamma L / 2)
        su = sv = self.d0 * tan / g
        mass = su + sv
        # E = d^2 (2 tan(gamma L / 2) / gamma - L) / gamma^2 for a constant d
        energy = self.d0 ** 2 * L ** 3 / 4.0 * ((tan / half - 1.0) / half / half)
        if self.poly.size:
            # d G_D d by the product-to-sum form of sin(g t<) sin(g (L - t>))
            k, (z, over) = self.poly, np.split(self.moments(gs), 2, axis=1)
            C, S = z.real, z.imag
            su, sv, mass = su.copy(), sv.copy(), mass.copy()
            su[:, k], sv[:, k] = C - cg[:, k] * S * off[:, k], S * off[:, k]
            mass[:, k] = C + S * tan[:, k]
            zz = z * z * (cg[:, k] - 1j * sg[:, k])  # integral of d d cos(g (t + t' - L))
            energy[:, k] = (zz - 2.0 * over).real / np.where(gL[:, k] < 0.1, 1.0, 2 * g * sg[:, k])
        small = gL < 0.1  # where the differences above cancel
        if small.any():
            x2, near = gL * gL, self.series[:, -1]
            for column in self.series.T[-2::-1]:
                near = near * x2 + column
            energy = np.where(small, near, energy)
        weights = np.concatenate((-cg * off, off, su, sv, tan, mass), axis=1)
        bordered = np.bincount((self.flat + (N + 1) ** 2 * np.arange(B)[:, None]).ravel(),
                               weights[:, self.take].ravel(),
                               minlength=B * (N + 1) ** 2).reshape(B, N + 1, N + 1)
        bordered += self.fixed
        bordered[:, N, N] = gs * energy.sum(axis=1)
        return bordered, np.floor(gL / math.pi).sum(axis=1)

    def null_vectors(self, gs):
        """At each gamma of the 1-D array gs, the columns D z of B's null
        vectors: z the eigenvectors of D B D (_congruent) whose eigenvalues
        are at most DEFAULT_RANK_TOL of the largest in size, from one stacked
        eigh a batch at a time (_batched), and D that of B at gamma (1 +
        NULL_REL), B at both gammas from one call of matrices."""
        def batch(gs):
            B = self.matrices(np.concatenate((gs * (1.0 + NULL_REL), gs)))[0]
            scales = _equilibrate(B[:gs.size])
            w, Z = np.linalg.eigh(_congruent(B[gs.size:], scales), UPLO="L")
            w = np.abs(w)
            null = w <= DEFAULT_RANK_TOL * w.max(axis=1, keepdims=True)
            return [D[:, None] * z[:, keep] for D, z, keep in zip(scales, Z, null)]
        return _batched(batch, gs, 2 * (self.nodes + 1) ** 2)

    def readings(self, gs, *scales):
        """(count, plan, w, D, trig) at each gamma of the 1-D array gs, a
        batch at a time (_batched): per batch one build of B (matrices),
        trig its count's trig term, and one stacked eigvalsh of D B D
        (_congruent), w its eigenvalues ascending.  D is the given row of
        scales, or the gamma's own (_equilibrate) where that row is nan or
        no rows are given."""
        def batch(gs, D=None):
            B, trig = self.matrices(gs)
            if D is None:
                D = _equilibrate(B)
            elif (own := np.isnan(D[:, 0])).any():
                D = D.copy()
                D[own] = _equilibrate(B[own])
            w = np.linalg.eigvalsh(_congruent(B, D), UPLO="L")
            # Python ints: near a gamma_max that MAX_SCAN_WORK rejects, the
            # trig term can exceed int64
            pos = (w > 0.0).sum(axis=1).tolist()
            return [(int(t) + n - 1, self, wi, Di, t)
                    for t, n, wi, Di in zip(trig.tolist(), pos, w, D)]
        return _batched(batch, gs, (self.nodes + 1) ** 2, *scales)

    def __call__(self, gs):
        return [r[0] for r in self.readings(gs)]


class EigenvalueCount:
    """N_mu(gamma), the number of eigenvalues below gamma^2 of a
    SpectralProblem with multiplicity.

    The Wittrick-Williams count of the Kirchhoff Laplacian H, zero
    included, is N_K = sum over pieces of floor(gamma L / pi) +
    #pos(Lambda), for any cut of the edges into pieces, Lambda(gamma) the
    Dirichlet-to-Neumann matrix on the pieces' end nodes; the measure enters
    through the sign of w = <mu, (H - gamma^2)^-1 mu>: N_mu = N_K - 1 +
    [w > 0].  A piece with density d, trig moments C, S and s, c = sin,
    cos(gamma L) adds the end slopes (C - c S / s, S / s) of its Dirichlet
    solution to f (which starts from the atoms) and the self-energy of d
    under its Dirichlet Green's function to E, all bounded as gamma -> 0:
    w = E - f^T Lambda^-1 f.  By Haynsworth inertia additivity,
    #pos(Lambda) + [w > 0] = #pos(B) for B = [[Lambda / gamma, f], [f^T,
    gamma E]], congruent to [[Lambda, f], [f^T, E]] and free of units.  B is
    written in the split basis of _CountPlan, a unimodular congruence that
    keeps the inertia: Lambda's near-null constant direction, of size gamma
    ell against entries of size 1 / (gamma L), gets a row of its own,
    written without cancellation, and the border's first entry is mu's
    mass.  The inertia is read from D B D, D from two sweeps of row-max
    equilibration (_equilibrate), so that the eigenvalue which crosses zero
    at a root stays clear of rounding even beside atoms of mass 1e9 or at
    gamma ell = 1e-200.

    Near a piece's Dirichlet pole (gamma L = k pi) the count can be off by
    one: within about 1e-14 relative, where the floor term and sin(gamma L)
    disagree about which side of the pole gamma is, and, at a pole that
    carries a root (as the roots of equilateral graphs, gamma L in pi Z, sit
    on the poles of their edges), as far as 3e-9 out, where the pole entries
    swamp the eigenvalue of B that crosses zero at the root.  So there are
    two plans (_CountPlan) with the one formula: whole, whose pieces are the
    edges, so that B has n + 1 rows, and golden, which splits each edge at
    GOLDEN_CUT (n + m + 1 rows), whose pieces are off the edges' poles.  A
    gamma goes through the golden plan, built on first use, only when some
    edge has x = gamma L / pi within POLE_REL x of a positive integer; every
    other gamma of a stack goes through the whole plan in one stacked
    eigvalsh.  Wherever both plans are exact they give the same count.
    """

    def __init__(self, problem):
        graph = problem.graph
        atoms = np.bincount([graph.vertex_index(v) for v in problem._atom_mass],
                            list(problem._atom_mass.values()), minlength=len(graph.vertices))
        self.whole = _CountPlan(problem._lengths, problem._ends, problem._dens, atoms)

    @functools.cached_property
    def golden(self):
        """The plan with every edge split at GOLDEN_CUT, built on first use."""
        return self.whole.split(GOLDEN_CUT)

    def __call__(self, gamma):
        """N_mu at gamma, an int; at a 1-D array of gammas, the list of them."""
        out = [r[0] for r in self.readings(np.atleast_1d(np.asarray(gamma, dtype=float)))]
        return out if np.ndim(gamma) else out[0]

    def readings(self, gs):
        """The reading (count, plan, w, D, trig) of _CountPlan.readings at each
        gamma of the 1-D array gs, each on the plan that the count takes there:
        one stacked call per plan (_read_at)."""
        return _read_at([(self, g, None) for g in gs.tolist()])


def _batched(fn, gs, entries, *rows):
    """fn, which maps a 1-D array of gammas (and the matching slices of the
    arrays rows, one row per gamma) to a list, over the 1-D array gs, in
    batches of at most MAX_BATCH gammas whose stacks hold at most
    MAX_STACK_ENTRIES entries, entries per gamma (one gamma at least)."""
    if (gs <= 0).any():
        raise ValidationError("gamma must be positive")
    step = max(1, min(MAX_BATCH, MAX_STACK_ENTRIES // entries))
    return [v for i in range(0, gs.size, step)
            for v in fn(gs[i:i + step], *(r[i:i + step] for r in rows))]


def _near_pole(lengths, a, b):
    """Whether a piece of the given lengths has a Dirichlet pole (gamma L =
    k pi, k >= 1) within POLE_REL of [a, b], inside it included; at arrays a
    and b, the array of that at each pair of entries (a[i], b[i])."""
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    first = np.maximum(np.ceil(a * (1.0 - POLE_REL) * lengths / math.pi), 1.0)
    return (np.floor(b * (1.0 + POLE_REL) * lengths / math.pi) >= first).any(axis=-1)


def _crossing(reading, top, k):
    """The k eigenvalues of a reading's w that cross zero in a bracket whose
    count rises by k to top at its right end: below them lie the N - top +
    trig negative ones that do not cross (a pole inside the bracket adds one
    at -inf), N + 1 the size of B."""
    _, plan, w, _, trig = reading
    lo = min(max(plan.nodes - top + int(trig), 0), len(w) - k)
    return w[lo:lo + k]


def _refine_root(a, b, tol):
    """Zero of u(gamma) in [a, b] by a bracketed secant iteration, as a
    generator: it yields the tuple of gammas whose u it needs next, is sent
    their values as a tuple, and returns the root (None unless u goes from
    negative at a to positive at b).

    Secant steps that leave the bracket or fail to halve the step before last
    fall back to bisection.  Once a step is below tol + 8 eps gamma, or a
    proposal lies within 8 eps gamma of the last iterate (a root, where
    bisection only shrinks a one-sided bracket), the next proposal is
    returned inside [a, b], or the last iterate if the proposal is farther
    from it than the last step (u's rounding noise, not its slope, drove it;
    it is nan where the last two values of u are equal).
    """
    ua, ub = yield a, b
    if not ua < 0.0 < ub:
        return None
    x0, u0, x1, u1 = a, ua, b, ub
    steps, converged = [math.inf, math.inf], False
    for _ in range(SECANT_MAX_ITER):
        x = x1 - u1 * (x1 - x0) / (u1 - u0) if u1 != u0 else math.nan
        if converged or abs(x - x1) <= 8.0 * _EPS * x1:
            return min(max(x, a), b) if abs(x - x1) <= steps[-1] else x1
        if not (a < x < b and abs(x - x1) <= 0.5 * steps[-2]):
            x = 0.5 * (a + b)
        (ux,) = yield (x,)
        if ux == 0.0:
            return x
        a, b = (x, b) if ux < 0.0 else (a, x)
        steps.append(abs(x - x1))
        converged = steps[-1] < tol + 8.0 * _EPS * x
        x0, u0, x1, u1 = x1, u1, x, ux
    return x1


def _read_at(asks):
    """The reading at each (plan, gamma, D) of asks, D a row of scales or
    None for the gamma's own, and plan an EigenvalueCount for the plan that
    it takes at gamma, golden where an edge pole lies within POLE_REL of it
    (_near_pole, one call for all of them): one stacked call per plan."""
    counted = [n for n, ask in enumerate(asks) if isinstance(ask[0], EigenvalueCount)]
    if counted:
        asks, count = list(asks), asks[counted[0]][0]
        gs = np.array([asks[n][1] for n in counted])
        for n, near in zip(counted, _near_pole(count.whole.lengths, gs, gs).tolist()):
            asks[n] = (count.golden if near else count.whole, *asks[n][1:])
    by_plan = {}
    for n, ask in enumerate(asks):
        by_plan.setdefault(ask[0], []).append(n)
    out = [None] * len(asks)
    for plan, ns in by_plan.items():
        rows = [asks[n][2] for n in ns]
        scales = () if all(r is None for r in rows) else \
            (np.array([np.full(plan.nodes + 1, np.nan) if r is None else r for r in rows]),)
        for n, r in zip(ns, plan.readings(np.array([asks[n][1] for n in ns]), *scales)):
            out[n] = r
    return out


def _bracket(count, a, ra, b, rb, width, tol):
    """The scan's work on one bracket [a, b] where the count rises by k, ra
    and rb its readings at the ends, as a generator: it yields lists of asks
    (plan, gamma, D) for _read_at, is sent their readings, and returns
    (root, k, children).

    A bracket at most width wide is refined by _refine_root on u, the mean
    of the k eigenvalues of D B D that cross zero in it (_crossing), on one
    plan, whole unless an edge pole lies within POLE_REL of the bracket.  D
    is that of the plan's B at b, so that u is smooth even where Lambda
    vanishes identically (the circle at gamma ell = 2 pi k); u(a), which
    only steers the first secant step, keeps a's own D.  A bracket wider
    than a factor 2, which starts below gamma ell = pi / 8, gives each gamma
    its own D instead: there B's rows scale with gamma, and a fixed D would
    lose a root of 1e-7 / ell to rounding.

    The root stands if the k crossing eigenvalues of B at the last gamma
    read are at most DEFAULT_RANK_TOL of the largest (a close neighbour's
    may be that small too: two simple roots 1e-11 to 1e-7 relative apart
    are two roots), and, for k > 1 where the k straddle zero there, the
    count DEFAULT_ROOT_TOL relative either side of it is that of a and of
    b: so close roots, 1e-10 relative apart beside atoms of 1e9, are not
    taken for one multiple root.  If the root fails at float resolution,
    NumericError.  Any other bracket is split at its midpoint, into the
    children where the count rises."""
    top, k = rb[0], rb[0] - ra[0]
    if b - a <= width:
        plan = count.golden if _near_pole(count.whole.lengths, a, b) else count.whole
        known = {x: r for x, r in ((a, ra), (b, rb)) if r[1] is plan}
        fresh = [x for x in (a, b) if x not in known]
        if fresh:
            known.update(zip(fresh, (yield [(plan, x, None) for x in fresh])))
        scales = None if b > 2.0 * a else known[b][3]
        run = _refine_root(a, b, tol)
        ask = next(run)
        while True:
            need = [x for x in ask if x not in known]
            if need:
                known.update(zip(need, (yield [(plan, x, scales) for x in need])))
            last = known[ask[-1]]
            try:
                ask = run.send(tuple(float(_crossing(known[x], top, k).sum()) / k for x in ask))
            except StopIteration as done:
                root = done.value
                break
        crossing = _crossing(last, top, k)
        if root is not None and np.abs(crossing).max() <= DEFAULT_RANK_TOL * np.abs(last[2]).max():
            if crossing.min() >= 0.0 or crossing.max() <= 0.0:
                return root, k, ()
            side = [root * (1.0 - DEFAULT_ROOT_TOL), root * (1.0 + DEFAULT_ROOT_TOL)]
            if [r[0] for r in (yield [(count, x, None) for x in side])] == [top - k, top]:
                return root, k, ()
        if b - a <= 4.0 * _EPS * b:
            raise NumericError(f"the eigenvalue count rises by {k} in [{a!r}, "
                               f"{b!r}], but no root there has a nullspace that big")
    mid = 0.5 * (a + b)
    rm = (yield [(count, mid, None)])[0]
    if not ra[0] <= rm[0] <= top:
        raise NumericError(f"eigenvalue count not monotone near gamma={mid!r}")
    return None, k, [br for br in ((a, ra, mid, rm), (mid, rm, b, rb)) if br[3][0] > br[1][0]]


def find_eigenvalues(graph, mu, gamma_max, gamma_floor=None):
    """All eigenvalues with gamma in (gamma_floor, gamma_max), ascending.

    [gamma_floor, gamma_max] is bisected on the exact count N_mu(gamma)
    (EigenvalueCount) until each bracket where it rises is at most
    pi / (8 * total length) wide, and the root in it is refined by a
    bracketed secant iteration on the count's own matrix: the mean of the
    k eigenvalues of the scaled B that cross zero there, k the count's jump
    (_bracket).  The multiplicity is that jump, and those k eigenvalues of B
    must vanish to DEFAULT_RANK_TOL at the root; otherwise the bracket is
    bisected further, and NumericError is raised at float resolution.  The
    secant's stop
    (DEFAULT_ROOT_TOL / ell, ell the total length) and the floor (gamma_floor,
    which excludes lambda = 0, defaults to DEFAULT_GAMMA_FLOOR / ell) scale
    with ell, and the rank decision has no units, so lambda scales as ell^-2
    at any length scale.  A positive count at the default floor raises
    NumericError, since the scan would drop those eigenvalues; a given
    gamma_floor asks for the window above it, and one below MIN_GAMMA_L
    over the shortest golden piece raises ValidationError.  More roots than fit in
    MAX_SCAN_WORK raise ValidationError before any bisection.
    Returns Eigenpairs with empty eigenfunction tuples; the problem, its
    count and each root's multiplicity are kept per (graph, mu) (_problem),
    for eigenfunctions_at, which reads B's null vectors there.  No stage
    reads M.

    The brackets are worked in lockstep: at each step, every bracket's
    pending reads of B, counts at midpoints, secant steps and root checks
    alike, go into one stacked call per plan, split as _batched says.  The
    brackets, iterates and roots are those of a depth-first walk, but when
    several brackets fail, the NumericError raised is the first to fail in
    that lockstep, which need not be the one a depth-first walk meets first.
    """
    problem = _problem(graph, mu)
    ell = total_length(problem.graph)
    default_floor = gamma_floor is None
    if default_floor:
        gamma_floor = DEFAULT_GAMMA_FLOOR / ell
    if not gamma_max > gamma_floor:
        raise ValidationError("gamma_max must exceed gamma_floor")
    if not (math.isfinite(gamma_max) and math.isfinite(gamma_floor)):
        raise ValidationError("gamma_max and gamma_floor must be finite")
    count = problem.count
    shortest = min(GOLDEN_CUT, 1.0 - GOLDEN_CUT) * float(count.whole.lengths.min())
    smallest = MIN_GAMMA_L / shortest
    if gamma_floor < smallest:
        raise ValidationError(f"gamma_floor must be at least {smallest!r}, where the "
                              "eigenvalue count's entries stay finite")
    bottom, top = count.readings(np.array([gamma_floor, gamma_max]))
    na, nb = bottom[0], top[0]
    if default_floor and na > 0:
        raise NumericError(f"the eigenvalue count is already {na} at the default "
                           f"gamma_floor={gamma_floor!r}; the scan would drop them")
    size = count.whole.nodes + 1
    per_root = size ** 3 + 230 * size ** 2 + 80_000
    if (nb - na) * per_root > MAX_SCAN_WORK:
        raise ValidationError(f"{float(nb - na):.6g} eigenvalues lie below gamma_max="
                              f"{gamma_max!r}, more than the {int(MAX_SCAN_WORK // per_root)} "
                              f"one call finds at matrix size {size}")
    width, tol, out = math.pi / (8.0 * ell), DEFAULT_ROOT_TOL / ell, []
    runs = [_bracket(count, gamma_floor, bottom, gamma_max, top, width, tol)] if nb > na else []
    asks = [next(run) for run in runs]
    while runs:
        got = iter(_read_at([ask for batch in asks for ask in batch]))
        active = []
        for run, batch in zip(runs, asks):
            try:
                active.append((run, run.send([next(got) for _ in batch])))
            except StopIteration as done:
                root, k, children = done.value
                if root is not None:
                    problem.roots[root] = k
                    out.append(Eigenpair(root * root, k))
                for child in children:
                    run = _bracket(count, *child, width, tol)
                    active.append((run, next(run)))
        runs, asks = [run for run, _ in active], [batch for _, batch in active]
    return sorted(out, key=lambda pair: pair.eigenvalue)


def mercer_partial_sum(eigenpairs, x, y):
    """Sum over the given eigenpairs of f_n(x) f_n(y) / lambda_n, term by
    term in their order; the functions that share a working graph are read
    at x and y in one array pass (_read).  An eigenpair without its
    eigenfunctions (as find_eigenvalues returns them) raises ValidationError."""
    funcs = []
    for pair in eigenpairs:
        if not pair.eigenfunctions:
            raise ValidationError(f"eigenvalue {pair.eigenvalue!r} carries no eigenfunctions")
        funcs += [(f, pair.eigenvalue) for f in pair.eigenfunctions]
    groups, terms = {}, np.empty(len(funcs))
    for n, (f, _) in enumerate(funcs):
        groups.setdefault((id(f.edges), id(f.remaps), f.h.shape[1]), []).append(n)
    for ns in groups.values():
        vals = _read([funcs[n][0] for n in ns], [x.edge, y.edge], [x.offset, y.offset], False)
        terms[ns] = vals[:, 0] * vals[:, 1] / np.array([funcs[n][1] for n in ns])
    return float(np.cumsum(np.append(0.0, terms))[-1])


def rayleigh_quotient(graph, mu, trial):
    """Dirichlet energy over squared L2 norm of the mean-centered CPA trial.

    The trial is shifted by its integral against the measure (mass 1), which
    leaves the Dirichlet energy unchanged; a trial that is constant after
    centering is rejected.
    """
    mu.require_reference()
    mean = float(np.real(integrate_polys_against(mu, trial.table())))
    _, a, b, fa, fb = trial.segments
    vals = np.concatenate([fa, fb])
    if np.max(np.abs(vals - mean)) <= 1e-12 * max(1.0, np.max(np.abs(vals))):
        raise ValidationError("trial function is constant after mean centering")
    num = trial.dirichlet_energy()
    lebesgue_total = 0.5 * np.sum((b - a) * (fa + fb))
    denom = trial.l2_norm_sq() - 2.0 * mean * lebesgue_total \
        + mean * mean * total_length(graph)
    return num / denom
